//! # apex-rewrite — rewrite-rule synthesis
//!
//! Our substitute for the paper's SMT-based rewrite-rule synthesis
//! (Section 4.1.1, after Daly et al. FMCAD'22): given a PE specification,
//! produce the verified set of [`RewriteRule`]s the application mapper
//! uses for instruction selection.
//!
//! The SMT query `∃x ∀y: P(x, y) = Op(y)` is answered constructively —
//! configurations are built by structural search over the PE's finite
//! configuration space — and every rule is then validated against the IR
//! golden model over a fixed battery of corner and random input vectors
//! ([`verdict`]), our bounded-equivalence substitute for Boolector
//! (DESIGN.md §3); it proves nothing beyond that battery. It never
//! panics: its [`RuleVerdict`] names a counterexample or a defect.
//!
//! # Examples
//!
//! ```
//! use apex_pe::baseline_pe;
//! use apex_rewrite::{standard_ruleset, synthesize_op_rule};
//! use apex_ir::{Graph, Op};
//!
//! let pe = baseline_pe();
//! // the baseline PE can execute an add...
//! assert!(synthesize_op_rule(&pe.datapath, Op::Add, &[]).is_some());
//! // ...and fold a constant multiplicand into a constant register
//! assert!(synthesize_op_rule(&pe.datapath, Op::Mul, &[1]).is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use apex_fault::{ApexError, Stage};
use apex_ir::Graph;
use apex_merge::MergedDatapath;
use std::fmt;

mod rule;
mod synth;

pub use rule::{
    verdict, verify_rule, DefectKind, RewriteRule, RuleDefect, RuleVerdict, VERIFY_TRIALS,
};
pub use synth::{
    config_rules, const_passthrough_rule, lut_rule_for_bit_op, needed_templates,
    rules_from_configs, standard_ruleset, synthesize_op_rule, RuleSet, SynthesisReport,
};

/// Errors raised by the rewrite-rule synthesis stage.
///
/// Synthesis itself is total (missing templates are reported, not fatal),
/// so today the only failure mode is an injected test fault; the type
/// exists so the rewrite stage participates in the workspace-wide
/// [`ApexError`] hierarchy like every other stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteError {
    /// A deterministic fault-injection site fired (tests only).
    Injected(&'static str),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<RewriteError> for ApexError {
    fn from(e: RewriteError) -> Self {
        ApexError::with_source(Stage::Rewrite, e)
    }
}

/// Fallible synthesis entry point used by the resilient DSE driver; same
/// result as [`standard_ruleset`] but carries the stage's fault-injection
/// site.
///
/// # Errors
/// Fails when the `rewrite::start` fault-injection site is armed, or when
/// a synthesis worker panics (see [`standard_ruleset`]).
pub fn try_standard_ruleset(
    dp: &MergedDatapath,
    sources: &[Graph],
    apps: &[&Graph],
) -> Result<(RuleSet, SynthesisReport), ApexError> {
    apex_fault::fail_point!(
        "rewrite::start",
        RewriteError::Injected("rewrite::start").into()
    );
    standard_ruleset(dp, sources, apps)
}
