//! # apex-verify — cross-stage static invariant verifier
//!
//! The LLVM-verifier pattern applied to the APEX pipeline: one checker
//! pass per stage, each returning structured [`Violation`] diagnostics
//! instead of panicking. The passes re-derive every structural claim the
//! downstream flow trusts blindly. Where a stage crate owns the total
//! check of its artifact — [`apex_ir::Graph::defects`],
//! [`apex_merge::MergedDatapath::defects`] and
//! [`apex_cgra::Routing::defects`], the checks behind the flow's
//! `try_validate`, `validate` and `verify_routed` gates — the pass only
//! maps each typed defect to its rule id, location and message, so the
//! flow and `apex verify` run one check:
//!
//! | pass | artifact | claims checked |
//! |---|---|---|
//! | [`verify_graph`] | [`apex_ir::Graph`] | DAG/SSA order, port arity, operand types, dead nodes, unreachable outputs |
//! | [`verify_mined`] | [`apex_mining::MinedSubgraph`] | occurrences are real label/port-consistent embeddings; support counts match |
//! | [`verify_datapath`] | [`apex_merge::MergedDatapath`] | mux selects exhaustive/exclusive, no dangling ports, each stored configuration computes its source (the rule checks below) |
//! | [`verify_ruleset`] | [`apex_rewrite::RewriteRule`] | LHS/RHS interface equality, payload bindings, bounded equivalence |
//! | [`verify_pe`] | [`apex_pe::PeSpec`] | pipeline stage assignment well-formed and monotone |
//! | [`verify_netlist`] / [`verify_placement`] / [`verify_routing`] / [`verify_bitstream`] | map/cgra artifacts | tile-type compatibility, routes matching the connections as simple paths, track capacity, encodable bitstream fields |
//!
//! # Rule catalog
//!
//! Every violation carries a stable rule id (also documented in
//! DESIGN.md §6):
//!
//! * `IR-ARITY`, `IR-SSA`, `IR-TYPE`, `IR-DEAD`, `IR-OUTPUT`
//! * `MINE-REP`, `MINE-OCC-SIZE`, `MINE-OCC-LABEL`, `MINE-OCC-EMBED`,
//!   `MINE-OCC-DUP`, `MINE-SUPPORT`, `MINE-MIS`
//! * `MERGE-STRUCT`, `MERGE-PORT`, `MERGE-MUX`, `MERGE-CONFIG`,
//!   `MERGE-IFACE`, `MERGE-WITNESS`
//! * `RULE-IFACE`, `RULE-PATTERN`, `RULE-CONFIG`, `RULE-BINDING`,
//!   `RULE-EQUIV`
//! * `PE-PIPE-LEN`, `PE-PIPE-RANGE`, `PE-PIPE-ORDER`
//! * `MAP-NETLIST`, `PLACE-LEN`, `PLACE-MISSING`, `PLACE-SPURIOUS`,
//!   `PLACE-CLASS`, `PLACE-CAP`, `ROUTE-NETLIST`, `ROUTE-COUNT`, `ROUTE-CONN`,
//!   `ROUTE-ENDPOINT`, `ROUTE-PATH`, `ROUTE-INC`, `ROUTE-CAP`, `BITS-PE`,
//!   `BITS-PAYLOAD`, `BITS-ROUNDTRIP`, `BITS-SB`, `BITS-TRACK`
//!
//! # Examples
//!
//! ```
//! use apex_ir::{Graph, Op};
//!
//! let mut g = Graph::new("t");
//! let a = g.input();
//! let b = g.input();
//! let s = g.add(Op::Add, &[a, b]);
//! g.add(Op::Mul, &[a, b]); // dead: never consumed
//! g.output(s);
//! let violations = apex_verify::verify_graph(&g);
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, "IR-DEAD");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

mod fabric;
mod ir;
mod merge;
mod mining;
mod pe;
mod rules;

pub use fabric::{verify_bitstream, verify_netlist, verify_placement, verify_routing};
pub use ir::verify_graph;
pub use merge::verify_datapath;
pub use mining::verify_mined;
pub use pe::verify_pe;
pub use rules::verify_ruleset;

/// One invariant violation found by a checker pass.
///
/// Diagnostics are data, not panics: callers decide whether to abort
/// (`debug_assert!` at stage boundaries), report (the `apex verify` CLI),
/// or gate (CI).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which artifact the violation is in (e.g. `graph 'gaussian'`).
    pub artifact: String,
    /// Stable rule id (e.g. `IR-DAG`); see the crate-level catalog.
    pub rule: &'static str,
    /// Where inside the artifact (e.g. `node 5 port 1`).
    pub location: String,
    /// What is wrong.
    pub message: String,
}

impl Violation {
    /// Builds a violation.
    pub fn new(
        rule: &'static str,
        artifact: impl Into<String>,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Violation {
            artifact: artifact.into(),
            rule,
            location: location.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} @ {}: {}",
            self.rule, self.artifact, self.location, self.message
        )
    }
}

/// Renders a violation list as a one-line-per-violation report (the
/// format the `apex verify` CLI prints and the golden tests lock down).
pub fn render(violations: &[Violation]) -> String {
    let mut s = String::new();
    for v in violations {
        s.push_str(&v.to_string());
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_golden_format() {
        let vs = vec![
            Violation::new("IR-SSA", "graph 'g'", "node 3 port 0", "operand n7 not yet defined"),
            Violation::new("ROUTE-CAP", "design 'd'", "link (2,3)->(2,4)", "6 word signals on 5 tracks"),
        ];
        let expect = "[IR-SSA] graph 'g' @ node 3 port 0: operand n7 not yet defined\n\
                      [ROUTE-CAP] design 'd' @ link (2,3)->(2,4): 6 word signals on 5 tracks\n";
        assert_eq!(render(&vs), expect);
    }

    #[test]
    fn empty_report_renders_empty() {
        assert_eq!(render(&[]), "");
    }
}
