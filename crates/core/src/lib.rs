//! # apex-core — the APEX design-space-exploration framework
//!
//! The paper's primary contribution (Fig. 6): given an application or an
//! application domain, automatically
//!
//! 1. mine frequent computational subgraphs and rank them by
//!    maximal-independent-set size (`apex-mining`),
//! 2. merge them into candidate PE datapaths (`apex-merge`),
//! 3. generate the PE specification, hardware, and rewrite rules
//!    (`apex-pe`, `apex-rewrite`),
//! 4. map, pipeline, place, and route the applications onto the resulting
//!    CGRA (`apex-map`, `apex-pipeline`, `apex-cgra`), and
//! 5. report area, energy, and performance.
//!
//! [`PeVariant`] captures one PE design point; [`specialization_ladder`]
//! reproduces the paper's PE 1 → PE 4 sweep, [`specialized_variant`] the
//! domain PEs (PE IP, PE ML), and [`evaluate_app`] runs the full backend
//! — the one flow [`dse_evaluate_app`] runs under the degradation policy,
//! with no concession allowed — to produce the numbers behind Section 5's
//! tables and figures.
//!
//! # Examples
//!
//! ```no_run
//! use apex_apps::gaussian;
//! use apex_core::{baseline_variant, evaluate_app, EvalOptions};
//! use apex_tech::TechModel;
//!
//! let app = gaussian();
//! let tech = TechModel::default();
//! let baseline = baseline_variant(&[&app]).unwrap();
//! let result = evaluate_app(&baseline, &app, &tech, &EvalOptions::default()).unwrap();
//! println!("{} PEs, {:.0} µm², {:.1} pJ/cycle",
//!     result.pnr.pe_tiles, result.area.total(), result.energy_per_cycle.total());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod dse;
mod evaluate;
mod journal;
mod variant;

pub use apex_fault::{fnv1a, parse_byte_size};
pub use cache::{
    datapath_hash, decode_variant, encode_variant, thread_tenant, variant_cache_key,
    with_thread_tenant, VariantCache,
};
pub use dse::{
    dse_evaluate_app, dse_evaluate_grid, dse_evaluate_suite,
    AppDseOutcome, DseOptions,
};
pub use journal::{
    run_checkpointed, JobReport, JournalRecord, JournalReplay, SweepJob, SweepJobResult,
    SweepJournal, SweepRun, JOURNAL_FORMAT,
};
pub use evaluate::{evaluate_app, post_mapping_estimate, AppEvaluation, EvalOptions};
pub use variant::{
    baseline_variant, most_specialized_variant, ops_used, pe1_variant, required_op_kinds,
    search_cache_key, select_subgraphs,
    specialization_ladder, specialized_variant, variant_is_complete, PeVariant,
    SelectionRank, SubgraphSelection,
};
