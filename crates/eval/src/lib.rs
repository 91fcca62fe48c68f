//! # apex-eval — experiment harness regenerating the paper's evaluation
//!
//! One generator per table and figure of Section 5 (see
//! [`experiments::all_experiments`]), built on the shared, cached PE
//! variants of [`context`] and the analytic FPGA/ASIC/Simba comparators of
//! [`baselines`]. `apex report` prints everything:
//!
//! ```bash
//! cargo run --release --bin apex -- report                # all experiments
//! cargo run --release --bin apex -- report fig11          # one experiment
//! cargo run --release --bin apex -- report --csv fig11    # as CSV
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod context;
pub mod experiments;
pub mod table;

pub use baselines::{asic, fpga, simba, PlatformResult};
pub use context::{
    all_apps, app, baseline, camera_ladder, pe_ip, pe_ip2, pe_ip3, pe_ml, pe_spec, run,
    run_batch, tech,
};
pub use experiments::all_experiments;
pub use table::Table;
