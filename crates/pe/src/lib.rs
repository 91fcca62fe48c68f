//! # apex-pe — processing-element specification and hardware generation
//!
//! Our substitute for PEak + Magma in the APEX flow (paper Section 4.1):
//! a [`PeSpec`] is the single source of truth for a PE, yielding
//!
//! * a functional model (via [`apex_merge::MergedDatapath::evaluate`]),
//! * area / energy / timing estimates ([`pe_area`], [`config_energy`],
//!   [`worst_critical_path`]),
//! * synthesizable Verilog RTL ([`emit_verilog`]), and
//! * the layout of its configuration word ([`for_each_field`]), along which the
//!   RTL is sliced and the bitstream packed ([`pack_config`]) and decoded
//!   ([`unpack_config`]).
//!
//! It also defines the baseline general-purpose PE of Fig. 1
//! ([`baseline_pe`]) that all of Section 5's comparisons are made against,
//! and restricted variants ([`baseline_pe_with_ops`]) corresponding to the
//! paper's "PE 1".
//!
//! # Examples
//!
//! ```
//! use apex_pe::{baseline_pe, emit_verilog};
//! use apex_tech::TechModel;
//!
//! let pe = baseline_pe();
//! let area = pe.area(&TechModel::default()).total();
//! assert!((880.0..1100.0).contains(&area)); // Table 2: 988.81 µm²
//! let rtl = emit_verilog(&pe);
//! assert!(rtl.contains("module pe_base"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod config;
mod cost;
mod pe_spec;
mod report;
mod verilog;

pub use baseline::{
    baseline_op_kinds, baseline_pe, baseline_pe_with_ops, BASELINE_ALU_OPS, BASELINE_CMP_OPS,
};
pub use config::{
    for_each_field, pack_config, pack_config_with, select_width, unpack_config, Field, UnpackError,
};
pub use cost::{
    config_bits, config_critical_path, config_energy, pe_area, structural_critical_path,
    worst_critical_path, PeArea,
};
pub use report::{datasheet, emit_testbench};
pub use pe_spec::{PePipeline, PeSpec};
pub use verilog::emit_verilog;
