//! # apex-tech — technology model
//!
//! The APEX paper weighs datapath mergings, sizes PEs, and reports
//! area/energy/performance using synthesis results from a commercial
//! 16 nm-class flow (Design Compiler) that we do not have. This crate is
//! the documented substitute (DESIGN.md §3): a table of per-primitive
//! area (µm²), energy (pJ/op), and delay (ns) constants, plus interconnect
//! and memory-tile models and the analytic comparator constants used for
//! the FPGA / ASIC / Simba comparisons of Figures 17–18.
//!
//! Absolute values are calibrated so the Fig. 1 baseline PE core lands
//! near the paper's 988.81 µm² (Table 2) with plausible relative op costs;
//! every downstream result only depends on *relative* costs.
//!
//! # Examples
//!
//! ```
//! use apex_tech::TechModel;
//! use apex_ir::OpKind;
//!
//! let tech = TechModel::default();
//! assert!(tech.area(OpKind::Mul) > tech.area(OpKind::Add));
//! assert!(tech.delay(OpKind::Mul) > tech.delay(OpKind::And));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use apex_ir::OpKind;
use serde::{Deserialize, Serialize};

/// Hardware resource class implementing an operation inside a PE.
///
/// Operations in the same class can share one functional unit: an ALU-style
/// PE implements `add` and `sub` with a single adder plus negligible decode
/// logic. The datapath merger exploits exactly this (two nodes "can both be
/// implemented on the same hardware block", Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FuClass {
    /// Add/subtract unit (also absolute value via conditional negate).
    AddSub,
    /// 16×16 multiplier.
    Multiplier,
    /// Barrel shifter (all shift flavours).
    Shifter,
    /// Word-wide bitwise logic.
    Logic,
    /// Comparator (also drives min/max select).
    Comparator,
    /// Word multiplexer.
    WordMux,
    /// Constant register (16-bit, configuration-time loaded).
    ConstReg,
    /// Pipeline register (16-bit).
    PipeReg,
    /// Register file word (used for FIFO pipelining).
    RegFile,
    /// Single-bit logic (LUT, bit gates, bit mux, bit regs/consts).
    BitLogic,
    /// Structural: primary I/O, no silicon cost inside the PE core.
    Structural,
}

impl FuClass {
    /// Whether two operations of this class placed on one shared unit are
    /// distinguished purely by configuration (no second unit needed).
    pub fn shareable(self) -> bool {
        !matches!(self, FuClass::Structural)
    }
}

/// Classifies an operation kind into its functional-unit class.
pub fn fu_class(kind: OpKind) -> FuClass {
    match kind {
        OpKind::Add | OpKind::Sub | OpKind::Abs => FuClass::AddSub,
        OpKind::Mul => FuClass::Multiplier,
        OpKind::Shl | OpKind::Lshr | OpKind::Ashr => FuClass::Shifter,
        OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Not => FuClass::Logic,
        OpKind::Smin
        | OpKind::Smax
        | OpKind::Umin
        | OpKind::Umax
        | OpKind::Eq
        | OpKind::Neq
        | OpKind::Slt
        | OpKind::Sle
        | OpKind::Sgt
        | OpKind::Sge
        | OpKind::Ult
        | OpKind::Ule
        | OpKind::Ugt
        | OpKind::Uge => FuClass::Comparator,
        OpKind::Mux => FuClass::WordMux,
        OpKind::Const => FuClass::ConstReg,
        OpKind::Reg => FuClass::PipeReg,
        OpKind::Fifo => FuClass::RegFile,
        OpKind::Lut
        | OpKind::BitAnd
        | OpKind::BitOr
        | OpKind::BitXor
        | OpKind::BitNot
        | OpKind::BitMux
        | OpKind::BitConst
        | OpKind::BitReg => FuClass::BitLogic,
        OpKind::Input | OpKind::BitInput | OpKind::Output | OpKind::BitOutput => {
            FuClass::Structural
        }
    }
}

/// Interconnect, memory, and tile-level constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FabricCosts {
    /// Switch-box area per tile (5 in + 5 out 16-bit tracks per side), µm².
    pub sb_area: f64,
    /// Energy per word transiting one switch box, pJ.
    pub sb_energy_per_hop: f64,
    /// Switch-box leakage/clock energy per tile per cycle, pJ.
    pub sb_idle_energy: f64,
    /// Connection-box area per 16-bit PE input, µm².
    pub cb_word_area: f64,
    /// Connection-box area per 1-bit PE input, µm².
    pub cb_bit_area: f64,
    /// Energy per word delivered through a connection box, pJ.
    pub cb_energy: f64,
    /// Memory tile area (two 2 KB SRAM banks + address generators), µm².
    pub mem_tile_area: f64,
    /// Energy per memory access (read or write of one word), pJ.
    pub mem_access_energy: f64,
    /// Area of an I/O tile, µm².
    pub io_tile_area: f64,
    /// Area of one pipelining register in a switch-box track, µm².
    pub sb_reg_area: f64,
    /// Energy per value captured by a switch-box pipeline register, pJ.
    pub sb_reg_energy: f64,
    /// PE-core idle/clock-tree energy per active cycle, pJ.
    pub pe_idle_energy: f64,
    /// Configuration storage area per configuration bit, µm².
    pub config_bit_area: f64,
}

/// Analytic comparator constants for Figures 17 and 18.
///
/// The FPGA (Virtex Ultrascale+), HLS ASIC, and Simba numbers in the paper
/// come from physical implementations we cannot re-run; we model them as
/// scalings of the ASIC datapath cost, chosen to sit inside the ranges the
/// paper itself reports (DESIGN.md §3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparatorModel {
    /// FPGA energy per primitive op relative to ASIC.
    pub fpga_energy_factor: f64,
    /// FPGA clock period relative to the CGRA's (runtime scaling).
    pub fpga_runtime_factor: f64,
    /// ASIC energy overhead (wiring/control) multiplier over raw op energy.
    pub asic_overhead_factor: f64,
    /// Simba energy per 16-bit MAC, pJ.
    pub simba_mac_energy: f64,
    /// Simba area per processing element (one 8×8 vector MAC slice), µm².
    pub simba_pe_area: f64,
    /// Simba effective MACs per cycle per PE.
    pub simba_macs_per_cycle: f64,
}

/// The full technology model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechModel {
    /// Name of the modelled process corner.
    pub process: String,
    /// Clock period used for all CGRA evaluation, ns (paper: 1.1 ns).
    pub clock_period_ns: f64,
    /// Fabric/interconnect constants.
    pub fabric: FabricCosts,
    /// Comparator constants.
    pub comparators: ComparatorModel,
}

impl Default for TechModel {
    fn default() -> Self {
        TechModel {
            process: "generic-16nm-class".to_owned(),
            clock_period_ns: 1.1,
            fabric: FabricCosts {
                sb_area: 1450.0,
                sb_energy_per_hop: 0.32,
                sb_idle_energy: 0.018,
                cb_word_area: 230.0,
                cb_bit_area: 36.0,
                cb_energy: 0.11,
                mem_tile_area: 18500.0,
                mem_access_energy: 2.4,
                io_tile_area: 420.0,
                sb_reg_area: 14.0,
                sb_reg_energy: 0.05,
                pe_idle_energy: 0.035,
                config_bit_area: 1.0,
            },
            comparators: ComparatorModel {
                fpga_energy_factor: 290.0,
                fpga_runtime_factor: 3.4,
                asic_overhead_factor: 1.35,
                simba_mac_energy: 0.24,
                simba_pe_area: 9200.0,
                simba_macs_per_cycle: 64.0,
            },
        }
    }
}

impl TechModel {
    /// Standalone functional-unit area for one operation, µm².
    ///
    /// This is the "synthesize the primitive nodes used in the subgraphs
    /// and determine their area" table the merging weights come from
    /// (Section 3.3).
    pub fn area(&self, kind: OpKind) -> f64 {
        match kind {
            OpKind::Mul => 120.0,
            OpKind::Add | OpKind::Sub => 24.0,
            OpKind::Abs => 26.0,
            OpKind::Shl | OpKind::Lshr | OpKind::Ashr => 36.0,
            OpKind::And | OpKind::Or | OpKind::Xor => 6.5,
            OpKind::Not => 3.2,
            OpKind::Smin | OpKind::Smax | OpKind::Umin | OpKind::Umax => 28.0,
            OpKind::Eq
            | OpKind::Neq
            | OpKind::Slt
            | OpKind::Sle
            | OpKind::Sgt
            | OpKind::Sge
            | OpKind::Ult
            | OpKind::Ule
            | OpKind::Ugt
            | OpKind::Uge => 18.0,
            OpKind::Mux => 10.0,
            OpKind::Const => 14.0,
            OpKind::Reg => 12.0,
            OpKind::Fifo => 12.0, // per stage; callers multiply by depth
            OpKind::Lut => 4.0,
            OpKind::BitAnd | OpKind::BitOr | OpKind::BitXor => 0.8,
            OpKind::BitNot => 0.4,
            OpKind::BitMux => 1.0,
            OpKind::BitConst | OpKind::BitReg => 1.6,
            OpKind::Input | OpKind::BitInput | OpKind::Output | OpKind::BitOutput => 0.0,
        }
    }

    /// Dynamic energy for one execution of the operation, pJ.
    pub fn energy(&self, kind: OpKind) -> f64 {
        match kind {
            OpKind::Mul => 1.05,
            OpKind::Add | OpKind::Sub => 0.115,
            OpKind::Abs => 0.125,
            OpKind::Shl | OpKind::Lshr | OpKind::Ashr => 0.145,
            OpKind::And | OpKind::Or | OpKind::Xor => 0.030,
            OpKind::Not => 0.015,
            OpKind::Smin | OpKind::Smax | OpKind::Umin | OpKind::Umax => 0.135,
            OpKind::Eq
            | OpKind::Neq
            | OpKind::Slt
            | OpKind::Sle
            | OpKind::Sgt
            | OpKind::Sge
            | OpKind::Ult
            | OpKind::Ule
            | OpKind::Ugt
            | OpKind::Uge => 0.085,
            OpKind::Mux => 0.022,
            OpKind::Const => 0.004,
            OpKind::Reg | OpKind::Fifo => 0.045,
            OpKind::Lut => 0.006,
            OpKind::BitAnd | OpKind::BitOr | OpKind::BitXor | OpKind::BitNot => 0.002,
            OpKind::BitMux => 0.003,
            OpKind::BitConst | OpKind::BitReg => 0.003,
            OpKind::Input | OpKind::BitInput | OpKind::Output | OpKind::BitOutput => 0.0,
        }
    }

    /// Propagation delay through the operation, ns.
    pub fn delay(&self, kind: OpKind) -> f64 {
        match kind {
            OpKind::Mul => 0.92,
            OpKind::Add | OpKind::Sub => 0.34,
            OpKind::Abs => 0.38,
            OpKind::Shl | OpKind::Lshr | OpKind::Ashr => 0.29,
            OpKind::And | OpKind::Or | OpKind::Xor | OpKind::Not => 0.07,
            OpKind::Smin | OpKind::Smax | OpKind::Umin | OpKind::Umax => 0.37,
            OpKind::Eq
            | OpKind::Neq
            | OpKind::Slt
            | OpKind::Sle
            | OpKind::Sgt
            | OpKind::Sge
            | OpKind::Ult
            | OpKind::Ule
            | OpKind::Ugt
            | OpKind::Uge => 0.31,
            OpKind::Mux => 0.06,
            OpKind::Const => 0.02,
            OpKind::Reg | OpKind::Fifo => 0.06, // clk-to-q + setup
            OpKind::Lut => 0.05,
            OpKind::BitAnd | OpKind::BitOr | OpKind::BitXor | OpKind::BitNot => 0.03,
            OpKind::BitMux => 0.04,
            OpKind::BitConst | OpKind::BitReg => 0.02,
            OpKind::Input | OpKind::BitInput | OpKind::Output | OpKind::BitOutput => 0.0,
        }
    }

    /// Per-op decode/configuration area increment when a shared unit gains
    /// one more selectable operation, µm².
    pub fn decode_area_per_op(&self) -> f64 {
        9.5
    }

    /// Area of one additional configuration-mux leg on a datapath port,
    /// µm². Reusing an existing connection during datapath merging saves
    /// exactly this (the edge-merge weight of Fig. 5d).
    pub fn mux_leg_area(&self, ty: apex_ir::ValueType) -> f64 {
        match ty {
            apex_ir::ValueType::Word => 8.0,
            apex_ir::ValueType::Bit => 0.7,
        }
    }

    /// Fixed control overhead of the hand-designed general-purpose
    /// baseline PE (instruction decode, flag/predicate logic, debug and
    /// clock-gating control). APEX-generated PEs replace all of this with
    /// plain configuration registers and carry no such overhead — the main
    /// reason the paper's "PE 1" (baseline ops only, APEX-generated) is
    /// ~3x smaller than the baseline PE at similar functionality.
    pub fn baseline_control_overhead(&self) -> f64 {
        310.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::ALL_OP_KINDS;

    #[test]
    fn every_kind_has_costs() {
        let t = TechModel::default();
        for &k in ALL_OP_KINDS {
            assert!(t.area(k) >= 0.0, "{k:?} area");
            assert!(t.energy(k) >= 0.0, "{k:?} energy");
            assert!(t.delay(k) >= 0.0, "{k:?} delay");
        }
    }

    #[test]
    fn multiplier_dominates_datapath_costs() {
        let t = TechModel::default();
        for &k in ALL_OP_KINDS {
            if k != OpKind::Mul {
                assert!(t.area(OpKind::Mul) >= t.area(k), "{k:?}");
                assert!(t.energy(OpKind::Mul) >= t.energy(k), "{k:?}");
                assert!(t.delay(OpKind::Mul) >= t.delay(k), "{k:?}");
            }
        }
    }

    #[test]
    fn mul_add_chain_exceeds_target_clock() {
        // The automated PE pipeliner must have work to do on merged
        // mul→add datapaths, exactly as in the paper (Section 4.2).
        let t = TechModel::default();
        assert!(t.delay(OpKind::Mul) + t.delay(OpKind::Add) > t.clock_period_ns);
    }

    #[test]
    fn structural_kinds_are_free() {
        let t = TechModel::default();
        for k in [OpKind::Input, OpKind::Output, OpKind::BitInput, OpKind::BitOutput] {
            assert_eq!(t.area(k), 0.0);
            assert_eq!(t.energy(k), 0.0);
            assert!(!fu_class(k).shareable());
        }
    }

    #[test]
    fn fu_classes_group_alu_ops() {
        assert_eq!(fu_class(OpKind::Add), fu_class(OpKind::Sub));
        assert_eq!(fu_class(OpKind::Smin), fu_class(OpKind::Ugt));
        assert_ne!(fu_class(OpKind::Add), fu_class(OpKind::Mul));
    }
}
