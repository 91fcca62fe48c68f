//! The baseline general-purpose PE of the paper's Fig. 1 (from the AHA
//! agile flow): an ALU with a full integer op set, a multiplier, a
//! comparator with flag output, a 3-input LUT for bit operations, a select
//! (mux) unit, two 16-bit constant registers, and three 1-bit constant
//! registers. All evaluation in Section 5 compares against this PE.

use crate::pe_spec::PeSpec;
use apex_ir::{Op, OpKind};
use apex_merge::{DpNode, DpSource, MergedDatapath};
use std::collections::BTreeSet;

/// Word-typed operations the baseline ALU supports.
pub const BASELINE_ALU_OPS: &[Op] = &[
    Op::Add,
    Op::Sub,
    Op::Abs,
    Op::Smin,
    Op::Smax,
    Op::Umin,
    Op::Umax,
    Op::Shl,
    Op::Lshr,
    Op::Ashr,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
];

/// Comparison operations producing the baseline PE's flag bit.
pub const BASELINE_CMP_OPS: &[Op] = &[
    Op::Eq,
    Op::Neq,
    Op::Slt,
    Op::Sle,
    Op::Sgt,
    Op::Sge,
    Op::Ult,
    Op::Ule,
    Op::Ugt,
    Op::Uge,
];

/// Every operation kind the baseline PE can execute.
pub fn baseline_op_kinds() -> BTreeSet<OpKind> {
    let mut s: BTreeSet<OpKind> = BASELINE_ALU_OPS.iter().map(|o| o.kind()).collect();
    s.extend(BASELINE_CMP_OPS.iter().map(|o| o.kind()));
    s.extend([
        OpKind::Mul,
        OpKind::Mux,
        OpKind::Lut,
        OpKind::Const,
        OpKind::BitConst,
        OpKind::BitAnd,
        OpKind::BitOr,
        OpKind::BitXor,
        OpKind::BitNot,
        OpKind::BitMux,
    ]);
    s
}

/// Builds the baseline PE (Fig. 1) as a [`PeSpec`] with its hand-designed
/// control overhead.
pub fn baseline_pe() -> PeSpec {
    restricted_pe("pe_base", &baseline_op_kinds(), true)
}

/// Builds a baseline-shaped PE restricted to the given operation kinds —
/// the paper's "PE 1" (APEX-generated, so no legacy control overhead).
///
/// Kinds outside the baseline's repertoire are ignored.
pub fn baseline_pe_with_ops(name: &str, kinds: &BTreeSet<OpKind>) -> PeSpec {
    restricted_pe(name, kinds, false)
}

fn restricted_pe(name: &str, kinds: &BTreeSet<OpKind>, legacy_control: bool) -> PeSpec {
    let mut nodes: Vec<DpNode> = Vec::new();
    // constant registers first (Fig. 1: two 16-bit, three 1-bit)
    let const0 = push(&mut nodes, DpNode::new(Op::Const(0), vec![]));
    let const1 = push(&mut nodes, DpNode::new(Op::Const(0), vec![]));
    let word_srcs = vec![
        DpSource::WordInput(0),
        DpSource::WordInput(1),
        DpSource::Node(const0),
        DpSource::Node(const1),
    ];
    let mut bit_consts = Vec::new();
    if kinds.contains(&OpKind::BitConst)
        || kinds.contains(&OpKind::Lut)
        || kinds.contains(&OpKind::BitMux)
    {
        for _ in 0..3 {
            bit_consts.push(push(&mut nodes, DpNode::new(Op::BitConst(false), vec![])));
        }
    }
    let mut bit_srcs: Vec<DpSource> = vec![
        DpSource::BitInput(0),
        DpSource::BitInput(1),
        DpSource::BitInput(2),
    ];
    bit_srcs.extend(bit_consts.iter().map(|&i| DpSource::Node(i)));

    let alu_ops: Vec<Op> = BASELINE_ALU_OPS
        .iter()
        .copied()
        .filter(|o| kinds.contains(&o.kind()))
        .collect();
    let mut word_out_cands: Vec<u32> = Vec::new();
    if !alu_ops.is_empty() {
        let alu = push(
            &mut nodes,
            DpNode {
                ops: alu_ops,
                port_candidates: vec![word_srcs.clone(), word_srcs.clone()],
            },
        );
        word_out_cands.push(alu);
    }
    if kinds.contains(&OpKind::Mul) {
        let mul = push(
            &mut nodes,
            DpNode {
                ops: vec![Op::Mul],
                port_candidates: vec![word_srcs.clone(), word_srcs.clone()],
            },
        );
        word_out_cands.push(mul);
    }
    let cmp_ops: Vec<Op> = BASELINE_CMP_OPS
        .iter()
        .copied()
        .filter(|o| kinds.contains(&o.kind()))
        .collect();
    let mut flag_srcs = bit_srcs.clone();
    if !cmp_ops.is_empty() {
        let cmp = push(
            &mut nodes,
            DpNode {
                ops: cmp_ops,
                port_candidates: vec![word_srcs.clone(), word_srcs.clone()],
            },
        );
        flag_srcs.insert(0, DpSource::Node(cmp));
    }
    if kinds.contains(&OpKind::Lut) {
        let lut = push(
            &mut nodes,
            DpNode {
                ops: vec![Op::Lut(0)],
                port_candidates: vec![bit_srcs.clone(), bit_srcs.clone(), bit_srcs.clone()],
            },
        );
        flag_srcs.insert(0, DpSource::Node(lut));
    }
    if kinds.contains(&OpKind::Mux) {
        push(
            &mut nodes,
            DpNode {
                ops: vec![Op::Mux],
                port_candidates: vec![word_srcs.clone(), word_srcs.clone(), flag_srcs.clone()],
            },
        );
    }

    let dp = MergedDatapath {
        name: name.to_owned(),
        nodes,
        word_inputs: 2,
        bit_inputs: 3,
        word_outputs: 1,
        bit_outputs: 1,
        configs: Vec::new(),
    };
    PeSpec::new(name, dp, legacy_control)
}

fn push(nodes: &mut Vec<DpNode>, node: DpNode) -> u32 {
    nodes.push(node);
    (nodes.len() - 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_merge::{DatapathDefect, DatapathDefectKind, DatapathError};
    use apex_tech::TechModel;

    #[test]
    fn baseline_pe_area_matches_table2() {
        // Table 2 reports 988.81 µm² for the baseline PE core.
        let tech = TechModel::default();
        let pe = baseline_pe();
        let area = pe.area(&tech).total();
        assert!(
            (880.0..=1100.0).contains(&area),
            "baseline PE area {area:.1} µm² should be near the paper's 988.8"
        );
    }

    #[test]
    fn baseline_datapath_is_valid() {
        let pe = baseline_pe();
        assert!(pe.datapath.validate().is_ok());
        assert_eq!(pe.datapath.word_inputs, 2);
        assert_eq!(pe.datapath.bit_inputs, 3);
    }

    #[test]
    fn validate_rejects_a_candidate_port_the_pe_lacks() {
        let mut dp = baseline_pe().datapath;
        let (node, port) = dp
            .nodes
            .iter()
            .enumerate()
            .find_map(|(i, n)| {
                n.port_candidates
                    .iter()
                    .position(|c| c.contains(&DpSource::WordInput(0)))
                    .map(|p| (i, p))
            })
            .expect("a port reads word input 0");
        dp.nodes[node].port_candidates[port].push(DpSource::WordInput(99));
        let leg = dp.nodes[node].port_candidates[port].len() - 1;
        let defect = DatapathDefect {
            node: Some(node as u32),
            port: Some(port),
            leg: Some(leg),
            kind: DatapathDefectKind::OutOfRange(DpSource::WordInput(99)),
        };
        assert_eq!(dp.validate(), Err(DatapathError::Malformed(defect)));
    }

    #[test]
    fn restricting_ops_shrinks_the_pe() {
        // PE 1 of Section 5.1: camera pipeline drops shl, bitwise logic,
        // and the LUT — and loses the baseline's control overhead.
        let tech = TechModel::default();
        let mut kinds = baseline_op_kinds();
        for k in [OpKind::Shl, OpKind::And, OpKind::Or, OpKind::Xor, OpKind::Not, OpKind::Lut] {
            kinds.remove(&k);
        }
        let pe1 = baseline_pe_with_ops("pe1_camera", &kinds);
        let base = baseline_pe();
        let a1 = pe1.area(&tech).total();
        let ab = base.area(&tech).total();
        assert!(
            a1 < 0.7 * ab,
            "PE1 ({a1:.1}) must be far smaller than baseline ({ab:.1})"
        );
    }

    #[test]
    fn baseline_supports_its_advertised_kinds() {
        let pe = baseline_pe();
        let available: BTreeSet<OpKind> = pe
            .datapath
            .nodes
            .iter()
            .flat_map(|n| n.ops.iter().map(|o| o.kind()))
            .collect();
        for k in [OpKind::Add, OpKind::Mul, OpKind::Lut, OpKind::Mux, OpKind::Ult] {
            assert!(available.contains(&k), "{k:?}");
        }
    }

    #[test]
    fn minimal_pe_has_no_optional_units() {
        let kinds: BTreeSet<OpKind> = [OpKind::Add, OpKind::Const].into_iter().collect();
        let pe = baseline_pe_with_ops("adder_only", &kinds);
        // const0, const1, alu
        assert_eq!(pe.datapath.node_count(), 3);
    }
}
