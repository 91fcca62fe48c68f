//! [`Graph::extract_subgraph`]'s executable specification, compiled only
//! for tests: the original extraction, which finds sinks through a
//! whole-graph fanout table, and the random graphs on which the O(kept)
//! extraction must return exactly its graph and node map.

use super::{Graph, NodeId};
use crate::op::{Op, ValueType};
use apex_testgen::{apex_ir::Op as GenOp, DfgGen};
use std::collections::{BTreeMap, BTreeSet};

/// The fanout-table extraction, retained as the specification of
/// [`Graph::extract_subgraph`]; it is not used on any production path.
pub(super) fn extract_subgraph_reference(
    g: &Graph,
    keep: &[NodeId],
    name: &str,
) -> (Graph, BTreeMap<NodeId, NodeId>) {
    let keep_set: BTreeSet<NodeId> = keep.iter().copied().collect();
    let mut out = Graph::new(name);
    let mut map: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut external: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let sorted: Vec<NodeId> = keep_set.iter().copied().collect();
    for &id in &sorted {
        let node = g.node(id);
        let mut new_inputs = Vec::with_capacity(node.inputs.len());
        for (&src, &ty) in node.inputs.iter().zip(node.op.input_types()) {
            let new_src = if let Some(&m) = map.get(&src) {
                m
            } else if let Some(&m) = external.get(&src) {
                m
            } else {
                let m = match ty {
                    ValueType::Word => out.input(),
                    ValueType::Bit => out.bit_input(),
                };
                external.insert(src, m);
                m
            };
            new_inputs.push(new_src);
        }
        let new_id = out.add(node.op, &new_inputs);
        map.insert(id, new_id);
    }
    let fan = g.fanouts();
    for &id in &sorted {
        if matches!(g.op(id), Op::Output | Op::BitOutput) {
            continue;
        }
        if !fan[id.index()].iter().any(|c| keep_set.contains(c)) {
            let new_id = map[&id];
            match g.op(id).output_type() {
                ValueType::Word => out.output(new_id),
                ValueType::Bit => out.bit_output(new_id),
            };
        }
    }
    (out, map)
}

/// Random valid graphs mixing word and bit values, constants, registers
/// and primary outputs, so sinks of both types and kept outputs occur.
/// `apex-testgen` links the non-test build of this crate, a second copy
/// whose `Graph` cannot reach this module: its ops are that copy's, and
/// its graphs arrive as DFG text.
pub(super) const MIXED: DfgGen = DfgGen {
    name: "rand",
    inputs: (2, 1),
    ops: &[
        GenOp::Add,
        GenOp::Mul,
        GenOp::Slt,
        GenOp::Mux,
        GenOp::BitNot,
        GenOp::Reg,
        GenOp::Output,
        GenOp::BitOutput,
    ],
    const_ops: &[GenOp::Sub],
    len: 3..33,
    outputs: (0, 0),
};
