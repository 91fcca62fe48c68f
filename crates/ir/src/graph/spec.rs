//! [`Graph::extract_subgraph`]'s executable specification, compiled only
//! for tests: the original extraction, which finds sinks through a
//! whole-graph fanout table. The property below requires the O(kept)
//! extraction to return exactly its graph and node map.

use super::{Graph, NodeId};
use crate::op::{Op, ValueType};
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

/// Deterministic xorshift stream for the generated graphs and keep-sets.
pub(super) struct XorShift(pub u64);

impl XorShift {
    pub(super) fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// A random valid graph mixing word and bit values, constants, registers
/// and primary outputs, so sinks of both types and kept outputs occur.
pub(super) fn random_graph(rng: &mut XorShift) -> Graph {
    let mut g = Graph::new("rand");
    let mut words = vec![g.input(), g.input()];
    let mut bits = vec![g.bit_input()];
    for _ in 0..3 + rng.below(30) {
        let w = |rng: &mut XorShift| words[rng.below(words.len())];
        let (a, b) = (w(rng), w(rng));
        let s = bits[rng.below(bits.len())];
        match rng.below(9) {
            0 => words.push(g.add(Op::Add, &[a, b])),
            1 => words.push(g.add(Op::Mul, &[a, b])),
            2 => {
                let c = g.constant(rng.below(100) as u16);
                words.push(g.add(Op::Sub, &[a, c]));
            }
            3 => bits.push(g.add(Op::Slt, &[a, b])),
            4 => words.push(g.add(Op::Mux, &[a, b, s])),
            5 => bits.push(g.add(Op::BitNot, &[s])),
            6 => words.push(g.add(Op::Reg, &[a])),
            7 => {
                g.output(a);
            }
            _ => {
                g.bit_output(s);
            }
        }
    }
    g
}
