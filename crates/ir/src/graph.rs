//! Dataflow graphs: the IR's central data structure.
//!
//! A [`Graph`] is a directed acyclic graph of [`Op`] nodes. Acyclicity is
//! guaranteed by construction: a node's inputs must already exist when the
//! node is added, so the node vector is always a valid topological order.

use crate::op::{Op, OpKind, ValueType};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::ControlFlow;

/// Identifier of a node within one [`Graph`].
///
/// Node ids are dense indices; they are only meaningful relative to the
/// graph that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single node: an operation plus its input edges (one per port).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    op: Op,
    inputs: Vec<NodeId>,
}

impl Node {
    /// The node's operation.
    pub fn op(&self) -> Op {
        self.op
    }

    /// Source node feeding each input port, in port order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }
}

/// Errors returned when constructing or validating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An input id does not name an existing node of this graph.
    UnknownNode {
        /// The offending id.
        id: NodeId,
    },
    /// The number of inputs does not match the operation's arity.
    PortCountMismatch {
        /// The operation being added.
        op: Op,
        /// Arity the operation requires.
        expected: usize,
        /// Number of inputs supplied.
        got: usize,
    },
    /// An input's value type does not match the port's declared type.
    PortTypeMismatch {
        /// The operation being added.
        op: Op,
        /// The mismatching port index.
        port: usize,
        /// Type the port requires.
        expected: ValueType,
        /// Type the supplied source produces.
        got: ValueType,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownNode { id } => write!(f, "unknown node {id}"),
            GraphError::PortCountMismatch { op, expected, got } => {
                write!(f, "operation {op} expects {expected} inputs, got {got}")
            }
            GraphError::PortTypeMismatch {
                op,
                port,
                expected,
                got,
            } => write!(
                f,
                "operation {op} port {port} expects {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for GraphError {}

/// One structural defect of a [`Graph`] (see [`Graph::defects`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphDefect {
    /// The node it is at.
    pub node: NodeId,
    /// The operand port it is at (`None` for the node's arity).
    pub port: Option<usize>,
    /// What is wrong; an operand not defined before the node is an
    /// [`GraphError::UnknownNode`].
    pub error: GraphError,
}

/// A named dataflow graph.
///
/// # Examples
///
/// ```
/// use apex_ir::{Graph, Op};
///
/// let mut g = Graph::new("mac");
/// let a = g.input();
/// let b = g.input();
/// let c = g.input();
/// let prod = g.add(Op::Mul, &[a, b]);
/// let sum = g.add(Op::Add, &[prod, c]);
/// g.output(sum);
/// assert_eq!(g.primary_inputs().len(), 3);
/// assert_eq!(g.primary_outputs().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// The graph's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes (including structural nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node, validating arity and port types.
    ///
    /// # Errors
    /// Returns a [`GraphError`] if an input id is foreign, the arity is
    /// wrong, or a port type mismatches.
    pub fn try_add(&mut self, op: Op, inputs: &[NodeId]) -> Result<NodeId, GraphError> {
        let id = NodeId(self.nodes.len() as u32);
        if let ControlFlow::Break(d) = self.node_defects(id, op, inputs, &mut ControlFlow::Break) {
            return Err(d.error);
        }
        self.nodes.push(Node {
            op,
            inputs: inputs.to_vec(),
        });
        Ok(id)
    }

    /// Adds a node.
    ///
    /// # Panics
    /// Panics on the conditions [`Graph::try_add`] reports as errors. Use
    /// this in builders where malformed graphs are programming errors.
    pub fn add(&mut self, op: Op, inputs: &[NodeId]) -> NodeId {
        match self.try_add(op, inputs) {
            Ok(id) => id,
            Err(e) => panic!("graph '{}': {e}", self.name),
        }
    }

    /// Adds a word-typed primary input.
    pub fn input(&mut self) -> NodeId {
        self.add(Op::Input, &[])
    }

    /// Adds a bit-typed primary input.
    pub fn bit_input(&mut self) -> NodeId {
        self.add(Op::BitInput, &[])
    }

    /// Adds a word constant.
    pub fn constant(&mut self, value: u16) -> NodeId {
        self.add(Op::Const(value), &[])
    }

    /// Marks `src` as a word primary output; returns the output node.
    pub fn output(&mut self, src: NodeId) -> NodeId {
        self.add(Op::Output, &[src])
    }

    /// Marks `src` as a bit primary output; returns the output node.
    pub fn bit_output(&mut self, src: NodeId) -> NodeId {
        self.add(Op::BitOutput, &[src])
    }

    /// The node behind an id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The operation of a node.
    pub fn op(&self, id: NodeId) -> Op {
        self.node(id).op
    }

    /// All node ids in topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates `(id, node)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.node_ids().map(move |id| (id, self.node(id)))
    }

    /// Word-typed then bit-typed primary inputs, in insertion order.
    pub fn primary_inputs(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| matches!(self.op(id), Op::Input | Op::BitInput))
            .collect()
    }

    /// Primary outputs in insertion order.
    pub fn primary_outputs(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| matches!(self.op(id), Op::Output | Op::BitOutput))
            .collect()
    }

    /// Nodes that participate in subgraph mining (see [`Op::is_compute`]).
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&id| self.op(id).is_compute())
            .collect()
    }

    /// Consumers of each node, indexed by node id.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut fan = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.iter() {
            for &src in node.inputs() {
                fan[src.index()].push(id);
            }
        }
        fan
    }

    /// Histogram of operation kinds.
    pub fn op_histogram(&self) -> BTreeMap<OpKind, usize> {
        let mut h = BTreeMap::new();
        for (_, node) in self.iter() {
            *h.entry(node.op.kind()).or_insert(0) += 1;
        }
        h
    }

    /// Number of compute operations (the paper's "primitive operations").
    pub fn compute_op_count(&self) -> usize {
        self.iter()
            .filter(|(_, n)| n.op.is_compute() && !matches!(n.op, Op::Const(_) | Op::BitConst(_)))
            .count()
    }

    /// Assembles a graph from raw `(op, inputs)` rows **without any
    /// validation** — the ingestion point for untrusted graph data
    /// (hand-assembled tests, foreign serialization) that is expected to
    /// go through [`Graph::defects`] (or [`Graph::try_validate`], which
    /// reports the first) before entering the flow. Everything else in
    /// this crate assumes validated graphs; feeding an unchecked corrupt
    /// graph to other APIs may panic.
    pub fn from_raw_parts(name: &str, rows: Vec<(Op, Vec<NodeId>)>) -> Graph {
        Graph {
            name: name.to_owned(),
            nodes: rows
                .into_iter()
                .map(|(op, inputs)| Node { op, inputs })
                .collect(),
        }
    }

    /// Every structural defect of the graph, in node and port order:
    /// arity, operand order (a self, forward or foreign reference, which
    /// is how a cycle shows in this sequential-id representation) and
    /// operand types. Never panics; empty exactly when the graph is
    /// well formed. Allocates nothing for a well-formed graph.
    pub fn defects(&self) -> Vec<GraphDefect> {
        let mut out = Vec::new();
        let _ = self.scan(|d| {
            out.push(d);
            ControlFlow::<()>::Continue(())
        });
        out
    }

    /// Validates every edge (arity, types, topological ordering) without
    /// panicking — the entry point for untrusted graphs (deserialized,
    /// parsed from text, or assembled by hand) before they enter the DSE
    /// flow.
    ///
    /// # Errors
    /// Returns the first of [`Graph::defects`]; an operand that is not
    /// defined before its reader surfaces as [`GraphError::UnknownNode`].
    pub fn try_validate(&self) -> Result<(), GraphError> {
        match self.scan(ControlFlow::Break) {
            ControlFlow::Break(d) => Err(d.error),
            ControlFlow::Continue(()) => Ok(()),
        }
    }

    /// Hands the graph's defects to `sink` in [`Graph::defects`] order
    /// until it breaks.
    fn scan<B>(&self, mut sink: impl FnMut(GraphDefect) -> ControlFlow<B>) -> ControlFlow<B> {
        for (i, node) in self.nodes.iter().enumerate() {
            self.node_defects(NodeId(i as u32), node.op, &node.inputs, &mut sink)?;
        }
        ControlFlow::Continue(())
    }

    /// Hands the defects of node `id`, computing `op` over `inputs`, to
    /// `sink` until it breaks, given the nodes before `id`.
    #[inline(always)]
    fn node_defects<B>(
        &self,
        id: NodeId,
        op: Op,
        inputs: &[NodeId],
        sink: &mut impl FnMut(GraphDefect) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let at = |port, error| GraphDefect {
            node: id,
            port,
            error,
        };
        let tys = op.input_types();
        if inputs.len() != tys.len() {
            let (expected, got) = (tys.len(), inputs.len());
            sink(at(None, GraphError::PortCountMismatch { op, expected, got }))?;
        }
        let before = &self.nodes[..id.index()];
        for (port, &src) in inputs.iter().enumerate() {
            let Some(src_node) = before.get(src.index()) else {
                sink(at(Some(port), GraphError::UnknownNode { id: src }))?;
                continue;
            };
            let got = src_node.op.output_type();
            match tys.get(port) {
                Some(&expected) if got != expected => {
                    let error = GraphError::PortTypeMismatch { op, port, expected, got };
                    sink(at(Some(port), error))?;
                }
                _ => {}
            }
        }
        ControlFlow::Continue(())
    }

    /// Extracts the subgraph induced by `keep` as a standalone graph.
    ///
    /// Edges internal to `keep` are preserved. Every edge from a node
    /// outside `keep` becomes a primary input of the appropriate type —
    /// one per *distinct* external source, so values feeding several kept
    /// nodes arrive on a single shared input. Kept nodes whose consumers
    /// are all outside `keep` are wired to fresh primary outputs.
    ///
    /// Returns the new graph and the mapping from old ids (in `keep`) to
    /// new ids.
    ///
    /// # Panics
    /// Panics if `keep` contains an id that is out of range.
    pub fn extract_subgraph(&self, keep: &[NodeId], name: &str) -> (Graph, BTreeMap<NodeId, NodeId>) {
        let keep_set: std::collections::BTreeSet<NodeId> = keep.iter().copied().collect();
        let mut out = Graph::new(name);
        let mut map: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut external: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        // kept nodes with a kept consumer; the kept nodes' own inputs name
        // every such edge, so no whole-graph fanout table is needed
        let mut consumed: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
        // ids are topologically ordered
        let sorted: Vec<NodeId> = keep_set.iter().copied().collect();
        for &id in &sorted {
            let node = self.node(id);
            let mut new_inputs = Vec::with_capacity(node.inputs.len());
            for (&src, &ty) in node.inputs.iter().zip(node.op.input_types()) {
                let new_src = if let Some(&m) = map.get(&src) {
                    consumed.insert(src);
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
        // Wire sinks: kept nodes with no kept consumer become outputs.
        for &id in &sorted {
            if matches!(self.op(id), Op::Output | Op::BitOutput) {
                continue;
            }
            if !consumed.contains(&id) {
                let new_id = map[&id];
                match self.op(id).output_type() {
                    ValueType::Word => out.output(new_id),
                    ValueType::Bit => out.bit_output(new_id),
                };
            }
        }
        (out, map)
    }

    /// Renders the graph in Graphviz DOT format.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        let _ = writeln!(s, "  rankdir=TB;");
        for (id, node) in self.iter() {
            let shape = match node.op {
                Op::Input | Op::BitInput => "invtriangle",
                Op::Output | Op::BitOutput => "triangle",
                Op::Const(_) | Op::BitConst(_) => "box",
                Op::Reg | Op::BitReg | Op::Fifo(_) => "rect",
                _ => "ellipse",
            };
            let _ = writeln!(s, "  {id} [label=\"{}\", shape={shape}];", node.op);
        }
        for (id, node) in self.iter() {
            for (port, &src) in node.inputs().iter().enumerate() {
                let _ = writeln!(s, "  {src} -> {id} [label=\"{port}\"];");
            }
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn mac_graph() -> (Graph, NodeId) {
        let mut g = Graph::new("mac");
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let m = g.add(Op::Mul, &[a, b]);
        let s = g.add(Op::Add, &[m, c]);
        let o = g.output(s);
        (g, o)
    }

    #[test]
    fn build_and_inspect() {
        let (g, _) = mac_graph();
        assert_eq!(g.len(), 6);
        assert_eq!(g.primary_inputs().len(), 3);
        assert_eq!(g.primary_outputs().len(), 1);
        assert_eq!(g.compute_op_count(), 2);
        assert!(g.try_validate().is_ok());
    }

    #[test]
    fn add_rejects_bad_arity() {
        let mut g = Graph::new("t");
        let a = g.input();
        let err = g.try_add(Op::Add, &[a]).unwrap_err();
        assert!(matches!(err, GraphError::PortCountMismatch { .. }));
    }

    #[test]
    fn add_rejects_type_mismatch() {
        let mut g = Graph::new("t");
        let a = g.input();
        let b = g.input();
        let cmp = g.add(Op::Slt, &[a, b]);
        let err = g.try_add(Op::Add, &[a, cmp]).unwrap_err();
        assert!(matches!(err, GraphError::PortTypeMismatch { port: 1, .. }));
    }

    #[test]
    fn add_rejects_foreign_node() {
        let mut g1 = Graph::new("g1");
        for _ in 0..10 {
            g1.input();
        }
        let mut g2 = Graph::new("g2");
        let err = g2.try_add(Op::Output, &[NodeId(5)]).unwrap_err();
        assert!(matches!(err, GraphError::UnknownNode { .. }));
    }

    #[test]
    fn fanouts_are_consumers() {
        let (g, _) = mac_graph();
        let fan = g.fanouts();
        let a = NodeId(0);
        assert_eq!(fan[a.index()].len(), 1);
        assert_eq!(g.op(fan[a.index()][0]).kind(), crate::op::OpKind::Mul);
    }

    #[test]
    fn histogram_counts_kinds() {
        let (g, _) = mac_graph();
        let h = g.op_histogram();
        assert_eq!(h[&crate::op::OpKind::Input], 3);
        assert_eq!(h[&crate::op::OpKind::Mul], 1);
        assert_eq!(h[&crate::op::OpKind::Add], 1);
    }

    #[test]
    fn extract_subgraph_stubs_inputs_and_outputs() {
        let (g, _) = mac_graph();
        // keep only the adder: its two feeds become fresh inputs
        let add_id = g
            .node_ids()
            .find(|&id| g.op(id) == Op::Add)
            .unwrap();
        let (sub, map) = g.extract_subgraph(&[add_id], "just_add");
        assert!(sub.try_validate().is_ok());
        assert_eq!(sub.primary_inputs().len(), 2);
        assert_eq!(sub.primary_outputs().len(), 1);
        assert_eq!(sub.op(map[&add_id]), Op::Add);
    }

    #[test]
    fn extract_subgraph_keeps_internal_edges() {
        let (g, _) = mac_graph();
        let mul = g.node_ids().find(|&id| g.op(id) == Op::Mul).unwrap();
        let add = g.node_ids().find(|&id| g.op(id) == Op::Add).unwrap();
        let (sub, map) = g.extract_subgraph(&[mul, add], "mac_core");
        assert!(sub.try_validate().is_ok());
        // mul feeds add directly
        let add_new = map[&add];
        assert!(sub.node(add_new).inputs().contains(&map[&mul]));
        assert_eq!(sub.primary_inputs().len(), 3);
    }

    #[test]
    fn extract_subgraph_matches_the_fanout_reference() {
        use super::spec::{extract_subgraph_reference, MIXED};
        let mut rng = proptest::test_runner::TestRng::deterministic(u64::MAX);
        let mut below = |n: usize| (rng.next_u64() % n as u64) as usize;
        for seed in 0..300 {
            let g = crate::from_text(&MIXED.text(seed)).unwrap();
            // random keep-sets over every node kind, with repeats and in
            // arbitrary order
            let mut keep: Vec<NodeId> = (0..below(g.len() + 1))
                .map(|_| NodeId(below(g.len()) as u32))
                .collect();
            if below(2) == 0 {
                keep.reverse();
            }
            let (got, got_map) = g.extract_subgraph(&keep, "sub");
            let (want, want_map) = extract_subgraph_reference(&g, &keep, "sub");
            assert_eq!(crate::to_text(&got), crate::to_text(&want), "keep {keep:?}");
            assert_eq!(got_map, want_map);
        }
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let (g, _) = mac_graph();
        let dot = g.to_dot();
        for id in g.node_ids() {
            assert!(dot.contains(&format!("{id} ")), "missing {id}");
        }
    }

    #[test]
    fn serde_round_trip() {
        let (g, _) = mac_graph();
        let json = serde_json_like(&g);
        assert!(json.contains("mac"));
    }

    // serde_json is not in the approved dependency list; round-trip through
    // the Debug representation as a cheap serialization smoke test.
    fn serde_json_like(g: &Graph) -> String {
        format!("{g:?}")
    }
}
