//! The merged-datapath structure: a PE datapath that can be configured to
//! implement each of the subgraphs merged into it (Fig. 5e of the paper).
//!
//! A [`MergedDatapath`] is a DAG of functional-unit nodes. Each node can
//! perform one of several operations (op select), and each input port of a
//! node chooses among several candidate sources (a configuration mux).
//! Each merged source subgraph is remembered as a [`DatapathConfig`]: the
//! exact op and mux selections that make the datapath compute that
//! subgraph.

use apex_ir::{Graph, NodeId, Op, Value, ValueType};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A value source inside the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DpSource {
    /// External word input port of the PE.
    WordInput(u16),
    /// External bit input port of the PE.
    BitInput(u16),
    /// Output of another datapath node.
    Node(u32),
}

/// One functional unit of the datapath.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DpNode {
    /// Operations this unit can be configured to perform (distinct; all
    /// share the node's output type; arities may differ, smaller-arity
    /// ops use the leading ports).
    pub ops: Vec<Op>,
    /// Candidate sources per input port (a port with more than one
    /// candidate costs a configuration mux).
    pub port_candidates: Vec<Vec<DpSource>>,
}

impl DpNode {
    /// Creates a single-op node with the given port sources.
    pub fn new(op: Op, sources: Vec<Vec<DpSource>>) -> Self {
        DpNode {
            ops: vec![op],
            port_candidates: sources,
        }
    }

    /// The node's output type (uniform across its ops).
    pub fn output_type(&self) -> ValueType {
        self.ops[0].output_type()
    }

    /// Number of input ports (max arity over ops).
    pub fn arity(&self) -> usize {
        self.port_candidates.len()
    }

    /// Whether any op of the node is sensitive to operand order.
    pub fn non_commutative(&self) -> bool {
        self.ops.iter().any(|op| op.arity() >= 2 && !op.commutative())
    }
}

/// Per-node configuration: which op to perform and which candidate source
/// each port selects.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeConfig {
    /// The operation performed (must be one of the node's ops; constants
    /// may carry a different payload — the constant register is loaded
    /// per configuration).
    pub op: Op,
    /// Selected candidate index per used port.
    pub port_sel: Vec<u32>,
}

/// A full datapath configuration implementing one source subgraph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatapathConfig {
    /// Name of the subgraph this configuration implements.
    pub name: String,
    /// Per datapath node: `None` = inactive (clock/operand gated).
    pub node_cfg: Vec<Option<NodeConfig>>,
    /// Driving source per used word output.
    pub word_out_sel: Vec<DpSource>,
    /// Driving source per used bit output.
    pub bit_out_sel: Vec<DpSource>,
    /// Source-subgraph word input `i` arrives on PE word port
    /// `word_input_map[i]` (merging permutes input assignments to share
    /// connection-box wiring).
    pub word_input_map: Vec<u16>,
    /// Source-subgraph bit input `i` arrives on PE bit port
    /// `bit_input_map[i]`.
    pub bit_input_map: Vec<u16>,
    /// Source-subgraph compute node (by raw `NodeId` value) → datapath
    /// node index. Lets downstream stages (rewrite-rule synthesis) bind
    /// pattern constants to the right constant registers.
    pub node_map: Vec<(u32, u32)>,
}

/// Errors from datapath validation or evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatapathError {
    /// The union of candidate edges contains a combinational cycle.
    Cyclic,
    /// A port selection index is out of range.
    BadPortSelection {
        /// Node index.
        node: u32,
        /// Port index.
        port: usize,
    },
    /// A configuration references an inactive node.
    InactiveSource {
        /// The inactive node index.
        node: u32,
    },
    /// A config op is not available on the node.
    UnsupportedOp {
        /// Node index.
        node: u32,
    },
    /// A source's type does not match where it is used.
    TypeMismatch,
    /// A structural defect other than a cycle (see
    /// [`MergedDatapath::defects`]).
    Malformed(DatapathDefect),
}

impl fmt::Display for DatapathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatapathError::Cyclic => write!(f, "datapath candidate edges form a cycle"),
            DatapathError::BadPortSelection { node, port } => {
                write!(f, "node {node} port {port}: selection out of range")
            }
            DatapathError::InactiveSource { node } => {
                write!(f, "configuration reads inactive node {node}")
            }
            DatapathError::UnsupportedOp { node } => {
                write!(f, "configuration selects unsupported op on node {node}")
            }
            DatapathError::TypeMismatch => write!(f, "source/port type mismatch"),
            DatapathError::Malformed(d) => write!(f, "malformed datapath: {d:?}"),
        }
    }
}

impl std::error::Error for DatapathError {}

/// One structural defect of a [`MergedDatapath`] (see
/// [`MergedDatapath::defects`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatapathDefect {
    /// The unit it is at (`None` for a cycle).
    pub node: Option<u32>,
    /// The unit's port it is at.
    pub port: Option<usize>,
    /// The candidate on the port's mux it is about.
    pub leg: Option<usize>,
    /// What is wrong.
    pub kind: DatapathDefectKind,
}

/// What a [`DatapathDefect`] finds wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatapathDefectKind {
    /// The candidate edges form a cycle.
    Cyclic,
    /// The unit has no operations.
    NoOps,
    /// The operation produces another type than the unit's (its first
    /// operation's type, given).
    OpType(Op, ValueType),
    /// The operation needs more ports than the unit's count (given).
    OpArity(Op, usize),
    /// The port, which an operation reads, has no candidate.
    Dangling,
    /// The candidate names a missing PE input or unit, or the unit
    /// itself.
    OutOfRange(DpSource),
    /// The candidate produces the first type (`None`: a unit without
    /// operations), where the operation reads the second.
    PortType(DpSource, Option<ValueType>, Op, ValueType),
    /// The port lists one candidate twice (its selection is not
    /// exclusive).
    Duplicate,
}

/// A PE datapath merged from one or more subgraphs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedDatapath {
    /// Human-readable name.
    pub name: String,
    /// Functional units in a topological order of the candidate-edge DAG.
    pub nodes: Vec<DpNode>,
    /// External 16-bit input ports.
    pub word_inputs: usize,
    /// External 1-bit input ports.
    pub bit_inputs: usize,
    /// External 16-bit output ports.
    pub word_outputs: usize,
    /// External 1-bit output ports.
    pub bit_outputs: usize,
    /// One configuration per merged source subgraph.
    pub configs: Vec<DatapathConfig>,
}

impl MergedDatapath {
    /// Imports a standalone datapath graph (e.g. a mined subgraph
    /// materialized by `apex-mining`) as a single-config datapath.
    ///
    /// # Panics
    /// Panics if the graph contains registers/FIFOs (mined subgraphs are
    /// purely combinational).
    pub fn from_graph(graph: &Graph) -> Self {
        let mut word_in = 0u16;
        let mut bit_in = 0u16;
        let mut node_map: Vec<(u32, u32)> = Vec::new();
        let mut src_of: BTreeMap<NodeId, DpSource> = BTreeMap::new();
        let mut nodes: Vec<DpNode> = Vec::new();
        let mut node_cfg: Vec<Option<NodeConfig>> = Vec::new();
        for (id, node) in graph.iter() {
            match node.op() {
                Op::Input => {
                    src_of.insert(id, DpSource::WordInput(word_in));
                    word_in += 1;
                }
                Op::BitInput => {
                    src_of.insert(id, DpSource::BitInput(bit_in));
                    bit_in += 1;
                }
                Op::Output | Op::BitOutput => {}
                Op::Reg | Op::BitReg | Op::Fifo(_) => {
                    // invariant: merging runs before pipelining; merge_graph
                    // rejects register-bearing graphs with
                    // MergeError::Registers before reaching this point
                    panic!("registers are not allowed in merged datapaths")
                }
                op => {
                    let sources: Vec<Vec<DpSource>> = node
                        .inputs()
                        .iter()
                        .map(|s| vec![src_of[s]])
                        .collect();
                    let idx = nodes.len() as u32;
                    node_map.push((id.0, idx));
                    nodes.push(DpNode::new(op, sources));
                    node_cfg.push(Some(NodeConfig {
                        op,
                        port_sel: vec![0; node.inputs().len()],
                    }));
                    src_of.insert(id, DpSource::Node(idx));
                }
            }
        }
        let mut word_out_sel = Vec::new();
        let mut bit_out_sel = Vec::new();
        for po in graph.primary_outputs() {
            let feed = graph.node(po).inputs()[0];
            match graph.op(po) {
                Op::Output => word_out_sel.push(src_of[&feed]),
                Op::BitOutput => bit_out_sel.push(src_of[&feed]),
                _ => unreachable!(),
            }
        }
        MergedDatapath {
            name: graph.name().to_owned(),
            nodes,
            word_inputs: word_in as usize,
            bit_inputs: bit_in as usize,
            word_outputs: word_out_sel.len(),
            bit_outputs: bit_out_sel.len(),
            configs: vec![DatapathConfig {
                name: graph.name().to_owned(),
                node_cfg,
                word_out_sel,
                bit_out_sel,
                word_input_map: (0..word_in).collect(),
                bit_input_map: (0..bit_in).collect(),
                node_map,
            }],
        }
    }

    /// A topological order over the union of candidate edges.
    ///
    /// # Errors
    /// Returns [`DatapathError::Cyclic`] if the candidate edges contain a
    /// cycle (merging must prevent this), `TypeMismatch` if a candidate
    /// names a node out of range.
    pub fn topo_order(&self) -> Result<Vec<u32>, DatapathError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for port in &node.port_candidates {
                for src in port {
                    if let DpSource::Node(j) = src {
                        let succ = succ.get_mut(*j as usize).ok_or(DatapathError::TypeMismatch)?;
                        succ.push(i as u32);
                        indeg[i] += 1;
                    }
                }
            }
        }
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = ready.pop() {
            order.push(u);
            for &v in &succ[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    ready.push(v);
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(DatapathError::Cyclic)
        }
    }

    /// Every structural defect of the datapath: a cycle first, then in
    /// unit, port and leg order units without operations, operations
    /// that disagree with their unit, dangling ports, candidates out of
    /// range or of the wrong type, and duplicate mux legs. Never panics;
    /// empty exactly when the structure is well formed. A datapath whose
    /// candidates read only earlier units (the order merging builds) is
    /// checked without allocating.
    pub fn defects(&self) -> Vec<DatapathDefect> {
        let n = self.nodes.len();
        let mut out = Vec::new();
        let back_edge = self.nodes.iter().enumerate().any(|(i, unit)| {
            let back = |c: &DpSource| matches!(*c, DpSource::Node(j) if j as usize >= i);
            unit.port_candidates.iter().flatten().any(back)
        });
        // a candidate naming a missing unit is reported below instead
        if back_edge && self.topo_order() == Err(DatapathError::Cyclic) {
            let (node, port, leg) = (None, None, None);
            out.push(DatapathDefect { node, port, leg, kind: DatapathDefectKind::Cyclic });
        }
        for (i, unit) in self.nodes.iter().enumerate() {
            let at = |port, leg, kind| DatapathDefect { node: Some(i as u32), port, leg, kind };
            let Some(ty) = unit.ops.first().map(|op| op.output_type()) else {
                out.push(at(None, None, DatapathDefectKind::NoOps));
                continue;
            };
            for &op in &unit.ops {
                if op.output_type() != ty {
                    out.push(at(None, None, DatapathDefectKind::OpType(op, ty)));
                }
                if op.arity() > unit.arity() {
                    out.push(at(None, None, DatapathDefectKind::OpArity(op, unit.arity())));
                }
            }
            let max_arity = unit.ops.iter().map(|op| op.arity()).max().unwrap_or(0);
            for (p, cands) in unit.port_candidates.iter().enumerate() {
                if cands.is_empty() && p < max_arity {
                    out.push(at(Some(p), None, DatapathDefectKind::Dangling));
                }
                for (leg, &src) in cands.iter().enumerate() {
                    let got = match src {
                        DpSource::WordInput(k) if (k as usize) < self.word_inputs => {
                            Some(ValueType::Word)
                        }
                        DpSource::BitInput(k) if (k as usize) < self.bit_inputs => {
                            Some(ValueType::Bit)
                        }
                        DpSource::Node(j) if (j as usize) < n && j as usize != i => {
                            self.nodes[j as usize].ops.first().map(|op| op.output_type())
                        }
                        _ => {
                            out.push(at(Some(p), Some(leg), DatapathDefectKind::OutOfRange(src)));
                            continue;
                        }
                    };
                    for &op in &unit.ops {
                        match op.input_types().get(p) {
                            Some(&want) if got != Some(want) => {
                                let kind = DatapathDefectKind::PortType(src, got, op, want);
                                out.push(at(Some(p), Some(leg), kind));
                            }
                            _ => {}
                        }
                    }
                }
                if (1..cands.len()).any(|k| cands[..k].contains(&cands[k])) {
                    out.push(at(Some(p), None, DatapathDefectKind::Duplicate));
                }
            }
        }
        out
    }

    /// Validates structure and all stored configurations.
    ///
    /// # Errors
    /// Returns the first of [`MergedDatapath::defects`] (a cycle as
    /// [`DatapathError::Cyclic`]), else the first configuration's
    /// [`MergedDatapath::validate_config`] error.
    pub fn validate(&self) -> Result<(), DatapathError> {
        if let Some(&d) = self.defects().first() {
            return Err(match d.kind {
                DatapathDefectKind::Cyclic => DatapathError::Cyclic,
                _ => DatapathError::Malformed(d),
            });
        }
        self.configs.iter().try_for_each(|cfg| self.validate_config(cfg))
    }

    /// Validates one configuration: op availability (a primary-input op
    /// has no evaluation), selection ranges, active-source discipline,
    /// and that every selected port and output source produces the type
    /// its configured reader takes.
    ///
    /// # Errors
    /// Returns the first inconsistency found.
    pub fn validate_config(&self, cfg: &DatapathConfig) -> Result<(), DatapathError> {
        if cfg.node_cfg.len() != self.nodes.len() {
            return Err(DatapathError::TypeMismatch);
        }
        // the type a source produces under `cfg`; sources may come from
        // decoded (possibly corrupted) bitstreams — bounds-check before
        // indexing
        let source_type = |src: &DpSource| -> Result<ValueType, DatapathError> {
            match *src {
                DpSource::WordInput(k) if (k as usize) < self.word_inputs => Ok(ValueType::Word),
                DpSource::BitInput(k) if (k as usize) < self.bit_inputs => Ok(ValueType::Bit),
                DpSource::Node(j) => match cfg.node_cfg.get(j as usize) {
                    Some(None) => Err(DatapathError::InactiveSource { node: j }),
                    Some(Some(nc)) => Ok(nc.op.output_type()),
                    None => Err(DatapathError::TypeMismatch),
                },
                _ => Err(DatapathError::TypeMismatch),
            }
        };
        for (i, nc) in cfg.node_cfg.iter().enumerate() {
            let Some(nc) = nc else { continue };
            let node = &self.nodes[i];
            let supported = node.ops.iter().any(|op| match (op, &nc.op) {
                // constant registers are reloaded per config
                (Op::Const(_), Op::Const(_)) => true,
                (Op::BitConst(_), Op::BitConst(_)) => true,
                (Op::Lut(_), Op::Lut(_)) => true,
                (a, b) => a == b,
            });
            if !supported || matches!(nc.op, Op::Input | Op::BitInput) {
                return Err(DatapathError::UnsupportedOp { node: i as u32 });
            }
            if nc.port_sel.len() != nc.op.arity() {
                return Err(DatapathError::BadPortSelection { node: i as u32, port: 0 });
            }
            for (p, (&sel, &want)) in nc.port_sel.iter().zip(nc.op.input_types()).enumerate() {
                let src = node.port_candidates.get(p).and_then(|c| c.get(sel as usize));
                let src = src.ok_or(DatapathError::BadPortSelection { node: i as u32, port: p })?;
                if source_type(src)? != want {
                    return Err(DatapathError::TypeMismatch);
                }
            }
        }
        let word_outs = cfg.word_out_sel.iter().map(|s| (s, ValueType::Word));
        for (src, want) in word_outs.chain(cfg.bit_out_sel.iter().map(|s| (s, ValueType::Bit))) {
            if source_type(src)? != want {
                return Err(DatapathError::TypeMismatch);
            }
        }
        Ok(())
    }

    /// The value type a source produces.
    ///
    /// # Panics
    /// Panics if a node source is out of range or has no operations
    /// (untrusted datapaths go through [`MergedDatapath::defects`]
    /// first).
    pub fn source_type(&self, src: DpSource) -> ValueType {
        match src {
            DpSource::WordInput(_) => ValueType::Word,
            DpSource::BitInput(_) => ValueType::Bit,
            DpSource::Node(j) => self.nodes[j as usize].output_type(),
        }
    }

    /// Evaluates the datapath under a configuration.
    ///
    /// Unused inputs may be bound to anything; inactive nodes produce no
    /// values.
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    ///
    /// # Panics
    /// Panics if the input slices are shorter than the declared port
    /// counts.
    // invariant: the `expect` in `read` — validate_config guarantees every
    // selected source is an active node evaluated earlier in topo order
    #[allow(clippy::expect_used)]
    pub fn evaluate(
        &self,
        cfg: &DatapathConfig,
        word_inputs: &[u16],
        bit_inputs: &[bool],
    ) -> Result<(Vec<u16>, Vec<bool>), DatapathError> {
        self.validate_config(cfg)?;
        assert!(word_inputs.len() >= self.word_inputs, "word input count");
        assert!(bit_inputs.len() >= self.bit_inputs, "bit input count");
        let order = self.topo_order()?;
        let mut values: Vec<Option<Value>> = vec![None; self.nodes.len()];
        let read = |src: DpSource, values: &[Option<Value>]| -> Value {
            match src {
                DpSource::WordInput(k) => Value::Word(word_inputs[k as usize]),
                DpSource::BitInput(k) => Value::Bit(bit_inputs[k as usize]),
                // invariant: validate_config guarantees every selected
                // source is an active node, and topo order evaluates
                // sources before their consumers
                DpSource::Node(j) => values[j as usize].expect("active source evaluated"),
            }
        };
        for &i in &order {
            let Some(nc) = &cfg.node_cfg[i as usize] else {
                continue;
            };
            let node = &self.nodes[i as usize];
            let ins: Vec<Value> = nc
                .port_sel
                .iter()
                .enumerate()
                .map(|(p, &sel)| read(node.port_candidates[p][sel as usize], &values))
                .collect();
            values[i as usize] = Some(nc.op.eval(&ins));
        }
        let words = cfg
            .word_out_sel
            .iter()
            .map(|&s| read(s, &values).word())
            .collect();
        let bits = cfg
            .bit_out_sel
            .iter()
            .map(|&s| read(s, &values).bit())
            .collect();
        Ok((words, bits))
    }

    /// Evaluates a configuration with inputs given in *source-subgraph*
    /// order, scattering them onto PE ports through the configuration's
    /// input maps (unused PE ports read zero).
    ///
    /// # Errors
    /// Propagates configuration validation errors.
    ///
    /// # Panics
    /// Panics if the input slices do not match the input maps' lengths.
    pub fn evaluate_as_source(
        &self,
        cfg: &DatapathConfig,
        source_word_inputs: &[u16],
        source_bit_inputs: &[bool],
    ) -> Result<(Vec<u16>, Vec<bool>), DatapathError> {
        assert_eq!(source_word_inputs.len(), cfg.word_input_map.len());
        assert_eq!(source_bit_inputs.len(), cfg.bit_input_map.len());
        let mut words = vec![0u16; self.word_inputs];
        let mut bits = vec![false; self.bit_inputs];
        for (&v, &port) in source_word_inputs.iter().zip(&cfg.word_input_map) {
            words[port as usize] = v;
        }
        for (&v, &port) in source_bit_inputs.iter().zip(&cfg.bit_input_map) {
            bits[port as usize] = v;
        }
        self.evaluate(cfg, &words, &bits)
    }

    /// Total number of configuration-mux legs beyond the first candidate
    /// of each port (a proxy for intraconnect complexity, the paper's
    /// second design-space axis).
    pub fn mux_leg_count(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|n| &n.port_candidates)
            .map(|c| c.len().saturating_sub(1))
            .sum()
    }

    /// Number of functional-unit nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

impl fmt::Display for MergedDatapath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "datapath '{}': {} nodes, {}W+{}B in, {}W+{}B out, {} configs",
            self.name,
            self.nodes.len(),
            self.word_inputs,
            self.bit_inputs,
            self.word_outputs,
            self.bit_outputs,
            self.configs.len()
        )?;
        for (i, n) in self.nodes.iter().enumerate() {
            let ops: Vec<String> = n.ops.iter().map(|o| o.to_string()).collect();
            writeln!(f, "  n{i}: [{}] ports={:?}", ops.join("|"), n.port_candidates)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::{evaluate as ir_eval, Graph, Op};

    fn mac_graph() -> Graph {
        let mut g = Graph::new("mac");
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let m = g.add(Op::Mul, &[a, b]);
        let s = g.add(Op::Add, &[m, c]);
        g.output(s);
        g
    }

    #[test]
    fn from_graph_preserves_semantics() {
        let g = mac_graph();
        let dp = MergedDatapath::from_graph(&g);
        assert!(dp.validate().is_ok());
        assert_eq!(dp.word_inputs, 3);
        assert_eq!(dp.word_outputs, 1);
        let (w, _) = dp.evaluate(&dp.configs[0], &[3, 4, 5], &[]).unwrap();
        let golden = ir_eval(&g, &[Value::Word(3), Value::Word(4), Value::Word(5)]);
        assert_eq!(w[0], golden[0].word());
    }

    #[test]
    fn const_nodes_become_const_registers() {
        let mut g = Graph::new("scale");
        let a = g.input();
        let c = g.constant(7);
        let m = g.add(Op::Mul, &[a, c]);
        g.output(m);
        let dp = MergedDatapath::from_graph(&g);
        let (w, _) = dp.evaluate(&dp.configs[0], &[6], &[]).unwrap();
        assert_eq!(w[0], 42);
        // reload the constant register in a modified config
        let mut cfg = dp.configs[0].clone();
        for nc in cfg.node_cfg.iter_mut().flatten() {
            if matches!(nc.op, Op::Const(_)) {
                nc.op = Op::Const(100);
            }
        }
        let (w, _) = dp.evaluate(&cfg, &[6], &[]).unwrap();
        assert_eq!(w[0], 600);
    }

    #[test]
    fn validate_rejects_cycles() {
        let mut dp = MergedDatapath::from_graph(&mac_graph());
        // introduce a cycle: node 0 (mul) also sourced from node 1 (add)
        dp.nodes[0].port_candidates[0].push(DpSource::Node(1));
        assert_eq!(dp.validate(), Err(DatapathError::Cyclic));
    }

    #[test]
    fn validate_rejects_unsupported_op() {
        let dp = MergedDatapath::from_graph(&mac_graph());
        let mut cfg = dp.configs[0].clone();
        for nc in cfg.node_cfg.iter_mut().flatten() {
            if nc.op == Op::Add {
                nc.op = Op::Sub;
            }
        }
        assert!(matches!(
            dp.validate_config(&cfg),
            Err(DatapathError::UnsupportedOp { .. })
        ));
    }

    #[test]
    fn validate_rejects_inactive_source() {
        let dp = MergedDatapath::from_graph(&mac_graph());
        let mut cfg = dp.configs[0].clone();
        cfg.node_cfg[0] = None; // deactivate the mul that feeds the add
        assert!(matches!(
            dp.validate_config(&cfg),
            Err(DatapathError::InactiveSource { .. })
        ));
    }

    #[test]
    fn mux_legs_counted() {
        let mut dp = MergedDatapath::from_graph(&mac_graph());
        assert_eq!(dp.mux_leg_count(), 0);
        dp.nodes[1].port_candidates[1].push(DpSource::WordInput(0));
        assert_eq!(dp.mux_leg_count(), 1);
    }

    #[test]
    fn bit_outputs_evaluate() {
        let mut g = Graph::new("cmp");
        let a = g.input();
        let b = g.input();
        let lt = g.add(Op::Ult, &[a, b]);
        g.bit_output(lt);
        let dp = MergedDatapath::from_graph(&g);
        let (_, bits) = dp.evaluate(&dp.configs[0], &[1, 2], &[]).unwrap();
        assert!(bits[0]);
        let (_, bits) = dp.evaluate(&dp.configs[0], &[5, 2], &[]).unwrap();
        assert!(!bits[0]);
    }
}
