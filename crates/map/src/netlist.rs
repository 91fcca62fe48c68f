//! The mapped netlist: a graph of PE instances, I/O, and delay elements.
//!
//! Instruction selection (Section 4.1.2) turns the application's dataflow
//! graph of IR operations into a dataflow graph of configured PEs
//! (Fig. 7). Branch-delay matching later inserts [`NetKind::Reg`] /
//! [`NetKind::Fifo`] nodes (Section 4.3), and the CGRA back-end places and
//! routes the result.

use apex_ir::{Op, Value, ValueType};
use apex_merge::MergedDatapath;
use apex_rewrite::RuleSet;
use serde::{Deserialize, Serialize};

/// Simulation output pair: one word stream per `WordOutput` node and one
/// bit stream per `BitOutput` node, in netlist node order.
pub type SimStreams = (Vec<Vec<u16>>, Vec<Vec<bool>>);

/// Reference to an output port of a netlist node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetRef {
    /// Producing node index.
    pub node: u32,
    /// Output port of the producer.
    pub port: u8,
}

/// A configured PE instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeInstance {
    /// Index into the [`RuleSet`] of the rule this instance executes.
    pub rule: u32,
    /// Concrete payloads for the rule's bindings (constants, LUT tables).
    pub payloads: Vec<Op>,
}

/// Kind of a netlist node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NetKind {
    /// Application word input (one word output).
    WordInput,
    /// Application bit input.
    BitInput,
    /// A PE executing a rewrite rule.
    Pe(PeInstance),
    /// Word pipeline register (1-cycle delay), placed in switch boxes.
    Reg,
    /// Bit pipeline register.
    BitReg,
    /// Register file acting as a word FIFO of the given depth
    /// (Section 4.3's chain-to-register-file transformation).
    Fifo(u8),
    /// Application word output sink.
    WordOutput,
    /// Application bit output sink.
    BitOutput,
}

/// A netlist node: kind plus input connections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetNode {
    /// What the node is.
    pub kind: NetKind,
    /// Input connections, in port order.
    pub inputs: Vec<NetRef>,
}

/// Errors found while validating or evaluating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A node references a nonexistent producer or port.
    DanglingRef {
        /// The offending consumer node.
        node: u32,
    },
    /// Input count does not match the node kind's arity.
    BadArity {
        /// The offending node.
        node: u32,
    },
    /// A value type does not match where it is connected.
    TypeMismatch {
        /// The offending consumer node.
        node: u32,
        /// The mismatching input slot.
        slot: usize,
    },
    /// The netlist contains a combinational cycle.
    Cyclic,
    /// A PE instance references an unknown rule.
    UnknownRule {
        /// The offending node.
        node: u32,
    },
    /// Fewer input values/streams were supplied than the netlist has
    /// input nodes.
    InputShortage {
        /// The input node that received no value.
        node: u32,
    },
    /// A PE instance configuration failed datapath validation.
    BadConfig {
        /// The offending node.
        node: u32,
        /// The datapath's complaint.
        message: String,
    },
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::DanglingRef { node } => write!(f, "node {node}: dangling reference"),
            NetlistError::BadArity { node } => write!(f, "node {node}: wrong input count"),
            NetlistError::TypeMismatch { node, slot } => {
                write!(f, "node {node} input {slot}: type mismatch")
            }
            NetlistError::Cyclic => write!(f, "netlist contains a cycle"),
            NetlistError::UnknownRule { node } => write!(f, "node {node}: unknown rule"),
            NetlistError::InputShortage { node } => {
                write!(f, "input node {node}: no value supplied")
            }
            NetlistError::BadConfig { node, message } => {
                write!(f, "node {node}: bad instance configuration: {message}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A mapped design: netlist + the PE ruleset its instances refer to.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Application name.
    pub name: String,
    /// All nodes (any order; evaluation computes a topological order).
    pub nodes: Vec<NetNode>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            nodes: Vec::new(),
        }
    }

    /// Appends a node, returning its index.
    pub fn push(&mut self, kind: NetKind, inputs: Vec<NetRef>) -> u32 {
        self.nodes.push(NetNode { kind, inputs });
        (self.nodes.len() - 1) as u32
    }

    /// Output types of a node.
    pub fn output_types(&self, node: u32, rules: &RuleSet) -> Vec<ValueType> {
        match &self.nodes[node as usize].kind {
            NetKind::WordInput | NetKind::Reg | NetKind::Fifo(_) => vec![ValueType::Word],
            NetKind::BitInput | NetKind::BitReg => vec![ValueType::Bit],
            NetKind::WordOutput | NetKind::BitOutput => vec![],
            NetKind::Pe(inst) => {
                let rule = &rules.rules[inst.rule as usize];
                let mut tys = vec![ValueType::Word; rule.config.word_out_sel.len()];
                tys.extend(vec![ValueType::Bit; rule.config.bit_out_sel.len()]);
                tys
            }
        }
    }

    /// Input types a node expects.
    pub fn input_types(&self, node: u32, rules: &RuleSet) -> Vec<ValueType> {
        match &self.nodes[node as usize].kind {
            NetKind::WordInput | NetKind::BitInput => vec![],
            NetKind::Reg | NetKind::Fifo(_) | NetKind::WordOutput => vec![ValueType::Word],
            NetKind::BitReg | NetKind::BitOutput => vec![ValueType::Bit],
            NetKind::Pe(inst) => {
                let rule = &rules.rules[inst.rule as usize];
                let mut tys = vec![ValueType::Word; rule.config.word_input_map.len()];
                tys.extend(vec![ValueType::Bit; rule.config.bit_input_map.len()]);
                tys
            }
        }
    }

    /// Cycle latency a node adds.
    pub fn latency(&self, node: u32, pe_latency: u32) -> u32 {
        match &self.nodes[node as usize].kind {
            NetKind::Reg | NetKind::BitReg => 1,
            NetKind::Fifo(d) => u32::from(*d),
            NetKind::Pe(_) => pe_latency,
            _ => 0,
        }
    }

    /// Validates structure and typing against a ruleset.
    ///
    /// # Errors
    /// Returns the first inconsistency found.
    pub fn validate(&self, rules: &RuleSet) -> Result<(), NetlistError> {
        for (i, node) in self.nodes.iter().enumerate() {
            let i = i as u32;
            if let NetKind::Pe(inst) = &node.kind {
                if inst.rule as usize >= rules.rules.len() {
                    return Err(NetlistError::UnknownRule { node: i });
                }
            }
            let want = self.input_types(i, rules);
            if node.inputs.len() != want.len() {
                return Err(NetlistError::BadArity { node: i });
            }
            for (slot, (r, ty)) in node.inputs.iter().zip(&want).enumerate() {
                if r.node as usize >= self.nodes.len() {
                    return Err(NetlistError::DanglingRef { node: i });
                }
                let out_tys = self.output_types(r.node, rules);
                match out_tys.get(r.port as usize) {
                    None => return Err(NetlistError::DanglingRef { node: i }),
                    Some(got) if got != ty => {
                        return Err(NetlistError::TypeMismatch { node: i, slot })
                    }
                    _ => {}
                }
            }
        }
        self.topo_order().map(|_| ())
    }

    /// Topological order over the nodes.
    ///
    /// # Errors
    /// Returns [`NetlistError::Cyclic`] on a combinational cycle.
    pub fn topo_order(&self) -> Result<Vec<u32>, NetlistError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            for r in &node.inputs {
                succ[r.node as usize].push(i as u32);
                indeg[i] += 1;
            }
        }
        // min-index Kahn: deterministic, and the identity permutation when
        // the node vector is already topologically sorted (so rebuilt
        // netlists keep their input/output ordering)
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> = (0..n as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(u)) = ready.pop() {
            order.push(u);
            for &v in &succ[u as usize] {
                indeg[v as usize] -= 1;
                if indeg[v as usize] == 0 {
                    ready.push(std::cmp::Reverse(v));
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(NetlistError::Cyclic)
        }
    }

    /// Number of PE instances.
    pub fn pe_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NetKind::Pe(_)))
            .count()
    }

    /// Number of standalone pipeline registers.
    pub fn reg_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NetKind::Reg | NetKind::BitReg))
            .count()
    }

    /// Number of register-file FIFOs.
    pub fn fifo_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NetKind::Fifo(_)))
            .count()
    }

    /// Renders the netlist in Graphviz DOT format (PE instances show
    /// their rule names).
    pub fn to_dot(&self, rules: &RuleSet) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name);
        let _ = writeln!(s, "  rankdir=TB;");
        for (i, node) in self.nodes.iter().enumerate() {
            let (label, shape) = match &node.kind {
                NetKind::WordInput => ("in".to_owned(), "invtriangle"),
                NetKind::BitInput => ("bit_in".to_owned(), "invtriangle"),
                NetKind::WordOutput => ("out".to_owned(), "triangle"),
                NetKind::BitOutput => ("bit_out".to_owned(), "triangle"),
                NetKind::Reg => ("reg".to_owned(), "rect"),
                NetKind::BitReg => ("bit_reg".to_owned(), "rect"),
                NetKind::Fifo(d) => (format!("fifo({d})"), "rect"),
                NetKind::Pe(inst) => (
                    rules.rules[inst.rule as usize].name.clone(),
                    "ellipse",
                ),
            };
            let _ = writeln!(s, "  n{i} [label=\"{label}\", shape={shape}];");
        }
        for (i, node) in self.nodes.iter().enumerate() {
            for (slot, r) in node.inputs.iter().enumerate() {
                let _ = writeln!(s, "  n{} -> n{i} [label=\"{}.{slot}\"];", r.node, r.port);
            }
        }
        s.push_str("}\n");
        s
    }

    /// Evaluates the netlist combinationally (delays act as wires).
    ///
    /// Inputs are bound to `WordInput`/`BitInput` nodes in index order;
    /// returns word-output and bit-output values in index order.
    ///
    /// # Errors
    /// Fails on cyclic netlists, missing input values, and invalid
    /// instance configurations.
    pub fn evaluate(
        &self,
        dp: &MergedDatapath,
        rules: &RuleSet,
        word_inputs: &[u16],
        bit_inputs: &[bool],
    ) -> Result<(Vec<u16>, Vec<bool>), NetlistError> {
        let order = self.topo_order()?;
        let mut values: Vec<Vec<Value>> = vec![Vec::new(); self.nodes.len()];
        let mut wi = word_inputs.iter();
        let mut bi = bit_inputs.iter();
        // inputs bound in node-index order
        for (i, node) in self.nodes.iter().enumerate() {
            match node.kind {
                NetKind::WordInput => {
                    let v = wi.next().ok_or(NetlistError::InputShortage { node: i as u32 })?;
                    values[i] = vec![Value::Word(*v)];
                }
                NetKind::BitInput => {
                    let v = bi.next().ok_or(NetlistError::InputShortage { node: i as u32 })?;
                    values[i] = vec![Value::Bit(*v)];
                }
                _ => {}
            }
        }
        let mut word_out = Vec::new();
        let mut bit_out = Vec::new();
        // process in dependency order
        for &u in &order {
            let node = &self.nodes[u as usize];
            let read = |r: &NetRef, values: &[Vec<Value>]| values[r.node as usize][r.port as usize];
            match &node.kind {
                NetKind::WordInput | NetKind::BitInput => {}
                NetKind::Reg | NetKind::Fifo(_) | NetKind::BitReg => {
                    values[u as usize] = vec![read(&node.inputs[0], &values)];
                }
                NetKind::WordOutput | NetKind::BitOutput => {}
                NetKind::Pe(inst) => {
                    let rule = &rules.rules[inst.rule as usize];
                    let cfg = rule.instantiate(&inst.payloads);
                    let n_word = rule.config.word_input_map.len();
                    let words: Vec<u16> = node.inputs[..n_word]
                        .iter()
                        .map(|r| read(r, &values).word())
                        .collect();
                    let bits: Vec<bool> = node.inputs[n_word..]
                        .iter()
                        .map(|r| read(r, &values).bit())
                        .collect();
                    let (w, b) = dp
                        .evaluate_as_source(&cfg, &words, &bits)
                        .map_err(|e| NetlistError::BadConfig {
                            node: u,
                            message: e.to_string(),
                        })?;
                    let mut out: Vec<Value> = w.into_iter().map(Value::Word).collect();
                    out.extend(b.into_iter().map(Value::Bit));
                    values[u as usize] = out;
                }
            }
        }
        // outputs in node-index order
        for node in &self.nodes {
            match node.kind {
                NetKind::WordOutput => {
                    word_out.push(values[node.inputs[0].node as usize][node.inputs[0].port as usize].word())
                }
                NetKind::BitOutput => {
                    bit_out.push(values[node.inputs[0].node as usize][node.inputs[0].port as usize].bit())
                }
                _ => {}
            }
        }
        Ok((word_out, bit_out))
    }

    /// Cycle-accurate simulation. Each input stream drives one
    /// `WordInput`/`BitInput` node (in node-index order); PEs delay their
    /// outputs by `pe_latency` cycles; registers and FIFOs delay by their
    /// depth. Runs long enough to drain all state and returns the full
    /// output streams.
    ///
    /// # Errors
    /// Fails on invalid netlists or mismatched stream counts.
    pub fn simulate(
        &self,
        dp: &MergedDatapath,
        rules: &RuleSet,
        word_streams: &[Vec<u16>],
        bit_streams: &[Vec<bool>],
        pe_latency: u32,
    ) -> Result<SimStreams, NetlistError> {
        self.simulate_with(dp, rules, word_streams, bit_streams, pe_latency, &std::collections::BTreeMap::new())
    }

    /// [`Netlist::simulate`] with per-instance configuration overrides
    /// (netlist node index → configuration). The CGRA backend uses this to
    /// simulate from *decoded bitstream* configurations, proving the
    /// configuration encoding faithful.
    ///
    /// Runs on the table-compiled engine ([`crate::sim::CompiledSim`]):
    /// the netlist and every PE configuration are lowered once to a flat
    /// instruction table, then cycles execute without per-cycle decode,
    /// validation, or allocation. Output-stream and error behaviour are
    /// pinned, with and without overrides, to the decode-per-access
    /// interpreter kept as test-only spec code (`netlist/spec.rs`).
    ///
    /// # Errors
    /// Fails on invalid netlists or mismatched stream counts.
    pub fn simulate_with(
        &self,
        dp: &MergedDatapath,
        rules: &RuleSet,
        word_streams: &[Vec<u16>],
        bit_streams: &[Vec<bool>],
        pe_latency: u32,
        config_overrides: &std::collections::BTreeMap<u32, apex_merge::DatapathConfig>,
    ) -> Result<SimStreams, NetlistError> {
        crate::sim::CompiledSim::compile(self, dp, rules, pe_latency, config_overrides)?
            .run(word_streams, bit_streams)
    }
}

#[cfg(test)]
mod spec;
