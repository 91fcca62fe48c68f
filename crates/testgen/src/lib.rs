//! # apex-testgen — the test suites' random dataflow graphs and golden check
//!
//! Every property suite in the workspace draws its random applications
//! from one seeded generator, [`DfgGen`], stated as data: the op mix, the
//! word and bit input counts, the draw-count range and the outputs rule.
//! It is a proptest [`Strategy`] for suites that link the same `apex-ir`
//! as this crate (integration tests, and the spec modules of every other
//! crate), and a `seed → DFG text` function ([`DfgGen::text`]) for
//! `apex-ir`'s own `#[cfg(test)]` modules, which link a second copy of
//! `apex-ir` that a [`Graph`] cannot cross into.
//!
//! [`ir_golden`] is the one IR golden check: it feeds split word and bit
//! input vectors to [`apex_ir::evaluate`] in `primary_inputs` order and
//! splits the outputs the same way, the shape every mapped netlist,
//! merged datapath and configured PE evaluates to.
//!
//! ```
//! use apex_ir::Op;
//! use apex_testgen::DfgGen;
//!
//! const MAC: DfgGen = DfgGen {
//!     name: "mac",
//!     inputs: (3, 0),
//!     ops: &[Op::Add, Op::Mul],
//!     const_ops: &[Op::Mul],
//!     len: 2..10,
//!     outputs: (1, 0),
//! };
//! let g = apex_ir::from_text(&MAC.text(7)).unwrap();
//! assert!(g.try_validate().is_ok());
//! let (words, bits) = apex_testgen::ir_golden(&g, &[1, 2, 3], &[]);
//! assert_eq!((words.len(), bits.len()), (1, 0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use apex_ir::{evaluate, to_text, Graph, NodeId, Op, Value, ValueType};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use std::ops::Range;

/// The `apex-ir` this crate links. `apex-ir`'s own test modules link a
/// second copy, so they name this one's ops through here and take its
/// graphs as DFG text.
pub use apex_ir;

/// A random dataflow graph, stated as data.
///
/// The graph starts with its word inputs, then its bit inputs. Each of
/// `len` draws then picks one entry of `ops` ++ `const_ops` uniformly and
/// adds that op, reading operands picked uniformly from the values
/// produced so far of each port's type. Payload ops draw a fresh payload
/// (`Const` any word, `BitConst` any bit, `Lut` any table, `Fifo` a depth
/// of 1 to 4), and a sink (`Output`, `BitOutput`) adds a primary output
/// instead of a value. Finally the last `outputs.0` word values (newest
/// first) and the last `outputs.1` bit values become primary outputs.
#[derive(Debug)]
pub struct DfgGen {
    /// The graph's name.
    pub name: &'static str,
    /// Word and bit primary inputs.
    pub inputs: (usize, usize),
    /// Ops drawn over operands from the graph.
    pub ops: &'static [Op],
    /// Binary ops drawn with a fresh word constant on port 1.
    pub const_ops: &'static [Op],
    /// Number of draws.
    pub len: Range<usize>,
    /// Trailing word and bit values that become primary outputs.
    pub outputs: (usize, usize),
}

impl DfgGen {
    /// The graph of proptest case `seed` (when it is the property's first
    /// parameter), in DFG text.
    pub fn text(&self, seed: u64) -> String {
        to_text(&self.generate(&mut TestRng::deterministic(seed)))
    }
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

impl Strategy for DfgGen {
    type Value = Graph;

    fn generate(&self, rng: &mut TestRng) -> Graph {
        let mut g = Graph::new(self.name);
        let mut words: Vec<NodeId> = (0..self.inputs.0).map(|_| g.input()).collect();
        let mut bits: Vec<NodeId> = (0..self.inputs.1).map(|_| g.bit_input()).collect();
        let n_draws = self.len.start + below(rng, self.len.len());
        for _ in 0..n_draws {
            let k = below(rng, self.ops.len() + self.const_ops.len());
            let (op, with_const) = match self.ops.get(k) {
                Some(&op) => (op, false),
                None => (self.const_ops[k - self.ops.len()], true),
            };
            let op = match op {
                Op::Const(_) => Op::Const(rng.next_u64() as u16),
                Op::BitConst(_) => Op::BitConst(rng.next_u64() & 1 == 1),
                Op::Fifo(_) => Op::Fifo(1 + below(rng, 4) as u8),
                Op::Lut(_) => Op::Lut(rng.next_u64() as u8),
                op => op,
            };
            let mut operands: Vec<NodeId> = op
                .input_types()
                .iter()
                .map(|ty| {
                    let pool = match ty {
                        ValueType::Word => &words,
                        ValueType::Bit => &bits,
                    };
                    assert!(!pool.is_empty(), "{}: {op} reads a {ty:?} value", self.name);
                    pool[below(rng, pool.len())]
                })
                .collect();
            if with_const {
                operands[1] = g.constant(rng.next_u64() as u16);
            }
            let n = g.add(op, &operands);
            match (op, op.output_type()) {
                (Op::Output | Op::BitOutput, _) => {}
                (_, ValueType::Word) => words.push(n),
                (_, ValueType::Bit) => bits.push(n),
            }
        }
        for &w in words.iter().rev().take(self.outputs.0) {
            g.output(w);
        }
        for &b in bits.iter().rev().take(self.outputs.1) {
            g.bit_output(b);
        }
        g
    }
}

/// The graph's word and bit primary-input counts.
pub fn input_counts(graph: &Graph) -> (usize, usize) {
    let bits = graph
        .primary_inputs()
        .iter()
        .filter(|&&pi| graph.op(pi) == Op::BitInput)
        .count();
    (graph.primary_inputs().len() - bits, bits)
}

/// The IR golden model on split input vectors: `words` and `bits` feed
/// the word and bit primary inputs in `primary_inputs` order, and the
/// outputs come back split the same way.
///
/// # Panics
/// Panics if a vector is shorter than the graph's inputs of its type.
pub fn ir_golden(graph: &Graph, words: &[u16], bits: &[bool]) -> (Vec<u16>, Vec<bool>) {
    let (mut wi, mut bi) = (words.iter(), bits.iter());
    let inputs: Vec<Value> = graph
        .primary_inputs()
        .iter()
        .map(|&pi| match graph.op(pi) {
            Op::BitInput => Value::Bit(*bi.next().expect("a bit input value")),
            _ => Value::Word(*wi.next().expect("a word input value")),
        })
        .collect();
    let (mut out_w, mut out_b) = (Vec::new(), Vec::new());
    for v in evaluate(graph, &inputs) {
        match v {
            Value::Word(w) => out_w.push(w),
            Value::Bit(b) => out_b.push(b),
        }
    }
    (out_w, out_b)
}
