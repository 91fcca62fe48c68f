//! Seeded input vectors and the IR interpreter's golden outputs, which
//! every workload's outputs are checked against.

use crate::stats::Rng;
use apex_ir::{Graph, Op, Value};

/// One input vector, split the way mapped netlists bind inputs (word and
/// bit inputs each in node order), plus the interpreter's view of it.
#[derive(Debug, Clone)]
pub struct Vector {
    pub words: Vec<u16>,
    pub bits: Vec<bool>,
    values: Vec<Value>,
}

pub fn random_vector(graph: &Graph, rng: &mut Rng) -> Vector {
    let mut v = Vector {
        words: Vec::new(),
        bits: Vec::new(),
        values: Vec::new(),
    };
    for pi in graph.primary_inputs() {
        if graph.op(pi) == Op::BitInput {
            let b = rng.bit();
            v.bits.push(b);
            v.values.push(Value::Bit(b));
        } else {
            let w = rng.word();
            v.words.push(w);
            v.values.push(Value::Word(w));
        }
    }
    v
}

/// The interpreter's outputs for `v`: word outputs and bit outputs, each
/// in node order.
pub fn golden(graph: &Graph, v: &Vector) -> (Vec<u16>, Vec<bool>) {
    let mut words = Vec::new();
    let mut bits = Vec::new();
    for (po, value) in graph
        .primary_outputs()
        .into_iter()
        .zip(apex_ir::evaluate(graph, &v.values))
    {
        if graph.op(po) == Op::BitOutput {
            bits.push(value.bit());
        } else {
            words.push(value.word());
        }
    }
    (words, bits)
}
