//! Reference interpreter for dataflow graphs.
//!
//! [`evaluate`] gives a graph's combinational semantics: registers and
//! FIFOs act as wires. This is the *golden model* every downstream stage
//! (rewrite-rule synthesis, mapping, pipelining, CGRA simulation) is
//! checked against; cycle timing is checked on netlists and on the
//! fabric, against `evaluate` at a latency offset.

use crate::graph::Graph;
use crate::op::{Op, Value};

/// Evaluates a graph combinationally.
///
/// `inputs` are bound to the graph's primary inputs in
/// [`Graph::primary_inputs`] order. Returns output values in
/// [`Graph::primary_outputs`] order.
///
/// # Panics
/// Panics if `inputs` has the wrong length or a value's type does not match
/// its input node.
// invariant: sequential node ids are a topological order (enforced by
// `Graph::try_add`), so every operand is evaluated before its consumer
#[allow(clippy::expect_used)]
pub fn evaluate(graph: &Graph, inputs: &[Value]) -> Vec<Value> {
    let pis = graph.primary_inputs();
    assert_eq!(
        inputs.len(),
        pis.len(),
        "graph '{}' has {} primary inputs, got {}",
        graph.name(),
        pis.len(),
        inputs.len()
    );
    let mut values: Vec<Option<Value>> = vec![None; graph.len()];
    for (&pi, &v) in pis.iter().zip(inputs) {
        assert_eq!(
            v.value_type(),
            graph.op(pi).output_type(),
            "input {pi} type mismatch"
        );
        values[pi.index()] = Some(v);
    }
    let mut in_buf: Vec<Value> = Vec::with_capacity(3);
    for (id, node) in graph.iter() {
        if matches!(node.op(), Op::Input | Op::BitInput) {
            continue;
        }
        in_buf.clear();
        in_buf.extend(
            node.inputs()
                .iter()
                .map(|s| values[s.index()].expect("topological order violated")),
        );
        values[id.index()] = Some(node.op().eval(&in_buf));
    }
    graph
        .primary_outputs()
        .iter()
        .map(|po| values[po.index()].expect("unevaluated output"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{Op, Value};

    fn mac() -> Graph {
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
    fn evaluate_mac() {
        let g = mac();
        let out = evaluate(&g, &[Value::Word(3), Value::Word(4), Value::Word(5)]);
        assert_eq!(out, vec![Value::Word(17)]);
    }

    #[test]
    fn evaluate_treats_reg_as_wire() {
        let mut g = Graph::new("regwire");
        let a = g.input();
        let r = g.add(Op::Reg, &[a]);
        g.output(r);
        let out = evaluate(&g, &[Value::Word(42)]);
        assert_eq!(out, vec![Value::Word(42)]);
    }
}
