//! IR checker pass: reports [`Graph::defects`] (port arity, operand
//! order, operand types) as violations, and adds the liveness checks
//! (`IR-DEAD`, `IR-OUTPUT`) that only make sense as diagnostics.

use crate::Violation;
use apex_ir::{Graph, GraphError, Op};

/// Verifies a dataflow graph. Never panics, even on wildly corrupt
/// inputs (out-of-range operand ids, wrong arities).
///
/// Rules:
/// * `IR-ARITY` — a node's input count disagrees with its op's arity,
/// * `IR-SSA` — an operand references the node itself or a later node
///   (the sequential-id encoding of a cycle / use-before-def),
/// * `IR-TYPE` — an operand's type disagrees with the port's type,
/// * `IR-DEAD` — a non-input node from which no primary output is
///   reachable (its value is computed but never observed),
/// * `IR-OUTPUT` — a primary output not reachable from any primary
///   input, in a graph that has primary inputs (the output can only
///   ever produce a constant).
///
/// The first three are [`Graph::defects`], the check
/// [`Graph::try_validate`] runs; liveness is checked only on a graph
/// without them.
pub fn verify_graph(g: &Graph) -> Vec<Violation> {
    let artifact = format!("graph '{}'", g.name());
    let mut out: Vec<Violation> = g
        .defects()
        .into_iter()
        .map(|d| {
            let node = d.node;
            let location = match d.port {
                Some(port) => format!("node {node} port {port}"),
                None => format!("node {node}"),
            };
            let (rule, message) = match d.error {
                GraphError::PortCountMismatch { op, expected, got } => {
                    ("IR-ARITY", format!("{op:?} takes {expected} input(s), found {got}"))
                }
                GraphError::UnknownNode { id } => {
                    ("IR-SSA", format!("operand {id} is not defined before {node}"))
                }
                GraphError::PortTypeMismatch {
                    port,
                    expected,
                    got,
                    ..
                } => {
                    let src = g.node(node).inputs()[port];
                    ("IR-TYPE", format!("expected {expected:?} operand, {src} produces {got:?}"))
                }
            };
            Violation::new(rule, &artifact, location, message)
        })
        .collect();
    if !out.is_empty() {
        // liveness is meaningless on structurally broken graphs
        return out;
    }

    // --- liveness: reverse reachability from the primary outputs -------
    let n = g.len();
    let mut live = vec![false; n];
    let mut stack: Vec<_> = g.primary_outputs();
    for &o in &stack {
        live[o.index()] = true;
    }
    while let Some(v) = stack.pop() {
        for &src in g.node(v).inputs() {
            if !live[src.index()] {
                live[src.index()] = true;
                stack.push(src);
            }
        }
    }
    for (id, node) in g.iter() {
        if live[id.index()] {
            continue;
        }
        // unused primary inputs are legal (an interface is not a value)
        if matches!(node.op(), Op::Input | Op::BitInput) {
            continue;
        }
        out.push(Violation::new(
            "IR-DEAD",
            &artifact,
            format!("node {id}"),
            format!("{:?} reaches no primary output", node.op()),
        ));
    }

    // --- unreachable outputs: forward reachability from the inputs -----
    let primary_inputs = g.primary_inputs();
    if !primary_inputs.is_empty() {
        let fan = g.fanouts();
        let mut reach = vec![false; n];
        let mut stack = primary_inputs;
        for &i in &stack {
            reach[i.index()] = true;
        }
        while let Some(v) = stack.pop() {
            for &dst in &fan[v.index()] {
                if !reach[dst.index()] {
                    reach[dst.index()] = true;
                    stack.push(dst);
                }
            }
        }
        for o in g.primary_outputs() {
            if !reach[o.index()] {
                out.push(Violation::new(
                    "IR-OUTPUT",
                    &artifact,
                    format!("node {o}"),
                    "primary output depends on no primary input".to_owned(),
                ));
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::{NodeId, Op};

    #[test]
    fn clean_graph_has_no_violations() {
        let mut g = Graph::new("ok");
        let a = g.input();
        let b = g.input();
        let s = g.add(Op::Add, &[a, b]);
        g.output(s);
        assert!(verify_graph(&g).is_empty());
    }

    #[test]
    fn dead_node_is_flagged() {
        let mut g = Graph::new("dead");
        let a = g.input();
        let b = g.input();
        let s = g.add(Op::Add, &[a, b]);
        g.add(Op::Mul, &[a, b]);
        g.output(s);
        let vs = verify_graph(&g);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "IR-DEAD");
    }

    #[test]
    fn constant_only_output_is_flagged_when_inputs_exist() {
        let mut g = Graph::new("constout");
        let a = g.input();
        let c = g.constant(7);
        g.output(a);
        g.output(c);
        let vs = verify_graph(&g);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "IR-OUTPUT");
    }

    #[test]
    fn const_passthrough_pattern_is_clean() {
        // rewrite rules for standalone constants have no primary inputs;
        // IR-OUTPUT must not fire on them
        let mut g = Graph::new("const");
        let c = g.constant(3);
        g.output(c);
        assert!(verify_graph(&g).is_empty());
    }

    #[test]
    fn forward_reference_is_ssa_violation() {
        let g = Graph::from_raw_parts(
            "fwd",
            vec![
                (Op::Input, vec![]),
                (Op::Add, vec![NodeId(0), NodeId(2)]),
                (Op::Input, vec![]),
                (Op::Output, vec![NodeId(1)]),
            ],
        );
        let vs = verify_graph(&g);
        assert!(vs.iter().any(|v| v.rule == "IR-SSA"), "{vs:?}");
    }

    #[test]
    fn out_of_range_operand_does_not_panic() {
        let g = Graph::from_raw_parts(
            "oob",
            vec![(Op::Input, vec![]), (Op::Output, vec![NodeId(99)])],
        );
        let vs = verify_graph(&g);
        assert!(vs.iter().any(|v| v.rule == "IR-SSA"));
    }

    #[test]
    fn arity_and_type_violations_are_both_reported() {
        let g = Graph::from_raw_parts(
            "bad",
            vec![
                (Op::Input, vec![]),
                (Op::Eq, vec![NodeId(0), NodeId(0)]),
                (Op::Add, vec![NodeId(0)]),                       // arity
                (Op::Mul, vec![NodeId(0), NodeId(1)]),            // type (bit into word port)
                (Op::Output, vec![NodeId(3)]),
            ],
        );
        let vs = verify_graph(&g);
        assert!(vs.iter().any(|v| v.rule == "IR-ARITY"));
        assert!(vs.iter().any(|v| v.rule == "IR-TYPE"));
    }
}
