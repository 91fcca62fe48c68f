//! Merge checker pass: reports [`MergedDatapath::defects`] (the
//! structural check [`MergedDatapath::validate`] runs) as violations, and
//! checks that the rule synthesis builds from each stored configuration
//! passes the rewrite-rule checks.

use crate::Violation;
use apex_ir::Graph;
use apex_merge::{DatapathDefectKind as Kind, DatapathError, MergedDatapath};
use apex_rewrite::config_rules;

/// Verifies a merged datapath against its constituent source subgraphs.
///
/// `sources[i]` must be the subgraph that `dp.configs[i]` claims to
/// implement; pass `&[]` to run the structural checks only.
///
/// Rules:
/// * `MERGE-STRUCT` — the candidate-edge union is cyclic, or a node has
///   no ops, or its ops disagree on output type / exceed the port count,
/// * `MERGE-PORT` — a dangling or out-of-range mux candidate (port with
///   no candidates, self-loop, unknown node/input, type mismatch),
/// * `MERGE-MUX` — duplicate candidates on one mux (selection would be
///   ambiguous rather than exclusive),
/// * `MERGE-CONFIG` — a stored configuration fails
///   [`MergedDatapath::validate_config`] (checked here only when
///   `sources` is empty or misaligned; otherwise `MERGE-WITNESS`
///   reports it as `RULE-CONFIG`),
/// * `MERGE-IFACE` — a configuration's input map names a port the PE
///   lacks (likewise, otherwise reported as `RULE-IFACE`),
/// * `MERGE-WITNESS` — `sources` is not aligned with the configurations,
///   or the rule synthesis builds from a stored configuration
///   ([`config_rules`]) cannot be built (a payload node without a
///   `node_map` entry) or fails a `RULE-*` check of
///   [`crate::verify_ruleset`]: its pattern fails the IR pass, or the
///   rule engine's verdict (the 64-vector equivalence battery included)
///   is not `Holds`. Synthesis (`apex_rewrite::rules_from_configs`)
///   keeps exactly the rules whose verdict holds, so it drops a
///   configuration whose source passes the IR pass exactly when this
///   fires.
pub fn verify_datapath(dp: &MergedDatapath, sources: &[Graph]) -> Vec<Violation> {
    let mut out = Vec::new();
    let artifact = format!("datapath '{}'", dp.name);

    // --- structure: DAG, node op sets, mux candidates ------------------
    for d in dp.defects() {
        let location = match (d.node, d.port, d.leg) {
            (None, ..) => "nodes".to_owned(),
            (Some(i), None, _) => format!("node n{i}"),
            (Some(i), Some(p), None) => format!("node n{i} port {p}"),
            (Some(i), Some(p), Some(leg)) => format!("node n{i} port {p} leg {leg}"),
        };
        let (rule, message) = match d.kind {
            Kind::Cyclic => ("MERGE-STRUCT", DatapathError::Cyclic.to_string()),
            Kind::NoOps => ("MERGE-STRUCT", "functional unit with no operations".to_owned()),
            Kind::OpType(op, ty) => (
                "MERGE-STRUCT",
                format!("{op:?} output type differs from the unit's {ty:?}"),
            ),
            Kind::OpArity(op, ports) => (
                "MERGE-STRUCT",
                format!("{op:?} needs {} port(s), unit has {ports}", op.arity()),
            ),
            Kind::Dangling => (
                "MERGE-PORT",
                "used port has no candidate sources (dangling)".to_owned(),
            ),
            Kind::OutOfRange(c) => (
                "MERGE-PORT",
                format!("candidate {c:?} out of range (or self-loop)"),
            ),
            Kind::PortType(c, got, op, want) => (
                "MERGE-PORT",
                format!("{c:?} produces {got:?}, {op:?} expects {want:?}"),
            ),
            Kind::Duplicate => (
                "MERGE-MUX",
                "duplicate mux candidates (selection not exclusive)".to_owned(),
            ),
        };
        out.push(Violation::new(rule, &artifact, location, message));
    }

    // --- configurations -------------------------------------------------
    // with aligned sources, each configuration's rule check below runs
    // the same `validate_config` and port-range checks (as `RULE-CONFIG`
    // and `RULE-IFACE` under `MERGE-WITNESS`), so these run only when it
    // cannot, and each defect is reported once
    if sources.is_empty() || sources.len() != dp.configs.len() {
        for (ci, cfg) in dp.configs.iter().enumerate() {
            if let Err(e) = dp.validate_config(cfg) {
                out.push(Violation::new(
                    "MERGE-CONFIG",
                    &artifact,
                    format!("config[{ci}] '{}'", cfg.name),
                    e.to_string(),
                ));
            }
            let maps = [
                (&cfg.word_input_map, dp.word_inputs, "word"),
                (&cfg.bit_input_map, dp.bit_inputs, "bit"),
            ];
            for (map, ports, what) in maps {
                for (i, &port) in map.iter().enumerate().filter(|&(_, &p)| p as usize >= ports) {
                    out.push(Violation::new(
                        "MERGE-IFACE",
                        &artifact,
                        format!("config[{ci}] {what}_input_map[{i}]"),
                        format!("PE {what} port {port} out of range ({ports} ports)"),
                    ));
                }
            }
        }
    }

    // --- per-source rule check ------------------------------------------
    if sources.is_empty() {
        return out;
    }
    if sources.len() != dp.configs.len() {
        out.push(Violation::new(
            "MERGE-WITNESS",
            &artifact,
            "configs",
            format!(
                "{} source subgraph(s) but {} configuration(s)",
                sources.len(),
                dp.configs.len()
            ),
        ));
        return out;
    }
    for (ci, rule) in config_rules(dp, sources).enumerate() {
        let loc = format!("config[{ci}] '{}'", dp.configs[ci].name);
        let found = match rule {
            Err(node) => vec![format!(
                "payload node {node} of source '{}' has no node_map entry",
                sources[ci].name()
            )],
            Ok(rule) => crate::rules::check_rule(dp, &rule, &artifact)
                .into_iter()
                .map(|v| format!("{}: {}", v.rule, v.message))
                .collect(),
        };
        for message in found {
            out.push(Violation::new("MERGE-WITNESS", &artifact, loc.clone(), message));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::Op;
    use apex_merge::{merge_all, MergeOptions};
    use apex_tech::TechModel;

    fn mac() -> Graph {
        let mut g = Graph::new("mac");
        let (a, b, c) = (g.input(), g.input(), g.input());
        let m = g.add(Op::Mul, &[a, b]);
        let s = g.add(Op::Add, &[m, c]);
        g.output(s);
        g
    }

    fn addsub() -> Graph {
        let mut g = Graph::new("addsub");
        let (a, b, c) = (g.input(), g.input(), g.input());
        let s = g.add(Op::Add, &[a, b]);
        let d = g.add(Op::Sub, &[s, c]);
        g.output(d);
        g
    }

    fn merged() -> (MergedDatapath, Vec<Graph>) {
        let sources = vec![mac(), addsub()];
        let (dp, _) = merge_all(&sources, &TechModel::default(), &MergeOptions::default())
            .expect("merge succeeds");
        (dp, sources)
    }

    #[test]
    fn honest_merge_is_clean() {
        let (dp, sources) = merged();
        let vs = verify_datapath(&dp, &sources);
        assert!(vs.is_empty(), "{}", crate::render(&vs));
    }

    #[test]
    fn swapped_input_map_fails_witness() {
        let (mut dp, sources) = merged();
        // addsub is order-sensitive: permuting its input map changes a-b
        let cfg = &mut dp.configs[1];
        cfg.word_input_map.swap(0, 2);
        let vs = verify_datapath(&dp, &sources);
        assert!(
            vs.iter().any(|v| v.rule == "MERGE-WITNESS"),
            "{}",
            crate::render(&vs)
        );
    }

    #[test]
    fn unmapped_payload_node_is_a_violation_not_a_panic() {
        // out = a * 7, whose stored configuration loses the constant's
        // node_map entry: no datapath node would receive its payload
        let mut g = Graph::new("scale");
        let a = g.input();
        let c = g.constant(7);
        let m = g.add(Op::Mul, &[a, c]);
        g.output(m);
        let sources = [g];
        let mut dp = MergedDatapath::from_graph(&sources[0]);
        assert!(verify_datapath(&dp, &sources).is_empty());
        dp.configs[0].node_map.retain(|&(src, _)| src != c.0);
        let vs = verify_datapath(&dp, &sources);
        assert_eq!(vs.len(), 1, "{}", crate::render(&vs));
        assert_eq!(vs[0].rule, "MERGE-WITNESS");
        assert!(vs[0].message.contains("no node_map entry"), "{}", vs[0].message);
        // synthesis drops the configuration the same way
        assert!(apex_rewrite::rules_from_configs(&dp, &sources).is_empty());
    }

    #[test]
    fn interface_disagreeing_with_the_source_fails_witness() {
        let (mut dp, sources) = merged();
        dp.configs[0].word_out_sel.clear();
        let vs = verify_datapath(&dp, &sources);
        assert_eq!(vs.len(), 1, "{}", crate::render(&vs));
        assert_eq!(vs[0].rule, "MERGE-WITNESS");
        assert!(vs[0].message.starts_with("RULE-IFACE"), "{}", vs[0].message);
    }

    /// An out-of-range input-map port is one defect, reported once:
    /// under `MERGE-WITNESS` when sources are given, as `MERGE-IFACE`
    /// when they are not.
    #[test]
    fn out_of_range_port_is_reported_once() {
        let mut g = Graph::new("sub");
        let (a, b) = (g.input(), g.input());
        let d = g.add(Op::Sub, &[a, b]);
        g.output(d);
        let sources = [g];
        let mut dp = MergedDatapath::from_graph(&sources[0]);
        dp.configs[0].word_input_map[0] = 9;
        let vs = verify_datapath(&dp, &sources);
        assert_eq!(vs.len(), 1, "{}", crate::render(&vs));
        assert_eq!(vs[0].rule, "MERGE-WITNESS");
        assert!(vs[0].message.starts_with("RULE-IFACE"), "{}", vs[0].message);
        let vs = verify_datapath(&dp, &[]);
        assert_eq!(vs.len(), 1, "{}", crate::render(&vs));
        assert_eq!(vs[0].rule, "MERGE-IFACE");
    }

    #[test]
    fn duplicate_mux_leg_is_caught() {
        let (mut dp, sources) = merged();
        let dup = dp.nodes[0].port_candidates[0][0];
        dp.nodes[0].port_candidates[0].push(dup);
        let vs = verify_datapath(&dp, &sources);
        assert!(vs.iter().any(|v| v.rule == "MERGE-MUX"), "{}", crate::render(&vs));
    }

    #[test]
    fn dangling_port_is_caught() {
        let (mut dp, _) = merged();
        dp.nodes[0].port_candidates[0].clear();
        let vs = verify_datapath(&dp, &[]);
        assert!(vs.iter().any(|v| v.rule == "MERGE-PORT"), "{}", crate::render(&vs));
    }

    #[test]
    fn config_source_count_mismatch_is_caught() {
        let (dp, mut sources) = merged();
        sources.pop();
        let vs = verify_datapath(&dp, &sources);
        assert!(
            vs.iter().any(|v| v.rule == "MERGE-WITNESS"),
            "{}",
            crate::render(&vs)
        );
    }
}
