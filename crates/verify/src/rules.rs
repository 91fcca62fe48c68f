//! Rewrite-rule checker pass: pattern/configuration interface equality,
//! payload-binding discipline, and bounded equivalence against the IR
//! golden model.

use crate::Violation;
use apex_ir::Op;
use apex_merge::MergedDatapath;
use apex_rewrite::{verify_rule, RewriteRule, VERIFY_TRIALS};

/// Verifies a ruleset against the datapath its rules configure.
///
/// Rules:
/// * `RULE-IFACE` — the pattern's input/output interface disagrees with
///   the configuration's maps and output selects (LHS/RHS port counts),
///   or an input map names a port the PE lacks,
/// * `RULE-PATTERN` — the pattern graph itself fails the IR pass,
/// * `RULE-CONFIG` — the configuration template fails
///   [`MergedDatapath::validate_config`],
/// * `RULE-BINDING` — a payload binding references a non-payload pattern
///   node, an out-of-range/inactive datapath node, or mismatched payload
///   kinds,
/// * `RULE-EQUIV` — the configured datapath is not observationally
///   equivalent to the pattern on [`verify_rule`]'s 64-vector battery.
///
/// The static rules gate `RULE-EQUIV`: a rule that breaks one is not
/// simulated, since [`verify_rule`] may panic on it.
pub fn verify_ruleset(dp: &MergedDatapath, rules: &[RewriteRule]) -> Vec<Violation> {
    rules
        .iter()
        .enumerate()
        .flat_map(|(ri, rule)| check_rule(dp, rule, &format!("rule #{ri} '{}'", rule.name)))
        .collect()
}

/// The `RULE-*` violations of one rule, reported against `artifact`.
pub(crate) fn check_rule(
    dp: &MergedDatapath,
    rule: &RewriteRule,
    artifact: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut broken = false;

    // --- pattern well-formedness ------------------------------------
    let pattern_violations = crate::ir::verify_graph(&rule.pattern);
    if !pattern_violations.is_empty() {
        out.push(Violation::new(
            "RULE-PATTERN",
            artifact,
            "pattern",
            format!(
                "pattern graph fails the IR pass ({}; first: {})",
                pattern_violations.len(),
                pattern_violations[0]
            ),
        ));
        broken = true;
    }

    // --- interface equality: LHS (pattern) vs RHS (config) ----------
    let count = |op: Op| rule.pattern.node_ids().filter(|&i| rule.pattern.op(i) == op).count();
    let iface = [
        (count(Op::Input), rule.config.word_input_map.len(), "word inputs"),
        (count(Op::BitInput), rule.config.bit_input_map.len(), "bit inputs"),
        (count(Op::Output), rule.config.word_out_sel.len(), "word outputs"),
        (count(Op::BitOutput), rule.config.bit_out_sel.len(), "bit outputs"),
    ];
    for (lhs, rhs, what) in iface {
        if lhs != rhs {
            out.push(Violation::new(
                "RULE-IFACE",
                artifact,
                "interface",
                format!("pattern has {lhs} {what}, configuration maps {rhs}"),
            ));
            broken = true;
        }
    }
    let maps = [
        (&rule.config.word_input_map, dp.word_inputs, "word"),
        (&rule.config.bit_input_map, dp.bit_inputs, "bit"),
    ];
    for (map, ports, what) in maps {
        if let Some(&port) = map.iter().find(|&&p| p as usize >= ports) {
            out.push(Violation::new(
                "RULE-IFACE",
                artifact,
                "interface",
                format!("{what} input mapped to PE port {port} of {ports}"),
            ));
            broken = true;
        }
    }

    // --- configuration template -------------------------------------
    if let Err(e) = dp.validate_config(&rule.config) {
        out.push(Violation::new(
            "RULE-CONFIG",
            artifact,
            "config",
            e.to_string(),
        ));
        broken = true;
    }

    // --- payload bindings -------------------------------------------
    for (bi, &(pn, dpn)) in rule.payload_bindings.iter().enumerate() {
        let loc = format!("binding[{bi}]");
        if pn.index() >= rule.pattern.len() {
            out.push(Violation::new(
                "RULE-BINDING",
                artifact,
                loc,
                format!("pattern node {pn} out of range"),
            ));
            broken = true;
            continue;
        }
        let pop = rule.pattern.op(pn);
        if !matches!(pop, Op::Const(_) | Op::BitConst(_) | Op::Lut(_)) {
            out.push(Violation::new(
                "RULE-BINDING",
                artifact,
                loc,
                format!("pattern node {pn} is {pop:?}, not a payload op"),
            ));
            broken = true;
            continue;
        }
        match rule.config.node_cfg.get(dpn as usize) {
            None => {
                out.push(Violation::new(
                    "RULE-BINDING",
                    artifact,
                    loc,
                    format!("datapath node {dpn} out of range"),
                ));
                broken = true;
            }
            Some(None) => {
                out.push(Violation::new(
                    "RULE-BINDING",
                    artifact,
                    loc,
                    format!("datapath node {dpn} is inactive in the template"),
                ));
                broken = true;
            }
            Some(Some(nc)) => {
                if std::mem::discriminant(&nc.op) != std::mem::discriminant(&pop) {
                    out.push(Violation::new(
                        "RULE-BINDING",
                        artifact,
                        loc,
                        format!("payload kind {pop:?} != bound register op {:?}", nc.op),
                    ));
                    broken = true;
                }
            }
        }
    }

    // --- bounded equivalence ----------------------------------------
    if !broken && !verify_rule(dp, rule) {
        out.push(Violation::new(
            "RULE-EQUIV",
            artifact,
            "equivalence",
            format!(
                "configured datapath diverges from the pattern on the \
                 {VERIFY_TRIALS}-vector witness battery"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::Graph;
    use apex_merge::MergedDatapath;

    fn scale() -> (MergedDatapath, Vec<RewriteRule>) {
        let mut g = Graph::new("scale");
        let a = g.input();
        let c = g.constant(7);
        let m = g.add(Op::Mul, &[a, c]);
        g.output(m);
        let dp = MergedDatapath::from_graph(&g);
        let const_dp_node = dp.configs[0]
            .node_map
            .iter()
            .find(|(src, _)| *src == c.0)
            .map(|(_, dpn)| *dpn)
            .expect("const mapped");
        let rule = RewriteRule {
            name: "mul_const".into(),
            pattern: g,
            config: dp.configs[0].clone(),
            payload_bindings: vec![(c, const_dp_node)],
            ops_covered: 2,
        };
        (dp, vec![rule])
    }

    #[test]
    fn honest_rule_is_clean() {
        let (dp, rules) = scale();
        let vs = verify_ruleset(&dp, &rules);
        assert!(vs.is_empty(), "{}", crate::render(&vs));
    }

    #[test]
    fn synthesis_battery_flags_a_corner_agreeing_lie() {
        // the PE computes umax(a >> b, b); the rule claims umax(a, b).
        // The two agree on every corner vector, so a corners-only
        // battery accepts the lie; the battery's random vectors reject it
        let mut pe = Graph::new("umax_lshr");
        let (a, b) = (pe.input(), pe.input());
        let s = pe.add(Op::Lshr, &[a, b]);
        let m = pe.add(Op::Umax, &[s, b]);
        pe.output(m);
        let dp = MergedDatapath::from_graph(&pe);
        let mut claim = Graph::new("umax");
        let (a, b) = (claim.input(), claim.input());
        let m = claim.add(Op::Umax, &[a, b]);
        claim.output(m);
        let lie = vec![RewriteRule {
            name: "umax".into(),
            pattern: claim,
            config: dp.configs[0].clone(),
            payload_bindings: Vec::new(),
            ops_covered: 1,
        }];
        let vs = verify_ruleset(&dp, &lie);
        assert_eq!(vs.len(), 1, "{}", crate::render(&vs));
        assert_eq!(vs[0].rule, "RULE-EQUIV");
        assert!(vs[0].message.contains("64-vector"), "{}", vs[0].message);
    }

    #[test]
    fn interface_mismatch_is_caught() {
        let (dp, mut rules) = scale();
        rules[0].config.word_input_map.push(0);
        let vs = verify_ruleset(&dp, &rules);
        assert!(vs.iter().any(|v| v.rule == "RULE-IFACE"), "{}", crate::render(&vs));
    }

    #[test]
    fn input_map_port_out_of_range_is_caught_not_simulated() {
        let (dp, mut rules) = scale();
        rules[0].config.word_input_map[0] = dp.word_inputs as u16;
        let vs = verify_ruleset(&dp, &rules);
        assert_eq!(vs.len(), 1, "{}", crate::render(&vs));
        assert_eq!(vs[0].rule, "RULE-IFACE");
    }

    #[test]
    fn lying_pattern_fails_equivalence() {
        let (dp, mut rules) = scale();
        // claim the PE computes a + C instead of a * C
        let mut g = Graph::new("lie");
        let a = g.input();
        let c = g.constant(7);
        let s = g.add(Op::Add, &[a, c]);
        g.output(s);
        let dpn = rules[0].payload_bindings[0].1;
        rules[0].pattern = g;
        rules[0].payload_bindings = vec![(c, dpn)];
        let vs = verify_ruleset(&dp, &rules);
        assert!(vs.iter().any(|v| v.rule == "RULE-EQUIV"), "{}", crate::render(&vs));
    }

    #[test]
    fn binding_to_non_payload_node_is_caught() {
        let (dp, mut rules) = scale();
        let input_node = rules[0]
            .pattern
            .node_ids()
            .find(|&i| rules[0].pattern.op(i) == Op::Input)
            .expect("input exists");
        rules[0].payload_bindings[0].0 = input_node;
        let vs = verify_ruleset(&dp, &rules);
        assert!(vs.iter().any(|v| v.rule == "RULE-BINDING"), "{}", crate::render(&vs));
    }
}
