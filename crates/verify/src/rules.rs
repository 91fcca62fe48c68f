//! Rewrite-rule checker pass: the pattern's IR pass, then the rule
//! engine's verdict (interface, configuration, payload bindings, and
//! bounded equivalence against the IR golden model).

use crate::Violation;
use apex_merge::MergedDatapath;
use apex_rewrite::{verdict, DefectKind, RewriteRule, RuleVerdict, VERIFY_TRIALS};

/// Verifies a ruleset against the datapath its rules configure.
///
/// Rules:
/// * `RULE-IFACE` — the pattern's input/output interface disagrees with
///   the configuration's maps and output selects (LHS/RHS port counts),
///   or an input map names a port the PE lacks,
/// * `RULE-PATTERN` — the pattern graph itself fails the IR pass,
/// * `RULE-CONFIG` — the configuration template fails
///   [`MergedDatapath::validate_config`], the datapath is cyclic, or a
///   selected source has the wrong type for its port or output,
/// * `RULE-BINDING` — a payload binding references a non-payload pattern
///   node, an out-of-range/inactive datapath node, or mismatched payload
///   kinds,
/// * `RULE-EQUIV` — the configured datapath is not observationally
///   equivalent to the pattern on [`verdict`]'s
///   64-vector battery; the message gives the counterexample.
///
/// Besides `RULE-PATTERN`, a rule gets one violation: the
/// [`RuleVerdict`] of [`verdict`], whose malformed case names the first
/// condition the rule breaks.
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
    let pattern_violations = crate::ir::verify_graph(&rule.pattern);
    if let Some(first) = pattern_violations.first() {
        out.push(Violation::new(
            "RULE-PATTERN",
            artifact,
            "pattern",
            format!(
                "pattern graph fails the IR pass ({}; first: {first})",
                pattern_violations.len()
            ),
        ));
    }
    let (rule_id, location, message) = match verdict(dp, rule) {
        RuleVerdict::Holds { .. } => return out,
        RuleVerdict::Diverges {
            vector,
            inputs,
            payloads,
            output,
            want,
            got,
        } => (
            "RULE-EQUIV",
            "equivalence".to_owned(),
            format!(
                "configured datapath diverges from the pattern on the \
                 {VERIFY_TRIALS}-vector witness battery: vector {vector} \
                 (inputs {inputs:?}, payloads {payloads:?}) gives output \
                 {output} {got:?}, the pattern {want:?}"
            ),
        ),
        RuleVerdict::Malformed(defect) => {
            let (rule_id, location) = match defect.kind {
                // the IR pass above has reported it
                DefectKind::Pattern if !out.is_empty() => return out,
                DefectKind::Pattern => ("RULE-PATTERN", "pattern".to_owned()),
                DefectKind::Interface => ("RULE-IFACE", "interface".to_owned()),
                DefectKind::Binding(index) => ("RULE-BINDING", format!("binding[{index}]")),
                DefectKind::Config => ("RULE-CONFIG", "config".to_owned()),
            };
            (rule_id, location, defect.message)
        }
    };
    out.push(Violation::new(rule_id, artifact, location, message));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::{Graph, Op};

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
        // the counterexample is a random vector, and the IR interpreter
        // reproduces the pattern's side of it
        let RuleVerdict::Diverges {
            vector,
            inputs,
            payloads,
            output,
            want,
            got,
        } = verdict(&dp, &lie[0])
        else {
            panic!("the lie must diverge");
        };
        assert!(vector >= 36, "vector {vector}");
        assert_ne!(got, want);
        assert!(payloads.is_empty());
        assert_eq!(apex_ir::evaluate(&lie[0].pattern, &inputs)[output], want);
        assert!(vs[0].message.contains(&format!("vector {vector} ")), "{}", vs[0].message);
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
