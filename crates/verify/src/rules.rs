//! Rewrite-rule checker pass: pattern/configuration interface equality,
//! payload-binding discipline, and optional bounded equivalence against
//! the IR golden model.

use crate::Violation;
use apex_ir::Op;
use apex_merge::MergedDatapath;
use apex_rewrite::{verify_rule, RewriteRule};

/// Verifies a ruleset against the datapath its rules configure.
///
/// `equiv_trials` is the battery size of the `RULE-EQUIV`
/// bounded-equivalence check, passed to [`verify_rule`]: `max(trials,
/// 36)` vectors, of which the first 36 are corner vectors and only the
/// rest random (`apex_rewrite::VERIFY_TRIALS` is synthesis's own
/// battery); 0 skips the (comparatively expensive) equivalence check and
/// runs only the static rules.
///
/// Rules:
/// * `RULE-IFACE` — the pattern's input/output interface disagrees with
///   the configuration's maps and output selects (LHS/RHS port counts),
/// * `RULE-PATTERN` — the pattern graph itself fails the IR pass,
/// * `RULE-CONFIG` — the configuration template fails
///   [`MergedDatapath::validate_config`],
/// * `RULE-BINDING` — a payload binding references a non-payload pattern
///   node, an out-of-range/inactive datapath node, or mismatched payload
///   kinds,
/// * `RULE-EQUIV` — the configured datapath is not observationally
///   equivalent to the pattern on the witness battery.
pub fn verify_ruleset(
    dp: &MergedDatapath,
    rules: &[RewriteRule],
    equiv_trials: usize,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (ri, rule) in rules.iter().enumerate() {
        let artifact = format!("rule #{ri} '{}'", rule.name);
        let mut broken = false;

        // --- pattern well-formedness ------------------------------------
        let pattern_violations = crate::ir::verify_graph(&rule.pattern);
        if !pattern_violations.is_empty() {
            out.push(Violation::new(
                "RULE-PATTERN",
                &artifact,
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
                    &artifact,
                    "interface",
                    format!("pattern has {lhs} {what}, configuration maps {rhs}"),
                ));
                broken = true;
            }
        }

        // --- configuration template -------------------------------------
        if let Err(e) = dp.validate_config(&rule.config) {
            out.push(Violation::new(
                "RULE-CONFIG",
                &artifact,
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
                    &artifact,
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
                    &artifact,
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
                        &artifact,
                        loc,
                        format!("datapath node {dpn} out of range"),
                    ));
                    broken = true;
                }
                Some(None) => {
                    out.push(Violation::new(
                        "RULE-BINDING",
                        &artifact,
                        loc,
                        format!("datapath node {dpn} is inactive in the template"),
                    ));
                    broken = true;
                }
                Some(Some(nc)) => {
                    if std::mem::discriminant(&nc.op) != std::mem::discriminant(&pop) {
                        out.push(Violation::new(
                            "RULE-BINDING",
                            &artifact,
                            loc,
                            format!("payload kind {pop:?} != bound register op {:?}", nc.op),
                        ));
                        broken = true;
                    }
                }
            }
        }

        // --- bounded equivalence ----------------------------------------
        if equiv_trials > 0 && !broken && !verify_rule(dp, rule, equiv_trials) {
            out.push(Violation::new(
                "RULE-EQUIV",
                &artifact,
                "equivalence",
                format!(
                    "configured datapath diverges from the pattern on the \
                     {}-vector witness battery",
                    equiv_trials.max(36)
                ),
            ));
        }
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
        let vs = verify_ruleset(&dp, &rules, 32);
        assert!(vs.is_empty(), "{}", crate::render(&vs));
    }

    #[test]
    fn synthesis_battery_flags_a_corner_agreeing_lie() {
        // the PE computes umax(a >> b, b); the rule claims umax(a, b).
        // The two agree on every corner vector, so a corners-only
        // battery (up to 36 trials) accepts the lie; synthesis's battery
        // adds random vectors, which reject it
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
        assert!(verify_ruleset(&dp, &lie, 36).is_empty());
        let vs = verify_ruleset(&dp, &lie, apex_rewrite::VERIFY_TRIALS);
        assert_eq!(vs.len(), 1, "{}", crate::render(&vs));
        assert_eq!(vs[0].rule, "RULE-EQUIV");
        assert!(vs[0].message.contains("64-vector"), "{}", vs[0].message);
    }

    #[test]
    fn interface_mismatch_is_caught() {
        let (dp, mut rules) = scale();
        rules[0].config.word_input_map.push(0);
        let vs = verify_ruleset(&dp, &rules, 0);
        assert!(vs.iter().any(|v| v.rule == "RULE-IFACE"), "{}", crate::render(&vs));
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
        let vs = verify_ruleset(&dp, &rules, 32);
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
        let vs = verify_ruleset(&dp, &rules, 0);
        assert!(vs.iter().any(|v| v.rule == "RULE-BINDING"), "{}", crate::render(&vs));
    }
}
