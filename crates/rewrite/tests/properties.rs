//! Property tests on rewrite-rule synthesis: rules synthesized for
//! randomly merged PEs must verify, instantiate with arbitrary payloads,
//! and remain faithful to the IR semantics.

use apex_ir::{Graph, Op};
use apex_merge::{merge_all, MergeOptions};
use apex_rewrite::{standard_ruleset, synthesize_op_rule, verify_rule};
use apex_tech::TechModel;
use proptest::prelude::*;

fn arb_subgraph(name: &'static str) -> impl Strategy<Value = Graph> {
    let spec = prop::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 2..8);
    spec.prop_map(move |ops| {
        let mut g = Graph::new(name);
        let mut pool = vec![g.input(), g.input()];
        for (sel, x, y) in ops {
            let a = pool[(x as usize) % pool.len()];
            let b = pool[(y as usize) % pool.len()];
            let n = match sel {
                0 => g.add(Op::Add, &[a, b]),
                1 => g.add(Op::Mul, &[a, b]),
                2 => g.add(Op::Sub, &[a, b]),
                3 => {
                    let c = g.constant(x);
                    g.add(Op::Mul, &[a, c])
                }
                _ => g.add(Op::Smax, &[a, b]),
            };
            pool.push(n);
        }
        let last = *pool.last().unwrap();
        g.output(last);
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn rulesets_for_random_merged_pes_all_verify(
        g1 in arb_subgraph("p1"),
        g2 in arb_subgraph("p2")
    ) {
        let tech = TechModel::default();
        let (dp, _) = merge_all(
            &[g1.clone(), g2.clone()],
            &tech,
            &MergeOptions::default(),
        )
        .unwrap();
        let (rules, _) = standard_ruleset(&dp, &[g1.clone(), g2.clone()], &[&g1, &g2]).unwrap();
        // every admitted rule re-verifies
        for r in &rules.rules {
            prop_assert!(verify_rule(&dp, r), "rule {} must verify", r.name);
        }
        // the two complex rules from the merged configs are present
        prop_assert!(rules.rules.iter().any(|r| r.name == "p1"));
        prop_assert!(rules.rules.iter().any(|r| r.name == "p2"));
        // priority order is respected
        prop_assert!(rules
            .rules
            .windows(2)
            .all(|w| w[0].ops_covered >= w[1].ops_covered));
    }

    #[test]
    fn instantiation_reloads_any_payload(value: u16, input: u16) {
        // PE: out = x * C ; rule must compute x * value for every value
        let mut g = Graph::new("scale");
        let x = g.input();
        let c = g.constant(1);
        let m = g.add(Op::Mul, &[x, c]);
        g.output(m);
        let dp = apex_merge::MergedDatapath::from_graph(&g);
        let rule = synthesize_op_rule(&dp, Op::Mul, &[1]).expect("const-mul rule");
        let cfg = rule.instantiate(&[Op::Const(value)]);
        let (out, _) = dp.evaluate_as_source(&cfg, &[input], &[]).unwrap();
        prop_assert_eq!(out[0], input.wrapping_mul(value));
    }
}

#[test]
fn verification_is_adversarial_not_vacuous() {
    // sanity: a deliberately corrupted rule must fail verification — the
    // bounded-equivalence check has teeth
    let mut g = Graph::new("aff");
    let x = g.input();
    let c = g.constant(3);
    let m = g.add(Op::Mul, &[x, c]);
    g.output(m);
    let dp = apex_merge::MergedDatapath::from_graph(&g);
    let mut rule = synthesize_op_rule(&dp, Op::Mul, &[1]).expect("rule");
    // lie about the pattern: claim it computes an add
    let mut lie = Graph::new("lie");
    let x = lie.input();
    let c = lie.add(Op::Const(0), &[]);
    let s = lie.add(Op::Add, &[x, c]);
    lie.output(s);
    let binding = rule.payload_bindings[0].1;
    rule.pattern = lie.clone();
    rule.payload_bindings = vec![(
        lie.node_ids().find(|&i| matches!(lie.op(i), Op::Const(_))).unwrap(),
        binding,
    )];
    assert!(!verify_rule(&dp, &rule));
}
