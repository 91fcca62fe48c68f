//! Rule verification's executable specification, compiled only for
//! tests: the vector-at-a-time loop that [`verify_rule`] replaced, kept
//! as `verify_rule_reference`. For every vector it instantiates the
//! configuration, rebuilds the pattern with the vector's payloads,
//! evaluates it with the IR interpreter and the datapath with
//! [`MergedDatapath::evaluate`], so it shares no evaluation code with
//! the lane engine. Where a rule is malformed the reference rejects it
//! or panics; the lane engine returns a verdict. The properties below
//! require the two to agree on every candidate rule synthesis checks
//! and on mutated rules: the verdict holds exactly where the reference
//! accepts, a divergence is a rejection whose counterexample both
//! interpreters replay, and a reference panic is a malformed rule.

use super::{verify_rule, RewriteRule};
use apex_ir::{evaluate as ir_eval, Graph, NodeId, Op, Value};
use apex_merge::MergedDatapath;

/// The vector-at-a-time verifier, retained as the specification of
/// [`verify_rule`]; it is not used on any production path.
// invariant: the word/bit vectors are sized from the pattern's own
// input counts two lines above the iterators that consume them
#[allow(clippy::expect_used)]
pub(crate) fn verify_rule_reference(
    dp: &MergedDatapath,
    rule: &RewriteRule,
    trials: usize,
) -> bool {
    let mut seed = 0xDEAD_BEEF_CAFE_1234u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    const CORNERS: [u16; 6] = [0, 1, 2, 0x7FFF, 0x8000, 0xFFFF];

    let word_n = rule
        .pattern
        .node_ids()
        .filter(|&i| rule.pattern.op(i) == Op::Input)
        .count();
    let bit_n = rule
        .pattern
        .node_ids()
        .filter(|&i| rule.pattern.op(i) == Op::BitInput)
        .count();

    for t in 0..trials.max(CORNERS.len() * CORNERS.len()) {
        // payloads: cycle corners, then random
        let payloads: Vec<Op> = rule
            .pattern_payloads()
            .iter()
            .map(|op| match op {
                Op::Const(_) => Op::Const(if t < CORNERS.len() {
                    CORNERS[t]
                } else {
                    next() as u16
                }),
                Op::BitConst(_) => Op::BitConst(next() & 1 == 1),
                Op::Lut(_) => Op::Lut(next() as u8),
                other => *other,
            })
            .collect();
        let cfg = rule.instantiate(&payloads);
        // concrete pattern with the same payloads
        let mut pattern = rule.pattern.clone();
        let concrete = substitute_payloads(&pattern, &rule.payload_bindings, &payloads);
        pattern = concrete;

        let words: Vec<u16> = (0..word_n)
            .map(|k| {
                if t < CORNERS.len() * CORNERS.len() {
                    CORNERS[(t + k) % CORNERS.len()]
                } else {
                    next() as u16
                }
            })
            .collect();
        let bits: Vec<bool> = (0..bit_n).map(|_| next() & 1 == 1).collect();

        let mut wi = words.iter();
        let mut bi = bits.iter();
        let golden_inputs: Vec<Value> = pattern
            .primary_inputs()
            .iter()
            .map(|&pi| match pattern.op(pi) {
                Op::Input => Value::Word(*wi.next().expect("enough words")),
                Op::BitInput => Value::Bit(*bi.next().expect("enough bits")),
                _ => unreachable!(),
            })
            .collect();
        let golden = ir_eval(&pattern, &golden_inputs);
        let Ok((got_w, got_b)) = dp.evaluate_as_source(&cfg, &words, &bits) else {
            return false;
        };
        let mut gw = got_w.into_iter();
        let mut gb = got_b.into_iter();
        for (po, g) in pattern.primary_outputs().iter().zip(golden) {
            let ok = match pattern.op(*po) {
                Op::Output => gw.next() == Some(g.word()),
                Op::BitOutput => gb.next() == Some(g.bit()),
                _ => unreachable!(),
            };
            if !ok {
                return false;
            }
        }
    }
    true
}

/// Returns a copy of `pattern` with payload nodes replaced.
fn substitute_payloads(pattern: &Graph, bindings: &[(NodeId, u32)], payloads: &[Op]) -> Graph {
    let mut g = Graph::new(pattern.name());
    let mut payload_of: std::collections::BTreeMap<NodeId, Op> = std::collections::BTreeMap::new();
    for ((pn, _), op) in bindings.iter().zip(payloads) {
        payload_of.insert(*pn, *op);
    }
    for (id, node) in pattern.iter() {
        let op = payload_of.get(&id).copied().unwrap_or(node.op());
        let new_id = g.add(op, node.inputs());
        debug_assert_eq!(new_id, id, "structure-preserving rebuild");
    }
    g
}

mod properties {
    use super::{substitute_payloads, verify_rule, verify_rule_reference, RewriteRule};
    use crate::rule::{battery, RuleVerdict, VERIFY_TRIALS};
    use crate::synth::{
        config_rules, const_passthrough_candidate, lut_rule_candidates, needed_templates,
        op_rule_candidates,
    };
    use apex_apps::{analyzed_apps, unseen_apps, Application};
    use apex_core::specialization_ladder;
    use apex_ir::{evaluate as ir_eval, Graph, NodeId, Op, Value};
    use apex_merge::{DpSource, MergeOptions, MergedDatapath, NodeConfig};
    use apex_mining::MinerConfig;
    use apex_pe::baseline_pe;
    use apex_tech::TechModel;
    use std::mem::discriminant;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The battery sizes that reach each part of the battery: below,
    /// at and beyond the 36 corner vectors, and synthesis's 64.
    const TRIALS: [usize; 6] = [0, 8, 36, 48, 64, 100];

    /// The lane engine's verdict on a battery of `trials` vectors.
    fn verdict_at(dp: &MergedDatapath, rule: &RewriteRule, trials: usize) -> RuleVerdict {
        battery(dp, rule, trials).unwrap_or_else(RuleVerdict::Malformed)
    }

    /// Verdicts seen: holds, diverges, malformed, and of the malformed
    /// those the reference panics on.
    #[derive(Default)]
    struct Tally(usize, usize, usize, usize);

    impl Tally {
        /// Requires the verdict to fit the reference's: `Holds` exactly
        /// where it accepts, `Diverges` only where it rejects, and
        /// `Malformed` wherever it panics.
        fn check(&mut self, dp: &MergedDatapath, rule: &RewriteRule, trials: usize) {
            let verdict = verdict_at(dp, rule, trials);
            let reference =
                catch_unwind(AssertUnwindSafe(|| verify_rule_reference(dp, rule, trials))).ok();
            match (&verdict, reference) {
                (RuleVerdict::Holds { .. }, Some(true)) => self.0 += 1,
                (RuleVerdict::Diverges { .. }, Some(false)) => {
                    replay(dp, rule, &verdict);
                    self.1 += 1;
                }
                (RuleVerdict::Malformed(_), Some(false)) => self.2 += 1,
                (RuleVerdict::Malformed(_), None) => {
                    self.2 += 1;
                    self.3 += 1;
                }
                (_, reference) => panic!(
                    "rule '{}' at {trials} trials: {verdict:?} vs reference {reference:?} \
                     ({rule:?})",
                    rule.name
                ),
            }
        }
    }

    /// A `Diverges` counterexample replays on both interpreters: the IR
    /// interpreter gives `want` and the datapath interpreter `got`.
    fn replay(dp: &MergedDatapath, rule: &RewriteRule, verdict: &RuleVerdict) {
        let RuleVerdict::Diverges {
            inputs,
            payloads,
            output,
            want,
            got,
            ..
        } = verdict
        else {
            return;
        };
        let pattern = substitute_payloads(&rule.pattern, &rule.payload_bindings, payloads);
        assert_eq!(ir_eval(&pattern, inputs)[*output], *want, "{verdict:?}");
        let words: Vec<u16> = inputs
            .iter()
            .filter_map(|v| matches!(v, Value::Word(_)).then(|| v.word()))
            .collect();
        let bits: Vec<bool> = inputs
            .iter()
            .filter_map(|v| matches!(v, Value::Bit(_)).then(|| v.bit()))
            .collect();
        let (w, b) = dp
            .evaluate_as_source(&rule.instantiate(payloads), &words, &bits)
            .unwrap();
        let outputs = pattern.primary_outputs();
        let kind = pattern.op(outputs[*output]);
        let k = outputs[..*output]
            .iter()
            .filter(|&&o| pattern.op(o) == kind)
            .count();
        let replayed = if kind == Op::Output {
            Value::Word(w[k])
        } else {
            Value::Bit(b[k])
        };
        assert_eq!(replayed, *got, "{verdict:?}");
    }

    fn suite() -> Vec<Application> {
        let mut apps = analyzed_apps();
        apps.extend(unseen_apps());
        apps
    }

    /// Every rule `standard_ruleset` can verify for these inputs: the
    /// stored configurations' rules, every structural and LUT candidate
    /// of every template (synthesis stops at the first that verifies),
    /// and the constant passthrough.
    fn checked_candidates(
        dp: &MergedDatapath,
        sources: &[Graph],
        apps: &[&Graph],
    ) -> Vec<RewriteRule> {
        let mut out: Vec<RewriteRule> = config_rules(dp, sources).map(Result::unwrap).collect();
        for (op, const_ports) in needed_templates(apps) {
            out.extend(op_rule_candidates(dp, op, &const_ports));
            if const_ports.is_empty() {
                out.extend(lut_rule_candidates(dp, op));
            }
        }
        out.extend(const_passthrough_candidate(dp));
        out
    }

    /// A probe app using every baseline op kind, with constant operands
    /// (word and bit) so templates with `Const`/`BitConst` payloads and
    /// LUT-lowered bit ops are all synthesized.
    fn probe_app() -> Graph {
        let mut g = Graph::new("probe");
        let a = g.input();
        let b = g.input();
        let p = g.bit_input();
        let q = g.bit_input();
        let c = g.constant(3);
        let k = g.add(Op::BitConst(true), &[]);
        let mut words = Vec::new();
        let mut bits = Vec::new();
        for op in [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Smin,
            Op::Smax,
            Op::Umin,
            Op::Umax,
            Op::Shl,
            Op::Lshr,
            Op::Ashr,
            Op::And,
            Op::Or,
            Op::Xor,
        ] {
            words.push(g.add(op, &[a, b]));
            words.push(g.add(op, &[a, c]));
            words.push(g.add(op, &[c, b]));
        }
        words.push(g.add(Op::Abs, &[a]));
        words.push(g.add(Op::Not, &[b]));
        words.push(g.add(Op::Mux, &[a, b, p]));
        words.push(g.add(Op::Mux, &[a, c, k]));
        for op in [Op::Eq, Op::Neq, Op::Slt, Op::Sge, Op::Ult, Op::Ugt] {
            bits.push(g.add(op, &[a, b]));
            bits.push(g.add(op, &[a, c]));
        }
        for op in [Op::BitAnd, Op::BitOr, Op::BitXor] {
            bits.push(g.add(op, &[p, q]));
            bits.push(g.add(op, &[p, k]));
        }
        bits.push(g.add(Op::BitNot, &[q]));
        bits.push(g.add(Op::BitMux, &[p, q, k]));
        for w in words {
            g.output(w);
        }
        for b in bits {
            g.bit_output(b);
        }
        g
    }

    /// Small graphs whose stored configurations carry `Lut`, `BitConst`
    /// and `Const` payloads, merged as single-config datapaths.
    fn payload_graphs() -> Vec<Graph> {
        let mut lut = Graph::new("lut_mux");
        let (a, b) = (lut.input(), lut.input());
        let (p, q) = (lut.bit_input(), lut.bit_input());
        let k = lut.add(Op::BitConst(false), &[]);
        let l = lut.add(Op::Lut(0x96), &[p, q, k]);
        let m = lut.add(Op::Mux, &[a, b, l]);
        let c = lut.constant(5);
        let s = lut.add(Op::Add, &[m, c]);
        lut.output(s);
        lut.bit_output(l);

        let mut bits = Graph::new("bit_tree");
        let (p, q, r) = (bits.bit_input(), bits.bit_input(), bits.bit_input());
        let k1 = bits.add(Op::BitConst(true), &[]);
        let k2 = bits.add(Op::BitConst(false), &[]);
        let x = bits.add(Op::BitAnd, &[p, k1]);
        let y = bits.add(Op::Lut(0x3c), &[x, q, k2]);
        let z = bits.add(Op::BitMux, &[y, r, k1]);
        bits.bit_output(z);
        bits.bit_output(x);

        let mut mac = Graph::new("mac_const");
        let (a, b) = (mac.input(), mac.input());
        let c1 = mac.constant(7);
        let c2 = mac.constant(0x8000);
        let m = mac.add(Op::Mul, &[a, c1]);
        let s = mac.add(Op::Sub, &[m, b]);
        let t = mac.add(Op::Ashr, &[s, c2]);
        let u = mac.add(Op::Slt, &[t, a]);
        mac.output(t);
        mac.bit_output(u);
        vec![lut, bits, mac]
    }

    /// Another op with `op`'s signature, if the swap table has one.
    fn swapped(op: Op) -> Option<Op> {
        const RING: [Op; 24] = [
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Smin,
            Op::Smax,
            Op::Umin,
            Op::Umax,
            Op::Shl,
            Op::Lshr,
            Op::Ashr,
            Op::And,
            Op::Or,
            Op::Xor,
            Op::Eq,
            Op::Neq,
            Op::Slt,
            Op::Sle,
            Op::Ult,
            Op::BitAnd,
            Op::BitOr,
            Op::BitXor,
            Op::Abs,
            Op::Not,
            Op::Mux,
        ];
        let at = RING.iter().position(|&o| o == op)?;
        (1..RING.len())
            .map(|d| RING[(at + d) % RING.len()])
            .find(|o| o.input_types() == op.input_types() && o.output_type() == op.output_type())
    }

    /// Mutants of `rule`: each selected port moved to its next candidate
    /// and past the last one; each swappable pattern op swapped; each
    /// payload binding moved to every other active datapath node, to
    /// another pattern payload node, and duplicated onto a spare register
    /// of its kind (the pattern then takes the last binding's payload);
    /// both input maps rotated.
    fn mutants(dp: &MergedDatapath, rule: &RewriteRule) -> Vec<RewriteRule> {
        let mut out = Vec::new();
        for (i, nc) in rule.config.node_cfg.iter().enumerate() {
            let Some(nc) = nc else { continue };
            for (port, &sel) in nc.port_sel.iter().enumerate() {
                let cands = dp.nodes[i].port_candidates[port].len() as u32;
                for to in [(sel + 1) % cands, cands] {
                    if to != sel {
                        let mut m = rule.clone();
                        m.config.node_cfg[i].as_mut().unwrap().port_sel[port] = to;
                        out.push(m);
                    }
                }
            }
        }
        for (id, node) in rule.pattern.iter() {
            if let Some(op) = swapped(node.op()) {
                let rows = rule
                    .pattern
                    .iter()
                    .map(|(j, n)| (if j == id { op } else { n.op() }, n.inputs().to_vec()))
                    .collect();
                let mut m = rule.clone();
                m.pattern = Graph::from_raw_parts(rule.pattern.name(), rows);
                out.push(m);
            }
        }
        let payload_nodes: Vec<NodeId> = rule
            .pattern
            .node_ids()
            .filter(|&i| {
                matches!(
                    rule.pattern.op(i),
                    Op::Const(_) | Op::BitConst(_) | Op::Lut(_)
                )
            })
            .collect();
        for (b, &(pn, dn)) in rule.payload_bindings.iter().enumerate() {
            for (j, nc) in rule.config.node_cfg.iter().enumerate() {
                if nc.is_some() && j as u32 != dn {
                    let mut m = rule.clone();
                    m.payload_bindings[b].1 = j as u32;
                    out.push(m);
                }
            }
            let kind = rule.pattern.op(pn);
            for (j, node) in dp.nodes.iter().enumerate() {
                let spare = j as u32 != dn
                    && node.port_candidates.is_empty()
                    && node
                        .ops
                        .iter()
                        .all(|o| discriminant(o) == discriminant(&kind));
                if spare {
                    let mut m = rule.clone();
                    m.config.node_cfg[j] = Some(NodeConfig {
                        op: kind,
                        port_sel: Vec::new(),
                    });
                    m.payload_bindings.push((pn, j as u32));
                    out.push(m);
                }
            }
            for &other in payload_nodes.iter().filter(|&&o| o != pn) {
                let mut m = rule.clone();
                m.payload_bindings[b].0 = other;
                out.push(m);
            }
        }
        for map in [0, 1] {
            let mut m = rule.clone();
            let v = if map == 0 {
                &mut m.config.word_input_map
            } else {
                &mut m.config.bit_input_map
            };
            if v.len() >= 2 {
                v.rotate_left(1);
                out.push(m);
            }
        }
        out
    }

    #[test]
    fn synthesis_candidates_get_the_reference_verdict() {
        let mut tally = Tally::default();
        let suite = suite();
        let probe = probe_app();
        let pe = baseline_pe();
        let mut apps: Vec<&Graph> = suite.iter().map(|a| &a.graph).collect();
        apps.push(&probe);
        for rule in checked_candidates(&pe.datapath, &[], &apps) {
            tally.check(&pe.datapath, &rule, VERIFY_TRIALS);
        }
        let tech = TechModel::default();
        for app in &suite {
            let ladder = specialization_ladder(
                app,
                4,
                &MinerConfig::default(),
                &MergeOptions::default(),
                &tech,
            )
            .unwrap();
            assert_eq!(ladder.len(), 5, "{}: steps 0-4", app.info.name);
            for v in &ladder {
                let dp = &v.spec.datapath;
                for rule in checked_candidates(dp, &v.sources, &[&app.graph]) {
                    tally.check(dp, &rule, VERIFY_TRIALS);
                }
            }
        }
        // the structural search proposes only sound candidates on the
        // suite, so rejections come from the mutants below
        let Tally(holds, diverges, malformed, _) = tally;
        assert!(holds > 1000, "{holds} hold");
        assert_eq!((diverges, malformed), (0, 0));
    }

    #[test]
    fn mutated_rules_get_the_reference_verdict_at_every_battery_size() {
        let mut tally = Tally::default();
        let mut cases: Vec<(MergedDatapath, RewriteRule)> = Vec::new();
        let pe = baseline_pe();
        let probe = probe_app();
        for rule in checked_candidates(&pe.datapath, &[], &[&probe]) {
            cases.push((pe.datapath.clone(), rule));
        }
        for g in payload_graphs() {
            let dp = MergedDatapath::from_graph(&g);
            let rules: Vec<RewriteRule> = config_rules(&dp, &[g]).map(Result::unwrap).collect();
            cases.extend(rules.into_iter().map(|r| (dp.clone(), r)));
        }
        // merged, multi-configuration datapaths: muxed ports, shared
        // constant registers
        let tech = TechModel::default();
        for app in [
            apex_apps::gaussian(),
            apex_apps::harris(),
            apex_apps::stereo(),
        ] {
            let ladder = specialization_ladder(
                &app,
                3,
                &MinerConfig::default(),
                &MergeOptions::default(),
                &tech,
            )
            .unwrap();
            let v = ladder.last().unwrap();
            for rule in config_rules(&v.spec.datapath, &v.sources).map(Result::unwrap) {
                cases.push((v.spec.datapath.clone(), rule));
            }
        }
        let lut_kinds =
            |r: &RewriteRule, want: fn(&Op) -> bool| r.pattern_payloads().iter().any(want);
        assert!(cases
            .iter()
            .any(|(_, r)| lut_kinds(r, |o| matches!(o, Op::Lut(_)))));
        assert!(cases
            .iter()
            .any(|(_, r)| lut_kinds(r, |o| matches!(o, Op::BitConst(_)))));
        for (dp, rule) in &cases {
            for m in std::iter::once(rule.clone()).chain(mutants(dp, rule)) {
                for trials in TRIALS {
                    tally.check(dp, &m, trials);
                }
            }
        }
        let Tally(holds, diverges, malformed, panicked) = tally;
        assert!(
            holds > 0 && diverges > 0 && panicked > 0,
            "{holds} hold, {diverges} diverge, {malformed} malformed ({panicked} panicked)"
        );
    }

    #[test]
    fn only_random_vectors_catch_a_corner_agreeing_lie() {
        // the PE computes umax(a >> b, b); the pattern claims umax(a, b).
        // The two agree on all six corner word vectors, so the lie
        // passes a corners-only battery (any size up to 36) and
        // only the random vectors past 36 reject it
        let mut pe = Graph::new("umax_lshr");
        let (a, b) = (pe.input(), pe.input());
        let s = pe.add(Op::Lshr, &[a, b]);
        let m = pe.add(Op::Umax, &[s, b]);
        pe.output(m);
        let dp = MergedDatapath::from_graph(&pe);
        let mut lie = config_rules(&dp, std::slice::from_ref(&pe))
            .next()
            .unwrap()
            .unwrap();
        let mut claim = Graph::new("umax");
        let (a, b) = (claim.input(), claim.input());
        let m = claim.add(Op::Umax, &[a, b]);
        claim.output(m);
        lie.pattern = claim;
        let mut tally = Tally::default();
        for trials in TRIALS {
            tally.check(&dp, &lie, trials);
            assert_eq!(
                matches!(verdict_at(&dp, &lie, trials), RuleVerdict::Holds { .. }),
                trials <= 36,
                "{trials} trials"
            );
        }
        assert!(!verify_rule(&dp, &lie));
    }

    #[test]
    fn const_payloads_take_every_corner() {
        // the PE computes umin(C, 0xFFFE) with only C bound; the pattern
        // claims C. They differ only at C = 0xFFFF, which the sixth
        // vector's corner payload supplies and a random one almost
        // never does
        let mut pe = Graph::new("umin_fffe");
        let c = pe.constant(0);
        let k = pe.constant(0xFFFE);
        let m = pe.add(Op::Umin, &[c, k]);
        pe.output(m);
        let dp = MergedDatapath::from_graph(&pe);
        let mut claim = Graph::new("const");
        let cc = claim.constant(0);
        claim.output(cc);
        let lie = RewriteRule {
            name: "const".into(),
            pattern: claim,
            config: dp.configs[0].clone(),
            payload_bindings: vec![(cc, 0)],
            ops_covered: 1,
        };
        let mut tally = Tally::default();
        for trials in TRIALS {
            tally.check(&dp, &lie, trials);
            assert!(
                matches!(verdict_at(&dp, &lie, trials), RuleVerdict::Diverges { vector: 5, .. }),
                "{trials} trials"
            );
        }
    }

    #[test]
    fn ill_typed_datapaths_are_malformed() {
        // a word port re-pointed at a bit input: `validate_config`
        // rejects the operand type, in the reference too
        let mut g = Graph::new("add");
        let (a, b) = (g.input(), g.input());
        let s = g.add(Op::Add, &[a, b]);
        g.output(s);
        let mut dp = MergedDatapath::from_graph(&g);
        let mut rule = config_rules(&dp, std::slice::from_ref(&g))
            .next()
            .unwrap()
            .unwrap();
        dp.bit_inputs = 1;
        dp.nodes[0].port_candidates[0].push(DpSource::BitInput(0));
        rule.config.node_cfg[0].as_mut().unwrap().port_sel[0] = 1;
        // a node mixing word and bit ops, configured as its bit op but
        // read as a word output: the interface check rejects it first
        let mut c = Graph::new("ult");
        let (a, b) = (c.input(), c.input());
        let lt = c.add(Op::Ult, &[a, b]);
        c.bit_output(lt);
        let mut mixed = MergedDatapath::from_graph(&c);
        let mut read_as_word = config_rules(&mixed, std::slice::from_ref(&c))
            .next()
            .unwrap()
            .unwrap();
        mixed.nodes[0].ops.insert(0, Op::Add);
        read_as_word.config.word_out_sel = std::mem::take(&mut read_as_word.config.bit_out_sel);
        let mut tally = Tally::default();
        for trials in TRIALS {
            tally.check(&dp, &rule, trials);
            tally.check(&mixed, &read_as_word, trials);
        }
        assert_eq!(tally.2, 2 * TRIALS.len());
        let RuleVerdict::Malformed(defect) = verdict_at(&dp, &rule, VERIFY_TRIALS) else {
            panic!("a bit source on a word port is malformed");
        };
        assert_eq!(defect.kind, crate::DefectKind::Config);
        assert_eq!(defect.message, apex_merge::DatapathError::TypeMismatch.to_string());
    }
}
