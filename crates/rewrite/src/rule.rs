//! Rewrite rules: how a PE must be configured to perform an operation or
//! subgraph from an application (paper Section 4.1.1).
//!
//! A rule pairs a *pattern* (a small datapath graph over the IR) with a
//! *configuration template* of the target PE. Constant nodes in the
//! pattern are placeholders: at mapping time the matched application
//! constant is loaded into the bound constant register.

use apex_ir::{Graph, NodeId, Op, Value, ValueType};
use apex_merge::{DatapathConfig, DatapathError, DpSource, MergedDatapath};
use serde::{Deserialize, Serialize};
use std::mem::discriminant;

/// A mapper rewrite rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewriteRule {
    /// Rule name (e.g. "add", "mul_const1", or a merged subgraph's name).
    pub name: String,
    /// The application-side pattern this rule covers.
    pub pattern: Graph,
    /// PE configuration template implementing the pattern.
    pub config: DatapathConfig,
    /// Payload bindings: pattern constant/LUT node → datapath node whose
    /// configuration receives the matched payload.
    pub payload_bindings: Vec<(NodeId, u32)>,
    /// Application nodes covered per match (mapping priority: larger
    /// rules are tried first, LLVM-style).
    pub ops_covered: usize,
}

impl RewriteRule {
    /// Builds the concrete configuration for a match whose pattern
    /// constants take the given payloads (`payloads[i]` corresponds to
    /// `payload_bindings[i]`).
    ///
    /// # Panics
    /// Panics if `payloads` does not match the bindings, or a binding
    /// points at a node the template leaves inactive.
    // invariant: documented panic — payload bindings are built against
    // the same template configuration, so bound nodes are active
    #[allow(clippy::expect_used)]
    pub fn instantiate(&self, payloads: &[Op]) -> DatapathConfig {
        assert_eq!(payloads.len(), self.payload_bindings.len());
        let mut cfg = self.config.clone();
        for ((_, dp_node), payload) in self.payload_bindings.iter().zip(payloads) {
            let nc = cfg.node_cfg[*dp_node as usize]
                .as_mut()
                .expect("payload binding targets an active node");
            assert_eq!(
                discriminant(&nc.op),
                discriminant(payload),
                "payload kind mismatch on node {dp_node}"
            );
            nc.op = *payload;
        }
        cfg
    }

    /// The payload ops currently in the pattern, in binding order.
    pub fn pattern_payloads(&self) -> Vec<Op> {
        self.payload_bindings
            .iter()
            .map(|(pn, _)| self.pattern.op(*pn))
            .collect()
    }
}

/// Word values the corner vectors draw from.
const CORNERS: [u16; 6] = [0, 1, 2, 0x7FFF, 0x8000, 0xFFFF];

/// Vectors in the equivalence battery: the 36 corner vectors, then 28
/// random ones. Every check that a configured PE computes a graph
/// (synthesis, `apex verify`'s `MERGE-WITNESS` and `RULE-EQUIV`, the
/// chaos campaign) runs this one battery through [`verdict`].
pub const VERIFY_TRIALS: usize = 64;

/// What checking a rule on the equivalence battery found (see [`verdict`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleVerdict {
    /// The configured PE computes the pattern on every vector.
    Holds {
        /// Vectors checked.
        vectors: usize,
    },
    /// The configured PE and the pattern disagree: a counterexample.
    Diverges {
        /// The first battery vector on which an output differs.
        vector: usize,
        /// The pattern's primary inputs on that vector, in
        /// [`Graph::primary_inputs`] order.
        inputs: Vec<Value>,
        /// The payloads on that vector, in binding order (the argument
        /// [`RewriteRule::instantiate`] takes).
        payloads: Vec<Op>,
        /// The first differing output, in [`Graph::primary_outputs`] order.
        output: usize,
        /// The pattern's value of that output.
        want: Value,
        /// The configured datapath's value of that output.
        got: Value,
    },
    /// The rule cannot be simulated: the first condition it breaks.
    Malformed(RuleDefect),
}

/// The first precondition of [`verdict`] a rule breaks: its kind, and
/// what the check found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDefect {
    /// The precondition.
    pub kind: DefectKind,
    /// What is wrong, as one diagnostic line.
    pub message: String,
}

/// The kinds of precondition [`verdict`] checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectKind {
    /// The pattern fails [`Graph::try_validate`].
    Pattern,
    /// An input or output count, or an input map's port, disagrees.
    Interface,
    /// The template fails [`MergedDatapath::validate_config`] (operand
    /// and output types included), or the datapath is cyclic.
    Config,
    /// Payload binding `.0` names an out-of-range or non-payload pattern
    /// node, or no active register of its payload kind.
    Binding(usize),
}

/// Checks a rule against the IR golden model: for every vector of a
/// fixed test battery, the configured PE must produce exactly the
/// pattern's outputs.
///
/// This is our bounded-equivalence substitute for the paper's SMT query
/// `∃x ∀y: P(x, y) = Op(y)` (DESIGN.md §3): the configuration `x` is
/// constructed structurally, and `∀y` is checked, not proven, on a fixed
/// battery of [`VERIFY_TRIALS`] (64) vectors:
///
/// * 36 corner vectors: vector `t` gives word input `k` the value
///   `CORNERS[(t + k) % 6]` of `[0, 1, 2, 0x7FFF, 0x8000, 0xFFFF]` (six
///   distinct word vectors), and `Const` payloads take `CORNERS[t]` for
///   `t < 6`;
/// * then 28 random vectors from a fixed xorshift seed.
///
/// Later `Const` payloads, and every bit input, `BitConst` and `Lut`
/// payload, are drawn from the same generator, within a vector in the
/// order payloads, words, bits.
///
/// The preconditions that depend only on the rule ([`DefectKind`]) are
/// checked once; the first that fails makes the rule
/// [`RuleVerdict::Malformed`]. Each node of both sides is then evaluated
/// over the whole battery in one [`Op::eval_lane`] pass on flat `u16`
/// lanes, a bound payload taking its per-vector value, and the first
/// vector on which an output differs is the [`RuleVerdict::Diverges`]
/// counterexample. The check is total: no rule makes it panic.
pub fn verdict(dp: &MergedDatapath, rule: &RewriteRule) -> RuleVerdict {
    battery(dp, rule, VERIFY_TRIALS).unwrap_or_else(RuleVerdict::Malformed)
}

/// Whether the rule [`RuleVerdict::Holds`] on the battery of [`verdict`].
pub fn verify_rule(dp: &MergedDatapath, rule: &RewriteRule) -> bool {
    matches!(verdict(dp, rule), RuleVerdict::Holds { .. })
}

/// The checks of [`verdict`] that depend only on the rule, in order; on
/// success, the datapath's topological order.
fn check_static(dp: &MergedDatapath, rule: &RewriteRule) -> Result<Vec<u32>, RuleDefect> {
    let (pattern, cfg) = (&rule.pattern, &rule.config);
    let defect = |kind, message: String| RuleDefect { kind, message };
    let invalid = |e| defect(DefectKind::Pattern, format!("pattern graph is invalid: {e}"));
    pattern.try_validate().map_err(invalid)?;
    let count = |op: Op| pattern.node_ids().filter(|&i| pattern.op(i) == op).count();
    let iface = [
        (Op::Input, cfg.word_input_map.len(), "word inputs"),
        (Op::BitInput, cfg.bit_input_map.len(), "bit inputs"),
        (Op::Output, cfg.word_out_sel.len(), "word outputs"),
        (Op::BitOutput, cfg.bit_out_sel.len(), "bit outputs"),
    ];
    for (op, config, what) in iface {
        if count(op) != config {
            let message = format!("pattern has {} {what}, configuration maps {config}", count(op));
            return Err(defect(DefectKind::Interface, message));
        }
    }
    let maps = [
        (&cfg.word_input_map, dp.word_inputs, "word"),
        (&cfg.bit_input_map, dp.bit_inputs, "bit"),
    ];
    for (map, ports, what) in maps {
        if let Some(&port) = map.iter().find(|&&p| p as usize >= ports) {
            let message = format!("{what} input mapped to PE port {port} of {ports}");
            return Err(defect(DefectKind::Interface, message));
        }
    }
    let config = |e: DatapathError| defect(DefectKind::Config, e.to_string());
    dp.validate_config(cfg).map_err(config)?;
    for (index, &(pn, dn)) in rule.payload_bindings.iter().enumerate() {
        let payload = (pn.index() < pattern.len()).then(|| pattern.op(pn));
        let message = match (payload, cfg.node_cfg.get(dn as usize)) {
            (None, _) => format!("pattern node {pn} out of range"),
            (Some(op), _) if !matches!(op, Op::Const(_) | Op::BitConst(_) | Op::Lut(_)) => {
                format!("pattern node {pn} is {op:?}, not a payload op")
            }
            (_, None) => format!("datapath node {dn} out of range"),
            (_, Some(None)) => format!("datapath node {dn} is inactive in the template"),
            (Some(op), Some(Some(nc))) if discriminant(&op) != discriminant(&nc.op) => {
                format!("payload kind {op:?} != bound register op {:?}", nc.op)
            }
            _ => continue,
        };
        return Err(defect(DefectKind::Binding(index), message));
    }
    dp.topo_order().map_err(config)
}

/// The lane engine behind [`verdict`], on `max(trials, 36)` vectors:
/// the 36 corner vectors, then `trials - 36` random ones. Only the
/// reference comparison in `spec.rs` runs it at another size.
fn battery(
    dp: &MergedDatapath,
    rule: &RewriteRule,
    trials: usize,
) -> Result<RuleVerdict, RuleDefect> {
    let order = check_static(dp, rule)?;
    let (pattern, cfg) = (&rule.pattern, &rule.config);
    let payloads = rule.pattern_payloads();
    let (word_n, bit_n) = (cfg.word_input_map.len(), cfg.bit_input_map.len());
    let n = trials.max(CORNERS.len() * CORNERS.len());

    // one arena of `n`-vector lanes: the battery (payloads, words, bits),
    // a zero lane, one lane per pattern node and per datapath node, and
    // a scratch lane that every pass writes before its copy into place
    let word_at = payloads.len();
    let bit_at = word_at + word_n;
    let zero = bit_at + bit_n;
    let pattern_at = zero + 1;
    let dp_at = pattern_at + pattern.len();
    let scratch = dp_at + dp.nodes.len();
    let mut lanes = vec![0u16; (scratch + 1) * n];
    let mut seed = 0xDEAD_BEEF_CAFE_1234u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for t in 0..n {
        for (b, op) in payloads.iter().enumerate() {
            lanes[b * n + t] = match op {
                Op::Const(_) if t < CORNERS.len() => CORNERS[t],
                Op::Const(_) => next() as u16,
                Op::BitConst(_) => (next() & 1) as u16,
                Op::Lut(_) => u16::from(next() as u8),
                _ => 0,
            };
        }
        for k in 0..word_n {
            lanes[(word_at + k) * n + t] = if t < CORNERS.len() * CORNERS.len() {
                CORNERS[(t + k) % CORNERS.len()]
            } else {
                next() as u16
            };
        }
        for k in 0..bit_n {
            lanes[(bit_at + k) * n + t] = (next() & 1) as u16;
        }
    }

    // the pattern: inputs read the battery in input order (the interface
    // check sized it); a bound node takes its payload from the last
    // binding naming it
    let mut pattern_payload = vec![None; pattern.len()];
    for (b, (pn, _)) in rule.payload_bindings.iter().enumerate() {
        pattern_payload[pn.index()] = Some(b);
    }
    let mut lane_of = vec![zero; pattern.len()];
    let (mut words, mut bits) = (word_at..bit_at, bit_at..zero);
    for (id, node) in pattern.iter() {
        let i = id.index();
        lane_of[i] = match node.op() {
            Op::Input => words.next().unwrap_or(zero),
            Op::BitInput => bits.next().unwrap_or(zero),
            op => {
                let mut ins = [zero; 3];
                for (port, src) in node.inputs().iter().enumerate() {
                    ins[port] = lane_of[src.index()];
                }
                eval_lanes(&mut lanes, n, op, pattern_payload[i], ins, pattern_at + i);
                pattern_at + i
            }
        };
    }

    // the datapath: each PE input port reads the battery lane scattered
    // onto it, or zero
    let mut word_port = vec![zero; dp.word_inputs];
    for (k, &port) in cfg.word_input_map.iter().enumerate() {
        word_port[port as usize] = word_at + k;
    }
    let mut bit_port = vec![zero; dp.bit_inputs];
    for (k, &port) in cfg.bit_input_map.iter().enumerate() {
        bit_port[port as usize] = bit_at + k;
    }
    let mut dp_payload = vec![None; dp.nodes.len()];
    for (b, (_, dn)) in rule.payload_bindings.iter().enumerate() {
        dp_payload[*dn as usize] = Some(b);
    }
    // `validate_config` checked every selection, its range and its type
    let source = |src: DpSource| match src {
        DpSource::WordInput(k) => word_port[k as usize],
        DpSource::BitInput(k) => bit_port[k as usize],
        DpSource::Node(j) => dp_at + j as usize,
    };
    for &i in &order {
        let i = i as usize;
        let Some(nc) = &cfg.node_cfg[i] else {
            continue;
        };
        let mut ins = [zero; 3];
        for (port, &sel) in nc.port_sel.iter().enumerate() {
            ins[port] = source(dp.nodes[i].port_candidates[port][sel as usize]);
        }
        eval_lanes(&mut lanes, n, nc.op, dp_payload[i], ins, dp_at + i);
    }
    let mut word_outs = cfg.word_out_sel.iter().map(|&s| source(s));
    let mut bit_outs = cfg.bit_out_sel.iter().map(|&s| source(s));

    // pattern output `k` of a type against the datapath's output `k` of
    // that type (the interface check matched the counts); the earliest
    // differing vector, then output, is the counterexample
    let lane = |l: usize| &lanes[l * n..][..n];
    let first = pattern
        .primary_outputs()
        .iter()
        .enumerate()
        .filter_map(|(output, po)| {
            let (got, ty) = if pattern.op(*po) == Op::Output {
                (word_outs.next()?, ValueType::Word)
            } else {
                (bit_outs.next()?, ValueType::Bit)
            };
            let want = lane_of[po.index()];
            let vector = lane(want).iter().zip(lane(got)).position(|(w, g)| w != g)?;
            Some((vector, output, ty, want, got))
        })
        .min_by_key(|&(vector, output, ..)| (vector, output));
    let Some((vector, output, ty, want, got)) = first else {
        return Ok(RuleVerdict::Holds { vectors: n });
    };
    let value = |ty: ValueType, l: usize| match ty {
        ValueType::Word => Value::Word(lanes[l * n + vector]),
        ValueType::Bit => Value::Bit(lanes[l * n + vector] != 0),
    };
    Ok(RuleVerdict::Diverges {
        vector,
        inputs: pattern
            .primary_inputs()
            .iter()
            .map(|pi| value(pattern.op(*pi).output_type(), lane_of[pi.index()]))
            .collect(),
        payloads: payloads
            .iter()
            .enumerate()
            .map(|(b, &op)| with_payload(op, lanes[b * n + vector]))
            .collect(),
        output,
        want: value(ty, want),
        got: value(ty, got),
    })
}

/// `op` carrying the battery value `v` as its payload (a bit as 0/1, a
/// LUT table in the low byte); an op without a payload ignores `v`.
fn with_payload(op: Op, v: u16) -> Op {
    match op {
        Op::Const(_) => Op::Const(v),
        Op::BitConst(_) => Op::BitConst(v != 0),
        Op::Lut(_) => Op::Lut(v as u8),
        other => other,
    }
}

/// One pass of `op` over all `n` vectors into lane `dst`, reading ports
/// 0–2 from lanes `ins`; a node bound to battery payload `payload` takes
/// its op from that lane per vector. The last lane is the scratch lane.
fn eval_lanes(
    lanes: &mut [u16],
    n: usize,
    op: Op,
    payload: Option<usize>,
    ins: [usize; 3],
    dst: usize,
) {
    let (body, out) = lanes.split_at_mut(lanes.len() - n);
    let lane = |l: usize| &body[l * n..][..n];
    let (a, b, s) = (lane(ins[0]), lane(ins[1]), lane(ins[2]));
    let payload = payload.map(lane);
    for (t, o) in out.iter_mut().enumerate() {
        let op = payload.map_or(op, |p| with_payload(op, p[t]));
        *o = op.eval_lane(a[t], b[t], s[t]);
    }
    body[dst * n..][..n].copy_from_slice(out);
}

#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::*;
    use apex_merge::MergedDatapath;

    fn scale_rule() -> (MergedDatapath, RewriteRule) {
        // pattern/PE: out = a * C
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
        (dp, rule)
    }

    #[test]
    fn instantiate_reloads_constant() {
        let (dp, rule) = scale_rule();
        let cfg = rule.instantiate(&[Op::Const(11)]);
        let (w, _) = dp.evaluate_as_source(&cfg, &[5], &[]).unwrap();
        assert_eq!(w[0], 55);
    }

    #[test]
    fn verify_accepts_correct_rule() {
        let (dp, rule) = scale_rule();
        assert!(verify_rule(&dp, &rule));
    }

    #[test]
    fn verify_rejects_wrong_rule() {
        let (dp, mut rule) = scale_rule();
        // claim the PE computes a + C instead
        let mut g = Graph::new("lie");
        let a = g.input();
        let c = g.constant(7);
        let s = g.add(Op::Add, &[a, c]);
        g.output(s);
        let binding_node = rule.payload_bindings[0].1;
        rule.pattern = g;
        rule.payload_bindings = vec![(c, binding_node)];
        assert!(!verify_rule(&dp, &rule));
    }

    #[test]
    fn battery_values_become_payloads() {
        assert_eq!(with_payload(Op::Const(7), 0xBEEF), Op::Const(0xBEEF));
        assert_eq!(with_payload(Op::BitConst(false), 1), Op::BitConst(true));
        assert_eq!(with_payload(Op::BitConst(true), 0), Op::BitConst(false));
        assert_eq!(with_payload(Op::Lut(0), 0x96), Op::Lut(0x96));
        assert_eq!(with_payload(Op::Add, 3), Op::Add);
    }

    #[test]
    #[should_panic(expected = "payload kind mismatch")]
    fn instantiate_rejects_wrong_payload_kind() {
        let (_, rule) = scale_rule();
        let _ = rule.instantiate(&[Op::BitConst(true)]);
    }
}
