//! Rewrite-rule synthesis (paper Section 4.1.1).
//!
//! Three rule sources:
//!
//! 1. **Stored configurations** — every subgraph merged into the PE
//!    datapath carries its configuration, which becomes a complex rule.
//! 2. **Structural single-op synthesis** — for every operation an
//!    application needs (optionally with constant operands), search the
//!    PE's configuration space for an implementation.
//! 3. **LUT fallback** — bit operations lower onto a 3-input LUT when no
//!    dedicated gate exists (how the baseline PE executes bit logic).
//!
//! Every candidate rule, the constant passthrough included, is admitted
//! only if its [`crate::verdict`] holds on the one 64-vector battery —
//! the bounded-equivalence substitute for the paper's SMT check.

use crate::rule::{verify_rule, RewriteRule};
use apex_fault::{ApexError, Stage};
use apex_ir::{Graph, NodeId, Op, Value, ValueType};
use apex_merge::{DatapathConfig, DpSource, MergedDatapath, NodeConfig};
use std::collections::{BTreeMap, BTreeSet};

/// A prioritized set of verified rewrite rules for one PE.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSet {
    /// Rules sorted by coverage (largest first), as the greedy instruction
    /// selector consumes them.
    pub rules: Vec<RewriteRule>,
}

impl RuleSet {
    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Outcome of ruleset synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisReport {
    /// Operation templates that could not be implemented on the PE
    /// (applications needing them cannot be mapped).
    pub missing: Vec<String>,
    /// Number of stored-configuration rules that failed verification and
    /// were dropped (0 unless merging stored a wrong configuration).
    pub rejected: usize,
}

/// Builds rules from the datapath's stored configurations, dropping any
/// whose payloads are unmapped or whose [`crate::verdict`] does not hold
/// (a malformed configuration included).
///
/// `sources[i]` must be the subgraph that produced `dp.configs[i]`.
///
/// # Panics
/// Panics if `sources` is not aligned with the stored configurations.
pub fn rules_from_configs(dp: &MergedDatapath, sources: &[Graph]) -> Vec<RewriteRule> {
    assert_eq!(
        sources.len(),
        dp.configs.len(),
        "one source graph per stored configuration"
    );
    config_rules(dp, sources)
        .filter_map(Result::ok)
        .filter(|rule| verify_rule(dp, rule))
        .collect()
}

/// The unverified rule of each stored configuration, in configuration
/// order (`sources[i]` is the subgraph that produced `dp.configs[i]`):
/// the source is the pattern, the stored configuration the template,
/// and each payload node of the source (`Const`, `BitConst`, `Lut`) is
/// bound to the datapath node its `node_map` entry names.
///
/// `Err(node)` names a payload node the configuration's `node_map`
/// leaves unmapped, so no datapath node would receive its payload.
pub fn config_rules<'a>(
    dp: &'a MergedDatapath,
    sources: &'a [Graph],
) -> impl Iterator<Item = Result<RewriteRule, NodeId>> + 'a {
    dp.configs.iter().zip(sources).map(|(cfg, src)| {
        let node_map: BTreeMap<u32, u32> = cfg.node_map.iter().copied().collect();
        let mut payload_bindings = Vec::new();
        for (id, node) in src.iter() {
            if matches!(node.op(), Op::Const(_) | Op::BitConst(_) | Op::Lut(_)) {
                let dp_node = node_map.get(&id.0).copied().ok_or(id)?;
                payload_bindings.push((id, dp_node));
            }
        }
        Ok(RewriteRule {
            name: src.name().to_owned(),
            pattern: src.clone(),
            config: cfg.clone(),
            payload_bindings,
            ops_covered: src.compute_nodes().len(),
        })
    })
}

/// Builds the pattern graph for an op template: `const_ports` lists the
/// operand indices fed by constant placeholders.
fn op_pattern(op: Op, const_ports: &[u8], name: &str) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new(name);
    let mut inputs = Vec::new();
    let mut consts = Vec::new();
    for (i, ty) in op.input_types().iter().enumerate() {
        let id = if const_ports.contains(&(i as u8)) {
            let c = match ty {
                ValueType::Word => g.add(Op::Const(0), &[]),
                ValueType::Bit => g.add(Op::BitConst(false), &[]),
            };
            consts.push(c);
            c
        } else {
            match ty {
                ValueType::Word => g.input(),
                ValueType::Bit => g.bit_input(),
            }
        };
        inputs.push(id);
    }
    let n = g.add(op, &inputs);
    match op.output_type() {
        ValueType::Word => g.output(n),
        ValueType::Bit => g.bit_output(n),
    };
    (g, consts)
}

fn empty_config(dp: &MergedDatapath, name: &str) -> DatapathConfig {
    DatapathConfig {
        name: name.to_owned(),
        node_cfg: vec![None; dp.nodes.len()],
        word_out_sel: Vec::new(),
        bit_out_sel: Vec::new(),
        word_input_map: Vec::new(),
        bit_input_map: Vec::new(),
        node_map: Vec::new(),
    }
}

/// Whether a datapath node can be configured to execute `op`.
fn supports(node: &apex_merge::DpNode, op: Op) -> bool {
    node.ops.iter().any(|o| match (o, &op) {
        (Op::Const(_), Op::Const(_)) => true,
        (Op::BitConst(_), Op::BitConst(_)) => true,
        (Op::Lut(_), Op::Lut(_)) => true,
        (a, b) => a == b,
    })
}

/// Is this datapath node a free-standing constant register?
fn is_const_reg(node: &apex_merge::DpNode, ty: ValueType) -> bool {
    node.output_type() == ty
        && node
            .ops
            .iter()
            .all(|o| matches!(o, Op::Const(_) | Op::BitConst(_)))
}

/// Structurally synthesizes a rule executing a single operation, with the
/// given operand indices bound to constant registers. Returns a verified
/// rule or `None`.
pub fn synthesize_op_rule(dp: &MergedDatapath, op: Op, const_ports: &[u8]) -> Option<RewriteRule> {
    op_rule_candidates(dp, op, const_ports).find(|rule| verify_rule(dp, rule))
}

/// The unverified single-op rules the structural search proposes, in the
/// order [`synthesize_op_rule`] tries them: per datapath node that can
/// execute `op`, the operands in port order, then swapped for a
/// commutative binary op.
pub(crate) fn op_rule_candidates<'a>(
    dp: &'a MergedDatapath,
    op: Op,
    const_ports: &'a [u8],
) -> impl Iterator<Item = RewriteRule> + 'a {
    const IN_ORDER: [usize; 3] = [0, 1, 2];
    const SWAPPED: [usize; 2] = [1, 0];
    let arity = op.arity();
    let orders = std::iter::once(&IN_ORDER[..arity])
        .chain((arity == 2 && op.commutative()).then_some(&SWAPPED[..]));
    dp.nodes
        .iter()
        .enumerate()
        .filter(move |(_, node)| supports(node, op) && node.arity() >= arity)
        .flat_map(move |(n_idx, node)| {
            orders
                .clone()
                .filter_map(move |order| place_op_rule(dp, n_idx, node, op, const_ports, order))
        })
}

/// Places `op` on datapath node `n_idx` with operand `i` on port
/// `order[i]`, or `None` when some operand finds no free source.
// invariant: the operand-placement loop assigns every port before the
// `expect`s that read them back
#[allow(clippy::expect_used)]
fn place_op_rule(
    dp: &MergedDatapath,
    n_idx: usize,
    node: &apex_merge::DpNode,
    op: Op,
    const_ports: &[u8],
    order: &[usize],
) -> Option<RewriteRule> {
    let arity = op.arity();
    let mut port_sel = vec![0u32; arity];
    let mut used_word: BTreeSet<u16> = BTreeSet::new();
    let mut used_bit: BTreeSet<u16> = BTreeSet::new();
    let mut claimed: Vec<u32> = Vec::new(); // const reg nodes
    let mut operand_source: Vec<Option<DpSource>> = vec![None; arity];
    for i in 0..arity {
        let p = order[i];
        let want_ty = op.input_types()[i];
        let cands = &node.port_candidates[p];
        let found = if const_ports.contains(&(i as u8)) {
            cands.iter().position(|c| match c {
                DpSource::Node(j) => {
                    is_const_reg(&dp.nodes[*j as usize], want_ty) && !claimed.contains(j)
                }
                _ => false,
            })
        } else {
            cands.iter().position(|c| match (c, want_ty) {
                (DpSource::WordInput(k), ValueType::Word) => !used_word.contains(k),
                (DpSource::BitInput(k), ValueType::Bit) => !used_bit.contains(k),
                _ => false,
            })
        };
        let sel = found?;
        let src = cands[sel];
        match src {
            DpSource::WordInput(k) => {
                used_word.insert(k);
            }
            DpSource::BitInput(k) => {
                used_bit.insert(k);
            }
            DpSource::Node(j) => claimed.push(j),
        }
        port_sel[p] = sel as u32;
        operand_source[i] = Some(src);
    }
    // build pattern + config
    let name = rule_name(op, const_ports);
    let (pattern, pattern_consts) = op_pattern(op, const_ports, &name);
    let mut cfg = empty_config(dp, &name);
    cfg.node_cfg[n_idx] = Some(NodeConfig { op, port_sel });
    let mut payload_bindings = Vec::new();
    let mut const_iter = pattern_consts.iter();
    let mut word_input_map = Vec::new();
    let mut bit_input_map = Vec::new();
    for source in operand_source {
        match source.expect("operand placed") {
            DpSource::WordInput(k) => word_input_map.push(k),
            DpSource::BitInput(k) => bit_input_map.push(k),
            DpSource::Node(j) => {
                let pc = *const_iter.next().expect("const operand recorded");
                let payload = match pattern.op(pc) {
                    Op::Const(_) => Op::Const(0),
                    other => other,
                };
                cfg.node_cfg[j as usize] = Some(NodeConfig {
                    op: payload,
                    port_sel: Vec::new(),
                });
                payload_bindings.push((pc, j));
            }
        }
    }
    cfg.word_input_map = word_input_map;
    cfg.bit_input_map = bit_input_map;
    match op.output_type() {
        ValueType::Word => cfg.word_out_sel.push(DpSource::Node(n_idx as u32)),
        ValueType::Bit => cfg.bit_out_sel.push(DpSource::Node(n_idx as u32)),
    }
    Some(RewriteRule {
        name,
        pattern,
        config: cfg,
        payload_bindings,
        ops_covered: 1 + const_ports.len(),
    })
}

/// Synthesizes a LUT-based rule for a bit operation (how the baseline PE
/// executes `BitAnd`/`BitOr`/etc., Section 2.1's "look up table for bit
/// operations").
pub fn lut_rule_for_bit_op(dp: &MergedDatapath, op: Op) -> Option<RewriteRule> {
    lut_rule_candidates(dp, op).find(|rule| verify_rule(dp, rule))
}

/// The unverified LUT rules for a bit operation, one per LUT node that
/// can take its operands; none for an op that is not bit-to-bit or has
/// more than three operands.
pub(crate) fn lut_rule_candidates(
    dp: &MergedDatapath,
    op: Op,
) -> impl Iterator<Item = RewriteRule> + '_ {
    let lowers = op.output_type() == ValueType::Bit
        && op.input_types().iter().all(|t| *t == ValueType::Bit)
        && op.arity() <= 3;
    let table = if lowers { truth_table(op) } else { 0 };
    dp.nodes
        .iter()
        .enumerate()
        .filter(move |(_, node)| lowers && node.ops.iter().any(|o| matches!(o, Op::Lut(_))))
        .filter_map(move |(n_idx, node)| place_lut_rule(dp, n_idx, node, op, table))
}

/// The 3-input LUT table of a bit operation, as a function of its operand
/// bits only.
fn truth_table(op: Op) -> u8 {
    let mut table = 0u8;
    for idx in 0..8u8 {
        let bits: Vec<Value> = (0..op.arity())
            .map(|i| Value::Bit((idx >> i) & 1 == 1))
            .collect();
        if op.eval(&bits).bit() {
            table |= 1 << idx;
        }
    }
    table
}

/// Places the LUT rule for `op` (truth table `table`) on LUT node `n_idx`,
/// or `None` when its ports cannot take the operands.
fn place_lut_rule(
    dp: &MergedDatapath,
    n_idx: usize,
    node: &apex_merge::DpNode,
    op: Op,
    table: u8,
) -> Option<RewriteRule> {
    let arity = op.arity();
    let mut port_sel = vec![0u32; 3];
    let mut used: BTreeSet<u16> = BTreeSet::new();
    let mut bit_input_map = Vec::new();
    for p in 0..3 {
        let cands = &node.port_candidates[p];
        let found = if p < arity {
            cands.iter().position(|c| match c {
                DpSource::BitInput(k) => !used.contains(k),
                _ => false,
            })
        } else {
            // don't-care port: any always-live source
            cands
                .iter()
                .position(|c| matches!(c, DpSource::BitInput(_)))
        };
        let sel = found?;
        if p < arity {
            if let DpSource::BitInput(k) = cands[sel] {
                used.insert(k);
                bit_input_map.push(k);
            }
        }
        port_sel[p] = sel as u32;
    }
    let name = rule_name(op, &[]);
    let (pattern, _) = op_pattern(op, &[], &name);
    let mut cfg = empty_config(dp, &name);
    cfg.node_cfg[n_idx] = Some(NodeConfig {
        op: Op::Lut(table),
        port_sel,
    });
    cfg.bit_out_sel.push(DpSource::Node(n_idx as u32));
    cfg.bit_input_map = bit_input_map;
    Some(RewriteRule {
        name,
        pattern,
        config: cfg,
        payload_bindings: Vec::new(),
        ops_covered: 1,
    })
}

/// Rule that outputs a bare constant (covers application constants no
/// other rule folds).
pub fn const_passthrough_rule(dp: &MergedDatapath) -> Option<RewriteRule> {
    const_passthrough_candidate(dp).filter(|rule| verify_rule(dp, rule))
}

/// The unverified constant-passthrough rule, on the first word constant
/// register.
pub(crate) fn const_passthrough_candidate(dp: &MergedDatapath) -> Option<RewriteRule> {
    let j = dp
        .nodes
        .iter()
        .position(|n| is_const_reg(n, ValueType::Word))?;
    let mut g = Graph::new("const");
    let c = g.add(Op::Const(0), &[]);
    g.output(c);
    let mut cfg = empty_config(dp, "const");
    cfg.node_cfg[j] = Some(NodeConfig {
        op: Op::Const(0),
        port_sel: Vec::new(),
    });
    cfg.word_out_sel.push(DpSource::Node(j as u32));
    Some(RewriteRule {
        name: "const".into(),
        pattern: g,
        config: cfg,
        payload_bindings: vec![(c, j as u32)],
        ops_covered: 1,
    })
}

fn rule_name(op: Op, const_ports: &[u8]) -> String {
    if const_ports.is_empty() {
        format!("{}", op.kind())
    } else {
        let ports: Vec<String> = const_ports.iter().map(u8::to_string).collect();
        format!("{}_c{}", op.kind(), ports.join(""))
    }
}

/// Operation templates an application graph needs: `(op, const operand
/// indices)` for every compute node, plus the plain variant.
pub fn needed_templates(apps: &[&Graph]) -> BTreeSet<(Op, Vec<u8>)> {
    let mut need = BTreeSet::new();
    for g in apps {
        for (_, node) in g.iter() {
            let op = node.op();
            if !op.is_compute() || matches!(op, Op::Const(_) | Op::BitConst(_)) {
                continue;
            }
            let op = normalize(op);
            let const_ports: Vec<u8> = node
                .inputs()
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(g.op(**s), Op::Const(_) | Op::BitConst(_)))
                .map(|(p, _)| p as u8)
                .collect();
            need.insert((op, Vec::new()));
            if !const_ports.is_empty() {
                need.insert((op, const_ports));
            }
        }
    }
    need
}

/// Strips payloads so templates deduplicate by kind.
fn normalize(op: Op) -> Op {
    match op {
        Op::Lut(_) => Op::Lut(0),
        other => other,
    }
}

/// Synthesizes the full ruleset for a PE: complex rules from its stored
/// configurations (`sources` aligned with `dp.configs`) plus single-op and
/// LUT-fallback rules for everything `apps` need.
///
/// Templates are synthesized serially, in template order: the whole call
/// is microseconds of work, which a thread spawn would cost more than.
/// They still run through [`apex_par::par_map`] (with one job) for its
/// panic capture.
///
/// # Errors
/// A panicking template synthesis (only reachable through fault injection
/// today) is caught and surfaces as a [`Stage::Rewrite`] error with the
/// panic payload on the cause chain — it never unwinds the caller.
pub fn standard_ruleset(
    dp: &MergedDatapath,
    sources: &[Graph],
    apps: &[&Graph],
) -> Result<(RuleSet, SynthesisReport), ApexError> {
    let mut rules = rules_from_configs(dp, sources);
    let rejected = sources.len() - rules.len();
    let mut missing = Vec::new();
    let templates: Vec<(Op, Vec<u8>)> = needed_templates(apps).into_iter().collect();
    let synthesized = apex_par::par_map(1, &templates, |_, (op, const_ports)| {
        #[cfg(feature = "fault-injection")]
        {
            if apex_fault::failpoints::should_fire("rewrite::synth_panic") {
                panic!("injected panic at rewrite::synth_panic");
            }
        }
        synthesize_op_rule(dp, *op, const_ports).or_else(|| {
            if const_ports.is_empty() {
                lut_rule_for_bit_op(dp, *op)
            } else {
                // fall back to the const-free variant; the constant is
                // then covered by the passthrough rule on another PE
                None
            }
        })
    });
    for ((op, const_ports), rule) in templates.iter().zip(synthesized) {
        match rule.map_err(|p| p.into_apex(Stage::Rewrite))? {
            Some(r) => rules.push(r),
            None if const_ports.is_empty() => {
                missing.push(rule_name(*op, const_ports));
            }
            None => {}
        }
    }
    if let Some(r) = const_passthrough_rule(dp) {
        rules.push(r);
    }
    rules.sort_by(|a, b| {
        b.ops_covered
            .cmp(&a.ops_covered)
            .then_with(|| a.name.cmp(&b.name))
    });
    Ok((RuleSet { rules }, SynthesisReport { missing, rejected }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_pe::{baseline_pe, baseline_op_kinds, baseline_pe_with_ops};

    #[test]
    fn baseline_supports_plain_alu_ops() {
        let pe = baseline_pe();
        for op in [Op::Add, Op::Sub, Op::Mul, Op::Smax, Op::Lshr, Op::Ult] {
            let rule = synthesize_op_rule(&pe.datapath, op, &[]);
            assert!(rule.is_some(), "baseline should execute {op}");
        }
    }

    #[test]
    fn baseline_folds_constants() {
        let pe = baseline_pe();
        for (op, ports) in [(Op::Mul, vec![1u8]), (Op::Add, vec![0]), (Op::Lshr, vec![1])] {
            let rule = synthesize_op_rule(&pe.datapath, op, &ports);
            assert!(rule.is_some(), "{op} with const {ports:?}");
            let r = rule.unwrap();
            assert_eq!(r.ops_covered, 2);
            assert_eq!(r.payload_bindings.len(), 1);
        }
    }

    #[test]
    fn baseline_executes_bit_ops_via_lut() {
        let pe = baseline_pe();
        for op in [Op::BitAnd, Op::BitOr, Op::BitXor, Op::BitNot, Op::BitMux] {
            // no dedicated gate exists...
            assert!(synthesize_op_rule(&pe.datapath, op, &[]).is_none());
            // ...but the LUT covers it
            let rule = lut_rule_for_bit_op(&pe.datapath, op);
            assert!(rule.is_some(), "LUT should cover {op}");
        }
    }

    #[test]
    fn mux_rule_uses_bit_select() {
        let pe = baseline_pe();
        let rule = synthesize_op_rule(&pe.datapath, Op::Mux, &[]).expect("mux");
        assert_eq!(rule.config.bit_input_map.len(), 1);
        assert_eq!(rule.config.word_input_map.len(), 2);
    }

    #[test]
    fn restricted_pe_rejects_absent_ops() {
        let kinds = [apex_ir::OpKind::Add, apex_ir::OpKind::Const]
            .into_iter()
            .collect();
        let pe = baseline_pe_with_ops("adder", &kinds);
        assert!(synthesize_op_rule(&pe.datapath, Op::Add, &[]).is_some());
        assert!(synthesize_op_rule(&pe.datapath, Op::Mul, &[]).is_none());
        assert!(lut_rule_for_bit_op(&pe.datapath, Op::BitAnd).is_none());
    }

    #[test]
    fn const_passthrough_exists_on_baseline() {
        let pe = baseline_pe();
        assert!(const_passthrough_rule(&pe.datapath).is_some());
    }

    #[test]
    fn standard_ruleset_covers_a_small_app() {
        // app: out = (a*3) + b, threshold against 10
        let mut g = Graph::new("app");
        let a = g.input();
        let b = g.input();
        let w = g.constant(3);
        let m = g.add(Op::Mul, &[a, w]);
        let s = g.add(Op::Add, &[m, b]);
        let th = g.constant(10);
        let cmp = g.add(Op::Sgt, &[s, th]);
        g.output(s);
        g.bit_output(cmp);
        let pe = baseline_pe();
        let (rules, report) = standard_ruleset(&pe.datapath, &[], &[&g]).unwrap();
        assert!(report.missing.is_empty(), "missing: {:?}", report.missing);
        assert!(rules.len() >= 4, "plain + const variants + passthrough");
        // sorted by coverage
        assert!(rules
            .rules
            .windows(2)
            .all(|w| w[0].ops_covered >= w[1].ops_covered));
    }

    #[test]
    fn stored_configurations_that_fail_verification_are_counted() {
        // out = a - b, merged as the datapath's one stored configuration
        let mut g = Graph::new("stored_sub");
        let a = g.input();
        let b = g.input();
        let d = g.add(Op::Sub, &[a, b]);
        g.output(d);
        let dp = MergedDatapath::from_graph(&g);
        let (rules, report) = standard_ruleset(&dp, &[g.clone()], &[&g]).unwrap();
        assert_eq!(report.rejected, 0);
        assert!(rules.rules.iter().any(|r| r.name == "stored_sub"));
        // corrupted: the stored configuration feeds the operands swapped
        let mut bad = dp.clone();
        bad.configs[0].word_input_map.reverse();
        let (rules, report) = standard_ruleset(&bad, &[g.clone()], &[&g]).unwrap();
        assert_eq!(report.rejected, 1);
        assert!(rules.rules.iter().all(|r| r.name != "stored_sub"));
        assert!(report.missing.is_empty(), "the single-op rule still covers sub");
    }

    #[test]
    fn full_baseline_ruleset_handles_every_advertised_kind() {
        let pe = baseline_pe();
        let kinds = baseline_op_kinds();
        // build a probe graph exercising each kind once
        let mut g = Graph::new("probe");
        let a = g.input();
        let b = g.input();
        let s = g.bit_input();
        let t = g.bit_input();
        for k in &kinds {
            use apex_ir::OpKind as K;
            match k {
                K::Add => { g.add(Op::Add, &[a, b]); }
                K::Sub => { g.add(Op::Sub, &[a, b]); }
                K::Mul => { g.add(Op::Mul, &[a, b]); }
                K::Abs => { g.add(Op::Abs, &[a]); }
                K::Smin => { g.add(Op::Smin, &[a, b]); }
                K::Smax => { g.add(Op::Smax, &[a, b]); }
                K::Umin => { g.add(Op::Umin, &[a, b]); }
                K::Umax => { g.add(Op::Umax, &[a, b]); }
                K::Shl => { g.add(Op::Shl, &[a, b]); }
                K::Lshr => { g.add(Op::Lshr, &[a, b]); }
                K::Ashr => { g.add(Op::Ashr, &[a, b]); }
                K::And => { g.add(Op::And, &[a, b]); }
                K::Or => { g.add(Op::Or, &[a, b]); }
                K::Xor => { g.add(Op::Xor, &[a, b]); }
                K::Not => { g.add(Op::Not, &[a]); }
                K::Mux => { g.add(Op::Mux, &[a, b, s]); }
                K::Eq => { g.add(Op::Eq, &[a, b]); }
                K::Ult => { g.add(Op::Ult, &[a, b]); }
                K::BitAnd => { g.add(Op::BitAnd, &[s, t]); }
                K::BitOr => { g.add(Op::BitOr, &[s, t]); }
                K::BitXor => { g.add(Op::BitXor, &[s, t]); }
                K::BitNot => { g.add(Op::BitNot, &[s]); }
                K::BitMux => { g.add(Op::BitMux, &[s, t, s]); }
                _ => {}
            }
        }
        let (rules, report) = standard_ruleset(&pe.datapath, &[], &[&g]).unwrap();
        assert!(report.missing.is_empty(), "missing: {:?}", report.missing);
        assert!(!rules.is_empty());
    }
}
