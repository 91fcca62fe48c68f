//! Greedy instruction selection (paper Section 4.1.2).
//!
//! LLVM-style maximal-munch covering: rules are tried in decreasing
//! coverage order; each rule's pattern is matched against the application
//! graph (reusing the miner's subgraph-isomorphism engine) and applied
//! greedily wherever it covers only uncovered operations and does not
//! hide internally-produced values that the rest of the application still
//! needs.

use crate::netlist::{NetKind, NetRef, Netlist, PeInstance};
use apex_ir::{Graph, NodeId, Op};
use apex_merge::MergedDatapath;
use apex_mining::{find_embeddings, GraphIndex, Pattern};
use apex_rewrite::{RewriteRule, RuleSet};
use std::collections::BTreeMap;

/// Mapping failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// No rule covers an application operation.
    Uncovered {
        /// The uncoverable operation.
        op: String,
    },
    /// A constant feeds a PE input but the ruleset has no constant
    /// passthrough rule.
    NoConstRule,
    /// An accepted match left a pattern input unbound (internal
    /// inconsistency between matching and emission).
    UnboundInput,
    /// A deterministic test fault (fault-injection builds only).
    Injected(&'static str),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Uncovered { op } => write!(f, "no rewrite rule covers operation {op}"),
            MapError::NoConstRule => write!(f, "ruleset lacks a constant passthrough rule"),
            MapError::UnboundInput => write!(f, "pattern input left unbound by match"),
            MapError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<MapError> for apex_fault::ApexError {
    fn from(e: MapError) -> Self {
        apex_fault::ApexError::with_source(apex_fault::Stage::Map, e)
    }
}

/// Mapping statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MapStats {
    /// Total PE instances (the paper's per-application `#PE`).
    pub pe_count: usize,
    /// Instances per rule name.
    pub rules_used: BTreeMap<String, usize>,
    /// Constant-passthrough instances among `pe_count`.
    pub const_pes: usize,
    /// Application compute ops covered (excluding constants).
    pub ops_covered: usize,
}

/// A mapped application.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedDesign {
    /// The PE-level netlist.
    pub netlist: Netlist,
    /// Statistics.
    pub stats: MapStats,
}

/// Pre-analyzed rule.
struct PreppedRule<'r> {
    idx: u32,
    rule: &'r RewriteRule,
    mining: Pattern,
    /// mining pattern index → rule-pattern graph node
    order: Vec<NodeId>,
    /// rule-pattern graph node → mining pattern index
    rev: BTreeMap<NodeId, usize>,
    /// drivers of the pattern's word outputs, in output order
    word_sinks: Vec<NodeId>,
    /// drivers of the pattern's bit outputs
    bit_sinks: Vec<NodeId>,
    /// pattern out-edge count per mining index (for the visibility check)
    out_edges: Vec<usize>,
    /// is the rule a pure constant passthrough?
    const_only: bool,
}

fn prep_rule(idx: u32, rule: &RewriteRule) -> PreppedRule<'_> {
    let compute = rule.pattern.compute_nodes();
    let (mining, order) = Pattern::from_occurrence(&rule.pattern, &compute);
    let rev: BTreeMap<NodeId, usize> = order
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, i))
        .collect();
    let mut word_sinks = Vec::new();
    let mut bit_sinks = Vec::new();
    for po in rule.pattern.primary_outputs() {
        let driver = rule.pattern.node(po).inputs()[0];
        match rule.pattern.op(po) {
            Op::Output => word_sinks.push(driver),
            Op::BitOutput => bit_sinks.push(driver),
            _ => unreachable!(),
        }
    }
    let mut out_edges = vec![0usize; mining.len()];
    for (s, _, _) in mining.edges() {
        out_edges[s as usize] += 1;
    }
    let const_only = compute
        .iter()
        .all(|&n| matches!(rule.pattern.op(n), Op::Const(_) | Op::BitConst(_)));
    PreppedRule {
        idx,
        rule,
        mining,
        order,
        rev,
        word_sinks,
        bit_sinks,
        out_edges,
        const_only,
    }
}

/// One accepted match.
struct Match {
    rule: usize, // index into prepped
    /// mining pattern index → app node
    emb: Vec<NodeId>,
    /// pattern graph Input/BitInput node → app source node
    input_bindings: BTreeMap<NodeId, NodeId>,
}

/// Computes the pattern-input → application-source bindings for an
/// embedding, or `None` when a shared pattern input would need two
/// different application values.
fn bind_inputs(p: &PreppedRule<'_>, emb: &[NodeId], app: &Graph) -> Option<BTreeMap<NodeId, NodeId>> {
    let mut bindings: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for (i, &pc) in p.order.iter().enumerate() {
        let an = emb[i];
        let app_inputs = app.node(an).inputs();
        // assign mining in-edges to app ports (injective, port-constrained)
        let edges = p.mining.in_edges(i);
        let mut used = vec![false; app_inputs.len()];
        if !assign_edges(edges, 0, app_inputs, emb, &mut used) {
            return None;
        }
        // leftover app ports pair with the pattern node's input-fed ports
        let pat_inputs = p.rule.pattern.node(pc).inputs();
        let mut leftover_app: Vec<usize> = (0..app_inputs.len()).filter(|&q| !used[q]).collect();
        let mut input_fed: Vec<usize> = pat_inputs
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                matches!(p.rule.pattern.op(**s), Op::Input | Op::BitInput)
            })
            .map(|(q, _)| q)
            .collect();
        if leftover_app.len() != input_fed.len() {
            return None;
        }
        leftover_app.sort_unstable();
        input_fed.sort_unstable();
        for (&aq, &pq) in leftover_app.iter().zip(&input_fed) {
            let pattern_input = pat_inputs[pq];
            let app_src = app_inputs[aq];
            // type check
            if app.op(app_src).output_type() != p.rule.pattern.op(pattern_input).output_type() {
                return None;
            }
            match bindings.get(&pattern_input) {
                None => {
                    bindings.insert(pattern_input, app_src);
                }
                Some(&prev) if prev == app_src => {}
                Some(_) => {
                    return None;
                }
            }
        }
    }
    Some(bindings)
}

fn assign_edges(
    edges: &[apex_mining::PatternEdge],
    k: usize,
    app_inputs: &[NodeId],
    emb: &[NodeId],
    used: &mut Vec<bool>,
) -> bool {
    if k == edges.len() {
        return true;
    }
    let e = edges[k];
    let want = emb[e.src as usize];
    let candidates: Vec<usize> = match e.port {
        Some(p) => vec![p as usize],
        None => (0..app_inputs.len()).collect(),
    };
    for q in candidates {
        if q < app_inputs.len() && !used[q] && app_inputs[q] == want {
            used[q] = true;
            if assign_edges(edges, k + 1, app_inputs, emb, used) {
                // keep `used` marked: callers need the final assignment
                return true;
            }
            used[q] = false;
        }
    }
    false
}

/// Maps an application graph onto a PE, producing a netlist of configured
/// PE instances.
///
/// # Errors
/// Fails when some application operation has no covering rule, or when
/// the graph contains registers (mapping runs before pipelining).
pub fn map_application(
    app: &Graph,
    dp: &MergedDatapath,
    rules: &RuleSet,
) -> Result<MappedDesign, MapError> {
    apex_fault::fail_point!("map::start", MapError::Injected("map::start"));
    if let Some(reg) = app
        .node_ids()
        .find(|&i| matches!(app.op(i), Op::Reg | Op::BitReg | Op::Fifo(_)))
    {
        return Err(MapError::Uncovered {
            op: format!("{} (registers appear only after pipelining)", app.op(reg)),
        });
    }
    let prepped: Vec<PreppedRule<'_>> = rules
        .rules
        .iter()
        .enumerate()
        .map(|(i, r)| prep_rule(i as u32, r))
        .collect();
    let index = GraphIndex::new(app);
    let app_fanouts = app.fanouts();

    // ---- covering --------------------------------------------------------
    let mut covered = vec![false; app.len()];
    let mut matches: Vec<Match> = Vec::new();
    for (pi, p) in prepped.iter().enumerate() {
        if p.const_only {
            continue; // constants are folded or materialized on demand
        }
        let embeddings = find_embeddings(&p.mining, &index, 200_000);
        'emb: for r in 0..embeddings.len() {
            let e: Vec<NodeId> = embeddings.list.row(r);
            // every non-const image must be uncovered
            for &an in &e {
                let is_const = matches!(
                    app.op(an),
                    Op::Const(_) | Op::BitConst(_)
                );
                if !is_const && covered[an.index()] {
                    continue 'emb;
                }
            }
            // visibility: non-sink, non-const images must have all their
            // consumers inside the match (edge counts line up)
            for (i, &an) in e.iter().enumerate() {
                let pc = p.order[i];
                let is_const = matches!(app.op(an), Op::Const(_) | Op::BitConst(_));
                let is_sink = p.word_sinks.contains(&pc) || p.bit_sinks.contains(&pc);
                if is_const || is_sink {
                    continue;
                }
                let app_consumers = app_fanouts[an.index()].len();
                if app_consumers != p.out_edges[i] {
                    continue 'emb;
                }
            }
            // convexity: no application path may leave the match and
            // re-enter it, or two PE instances would depend on each other
            // (a combinational cycle at the tile level)
            if !convex(app, &app_fanouts, &e) {
                continue 'emb;
            }
            let Some(input_bindings) = bind_inputs(p, &e, app) else {
                continue 'emb;
            };
            for &an in &e {
                if !matches!(app.op(an), Op::Const(_) | Op::BitConst(_)) {
                    covered[an.index()] = true;
                }
            }
            matches.push(Match {
                rule: pi,
                emb: e,
                input_bindings,
            });
        }
    }

    // multi-sink matches can deadlock: bundling independent output cones
    // into one PE may create instance-level dependency cycles even though
    // each match is convex. Drop offenders and re-cover their nodes with
    // single-sink rules until the match graph is acyclic.
    loop {
        let producer = producers(&matches, &prepped);
        match find_cyclic_match(&matches, &prepped, app, &producer) {
            None => break,
            Some(victim) => {
                let m = matches.remove(victim);
                for &an in &m.emb {
                    if !matches!(app.op(an), Op::Const(_) | Op::BitConst(_)) {
                        covered[an.index()] = false;
                    }
                }
                // re-cover with single-sink rules only
                for (p_idx, p) in prepped.iter().enumerate() {
                    if p.const_only || p.word_sinks.len() + p.bit_sinks.len() != 1 {
                        continue;
                    }
                    let embeddings = find_embeddings(&p.mining, &index, 200_000);
                    'emb2: for r in 0..embeddings.len() {
                        let e: Vec<NodeId> = embeddings.list.row(r);
                        let mut fresh = false;
                        for (i, &an) in e.iter().enumerate() {
                            let is_const =
                                matches!(app.op(an), Op::Const(_) | Op::BitConst(_));
                            if !is_const {
                                if covered[an.index()] {
                                    continue 'emb2;
                                }
                                fresh = true;
                            }
                            let pc = p.order[i];
                            let is_sink =
                                p.word_sinks.contains(&pc) || p.bit_sinks.contains(&pc);
                            if !is_const && !is_sink
                                && app_fanouts[an.index()].len() != p.out_edges[i]
                            {
                                continue 'emb2;
                            }
                        }
                        if !fresh || !convex(app, &app_fanouts, &e) {
                            continue 'emb2;
                        }
                        let Some(input_bindings) = bind_inputs(p, &e, app) else {
                            continue 'emb2;
                        };
                        for &an in &e {
                            if !matches!(app.op(an), Op::Const(_) | Op::BitConst(_)) {
                                covered[an.index()] = true;
                            }
                        }
                        matches.push(Match {
                            rule: p_idx,
                            emb: e,
                            input_bindings,
                        });
                    }
                }
            }
        }
    }

    // every non-const compute node must be covered
    for id in app.compute_nodes() {
        if matches!(app.op(id), Op::Const(_) | Op::BitConst(_)) {
            continue;
        }
        if !covered[id.index()] {
            return Err(MapError::Uncovered {
                op: app.op(id).to_string(),
            });
        }
    }

    // ---- netlist construction ---------------------------------------------
    let mut netlist = Netlist::new(app.name());
    let mut value_of: BTreeMap<NodeId, NetRef> = BTreeMap::new();
    for pi_node in app.primary_inputs() {
        let kind = match app.op(pi_node) {
            Op::Input => NetKind::WordInput,
            Op::BitInput => NetKind::BitInput,
            _ => unreachable!(),
        };
        let idx = netlist.push(kind, Vec::new());
        value_of.insert(pi_node, NetRef { node: idx, port: 0 });
    }

    // producer match per app node
    let producer = producers(&matches, &prepped);

    // topological order over matches
    let order = topo_matches(&matches, &prepped, app, &producer);

    let const_rule = prepped.iter().find(|p| p.const_only);
    let mut const_instances: BTreeMap<NodeId, NetRef> = BTreeMap::new();
    let mut stats = MapStats::default();

    let resolve =
        |src: NodeId,
         netlist: &mut Netlist,
         value_of: &BTreeMap<NodeId, NetRef>,
         const_instances: &mut BTreeMap<NodeId, NetRef>,
         stats: &mut MapStats|
         -> Result<NetRef, MapError> {
            if let Some(&r) = value_of.get(&src) {
                return Ok(r);
            }
            if let Op::Const(v) = app.op(src) {
                if let Some(&r) = const_instances.get(&src) {
                    return Ok(r);
                }
                let cr = const_rule.ok_or(MapError::NoConstRule)?;
                let idx = netlist.push(
                    NetKind::Pe(PeInstance {
                        rule: cr.idx,
                        payloads: vec![Op::Const(v)],
                    }),
                    Vec::new(),
                );
                let r = NetRef { node: idx, port: 0 };
                const_instances.insert(src, r);
                stats.pe_count += 1;
                stats.const_pes += 1;
                *stats.rules_used.entry("const".into()).or_insert(0) += 1;
                Ok(r)
            } else {
                unreachable!("unresolved source {src} ({})", app.op(src))
            }
        };

    for &mi in &order {
        let m = &matches[mi];
        let p = &prepped[m.rule];
        // operand sources: pattern word inputs in insertion order, then bit
        let mut inputs: Vec<NetRef> = Vec::new();
        for want_bit in [false, true] {
            for pin in p.rule.pattern.primary_inputs() {
                let is_bit = p.rule.pattern.op(pin) == Op::BitInput;
                if is_bit != want_bit {
                    continue;
                }
                let app_src = *m
                    .input_bindings
                    .get(&pin)
                    .ok_or(MapError::UnboundInput)?;
                let r = resolve(app_src, &mut netlist, &value_of, &mut const_instances, &mut stats)?;
                inputs.push(r);
            }
        }
        // payloads from the matched constants
        let payloads: Vec<Op> = p
            .rule
            .payload_bindings
            .iter()
            .map(|(pn, _)| app.op(m.emb[p.rev[pn]]))
            .collect();
        let idx = netlist.push(
            NetKind::Pe(PeInstance {
                rule: p.idx,
                payloads,
            }),
            inputs,
        );
        stats.pe_count += 1;
        stats.ops_covered += p
            .order
            .iter()
            .filter(|&&pc| !matches!(p.rule.pattern.op(pc), Op::Const(_) | Op::BitConst(_)))
            .count();
        *stats.rules_used.entry(p.rule.name.clone()).or_insert(0) += 1;
        for (j, sink) in p.word_sinks.iter().enumerate() {
            value_of.insert(m.emb[p.rev[sink]], NetRef { node: idx, port: j as u8 });
        }
        let word_n = p.word_sinks.len();
        for (j, sink) in p.bit_sinks.iter().enumerate() {
            value_of.insert(
                m.emb[p.rev[sink]],
                NetRef {
                    node: idx,
                    port: (word_n + j) as u8,
                },
            );
        }
    }

    // debug-time check: every instance configuration is valid on the PE
    if cfg!(debug_assertions) {
        for node in &netlist.nodes {
            if let NetKind::Pe(inst) = &node.kind {
                let rule = &rules.rules[inst.rule as usize];
                let check = dp.validate_config(&rule.instantiate(&inst.payloads));
                debug_assert!(check.is_ok(), "invalid instance configuration: {check:?}");
            }
        }
    }

    // application outputs
    for po in app.primary_outputs() {
        let driver = app.node(po).inputs()[0];
        let r = resolve(driver, &mut netlist, &value_of, &mut const_instances, &mut stats)?;
        let kind = match app.op(po) {
            Op::Output => NetKind::WordOutput,
            Op::BitOutput => NetKind::BitOutput,
            _ => unreachable!(),
        };
        netlist.push(kind, vec![r]);
    }

    Ok(MappedDesign { netlist, stats })
}

/// Checks that the matched node set is convex: every directed application
/// path between two matched nodes stays inside the match.
fn convex(app: &Graph, fanouts: &[Vec<NodeId>], image: &[NodeId]) -> bool {
    // constants are configuration payloads, not wires: other uses of a
    // matched constant are separate foldings, so they neither escape the
    // match nor re-enter it
    let set: std::collections::BTreeSet<NodeId> = image
        .iter()
        .copied()
        .filter(|&n| !matches!(app.op(n), Op::Const(_) | Op::BitConst(_)))
        .collect();
    // forward DFS from external consumers of matched nodes, through
    // external nodes only; reaching the match again breaks convexity
    let mut stack: Vec<NodeId> = Vec::new();
    let mut seen: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
    for &m in &set {
        for &c in &fanouts[m.index()] {
            if !set.contains(&c) && seen.insert(c) {
                stack.push(c);
            }
        }
    }
    while let Some(u) = stack.pop() {
        for &c in &fanouts[u.index()] {
            if set.contains(&c) {
                return false;
            }
            if seen.insert(c) {
                stack.push(c);
            }
        }
    }
    true
}

/// Producer match per application node (pattern sinks produce values).
fn producers(matches: &[Match], prepped: &[PreppedRule<'_>]) -> BTreeMap<NodeId, usize> {
    let mut producer: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (mi, m) in matches.iter().enumerate() {
        let p = &prepped[m.rule];
        for sink in p.word_sinks.iter().chain(&p.bit_sinks) {
            let i = p.rev[sink];
            producer.insert(m.emb[i], mi);
        }
    }
    producer
}

/// Finds a match participating in an instance-level dependency cycle, or
/// `None` when the match graph is acyclic. Prefers multi-sink matches
/// (single-sink matches cannot create cycles on their own).
fn find_cyclic_match(
    matches: &[Match],
    prepped: &[PreppedRule<'_>],
    app: &Graph,
    producer: &BTreeMap<NodeId, usize>,
) -> Option<usize> {
    let n = matches.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (mi, m) in matches.iter().enumerate() {
        for &src in m.input_bindings.values() {
            if matches!(
                app.op(src),
                Op::Input | Op::BitInput | Op::Const(_) | Op::BitConst(_)
            ) {
                continue;
            }
            let dep = producer[&src];
            if dep != mi {
                succ[dep].push(mi);
                indeg[mi] += 1;
            }
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut done = 0usize;
    while let Some(u) = ready.pop() {
        done += 1;
        for &v in &succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }
    if done == n {
        return None;
    }
    // any blocked match is in (or downstream of) a cycle; prefer a blocked
    // multi-sink one
    let blocked: Vec<usize> = (0..n).filter(|&i| indeg[i] > 0).collect();
    blocked
        .iter()
        .copied()
        .find(|&i| {
            let p = &prepped[matches[i].rule];
            p.word_sinks.len() + p.bit_sinks.len() > 1
        })
        .or_else(|| blocked.first().copied())
}

/// Orders matches so producers precede consumers.
fn topo_matches(
    matches: &[Match],
    prepped: &[PreppedRule<'_>],
    app: &Graph,
    producer: &BTreeMap<NodeId, usize>,
) -> Vec<usize> {
    let n = matches.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (mi, m) in matches.iter().enumerate() {
        let p = &prepped[m.rule];
        for &src in m.input_bindings.values() {
            if matches!(app.op(src), Op::Input | Op::BitInput | Op::Const(_) | Op::BitConst(_)) {
                continue;
            }
            let dep = producer[&src];
            if dep != mi {
                succ[dep].push(mi);
                indeg[mi] += 1;
            }
        }
        let _ = p;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(u) = ready.pop() {
        order.push(u);
        for &v in &succ[u] {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                ready.push(v);
            }
        }
    }
    assert_eq!(order.len(), n, "match dependencies form a cycle");
    order
}
