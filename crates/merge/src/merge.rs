//! Datapath-graph merging (paper Section 3.3, after Moreano et al.).
//!
//! [`merge_graph`] folds one more subgraph into an accumulated PE
//! datapath:
//!
//! 1. enumerate *merge opportunities* — node pairs implementable on one
//!    functional unit, and edge pairs whose connections can be reused
//!    (Fig. 5c),
//! 2. build the *compatibility graph* over opportunities with area-saving
//!    weights (Fig. 5d),
//! 3. find a maximum-weight clique, subject to the merged datapath staying
//!    acyclic, and
//! 4. reconstruct the merged datapath, inserting configuration muxes where
//!    configurations disagree about a port's source (Fig. 5e).

use crate::clique::CliqueProblem;
use crate::datapath::{DatapathConfig, DpNode, DpSource, MergedDatapath, NodeConfig};
use apex_fault::{fail_point, ApexError, Budget, Provenance, Stage};
use apex_ir::{Graph, NodeId, Op, ValueType};
use apex_tech::{fu_class, FuClass, TechModel};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Options controlling the merge search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOptions {
    /// Limits for one merge step: `max_steps` is the clique search's
    /// branch-and-bound node budget (500 000 by default), `deadline` and
    /// `cancel` stop the search early, and `max_bytes` caps the step's
    /// dominant allocations (the candidate compatibility matrix, the
    /// clique solver's bound arrays). Exceeding the byte cap
    /// deterministically shrinks the candidate set instead of
    /// OOM-aborting; every stop is flagged in [`MergeReport::provenance`].
    pub budget: Budget,
}

impl Default for MergeOptions {
    fn default() -> Self {
        MergeOptions {
            budget: Budget::from_env().with_max_steps(500_000),
        }
    }
}

/// Errors from folding a subgraph into a PE datapath.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// The subgraph contains register/FIFO nodes, which only appear after
    /// pipelining and cannot be merged.
    Registers {
        /// Name of the offending graph.
        graph: String,
    },
    /// No input port of the merged node is free for one of its operands.
    NoFreePort {
        /// Subgraph node whose operand could not be wired.
        node: u32,
    },
    /// Two operands of one node were wired to the same port.
    PortCollision {
        /// Subgraph node with the colliding operands.
        node: u32,
    },
    /// A subgraph input could not be assigned a PE input port.
    InputPortsExhausted,
    /// `merge_all` was called with no graphs.
    EmptyInput,
    /// The cost model produced a non-finite merge saving; the clique
    /// search refuses the instance (a NaN silently corrupts its pruning
    /// bound).
    NonFiniteWeight {
        /// The clique solver's diagnostic.
        detail: String,
    },
    /// A deterministic test fault (fault-injection builds only).
    Injected(&'static str),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Registers { graph } => {
                write!(f, "graph '{graph}' contains registers; merged datapaths must be combinational")
            }
            MergeError::NoFreePort { node } => {
                write!(f, "no free input port while wiring subgraph node n{node}")
            }
            MergeError::PortCollision { node } => {
                write!(f, "port collision while wiring subgraph node n{node}")
            }
            MergeError::InputPortsExhausted => {
                write!(f, "ran out of PE input ports for subgraph primary inputs")
            }
            MergeError::EmptyInput => write!(f, "merge_all needs at least one graph"),
            MergeError::NonFiniteWeight { detail } => write!(f, "{detail}"),
            MergeError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for MergeError {}

impl From<MergeError> for ApexError {
    fn from(e: MergeError) -> Self {
        ApexError::with_source(Stage::Merge, e)
    }
}

/// Statistics from one merge step.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Number of merge opportunities enumerated.
    pub candidates: usize,
    /// Size of the chosen clique.
    pub clique_size: usize,
    /// Estimated area saved by the chosen merges, µm².
    pub saved_area: f64,
    /// Whether the clique search completed or was cut short by its budget.
    pub provenance: Provenance,
}

/// One merge opportunity (a node of the compatibility graph).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Candidate {
    /// Merge subgraph node `b` onto datapath node `dp`.
    NodeMerge { dp: u32, b: NodeId },
    /// Let subgraph edge `bs → bd.q` ride the existing datapath
    /// connection `u → v.p`.
    EdgeMerge {
        v: u32,
        p: u8,
        u: u32,
        bd: NodeId,
        q: u8,
        bs: NodeId,
    },
}

impl Candidate {
    /// Node pairings implied by selecting this candidate.
    fn pairs(&self) -> Vec<(u32, NodeId)> {
        match *self {
            Candidate::NodeMerge { dp, b } => vec![(dp, b)],
            Candidate::EdgeMerge { v, u, bd, bs, .. } => vec![(u, bs), (v, bd)],
        }
    }
}

fn unit_class(node: &DpNode) -> FuClass {
    fu_class(node.ops[0].kind())
}

fn unit_area(node: &DpNode, tech: &TechModel) -> f64 {
    node.ops
        .iter()
        .map(|op| tech.area(op.kind()))
        .fold(0.0, f64::max)
}

fn node_feasible(node: &DpNode, b_op: Op) -> bool {
    let class = fu_class(b_op.kind());
    class.shareable()
        && unit_class(node) == class
        && node.output_type() == b_op.output_type()
}

/// Merges `graph` into the accumulated datapath `acc`, returning the new
/// datapath and a report.
///
/// The result keeps every configuration of `acc` unchanged (indices of
/// existing candidates are stable) and appends one configuration
/// implementing `graph`.
///
/// # Errors
/// Rejects subgraphs containing register/FIFO nodes and reports wiring
/// conflicts; a budget-limited clique search is *not* an error — the
/// greedy incumbent is used and [`MergeReport::provenance`] says so.
// invariant: the two `expect`s in the port-selection loop are reachable
// only if the merge-opportunity enumeration above them is internally
// inconsistent (an operand neither placed nor registered as a candidate)
#[allow(clippy::expect_used)]
pub fn merge_graph(
    acc: &MergedDatapath,
    graph: &Graph,
    tech: &TechModel,
    options: &MergeOptions,
) -> Result<(MergedDatapath, MergeReport), MergeError> {
    fail_point!("merge::start", MergeError::Injected("merge::start"));
    let b_nodes: Vec<NodeId> = graph.compute_nodes();
    for &b in &b_nodes {
        if matches!(graph.op(b), Op::Reg | Op::BitReg | Op::Fifo(_)) {
            return Err(MergeError::Registers {
                graph: graph.name().to_owned(),
            });
        }
    }
    let b_set: BTreeSet<NodeId> = b_nodes.iter().copied().collect();
    // B edges between compute nodes: (bd, q, bs)
    let b_edges: Vec<(NodeId, u8, NodeId)> = b_nodes
        .iter()
        .flat_map(|&bd| {
            graph
                .node(bd)
                .inputs()
                .iter()
                .enumerate()
                .filter(|(_, s)| b_set.contains(s))
                .map(move |(q, &bs)| (bd, q as u8, bs))
                .collect::<Vec<_>>()
        })
        .collect();

    // ---- 1. merge opportunities -----------------------------------------
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for (i, node) in acc.nodes.iter().enumerate() {
        for &b in &b_nodes {
            let b_op = graph.op(b);
            if node_feasible(node, b_op) {
                candidates.push(Candidate::NodeMerge { dp: i as u32, b });
                weights.push(unit_area(node, tech).min(tech.area(b_op.kind())));
            }
        }
    }
    for (vi, vnode) in acc.nodes.iter().enumerate() {
        for (p, cands) in vnode.port_candidates.iter().enumerate() {
            for src in cands {
                let DpSource::Node(ui) = *src else { continue };
                let unode = &acc.nodes[ui as usize];
                for &(bd, q, bs) in &b_edges {
                    let bd_op = graph.op(bd);
                    let bs_op = graph.op(bs);
                    if !node_feasible(vnode, bd_op) || !node_feasible(unode, bs_op) {
                        continue;
                    }
                    let positional =
                        vnode.non_commutative() || (bd_op.arity() >= 2 && !bd_op.commutative());
                    if positional && p as u8 != q {
                        continue;
                    }
                    if q as usize >= bd_op.arity() || p >= vnode.arity() {
                        continue;
                    }
                    candidates.push(Candidate::EdgeMerge {
                        v: vi as u32,
                        p: p as u8,
                        u: ui,
                        bd,
                        q,
                        bs,
                    });
                    weights.push(tech.mux_leg_area(unode.output_type()));
                }
            }
        }
    }

    // ---- 2. compatibility graph ------------------------------------------
    // the n×n compatibility matrix is this stage's dominant allocation;
    // under memory pressure keep a deterministic prefix of the candidate
    // list whose matrix fits (enumeration order is deterministic, so the
    // same inputs and budget always keep the same prefix)
    let mut meter = options.budget.start();
    let mut n = candidates.len();
    while n > 0 && !meter.charge((n as u64).saturating_mul(n as u64)) {
        n /= 2;
    }
    if n < candidates.len() {
        candidates.truncate(n);
        weights.truncate(n);
    }
    let mut compatible = vec![vec![false; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if candidates_compatible(&candidates[i], &candidates[j]) {
                compatible[i][j] = true;
                compatible[j][i] = true;
            }
        }
    }

    // ---- 3. clique search with acyclicity feasibility ---------------------
    // Precompute the accumulated datapath's internal edges.
    let acc_edges: Vec<(u32, u32)> = acc
        .nodes
        .iter()
        .enumerate()
        .flat_map(|(v, node)| {
            node.port_candidates
                .iter()
                .flatten()
                .filter_map(move |s| match s {
                    DpSource::Node(u) => Some((*u, v as u32)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let feasible = |clique: &[usize], cand: usize| -> bool {
        let mut mapping: BTreeMap<NodeId, u32> = BTreeMap::new();
        for &c in clique.iter().chain(std::iter::once(&cand)) {
            for (dp, b) in candidates[c].pairs() {
                mapping.insert(b, dp);
            }
        }
        projection_acyclic(acc, &acc_edges, &b_nodes, &b_edges, &mapping)
    };
    let solution = CliqueProblem {
        weights: weights.clone(),
        compatible,
        feasible: Some(&feasible),
    }
    .try_solve(&mut meter)
    .map_err(|e| MergeError::NonFiniteWeight {
        detail: e.message().to_owned(),
    })?;
    let clique = solution.members;
    let saved_area: f64 = clique.iter().map(|&i| weights[i]).sum();

    // ---- 4. reconstruction -------------------------------------------------
    let mut mapping: BTreeMap<NodeId, u32> = BTreeMap::new();
    let mut rides: BTreeMap<(NodeId, u8), (u32, u8, u32)> = BTreeMap::new();
    for &c in &clique {
        for (dp, b) in candidates[c].pairs() {
            mapping.insert(b, dp);
        }
        if let Candidate::EdgeMerge { v, p, u, bd, q, .. } = candidates[c] {
            rides.insert((bd, q), (v, p, u));
        }
    }

    let mut out = acc.clone();
    out.name = format!("{}+{}", acc.name, graph.name());

    // new nodes for unmapped B compute nodes
    for &b in &b_nodes {
        if !mapping.contains_key(&b) {
            let op = graph.op(b);
            let idx = out.nodes.len() as u32;
            out.nodes
                .push(DpNode::new(op, vec![Vec::new(); op.arity()]));
            mapping.insert(b, idx);
        } else {
            let idx = mapping[&b] as usize;
            let op = graph.op(b);
            extend_node(&mut out.nodes[idx], op);
        }
    }

    // input assignment (greedy overlap with existing connection wiring)
    let word_input_map = assign_inputs(graph, &out, &mapping, ValueType::Word)?;
    let bit_input_map = assign_inputs(graph, &out, &mapping, ValueType::Bit)?;
    out.word_inputs = out
        .word_inputs
        .max(word_input_map.iter().map(|&k| k as usize + 1).max().unwrap_or(0));
    out.bit_inputs = out
        .bit_inputs
        .max(bit_input_map.iter().map(|&k| k as usize + 1).max().unwrap_or(0));

    // wire B's edges port by port, building the new configuration
    let word_pis: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| graph.op(id) == Op::Input)
        .collect();
    let bit_pis: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| graph.op(id) == Op::BitInput)
        .collect();
    let source_for = |s: NodeId, mapping: &BTreeMap<NodeId, u32>| -> DpSource {
        if let Some(&dp) = mapping.get(&s) {
            DpSource::Node(dp)
        } else if let Some(k) = word_pis.iter().position(|&x| x == s) {
            DpSource::WordInput(word_input_map[k])
        } else if let Some(k) = bit_pis.iter().position(|&x| x == s) {
            DpSource::BitInput(bit_input_map[k])
        } else {
            unreachable!("source {s} is neither compute nor primary input")
        }
    };

    let mut node_cfg: Vec<Option<NodeConfig>> = vec![None; out.nodes.len()];
    for &b in &b_nodes {
        let op = graph.op(b);
        let t = mapping[&b] as usize;
        let arity = op.arity();
        let mut port_of_operand: Vec<Option<u8>> = vec![None; arity];
        let mut used = vec![false; arity];
        // 1) operands pinned by chosen edge rides
        for q in 0..arity {
            if let Some(&(v, p, u)) = rides.get(&(b, q as u8)) {
                debug_assert_eq!(v as usize, t);
                debug_assert!(out.nodes[t].port_candidates[p as usize]
                    .contains(&DpSource::Node(u)));
                port_of_operand[q] = Some(p);
                used[p as usize] = true;
            }
        }
        // 2) non-commutative ops need positional ports
        let positional = arity >= 2 && !op.commutative();
        for q in 0..arity {
            if port_of_operand[q].is_some() {
                continue;
            }
            let src = source_for(graph.node(b).inputs()[q], &mapping);
            let port = if positional || arity == 1 {
                q as u8
            } else {
                // commutative: prefer a free port that already has this
                // source as a candidate, then the free port with fewest
                // candidates
                let mut best: Option<u8> = None;
                for p in 0..arity {
                    if used[p] {
                        continue;
                    }
                    let cands = &out.nodes[t].port_candidates[p];
                    let better = match best {
                        None => true,
                        Some(bp) => {
                            let bc = &out.nodes[t].port_candidates[bp as usize];
                            (cands.contains(&src), std::cmp::Reverse(cands.len()))
                                > (bc.contains(&src), std::cmp::Reverse(bc.len()))
                        }
                    };
                    if better {
                        best = Some(p as u8);
                    }
                }
                best.ok_or(MergeError::NoFreePort { node: b.0 })?
            };
            if used[port as usize] {
                return Err(MergeError::PortCollision { node: b.0 });
            }
            used[port as usize] = true;
            port_of_operand[q] = Some(port);
            let cands = &mut out.nodes[t].port_candidates[port as usize];
            if !cands.contains(&src) {
                cands.push(src);
            }
        }
        // 3) build the per-port selection
        let mut port_sel = vec![0u32; arity];
        for q in 0..arity {
            // invariant: both loops above either assign the operand's port
            // and register its source as a candidate, or return early
            let p = port_of_operand[q].expect("operand placed") as usize;
            let src = match rides.get(&(b, q as u8)) {
                Some(&(_, _, u)) => DpSource::Node(u),
                None => source_for(graph.node(b).inputs()[q], &mapping),
            };
            let sel = out.nodes[t].port_candidates[p]
                .iter()
                .position(|&c| c == src)
                .expect("source registered as candidate");
            port_sel[p] = sel as u32;
        }
        node_cfg[t] = Some(NodeConfig { op, port_sel });
    }

    // outputs
    let mut word_out_sel = Vec::new();
    let mut bit_out_sel = Vec::new();
    for po in graph.primary_outputs() {
        let feed = graph.node(po).inputs()[0];
        let src = source_for(feed, &mapping);
        match graph.op(po) {
            Op::Output => word_out_sel.push(src),
            Op::BitOutput => bit_out_sel.push(src),
            _ => unreachable!(),
        }
    }
    out.word_outputs = out.word_outputs.max(word_out_sel.len());
    out.bit_outputs = out.bit_outputs.max(bit_out_sel.len());

    // pad existing configs to the new node count
    for cfg in &mut out.configs {
        cfg.node_cfg.resize(out.nodes.len(), None);
    }
    out.configs.push(DatapathConfig {
        name: graph.name().to_owned(),
        node_cfg,
        word_out_sel,
        bit_out_sel,
        word_input_map,
        bit_input_map,
        node_map: mapping.iter().map(|(&b, &dp)| (b.0, dp)).collect(),
    });

    let report = MergeReport {
        candidates: n,
        clique_size: clique.len(),
        saved_area,
        provenance: solution.provenance,
    };
    Ok((out, report))
}

/// Adds `op` to a node's op set (constant-like ops are deduplicated by
/// kind since their payload is configuration state) and widens the port
/// list if needed.
fn extend_node(node: &mut DpNode, op: Op) {
    let present = node.ops.iter().any(|o| match (o, &op) {
        (Op::Const(_), Op::Const(_)) => true,
        (Op::BitConst(_), Op::BitConst(_)) => true,
        (Op::Lut(_), Op::Lut(_)) => true,
        (a, b) => *a == *b,
    });
    if !present {
        node.ops.push(op);
    }
    while node.port_candidates.len() < op.arity() {
        node.port_candidates.push(Vec::new());
    }
}

fn candidates_compatible(a: &Candidate, b: &Candidate) -> bool {
    // consistent partial injective mapping
    for (d1, b1) in a.pairs() {
        for (d2, b2) in b.pairs() {
            if (d1 == d2) != (b1 == b2) {
                return false;
            }
        }
    }
    // distinct physical connections and distinct subgraph edges
    if let (
        Candidate::EdgeMerge {
            v: v1,
            p: p1,
            u: u1,
            bd: bd1,
            q: q1,
            ..
        },
        Candidate::EdgeMerge {
            v: v2,
            p: p2,
            u: u2,
            bd: bd2,
            q: q2,
            ..
        },
    ) = (a, b)
    {
        if (v1, p1, u1) == (v2, p2, u2) || (bd1, q1) == (bd2, q2) {
            return false;
        }
        // two operands of one subgraph node cannot ride the same port
        if bd1 == bd2 && p1 == p2 {
            return false;
        }
    }
    true
}

/// Checks that the union of the accumulated datapath's edges and the
/// subgraph's edges, projected through `mapping`, stays acyclic.
fn projection_acyclic(
    acc: &MergedDatapath,
    acc_edges: &[(u32, u32)],
    b_nodes: &[NodeId],
    b_edges: &[(NodeId, u8, NodeId)],
    mapping: &BTreeMap<NodeId, u32>,
) -> bool {
    // virtual ids: 0..acc.nodes.len() for dp nodes, then unmapped B nodes
    let base = acc.nodes.len() as u32;
    let mut virt: BTreeMap<NodeId, u32> = BTreeMap::new();
    let mut next = base;
    for &bn in b_nodes {
        if !mapping.contains_key(&bn) {
            virt.insert(bn, next);
            next += 1;
        }
    }
    let id_of = |bn: NodeId| -> u32 { mapping.get(&bn).copied().unwrap_or_else(|| virt[&bn]) };
    let total = next as usize;
    let mut succ: Vec<Vec<u32>> = vec![Vec::new(); total];
    let mut indeg = vec![0usize; total];
    let push = |s: u32, d: u32, succ: &mut Vec<Vec<u32>>, indeg: &mut Vec<usize>| {
        succ[s as usize].push(d);
        indeg[d as usize] += 1;
    };
    for &(u, v) in acc_edges {
        push(u, v, &mut succ, &mut indeg);
    }
    for &(bd, _, bs) in b_edges {
        push(id_of(bs), id_of(bd), &mut succ, &mut indeg);
    }
    let mut ready: Vec<u32> = (0..total as u32)
        .filter(|&i| indeg[i as usize] == 0)
        .collect();
    let mut seen = 0usize;
    while let Some(u) = ready.pop() {
        seen += 1;
        for &v in &succ[u as usize] {
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                ready.push(v);
            }
        }
    }
    seen == total
}

/// Assigns the subgraph's primary inputs of type `ty` to PE input ports,
/// preferring ports already wired to the nodes the input feeds.
fn assign_inputs(
    graph: &Graph,
    out: &MergedDatapath,
    mapping: &BTreeMap<NodeId, u32>,
    ty: ValueType,
) -> Result<Vec<u16>, MergeError> {
    let pis: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| match ty {
            ValueType::Word => graph.op(id) == Op::Input,
            ValueType::Bit => graph.op(id) == Op::BitInput,
        })
        .collect();
    let existing = match ty {
        ValueType::Word => out.word_inputs,
        ValueType::Bit => out.bit_inputs,
    };
    let limit = existing.max(pis.len());
    let fan = graph.fanouts();
    let mut taken = vec![false; limit.max(1)];
    let mut result = vec![0u16; pis.len()];
    for (k, &pi) in pis.iter().enumerate() {
        // nodes this input feeds, in the merged datapath
        let dests: Vec<u32> = fan[pi.index()]
            .iter()
            .filter_map(|c| mapping.get(c).copied())
            .collect();
        let mut best: Option<(usize, usize)> = None; // (score, port)
        for port in 0..limit {
            if taken[port] {
                continue;
            }
            let probe = match ty {
                ValueType::Word => DpSource::WordInput(port as u16),
                ValueType::Bit => DpSource::BitInput(port as u16),
            };
            let score = dests
                .iter()
                .map(|&d| {
                    out.nodes[d as usize]
                        .port_candidates
                        .iter()
                        .filter(|c| c.contains(&probe))
                        .count()
                })
                .sum::<usize>();
            let better = match best {
                None => true,
                Some((bs, bp)) => score > bs || (score == bs && port < bp),
            };
            if better {
                best = Some((score, port));
            }
        }
        let (_, port) = best.ok_or(MergeError::InputPortsExhausted)?;
        taken[port] = true;
        result[k] = port as u16;
    }
    Ok(result)
}

/// Folds a list of datapath graphs into one merged PE datapath.
///
/// # Errors
/// Rejects an empty graph list and propagates the first merge failure.
pub fn merge_all(
    graphs: &[Graph],
    tech: &TechModel,
    options: &MergeOptions,
) -> Result<(MergedDatapath, Vec<MergeReport>), MergeError> {
    if graphs.is_empty() {
        return Err(MergeError::EmptyInput);
    }
    let mut acc = MergedDatapath::from_graph(&graphs[0]);
    let mut reports = Vec::new();
    for g in &graphs[1..] {
        let (next, report) = merge_graph(&acc, g, tech, options)?;
        acc = next;
        reports.push(report);
    }
    Ok((acc, reports))
}
