//! Subgraph-isomorphism search (VF2-style backtracking) and embedding
//! growth.
//!
//! [`find_embeddings`] enumerates every injective, label- and
//! port-consistent mapping of a [`Pattern`] into the compute region of an
//! application graph. The frequent-subgraph miner (our GraMi substitute)
//! searches only its single-node patterns this way: every larger pattern
//! is one extension away from a parent whose embeddings it already holds,
//! and `grow_embeddings` derives the child's list from the parent's rows
//! (Pangolin's BFS extension), in exactly the order and with exactly the
//! truncation the search would give. Port feasibility tracks used ports
//! in a `u64` mask, and a row grown by an edge re-checks only the edge's
//! destination.
//!
//! ## Hot-path layout
//!
//! Embeddings are stored column-wise in an [`EmbeddingList`] (one
//! `Vec<NodeId>` per pattern position, the Pangolin `USE_EMB_LIST`
//! struct-of-arrays design) instead of one heap `Vec` per embedding:
//! MNI support reads one contiguous column per position, and pushing an
//! embedding never allocates. Candidate pruning and injectivity use
//! per-label fixed-size bitsets over the graph's dense node-id space, so
//! the inner backtracking loop is allocation-free — per-depth candidate
//! buffers are reused across the whole search. This is the only matcher
//! in release builds: the original scalar matcher and its allocating port
//! check are kept verbatim as test-only spec code
//! (`find_embeddings_reference` in the `spec` child module, compiled
//! under `#[cfg(test)]`). The property tests there require this search to
//! return exactly its embedding sequence, and every grown list to equal
//! the search's.

use crate::bitset::Bitset;
use crate::miner::Extension;
use crate::pattern::Pattern;
use apex_fault::{Budget, Meter};
use apex_ir::{Graph, NodeId, OpKind};
use std::collections::BTreeMap;

/// Struct-of-arrays embedding storage: `col(p)[i]` is the image of
/// pattern position `p` in embedding `i`.
#[derive(Debug, Clone, Default)]
pub struct EmbeddingList {
    cols: Vec<Vec<NodeId>>,
    rows: usize,
}

impl EmbeddingList {
    /// An empty list for a pattern with `positions` nodes.
    pub fn new(positions: usize) -> Self {
        EmbeddingList {
            cols: vec![Vec::new(); positions],
            rows: 0,
        }
    }

    /// Number of pattern positions (columns).
    pub fn positions(&self) -> usize {
        self.cols.len()
    }

    /// Number of embeddings (rows).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no embedding is stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The images of pattern position `p` across all embeddings.
    pub fn col(&self, p: usize) -> &[NodeId] {
        &self.cols[p]
    }

    /// Appends one embedding (pattern index → graph node).
    pub fn push(&mut self, row: &[NodeId]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (c, &n) in self.cols.iter_mut().zip(row) {
            c.push(n);
        }
        self.rows += 1;
    }

    /// Materializes embedding `i` as an owned row.
    pub fn row(&self, i: usize) -> Vec<NodeId> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Iterates the images of embedding `i` without materializing it.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = NodeId> + '_ {
        self.cols.iter().map(move |c| c[i])
    }

    /// Embedding `i`'s occurrence node set (sorted, deduplicated).
    pub fn node_set(&self, i: usize) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.row_iter(i).collect();
        v.sort();
        v.dedup();
        v
    }
}

/// Result of an embedding search.
#[derive(Debug, Clone)]
pub struct EmbeddingSet {
    /// The embeddings found (up to the limit), stored column-wise.
    pub list: EmbeddingList,
    /// Whether the search stopped early because the limit was hit.
    pub truncated: bool,
}

impl EmbeddingSet {
    /// Number of embeddings found.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the search found nothing.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Minimum-node-image (MNI) support, GraMi's anti-monotone support
    /// measure: the minimum over pattern positions of the number of
    /// distinct graph nodes appearing in that position.
    pub fn mni_support(&self, pattern_len: usize) -> usize {
        if self.list.is_empty() {
            return 0;
        }
        (0..pattern_len)
            .map(|i| {
                let mut imgs: Vec<NodeId> = self.list.col(i).to_vec();
                imgs.sort();
                imgs.dedup();
                imgs.len()
            })
            .min()
            .unwrap_or(0)
    }

    /// Distinct occurrence node sets.
    ///
    /// Automorphic embeddings of a symmetric pattern (e.g. the two
    /// orderings of the muls feeding a commutative add) produce identical
    /// node sets; they are collapsed here so occurrence counts and the
    /// MIS-based utilization estimate are not inflated.
    pub fn occurrences(&self) -> Vec<Vec<NodeId>> {
        let mut occ: Vec<Vec<NodeId>> =
            (0..self.list.len()).map(|i| self.list.node_set(i)).collect();
        occ.sort();
        occ.dedup();
        occ
    }
}

/// Precomputed indices over a graph, shared across many embedding
/// searches.
#[derive(Debug)]
pub struct GraphIndex<'g> {
    graph: &'g Graph,
    fanouts: Vec<Vec<NodeId>>,
    by_label: BTreeMap<OpKind, Vec<NodeId>>,
    /// Per-label membership bitsets over the dense node-id space: one
    /// probe answers "is this node a compute node with that label".
    label_bits: BTreeMap<OpKind, Bitset>,
}

impl<'g> GraphIndex<'g> {
    /// Indexes the compute region of `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        let fanouts = graph.fanouts();
        let mut by_label: BTreeMap<OpKind, Vec<NodeId>> = BTreeMap::new();
        for id in graph.compute_nodes() {
            by_label.entry(graph.op(id).kind()).or_default().push(id);
        }
        let label_bits = by_label
            .iter()
            .map(|(&k, nodes)| {
                let mut bits = Bitset::with_capacity(graph.len());
                for &n in nodes {
                    bits.insert(n.index());
                }
                (k, bits)
            })
            .collect();
        GraphIndex {
            graph,
            fanouts,
            by_label,
            label_bits,
        }
    }

    /// The indexed graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Compute nodes with the given label.
    pub fn nodes_with_label(&self, label: OpKind) -> &[NodeId] {
        self.by_label.get(&label).map_or(&[], Vec::as_slice)
    }

    /// O(1): is `id` a compute node carrying `label`?
    #[inline]
    pub fn has_label(&self, id: NodeId, label: OpKind) -> bool {
        self.label_bits
            .get(&label)
            .is_some_and(|b| b.contains(id.index()))
    }

    /// Consumers of a node.
    pub fn fanout(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Consumers of every node, indexed by node id (one shared table — the
    /// miner's extension enumeration must not rebuild it per embedding).
    pub fn fanouts(&self) -> &[Vec<NodeId>] {
        &self.fanouts
    }

    /// Iterate labels with their node lists.
    pub fn labels(&self) -> impl Iterator<Item = (OpKind, &[NodeId])> + '_ {
        self.by_label.iter().map(|(k, v)| (*k, v.as_slice()))
    }
}

/// Enumerates embeddings of `pattern` into the indexed graph, stopping at
/// `limit`.
pub fn find_embeddings(pattern: &Pattern, index: &GraphIndex<'_>, limit: usize) -> EmbeddingSet {
    find_embeddings_metered(pattern, index, limit, &mut Budget::unlimited().start())
}

/// Like [`find_embeddings`], but ticks `meter` (the miner's budget) on
/// every backtracking step and charges every stored embedding row against
/// it. A tripped tick or a rejected charge truncates the search exactly
/// like hitting `limit`: the embeddings found so far are returned with
/// `truncated` set, so an exhausted budget degrades to lower-bound
/// statistics instead of a hang or an OOM abort.
pub fn find_embeddings_metered(
    pattern: &Pattern,
    index: &GraphIndex<'_>,
    limit: usize,
    meter: &mut Meter,
) -> EmbeddingSet {
    let n = pattern.len();
    if n == 0 {
        return EmbeddingSet {
            list: EmbeddingList::new(0),
            truncated: false,
        };
    }
    // Matching order: BFS over the pattern's undirected adjacency so every
    // node after the first has a matched neighbour.
    let order = matching_order(pattern);
    // Per pattern node, its incident edges in `pattern.edges()` order:
    // (other endpoint, this node is the edge's destination, port). Scanning
    // this short list replaces re-walking every pattern edge at every
    // consistency check and candidate derivation.
    let mut incident: Vec<Vec<(u32, bool, Option<u8>)>> = vec![Vec::new(); n];
    for (s, d, port) in pattern.edges() {
        incident[d as usize].push((s, true, port));
        incident[s as usize].push((d, false, port));
    }
    let mut state = SearchState {
        pattern,
        index,
        order: &order,
        incident: &incident,
        assignment: vec![None; n],
        used: Bitset::with_capacity(index.graph().len()),
        scratch: vec![Vec::new(); n],
        row: Vec::with_capacity(n),
        out: EmbeddingList::new(n),
        limit,
        truncated: false,
        meter,
    };
    state.recurse(0);
    EmbeddingSet {
        list: state.out,
        truncated: state.truncated,
    }
}

/// The embeddings of `child`, one [`Extension`] away from the pattern
/// whose complete embedding list `parent` holds, derived from that list
/// instead of searching the graph (Pangolin's BFS extension over SoA
/// embedding lists). `parent` must not be truncated: a truncated list
/// lacks some of the parent's embeddings, and so some of the child's.
///
/// Every embedding of the child restricts to an embedding of the parent
/// (a subset of the in-edges at a node can always take distinct ports),
/// so the child's rows are parent rows extended by one checked edge. An
/// edge extension keeps the parent rows that carry the new edge and
/// still assign distinct ports at its destination. A node extension
/// pairs each parent row with every image of the new node, not already
/// in the row, among the anchor's consumers (or producers) carrying its
/// label and joined to the anchor by the new edge.
///
/// The result equals [`find_embeddings_metered`] on `child` row for row:
/// the staged `(parent row, new image)` pairs are sorted into the order
/// the search emits (lexicographic by image along the child's matching
/// order), then charged and stored one row at a time with the same
/// `limit` and byte-cap truncation. `meter` is ticked once per parent
/// row and once per candidate image; a tripped tick stops the growth and
/// returns what was staged so far, `truncated`.
pub(crate) fn grow_embeddings(
    parent: &EmbeddingSet,
    child: &Pattern,
    ext: Extension,
    index: &GraphIndex<'_>,
    limit: usize,
    meter: &mut Meter,
) -> EmbeddingSet {
    debug_assert!(!parent.truncated, "a truncated list cannot be grown");
    let g = index.graph();
    let list = &parent.list;
    let (k, n) = (list.positions(), child.len());
    let mut row = vec![NodeId(u32::MAX); n];
    let fill = |row: &mut [NodeId], r: usize| {
        for (p, img) in row.iter_mut().enumerate().take(k) {
            *img = list.col(p)[r];
        }
    };
    // (parent row, image of the new node); the image is unused (and
    // never read: it sits at position k == n) for an edge extension
    let mut staged: Vec<(u32, NodeId)> = Vec::new();
    let mut stopped = false;
    match ext {
        Extension::Edge { src, dst, port } => {
            for r in 0..list.len() {
                if !meter.tick() {
                    stopped = true;
                    break;
                }
                fill(&mut row, r);
                if edge_exists(g, row[src as usize], row[dst as usize], port)
                    && port_feasible_at(child, g, &row, dst as usize)
                {
                    staged.push((r as u32, NodeId(u32::MAX)));
                }
            }
        }
        Extension::Node {
            at,
            label,
            new_is_dst,
            port,
        } => {
            let at = at as usize;
            let mut cands: Vec<NodeId> = Vec::new();
            'rows: for r in 0..list.len() {
                if !meter.tick() {
                    stopped = true;
                    break;
                }
                fill(&mut row, r);
                let anchor = row[at];
                let pool = if new_is_dst {
                    index.fanout(anchor)
                } else {
                    g.node(anchor).inputs()
                };
                cands.clear();
                cands.extend(pool.iter().copied().filter(|&v| index.has_label(v, label)));
                // a node feeding two ports of one consumer is listed twice
                cands.sort_unstable();
                cands.dedup();
                for &c in &cands {
                    if !meter.tick() {
                        stopped = true;
                        break 'rows;
                    }
                    if row[..k].contains(&c) {
                        continue;
                    }
                    // the new edge's ports need no search: its source
                    // image occurs in no other edge of its destination,
                    // so the ports holding it are free
                    let (s, d) = if new_is_dst { (anchor, c) } else { (c, anchor) };
                    if edge_exists(g, s, d, port) {
                        staged.push((r as u32, c));
                    }
                }
            }
        }
    }
    let order = matching_order(child);
    let image = |&(r, c): &(u32, NodeId), p: u32| {
        if p as usize == k {
            c
        } else {
            list.col(p as usize)[r as usize]
        }
    };
    staged.sort_unstable_by(|a, b| {
        order
            .iter()
            .map(|&p| image(a, p).cmp(&image(b, p)))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut out = EmbeddingList::new(n);
    let mut truncated = stopped;
    let bytes = (n * std::mem::size_of::<NodeId>()) as u64;
    for &(r, c) in &staged {
        fill(&mut row, r as usize);
        if k < n {
            row[k] = c;
        }
        if !meter.charge(bytes) {
            truncated = true;
            break;
        }
        out.push(&row);
        if out.len() >= limit {
            truncated = true;
            break;
        }
    }
    EmbeddingSet {
        list: out,
        truncated,
    }
}

fn matching_order(pattern: &Pattern) -> Vec<u32> {
    let n = pattern.len();
    let mut adj = vec![Vec::new(); n];
    for (s, d, _) in pattern.edges() {
        adj[s as usize].push(d as usize);
        adj[d as usize].push(s as usize);
    }
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(0usize);
    seen[0] = true;
    while let Some(u) = queue.pop_front() {
        order.push(u as u32);
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    // patterns are connected, but be safe with stragglers
    for v in 0..n {
        if !seen[v] {
            order.push(v as u32);
        }
    }
    order
}

struct SearchState<'a, 'g> {
    pattern: &'a Pattern,
    index: &'a GraphIndex<'g>,
    order: &'a [u32],
    /// Incident pattern edges per pattern node (see
    /// [`find_embeddings_metered`]).
    incident: &'a [Vec<(u32, bool, Option<u8>)>],
    assignment: Vec<Option<NodeId>>,
    /// Injectivity bitset over graph node ids — O(1) membership instead of
    /// a linear scan of the partial assignment.
    used: Bitset,
    /// Per-depth candidate buffers, reused across the whole search so the
    /// inner loop never allocates.
    scratch: Vec<Vec<NodeId>>,
    row: Vec<NodeId>,
    out: EmbeddingList,
    limit: usize,
    truncated: bool,
    /// The miner's budget: ticked per step, charged per stored row; a
    /// stop or a rejected charge truncates like a hit `limit`.
    meter: &'a mut Meter,
}

impl SearchState<'_, '_> {
    fn recurse(&mut self, depth: usize) {
        if self.truncated {
            return;
        }
        if !self.meter.tick() {
            self.truncated = true;
            return;
        }
        if depth == self.order.len() {
            self.row.clear();
            for a in &self.assignment {
                match a {
                    Some(n) => self.row.push(*n),
                    // unreachable: every position is assigned at full depth
                    None => return,
                }
            }
            if ports_feasible(self.pattern, self.index.graph(), &self.row) {
                let bytes = (self.row.len() * std::mem::size_of::<NodeId>()) as u64;
                if !self.meter.charge(bytes) {
                    self.truncated = true;
                    return;
                }
                self.out.push(&self.row);
                if self.out.len() >= self.limit {
                    self.truncated = true;
                }
            }
            return;
        }
        let pnode = self.order[depth] as usize;
        let label = self.pattern.labels()[pnode];
        let mut candidates = std::mem::take(&mut self.scratch[depth]);
        self.collect_candidates(pnode, label, &mut candidates);
        for k in 0..candidates.len() {
            let cand = candidates[k];
            if self.used.contains(cand.index()) {
                continue;
            }
            if !self.locally_consistent(pnode, cand) {
                continue;
            }
            self.assignment[pnode] = Some(cand);
            self.used.insert(cand.index());
            self.recurse(depth + 1);
            self.used.remove(cand.index());
            self.assignment[pnode] = None;
            if self.truncated {
                break;
            }
        }
        self.scratch[depth] = candidates;
    }

    /// Candidate graph nodes for a pattern node, written into `out` in
    /// ascending, deduplicated order: derived from the first already
    /// matched neighbour (in pattern-edge order) when one exists,
    /// otherwise the full label bucket. Label and compute-region checks
    /// are single bitset probes.
    fn collect_candidates(&self, pnode: usize, label: OpKind, out: &mut Vec<NodeId>) {
        out.clear();
        for &(other, pnode_is_dst, _) in &self.incident[pnode] {
            let Some(img) = self.assignment[other as usize] else {
                continue;
            };
            if pnode_is_dst {
                // candidates = consumers of img with the right label
                out.extend(
                    self.index
                        .fanout(img)
                        .iter()
                        .copied()
                        .filter(|&v| self.index.has_label(v, label)),
                );
            } else {
                // candidates = producers feeding img with the right label
                out.extend(
                    self.index
                        .graph()
                        .node(img)
                        .inputs()
                        .iter()
                        .copied()
                        .filter(|&v| self.index.has_label(v, label)),
                );
            }
            out.sort();
            out.dedup();
            return;
        }
        out.extend_from_slice(self.index.nodes_with_label(label));
    }

    /// Checks every pattern edge between `pnode` and already-matched nodes
    /// for directed adjacency (port injectivity is verified at the end).
    fn locally_consistent(&self, pnode: usize, cand: NodeId) -> bool {
        let g = self.index.graph();
        for &(other, pnode_is_dst, port) in &self.incident[pnode] {
            let Some(img) = self.assignment[other as usize] else {
                continue;
            };
            let ok = if pnode_is_dst {
                edge_exists(g, img, cand, port)
            } else {
                edge_exists(g, cand, img, port)
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

fn edge_exists(g: &Graph, src: NodeId, dst: NodeId, port: Option<u8>) -> bool {
    let inputs = g.node(dst).inputs();
    match port {
        Some(p) => inputs.get(p as usize) == Some(&src),
        None => inputs.contains(&src),
    }
}

/// Verifies that, for every pattern node, the pattern's in-edges can be
/// injectively assigned to distinct input ports of the image node. Needed
/// for parallel edges into commutative operations (e.g. `x * x`).
fn ports_feasible(pattern: &Pattern, g: &Graph, mapping: &[NodeId]) -> bool {
    (0..pattern.len()).all(|d| port_feasible_at(pattern, g, mapping, d))
}

/// [`ports_feasible`] at pattern node `d` alone: a row grown by an edge
/// re-checks only the edge's destination. Allocation-free: used ports are
/// bits of a `u64` (op arity is at most 3).
fn port_feasible_at(pattern: &Pattern, g: &Graph, mapping: &[NodeId], d: usize) -> bool {
    let edges = pattern.in_edges(d);
    edges.is_empty() || assign(edges, 0, g.node(mapping[d]).inputs(), mapping, 0)
}

/// Tiny backtracking over port assignments: places in-edge `k` onwards
/// on ports not set in `used`.
fn assign(
    edges: &[crate::pattern::PatternEdge],
    k: usize,
    img_inputs: &[NodeId],
    mapping: &[NodeId],
    used: u64,
) -> bool {
    let Some(e) = edges.get(k) else {
        return true;
    };
    let want = mapping[e.src as usize];
    let mut ports = match e.port {
        Some(p) => p as usize..(p as usize + 1).min(img_inputs.len()),
        None => 0..img_inputs.len(),
    };
    ports.any(|p| {
        used & (1 << p) == 0
            && img_inputs[p] == want
            && assign(edges, k + 1, img_inputs, mapping, used | (1 << p))
    })
}

#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::spec::find_embeddings_reference;
    use super::*;
    use apex_ir::{Graph, Op};

    /// out = ((a*b)+(c*d)) ; plus an extra mul feeding a sub
    fn sample() -> Graph {
        let mut g = Graph::new("t");
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let d = g.input();
        let m1 = g.add(Op::Mul, &[a, b]);
        let m2 = g.add(Op::Mul, &[c, d]);
        let s = g.add(Op::Add, &[m1, m2]);
        let m3 = g.add(Op::Mul, &[a, d]);
        let sub = g.add(Op::Sub, &[s, m3]);
        g.output(sub);
        g
    }

    #[test]
    fn single_node_embeddings_count_label_occurrences() {
        let g = sample();
        let idx = GraphIndex::new(&g);
        let p = Pattern::single(OpKind::Mul);
        let es = find_embeddings(&p, &idx, 1000);
        assert_eq!(es.len(), 3);
        assert_eq!(es.mni_support(1), 3);
    }

    #[test]
    fn mul_add_chain_embeddings() {
        let g = sample();
        let idx = GraphIndex::new(&g);
        let p = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Add, true, None);
        let es = find_embeddings(&p, &idx, 1000);
        // m1->s and m2->s
        assert_eq!(es.len(), 2);
        assert_eq!(es.mni_support(2), 1, "only one distinct add image");
        assert_eq!(es.occurrences().len(), 2);
    }

    #[test]
    fn port_constraints_restrict_matches() {
        let g = sample();
        let idx = GraphIndex::new(&g);
        // mul feeding sub on port 1 exists (m3), on port 0 does not
        let p1 = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Sub, true, Some(1));
        let p0 = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Sub, true, Some(0));
        assert_eq!(find_embeddings(&p1, &idx, 10).len(), 1);
        assert_eq!(find_embeddings(&p0, &idx, 10).len(), 0);
    }

    #[test]
    fn parallel_edges_require_distinct_ports() {
        // square: mul(x, x)
        let mut g = Graph::new("sq");
        let a = g.input();
        let b = g.input();
        let s = g.add(Op::Add, &[a, b]);
        let sq = g.add(Op::Mul, &[s, s]);
        let other = g.add(Op::Mul, &[a, b]); // not a square
        let o = g.add(Op::Add, &[sq, other]);
        g.output(o);
        let idx = GraphIndex::new(&g);
        let p = Pattern::single(OpKind::Add)
            .extend_with_node(0, OpKind::Mul, true, None)
            .extend_with_edge(0, 1, None); // add feeds BOTH mul ports
        let es = find_embeddings(&p, &idx, 10);
        // only the true square matches; `other` takes two different sources
        let squares: Vec<usize> = (0..es.len())
            .filter(|&i| g.op(es.list.col(1)[i]) == Op::Mul)
            .collect();
        assert_eq!(squares.len(), 1);
        assert_eq!(es.list.col(1)[squares[0]], sq);
    }

    #[test]
    fn embeddings_are_injective() {
        let g = sample();
        let idx = GraphIndex::new(&g);
        let p = Pattern::single(OpKind::Mul)
            .extend_with_node(0, OpKind::Add, true, None)
            .extend_with_node(1, OpKind::Mul, false, None);
        let es = find_embeddings(&p, &idx, 100);
        for i in 0..es.len() {
            assert_ne!(
                es.list.col(0)[i],
                es.list.col(2)[i],
                "two pattern muls need two graph muls"
            );
        }
        // (m1, s, m2) and (m2, s, m1)
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn truncation_reports_flag() {
        let g = sample();
        let idx = GraphIndex::new(&g);
        let p = Pattern::single(OpKind::Mul);
        let es = find_embeddings(&p, &idx, 2);
        assert!(es.truncated);
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn labels_index_covers_compute_nodes() {
        let g = sample();
        let idx = GraphIndex::new(&g);
        let total: usize = idx.labels().map(|(_, v)| v.len()).sum();
        assert_eq!(total, g.compute_nodes().len());
    }

    #[test]
    fn soa_matches_reference_on_samples() {
        let g = sample();
        let idx = GraphIndex::new(&g);
        let patterns = [
            Pattern::single(OpKind::Mul),
            Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Add, true, None),
            Pattern::single(OpKind::Mul)
                .extend_with_node(0, OpKind::Add, true, None)
                .extend_with_node(1, OpKind::Mul, false, None),
        ];
        for p in &patterns {
            let fast = find_embeddings(p, &idx, 1000);
            let (rows, truncated) = find_embeddings_reference(p, &idx, 1000);
            assert_eq!(fast.truncated, truncated);
            assert_eq!(fast.len(), rows.len());
            for (i, e) in rows.iter().enumerate() {
                assert_eq!(fast.list.row(i), e.0, "row {i} differs for {p}");
            }
        }
    }

    #[test]
    fn embedding_list_row_column_round_trip() {
        let mut list = EmbeddingList::new(3);
        list.push(&[NodeId(5), NodeId(1), NodeId(9)]);
        list.push(&[NodeId(2), NodeId(2), NodeId(7)]);
        assert_eq!(list.len(), 2);
        assert_eq!(list.positions(), 3);
        assert_eq!(list.col(0), &[NodeId(5), NodeId(2)]);
        assert_eq!(list.row(1), vec![NodeId(2), NodeId(2), NodeId(7)]);
        assert_eq!(list.node_set(1), vec![NodeId(2), NodeId(7)]);
    }
}
