//! Pattern graphs: the small labelled digraphs the miner searches for.
//!
//! A [`Pattern`] is a connected DAG whose nodes carry [`OpKind`] labels and
//! whose edges optionally constrain the destination port. Port constraints
//! are recorded only for non-commutative destinations — `x - y` and
//! `y - x` are different computations, while `x + y` and `y + x` are not
//! (Section 3.3's destination-port matching rule).
//!
//! A pattern's canonical code is searched over class-restricted node
//! permutations with every permuted edge packed into one `u64` whose
//! order is the order of its `"s>d:p"` string; only the winning edge list
//! is rendered. The string-building original is the test-only spec in the
//! `spec` child module.

use crate::MineError;
use apex_ir::{Graph, NodeId, OpKind, ValueType};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// An in-edge of a pattern node: source pattern node plus an optional
/// destination-port constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PatternEdge {
    /// Source pattern-node index.
    pub src: u32,
    /// Destination port, or `None` when the destination is commutative.
    pub port: Option<u8>,
}

/// A connected, directed, labelled pattern graph.
///
/// The canonical code is memoized: the miner derives it once (at
/// de-duplication time) and every later consumer — ranking tie-breaks,
/// subgraph selection, the verifier — reuses the cached string instead of
/// re-running the permutation search. The cache is identity-transparent:
/// equality, hashing, and serialization ignore it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pattern {
    labels: Vec<OpKind>,
    /// Per destination node: its in-edges.
    in_edges: Vec<Vec<PatternEdge>>,
    /// Memoized [`Pattern::canonical_code`].
    code: OnceLock<String>,
}

impl PartialEq for Pattern {
    fn eq(&self, other: &Self) -> bool {
        self.labels == other.labels && self.in_edges == other.in_edges
    }
}

impl Eq for Pattern {}

impl Hash for Pattern {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.labels.hash(state);
        self.in_edges.hash(state);
    }
}

impl Pattern {
    /// Single-node pattern.
    pub fn single(label: OpKind) -> Self {
        Pattern {
            labels: vec![label],
            in_edges: vec![Vec::new()],
            code: OnceLock::new(),
        }
    }

    /// Node labels, indexed by pattern-node id.
    pub fn labels(&self) -> &[OpKind] {
        &self.labels
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the pattern has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.in_edges.iter().map(Vec::len).sum()
    }

    /// In-edges of node `d`.
    pub fn in_edges(&self, d: usize) -> &[PatternEdge] {
        &self.in_edges[d]
    }

    /// Iterates `(src, dst, port)` over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32, Option<u8>)> + '_ {
        self.in_edges
            .iter()
            .enumerate()
            .flat_map(|(d, es)| es.iter().map(move |e| (e.src, d as u32, e.port)))
    }

    /// Extends with a fresh node and an edge between it and an existing
    /// node. `new_is_dst` picks the edge direction: `true` means
    /// `existing → new`, `false` means `new → existing`.
    ///
    /// Returns the extended pattern (the new node has the highest index).
    ///
    /// # Panics
    /// Panics if `existing` is out of range.
    pub fn extend_with_node(
        &self,
        existing: u32,
        new_label: OpKind,
        new_is_dst: bool,
        port: Option<u8>,
    ) -> Pattern {
        assert!((existing as usize) < self.len(), "node out of range");
        // fresh code cache: the extended pattern is a different graph
        let mut p = Pattern {
            labels: self.labels.clone(),
            in_edges: self.in_edges.clone(),
            code: OnceLock::new(),
        };
        p.labels.push(new_label);
        p.in_edges.push(Vec::new());
        let new_idx = (p.labels.len() - 1) as u32;
        if new_is_dst {
            p.in_edges[new_idx as usize].push(PatternEdge {
                src: existing,
                port,
            });
        } else {
            p.in_edges[existing as usize].push(PatternEdge { src: new_idx, port });
        }
        p
    }

    /// Extends with an edge between two existing nodes.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn extend_with_edge(&self, src: u32, dst: u32, port: Option<u8>) -> Pattern {
        assert!((src as usize) < self.len() && (dst as usize) < self.len());
        let mut p = Pattern {
            labels: self.labels.clone(),
            in_edges: self.in_edges.clone(),
            code: OnceLock::new(),
        };
        p.in_edges[dst as usize].push(PatternEdge { src, port });
        p
    }

    /// Whether the pattern is connected when edges are read undirected.
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return false;
        }
        let n = self.len();
        let mut adj = vec![Vec::new(); n];
        for (s, d, _) in self.edges() {
            adj[s as usize].push(d as usize);
            adj[d as usize].push(s as usize);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// A topological order of the pattern nodes.
    ///
    /// # Panics
    /// Panics if the pattern has a cycle (impossible for patterns embedded
    /// in a DAG).
    pub fn topo_order(&self) -> Vec<u32> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for (_, d, _) in self.edges() {
            indeg[d as usize] += 1;
        }
        let mut order = Vec::with_capacity(n);
        let mut ready: Vec<u32> = (0..n as u32).filter(|&i| indeg[i as usize] == 0).collect();
        while let Some(u) = ready.pop() {
            order.push(u);
            for (s, d, _) in self.edges() {
                if s == u {
                    indeg[d as usize] -= 1;
                    if indeg[d as usize] == 0 {
                        ready.push(d);
                    }
                }
            }
        }
        assert_eq!(order.len(), n, "pattern has a cycle");
        order
    }

    /// A canonical, permutation-invariant code for pattern isomorphism
    /// de-duplication.
    ///
    /// Nodes are partitioned into classes by `(label, in-degree,
    /// out-degree)`; all permutations within classes are tried and the
    /// lexicographically smallest edge encoding wins. Pattern sizes are
    /// small (the miner caps them), so the class-restricted permutation
    /// search is cheap.
    ///
    /// The result is memoized: repeated calls (ranking tie-breaks,
    /// selection sorts) return the cached string. The class prefix is
    /// permutation-invariant, so candidates are compared per sorted edge
    /// string — `','` sorts below every character an edge string can
    /// contain (digits, `-`, `:`, `>`), making element-wise comparison of
    /// the sorted edge lists equivalent to comparing the joined code
    /// strings the original single-pass implementation built. Each edge
    /// string is compared as a packed `u64` key with the same order (see
    /// `compute_canonical_code`), and only the winner is formatted.
    pub fn canonical_code(&self) -> String {
        self.code.get_or_init(|| self.compute_canonical_code()).clone()
    }

    /// Memoized [`Pattern::canonical_code`] without the `String` clone.
    pub fn canonical_code_ref(&self) -> &str {
        self.code.get_or_init(|| self.compute_canonical_code())
    }

    /// The permutation search on packed edge keys: `rank(s) << 40 |
    /// rank(d) << 16 | port_key(p)` orders like the `"s>d:p"` string,
    /// because `'>'` and `':'` sort above every digit (so the first
    /// differing field decides) and ranks and port keys follow string
    /// order within a field.
    fn compute_canonical_code(&self) -> String {
        let n = self.len();
        let mut outdeg = vec![0usize; n];
        for (s, _, _) in self.edges() {
            outdeg[s as usize] += 1;
        }
        // class key per node
        let keys: Vec<(OpKind, usize, usize)> = (0..n)
            .map(|i| (self.labels[i], self.in_edges[i].len(), outdeg[i]))
            .collect();
        // order classes canonically
        let mut class_of: BTreeMap<(OpKind, usize, usize), Vec<usize>> = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            class_of.entry(*k).or_default().push(i);
        }
        let classes: Vec<Vec<usize>> = class_of.into_values().collect();
        // base position for every class in the canonical numbering
        let mut base = Vec::with_capacity(classes.len());
        let mut acc = 0;
        for c in &classes {
            base.push(acc);
            acc += c.len();
        }
        // node index -> rank of its "{i}>" string in string order (the
        // identity up to 10 nodes; "10>" sorts before "1>"), and back
        let mut by_string: Vec<usize> = (0..n).collect();
        if n > 10 {
            by_string.sort_by_cached_key(|&i| format!("{i}>"));
        }
        let mut rank = vec![0u64; n];
        for (r, &i) in by_string.iter().enumerate() {
            rank[i] = r as u64;
        }
        // one u64 per permuted edge, ordered as its "s>d:p" string
        let raw_edges: Vec<(usize, usize, u64)> = self
            .edges()
            .map(|(s, d, p)| (s as usize, d as usize, port_key(p)))
            .collect();
        // above every real key vector, so the first permutation replaces it
        let mut best: Vec<u64> = vec![u64::MAX; raw_edges.len()];
        let mut scratch: Vec<u64> = Vec::with_capacity(raw_edges.len());
        let mut perm = vec![0usize; n]; // original node -> canonical index
        permute_classes(&classes, &base, 0, &mut perm, &mut |perm| {
            scratch.clear();
            scratch.extend(
                raw_edges
                    .iter()
                    .map(|&(s, d, p)| (rank[perm[s]] << 40) | (rank[perm[d]] << 16) | p),
            );
            scratch.sort_unstable();
            if scratch < best {
                best.clone_from(&scratch);
            }
        });
        let mut code = String::with_capacity(16 * classes.len() + 8 * best.len());
        for c in &classes {
            let (l, i, o) = keys[c[0]];
            let _ = write!(code, "[{l:?}/");
            push_num(&mut code, i);
            code.push('/');
            push_num(&mut code, o);
            code.push('x');
            push_num(&mut code, c.len());
            code.push(']');
        }
        code.push('|');
        for (k, &e) in best.iter().enumerate() {
            if k > 0 {
                code.push(',');
            }
            push_num(&mut code, by_string[(e >> 40) as usize]);
            code.push('>');
            push_num(&mut code, by_string[((e >> 16) & 0xFF_FFFF) as usize]);
            code.push(':');
            match port_of_key(e & 0xFFFF) {
                Some(p) => push_num(&mut code, usize::from(p)),
                None => code.push_str("-1"),
            }
        }
        code
    }

    /// Materializes the pattern into an executable datapath [`Graph`].
    ///
    /// Each pattern node becomes an IR node whose concrete [`Op`] is taken
    /// from `occurrence` (so constant payloads and LUT tables survive);
    /// unconstrained ports receive fresh primary inputs and sink nodes get
    /// primary outputs. Pattern edges without a port constraint are
    /// assigned to free ports left-to-right.
    ///
    /// # Errors
    /// Fails when `occurrence` does not map every pattern node, the ops
    /// mismatch the labels, or the in-edges overflow the ops' ports.
    pub fn to_datapath(
        &self,
        source: &Graph,
        occurrence: &[NodeId],
        name: &str,
    ) -> Result<Graph, MineError> {
        if occurrence.len() != self.len() {
            return Err(MineError::OccurrenceSize {
                expected: self.len(),
                got: occurrence.len(),
            });
        }
        let mut g = Graph::new(name);
        let order = self.topo_order();
        let mut new_id: Vec<Option<NodeId>> = vec![None; self.len()];
        for &pi in &order {
            let op = source.op(occurrence[pi as usize]);
            if op.kind() != self.labels[pi as usize] {
                return Err(MineError::LabelMismatch { node: pi });
            }
            let arity = op.arity();
            let mut port_src: Vec<Option<NodeId>> = vec![None; arity];
            // constrained edges first
            for e in &self.in_edges[pi as usize] {
                if let Some(p) = e.port {
                    let src = new_id[e.src as usize]
                        .ok_or(MineError::UnplacedNode { node: e.src })?;
                    let slot = port_src
                        .get_mut(p as usize)
                        .ok_or(MineError::PortsExhausted { node: pi })?;
                    if slot.is_some() {
                        return Err(MineError::DuplicatePort { node: pi, port: p });
                    }
                    *slot = Some(src);
                }
            }
            for e in &self.in_edges[pi as usize] {
                if e.port.is_none() {
                    let free = port_src
                        .iter()
                        .position(Option::is_none)
                        .ok_or(MineError::PortsExhausted { node: pi })?;
                    port_src[free] = Some(
                        new_id[e.src as usize]
                            .ok_or(MineError::UnplacedNode { node: e.src })?,
                    );
                }
            }
            let tys = op.input_types();
            let inputs: Vec<NodeId> = port_src
                .into_iter()
                .enumerate()
                .map(|(slot, s)| {
                    s.unwrap_or_else(|| match tys[slot] {
                        ValueType::Word => g.input(),
                        ValueType::Bit => g.bit_input(),
                    })
                })
                .collect();
            new_id[pi as usize] = Some(g.add(op, &inputs));
        }
        // sinks become outputs
        let mut has_consumer = vec![false; self.len()];
        for (s, _, _) in self.edges() {
            has_consumer[s as usize] = true;
        }
        for i in 0..self.len() {
            if !has_consumer[i] {
                let id = new_id[i].ok_or(MineError::UnplacedNode { node: i as u32 })?;
                match g.op(id).output_type() {
                    ValueType::Word => g.output(id),
                    ValueType::Bit => g.bit_output(id),
                };
            }
        }
        Ok(g)
    }

    /// Builds the pattern corresponding to a concrete set of graph nodes:
    /// labels from the nodes, edges from every graph edge internal to the
    /// set (with port constraints for non-commutative destinations).
    ///
    /// Returns the pattern and the node order used (pattern index →
    /// graph node).
    pub fn from_occurrence(graph: &Graph, nodes: &[NodeId]) -> (Pattern, Vec<NodeId>) {
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort();
        sorted.dedup();
        let index_of: BTreeMap<NodeId, u32> = sorted
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u32))
            .collect();
        let labels: Vec<OpKind> = sorted.iter().map(|&n| graph.op(n).kind()).collect();
        let mut in_edges: Vec<Vec<PatternEdge>> = vec![Vec::new(); sorted.len()];
        for (&gid, &pid) in &index_of {
            let op = graph.op(gid);
            for (port, &src) in graph.node(gid).inputs().iter().enumerate() {
                if let Some(&ps) = index_of.get(&src) {
                    let constraint = if op.commutative() {
                        None
                    } else {
                        Some(port as u8)
                    };
                    in_edges[pid as usize].push(PatternEdge {
                        src: ps,
                        port: constraint,
                    });
                }
            }
        }
        (
            Pattern {
                labels,
                in_edges,
                code: OnceLock::new(),
            },
            sorted,
        )
    }
}

/// Sort key of an edge string's trailing `"{port}"` (`-1` for `None`):
/// `'-'` sorts below every digit, and a decimal string sorts after its
/// proper prefixes (`"1" < "10" < "2"`), so digits are compared
/// left-aligned, one base-11 place each, an absent digit lowest.
fn port_key(port: Option<u8>) -> u64 {
    let Some(p) = port else { return 0 };
    let digits: &[u8] = match p {
        0..=9 => &[p],
        10..=99 => &[p / 10, p % 10],
        _ => &[p / 100, p / 10 % 10, p % 10],
    };
    let mut key = 0u64;
    for place in 0..3 {
        key = key * 11 + digits.get(place).map_or(0, |&d| u64::from(d) + 1);
    }
    key + 1
}

/// Appends `x` in decimal (the code is rendered without `write!` per
/// number: formatting machinery dominated rendering).
fn push_num(code: &mut String, x: usize) {
    if x >= 10 {
        push_num(code, x / 10);
    }
    code.push(char::from(b'0' + (x % 10) as u8));
}

/// Inverse of [`port_key`].
fn port_of_key(key: u64) -> Option<u8> {
    let mut k = key.checked_sub(1)?;
    let mut places = [0u64; 3];
    for place in places.iter_mut().rev() {
        *place = k % 11;
        k /= 11;
    }
    let mut p = 0u64;
    for &d in places.iter().take_while(|&&d| d > 0) {
        p = p * 10 + d - 1;
    }
    Some(p as u8)
}

fn permute_classes(
    classes: &[Vec<usize>],
    base: &[usize],
    ci: usize,
    perm: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if ci == classes.len() {
        visit(perm);
        return;
    }
    let members = &classes[ci];
    let mut order: Vec<usize> = (0..members.len()).collect();
    permute_within(&mut order, 0, &mut |o| {
        // assign canonical slots base[ci]..base[ci]+len
        // (perm entries for other classes are untouched)
        for (slot, &mi) in o.iter().enumerate() {
            perm[members[mi]] = base[ci] + slot;
        }
        permute_classes(classes, base, ci + 1, perm, visit);
    });
}

fn permute_within(arr: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&Vec<usize>)) {
    if k == arr.len() {
        visit(arr);
        return;
    }
    for i in k..arr.len() {
        arr.swap(k, i);
        permute_within(arr, k + 1, visit);
        arr.swap(k, i);
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let labels: Vec<String> = self.labels.iter().map(|l| l.to_string()).collect();
        write!(f, "{{{}; ", labels.join(","))?;
        let edges: Vec<String> = self
            .edges()
            .map(|(s, d, p)| match p {
                Some(p) => format!("{s}->{d}.{p}"),
                None => format!("{s}->{d}"),
            })
            .collect();
        write!(f, "{}}}", edges.join(" "))
    }
}

#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::{evaluate, Op, Value};

    #[test]
    fn single_node_is_connected() {
        let p = Pattern::single(OpKind::Add);
        assert!(p.is_connected());
        assert_eq!(p.len(), 1);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn extension_builds_mul_add_chain() {
        let p = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Add, true, None);
        assert_eq!(p.len(), 2);
        assert_eq!(p.edge_count(), 1);
        assert!(p.is_connected());
        assert_eq!(p.labels(), &[OpKind::Mul, OpKind::Add]);
    }

    #[test]
    fn canonical_code_is_order_invariant() {
        // mul -> add built two different ways
        let a = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Add, true, None);
        let b = Pattern::single(OpKind::Add).extend_with_node(0, OpKind::Mul, false, None);
        assert_eq!(a.canonical_code(), b.canonical_code());
    }

    #[test]
    fn canonical_code_distinguishes_port_constraints() {
        let a = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Sub, true, Some(0));
        let b = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Sub, true, Some(1));
        assert_ne!(a.canonical_code(), b.canonical_code());
    }

    #[test]
    fn canonical_code_distinguishes_direction() {
        let a = Pattern::single(OpKind::Add).extend_with_node(0, OpKind::Mul, true, None);
        let b = Pattern::single(OpKind::Add).extend_with_node(0, OpKind::Mul, false, None);
        assert_ne!(a.canonical_code(), b.canonical_code());
    }

    #[test]
    fn from_occurrence_round_trips_through_datapath() {
        // graph: out = (a*b) + c ; occurrence = {mul, add}
        let mut g = Graph::new("t");
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let m = g.add(Op::Mul, &[a, b]);
        let s = g.add(Op::Add, &[m, c]);
        g.output(s);
        let (p, order) = Pattern::from_occurrence(&g, &[m, s]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.edge_count(), 1);
        let dp = p.to_datapath(&g, &order, "mac_pattern").unwrap();
        assert!(dp.try_validate().is_ok());
        assert_eq!(dp.primary_inputs().len(), 3);
        let out = evaluate(&dp, &[Value::Word(3), Value::Word(4), Value::Word(5)]);
        assert_eq!(out[0].word(), 17);
    }

    #[test]
    fn from_occurrence_records_ports_for_noncommutative() {
        let mut g = Graph::new("t");
        let a = g.input();
        let b = g.input();
        let m = g.add(Op::Mul, &[a, b]);
        let d = g.add(Op::Sub, &[a, m]); // mul feeds port 1 of sub
        g.output(d);
        let (p, _) = Pattern::from_occurrence(&g, &[m, d]);
        let e: Vec<_> = p.edges().collect();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].2, Some(1));
    }

    #[test]
    fn memoized_code_survives_clone_but_not_extension() {
        let p = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Add, true, None);
        let first = p.canonical_code();
        // memoized: the borrow-returning accessor sees the same string
        assert_eq!(p.canonical_code_ref(), first);
        let cloned = p.clone();
        assert_eq!(cloned.canonical_code(), first);
        // extending must re-derive, not inherit the parent's cached code
        let bigger = p.extend_with_node(1, OpKind::Add, true, None);
        assert_ne!(bigger.canonical_code(), first);
        // cache is identity-transparent for equality and hashing
        let fresh = Pattern::single(OpKind::Mul).extend_with_node(0, OpKind::Add, true, None);
        assert_eq!(p, fresh, "cached vs uncached patterns compare equal");
    }

    #[test]
    fn topo_order_respects_edges() {
        let p = Pattern::single(OpKind::Mul)
            .extend_with_node(0, OpKind::Add, true, None)
            .extend_with_node(1, OpKind::Add, true, None);
        let order = p.topo_order();
        let pos = |x: u32| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn parallel_edges_to_commutative_node() {
        // x*x: one mul with the same source on both ports — as a pattern,
        // square = two edges from one node
        let mut g = Graph::new("t");
        let a = g.input();
        let x = g.add(Op::Add, &[a, a]);
        let sq = g.add(Op::Mul, &[x, x]);
        g.output(sq);
        let (p, order) = Pattern::from_occurrence(&g, &[x, sq]);
        assert_eq!(p.edge_count(), 2);
        let dp = p.to_datapath(&g, &order, "sq").unwrap();
        // both mul ports fed by the add; add has two fresh inputs
        assert_eq!(dp.primary_inputs().len(), 2);
        let out = evaluate(&dp, &[Value::Word(3), Value::Word(4)]);
        assert_eq!(out[0].word(), 49);
    }
}
