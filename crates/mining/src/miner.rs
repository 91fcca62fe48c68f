//! Frequent-subgraph miner (our GraMi substitute, Section 3.1).
//!
//! Pattern-growth enumeration over a single large application graph:
//! start from frequent single-label patterns, repeatedly extend by one
//! node-plus-edge or one internal edge, de-duplicate via canonical codes,
//! and prune with GraMi's anti-monotone MNI support. Single-label
//! patterns, and children of a truncated parent list, are searched in the
//! graph; every other child's embeddings are grown from its parent's list.

use crate::isomorphism::{find_embeddings_metered, grow_embeddings, EmbeddingSet, GraphIndex};
use crate::mis::{maximal_independent_set, maximal_independent_set_metered};
use crate::pattern::Pattern;
use crate::MineError;
use apex_fault::{Budget, Provenance};
use apex_ir::{Graph, NodeId, OpKind};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Miner configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinerConfig {
    /// Minimum MNI support for a pattern to be considered frequent
    /// (GraMi's `τ`).
    pub min_support: usize,
    /// Maximum pattern size in nodes (complex PEs stay small in the
    /// paper's Fig. 10).
    pub max_pattern_nodes: usize,
    /// Smallest pattern size reported (single nodes are implied by the
    /// baseline PE and not interesting merge candidates).
    pub min_pattern_nodes: usize,
    /// Embedding-search budget per pattern.
    pub max_embeddings: usize,
    /// Cap on the total number of frequent patterns explored. The cap is
    /// exact: once `max_patterns` frequent patterns have entered the
    /// search frontier, no further pattern is enqueued — not even the
    /// remaining extensions of the pattern being expanded when the cap is
    /// reached. Patterns already on the frontier are still harvested into
    /// the results.
    pub max_patterns: usize,
    /// Limits for the whole mining run: wall clock, steps, cancellation,
    /// and an approximate byte cap on the run's dominant allocations
    /// (embedding rows, MIS overlap graph). Exceeding the byte cap
    /// truncates the affected statistics deterministically with a
    /// [`Provenance::TruncatedByBudget`] record instead of OOM-aborting.
    ///
    /// A step is one frontier pattern, one backtracking step of an
    /// embedding search, or one parent row or candidate image while a
    /// child's embeddings are grown from its parent's list; a
    /// step-budgeted run therefore stops at a different point than when
    /// every child was searched. Byte caps truncate exactly where the
    /// search-only miner did (grown rows are charged in the search's
    /// order), and deadlines and cancellation behave as before.
    pub budget: Budget,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            min_support: 4,
            max_pattern_nodes: 6,
            min_pattern_nodes: 2,
            max_embeddings: 20_000,
            max_patterns: 400,
            budget: Budget::from_env(),
        }
    }
}

/// A frequent subgraph with its occurrence statistics.
///
/// Two MIS figures describe it. [`MinedSubgraph::mis_size`] is the greedy
/// MIS over every occurrence, fixed at mining time. The utilizable MIS
/// ([`MinedSubgraph::utilizable_mis`]) is the greedy MIS over the
/// occurrences that can each become one fully-utilized PE; it is computed
/// lazily, since subgraph selection needs it only for the candidates its
/// bound-ordered scan reaches. Greedy MIS is not monotone under taking a
/// subset, so `mis_size` is no upper bound on the utilizable MIS; the
/// occurrence count is.
#[derive(Debug, Clone)]
pub struct MinedSubgraph {
    /// The pattern itself.
    pub pattern: Pattern,
    /// Distinct occurrence node sets in the application graph.
    pub occurrences: Vec<Vec<NodeId>>,
    /// One representative embedding (pattern index → graph node), used to
    /// materialize the pattern with concrete constants.
    pub representative: Vec<NodeId>,
    /// GraMi MNI support.
    pub mni_support: usize,
    /// Maximal-independent-set size over the occurrences (Section 3.2):
    /// how many non-overlapping occurrences exist.
    pub mis_size: usize,
    /// Whether the embedding search was truncated (statistics are then
    /// lower bounds).
    pub truncated: bool,
    /// Lazily computed utilizable-occurrence statistics (see
    /// [`MinedSubgraph::utilizable_occurrences`]). Computed once on first
    /// use and reused by every later call.
    util: OnceLock<(Vec<Vec<NodeId>>, usize)>,
}

impl MinedSubgraph {
    /// Materializes the pattern as an executable datapath graph (see
    /// [`Pattern::to_datapath`]).
    ///
    /// # Errors
    /// Fails when the representative embedding no longer matches the
    /// pattern (see [`Pattern::to_datapath`]).
    pub fn to_datapath(&self, source: &Graph, name: &str) -> Result<Graph, MineError> {
        self.pattern.to_datapath(source, &self.representative, name)
    }

    /// Occurrences usable as fully-utilized single-exit PEs: every
    /// non-constant node except one *exit* has all of its consumers inside
    /// the occurrence, and no application path leaves the occurrence and
    /// re-enters it. Multi-exit occurrences are rejected too: bundling
    /// independent output cones into one PE can deadlock instruction
    /// selection with instance-level dependency cycles.
    ///
    /// The result (and the MIS over it) is computed once on the first
    /// call and cached. `graph` must be the graph the subgraph was mined
    /// from — it is the only graph the stored occurrences are meaningful
    /// against — and `fanouts` its [`Graph::fanouts`] table, which the
    /// caller builds once per graph and shares across every subgraph.
    pub fn utilizable_occurrences(&self, graph: &Graph, fanouts: &[Vec<NodeId>]) -> &[Vec<NodeId>] {
        &self.util_stats(graph, fanouts).0
    }

    /// MIS size over the utilizable occurrences only — how many
    /// fully-utilized PEs implementing this subgraph the application can
    /// actually instantiate. Cached alongside
    /// [`MinedSubgraph::utilizable_occurrences`], with the same arguments.
    pub fn utilizable_mis(&self, graph: &Graph, fanouts: &[Vec<NodeId>]) -> usize {
        self.util_stats(graph, fanouts).1
    }

    fn util_stats(&self, graph: &Graph, fan: &[Vec<NodeId>]) -> &(Vec<Vec<NodeId>>, usize) {
        self.util.get_or_init(|| {
            let occ: Vec<Vec<NodeId>> = self
                .occurrences
                .iter()
                .filter(|occ| {
                    let set: std::collections::BTreeSet<NodeId> = occ
                        .iter()
                        .copied()
                        .filter(|&n| {
                            !matches!(
                                graph.op(n),
                                apex_ir::Op::Const(_) | apex_ir::Op::BitConst(_)
                            )
                        })
                        .collect();
                    let mut exits = 0usize;
                    let visible = set.iter().all(|&n| {
                        let internal = fan[n.index()].iter().filter(|c| set.contains(c)).count();
                        if internal == 0 {
                            exits += 1;
                            true
                        } else {
                            fan[n.index()].len() == internal
                        }
                    });
                    visible && exits == 1 && convex(fan, &set)
                })
                .cloned()
                .collect();
            let mis = maximal_independent_set(&occ).len();
            (occ, mis)
        })
    }
}

/// Extension descriptor considered during pattern growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Extension {
    /// Add a new node with `label`, connected to pattern node `at`.
    Node {
        at: u32,
        label: OpKind,
        new_is_dst: bool,
        port: Option<u8>,
    },
    /// Add an edge between two existing pattern nodes.
    Edge { src: u32, dst: u32, port: Option<u8> },
}

impl Extension {
    /// The child pattern this extension grows from `pattern`.
    pub(crate) fn apply(self, pattern: &Pattern) -> Pattern {
        match self {
            Extension::Node {
                at,
                label,
                new_is_dst,
                port,
            } => pattern.extend_with_node(at, label, new_is_dst, port),
            Extension::Edge { src, dst, port } => pattern.extend_with_edge(src, dst, port),
        }
    }
}

/// Convexity of an occurrence: no application path may leave the node set
/// and re-enter it (such an occurrence can never become one PE instance —
/// it would form a tile-level combinational cycle).
fn convex(fanouts: &[Vec<NodeId>], set: &std::collections::BTreeSet<NodeId>) -> bool {
    let mut stack: Vec<NodeId> = Vec::new();
    let mut seen: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
    for &m in set {
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

/// Result of a mining run: ranked subgraphs plus how the search ended.
#[derive(Debug, Clone)]
pub struct MineOutcome {
    /// Mined subgraphs, ranked by MIS size then pattern size.
    pub subgraphs: Vec<MinedSubgraph>,
    /// Whether the pattern-growth search ran to completion or was cut
    /// short by the configured [`Budget`].
    pub provenance: Provenance,
}

/// Mines frequent subgraphs of `graph`, returning them ranked by MIS size
/// (descending), then pattern size (descending) — the order in which the
/// paper's flow considers subgraphs for merging.
///
/// The search honours `config.budget`; when the budget trips, the
/// subgraphs found so far are returned with a partial [`Provenance`].
///
/// # Errors
/// Fails only on an armed fault-injection site (tests only).
pub fn mine(graph: &Graph, config: &MinerConfig) -> Result<MineOutcome, MineError> {
    apex_fault::fail_point!("mine::start", MineError::Injected("mine::start"));
    let mut meter = config.budget.start();
    meter.check_slow();
    let index = GraphIndex::new(graph);
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut results: Vec<MinedSubgraph> = Vec::new();
    // breadth-first over pattern sizes so the exploration budget spreads
    // across the whole label space instead of one deep region
    let mut frontier: std::collections::VecDeque<(Pattern, EmbeddingSet)> =
        std::collections::VecDeque::new();

    // level 1: frequent labels
    for (label, nodes) in index.labels() {
        if nodes.len() >= config.min_support {
            let p = Pattern::single(label);
            let es = find_embeddings_metered(&p, &index, config.max_embeddings, &mut meter);
            seen.insert(p.canonical_code());
            frontier.push_back((p, es));
        }
    }

    let mut explored = frontier.len();
    while let Some((pattern, embeddings)) = frontier.pop_front() {
        if pattern.len() >= config.min_pattern_nodes
            && pattern.edge_count() > 0
            && !embeddings.is_empty()
        {
            // occurrences() collapses automorphic embeddings (identical
            // node sets) before MIS analysis, so symmetric patterns do not
            // inflate their utilization estimate
            let mut occurrences = embeddings.occurrences();
            // the MIS overlap graph is the run's other big allocation;
            // under memory pressure analyse a deterministic prefix and
            // truncate the stored occurrences to match (the verifier
            // recomputes the MIS over whatever is stored)
            let (mis, analysed) = maximal_independent_set_metered(&occurrences, &mut meter);
            let occ_truncated = analysed < occurrences.len();
            if occ_truncated {
                occurrences.truncate(analysed);
            }
            results.push(MinedSubgraph {
                representative: embeddings.list.row(0),
                mni_support: embeddings.mni_support(pattern.len()),
                mis_size: mis.len(),
                truncated: embeddings.truncated || occ_truncated,
                occurrences,
                pattern: pattern.clone(),
                util: OnceLock::new(),
            });
        }
        // budget exhausted: drain the frontier (patterns already found stay
        // in the results) but stop growing new ones
        if !meter.tick() {
            continue;
        }
        if explored >= config.max_patterns {
            continue;
        }
        for ext in enumerate_extensions(&pattern, &embeddings, &index, config) {
            // exact cap (see MinerConfig::max_patterns): stop enqueueing
            // mid-extension-round, not merely before the next round — the
            // frontier never holds more than max_patterns patterns total
            if explored >= config.max_patterns {
                break;
            }
            let child = ext.apply(&pattern);
            let code = child.canonical_code();
            if !seen.insert(code) {
                continue;
            }
            // grow the child from the parent's rows; a truncated parent
            // list lacks embeddings, so its children are searched afresh
            let es = if embeddings.truncated {
                find_embeddings_metered(&child, &index, config.max_embeddings, &mut meter)
            } else {
                grow_embeddings(
                    &embeddings,
                    &child,
                    ext,
                    &index,
                    config.max_embeddings,
                    &mut meter,
                )
            };
            if es.mni_support(child.len()) >= config.min_support {
                explored += 1;
                frontier.push_back((child, es));
            }
        }
    }

    rank(&mut results);
    Ok(MineOutcome {
        subgraphs: results,
        provenance: meter.provenance(),
    })
}

/// Ranks mined subgraphs: MIS size descending, then node count
/// descending (a bigger subgraph accelerates more ops per PE), then
/// canonical code for determinism.
pub fn rank(results: &mut [MinedSubgraph]) {
    results.sort_by(|a, b| {
        b.mis_size
            .cmp(&a.mis_size)
            .then(b.pattern.len().cmp(&a.pattern.len()))
            .then_with(|| {
                a.pattern
                    .canonical_code_ref()
                    .cmp(b.pattern.canonical_code_ref())
            })
    });
}

pub(crate) fn enumerate_extensions(
    pattern: &Pattern,
    embeddings: &EmbeddingSet,
    index: &GraphIndex<'_>,
    config: &MinerConfig,
) -> BTreeSet<Extension> {
    let graph = index.graph();
    // one shared fanout table for the whole enumeration — the naive loop
    // rebuilt it per embedding per node, which dominated mining time
    let fanouts = index.fanouts();
    let mut exts = BTreeSet::new();
    let can_grow = pattern.len() < config.max_pattern_nodes;
    let k = pattern.len();
    // stamp array over graph node ids: pos_of[n] = pattern position of n
    // in the current embedding row, u32::MAX when unmapped. Set and
    // cleared per row — O(k) instead of building a map per embedding.
    let mut pos_of: Vec<u32> = vec![u32::MAX; graph.len()];
    let mut ports: Vec<Option<u8>> = Vec::new();
    for r in 0..embeddings.list.len() {
        for (i, n) in embeddings.list.row_iter(r).enumerate() {
            pos_of[n.index()] = i as u32;
        }
        for i in 0..k {
            let u = embeddings.list.col(i)[r];
            let i = i as u32;
            // consumers of u
            for &v in fanouts[u.index()].iter() {
                let vop = graph.op(v);
                if !vop.is_compute() {
                    continue;
                }
                ports.clear();
                if vop.commutative() {
                    ports.push(None);
                } else {
                    ports.extend(
                        graph
                            .node(v)
                            .inputs()
                            .iter()
                            .enumerate()
                            .filter(|(_, &s)| s == u)
                            .map(|(p, _)| Some(p as u8)),
                    );
                }
                let j = pos_of[v.index()];
                if j != u32::MAX {
                    // internal edge candidate
                    let existing = pattern.in_edges(j as usize).len();
                    if existing < graph.node(v).inputs().len() {
                        for port in &ports {
                            let already = pattern
                                .in_edges(j as usize)
                                .iter()
                                .filter(|e| e.src == i && e.port == *port)
                                .count();
                            let avail = graph
                                .node(v)
                                .inputs()
                                .iter()
                                .enumerate()
                                .filter(|(p, &s)| {
                                    s == u && port.map_or(true, |pp| pp as usize == *p)
                                })
                                .count();
                            if already < avail {
                                exts.insert(Extension::Edge {
                                    src: i,
                                    dst: j,
                                    port: *port,
                                });
                            }
                        }
                    }
                } else if can_grow {
                    for port in &ports {
                        exts.insert(Extension::Node {
                            at: i,
                            label: vop.kind(),
                            new_is_dst: true,
                            port: *port,
                        });
                    }
                }
            }
            // producers of u (only grow new nodes here; internal edges are
            // handled from the producer side above)
            if can_grow {
                let uop = graph.op(u);
                for (p, &src) in graph.node(u).inputs().iter().enumerate() {
                    let sop = graph.op(src);
                    if !sop.is_compute() || pos_of[src.index()] != u32::MAX {
                        continue;
                    }
                    let port = if uop.commutative() {
                        None
                    } else {
                        Some(p as u8)
                    };
                    exts.insert(Extension::Node {
                        at: i,
                        label: sop.kind(),
                        new_is_dst: false,
                        port,
                    });
                }
            }
        }
        for n in embeddings.list.row_iter(r) {
            pos_of[n.index()] = u32::MAX;
        }
    }
    exts
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::Op;

    /// Fig. 3's convolution: ((((i0·w0)+(i1·w1))+(i2·w2))+(i3·w3))+c
    fn conv_graph() -> Graph {
        let mut g = Graph::new("conv");
        let mut acc = None;
        for k in 0..4u16 {
            let i = g.input();
            let w = g.constant(10 + k);
            let m = g.add(Op::Mul, &[i, w]);
            acc = Some(match acc {
                None => m,
                Some(a) => g.add(Op::Add, &[a, m]),
            });
        }
        let c = g.constant(3);
        let fin = g.add(Op::Add, &[acc.unwrap(), c]);
        g.output(fin);
        g
    }

    #[test]
    fn mines_fig3_frequent_subgraphs() {
        let g = conv_graph();
        let cfg = MinerConfig {
            min_support: 3,
            max_pattern_nodes: 3,
            ..MinerConfig::default()
        };
        let mined = mine(&g, &cfg).unwrap().subgraphs;
        assert!(!mined.is_empty());
        // const→mul (Fig. 3b) must be found with 4 non-overlapping occurrences
        let const_mul = mined
            .iter()
            .find(|m| {
                m.pattern.len() == 2
                    && m.pattern.labels().contains(&OpKind::Const)
                    && m.pattern.labels().contains(&OpKind::Mul)
            })
            .unwrap();
        assert_eq!(const_mul.occurrences.len(), 4);
        assert_eq!(const_mul.mis_size, 4);
    }

    #[test]
    fn fig3d_add_chain_has_overlapping_occurrences() {
        let g = conv_graph();
        let cfg = MinerConfig {
            min_support: 3,
            max_pattern_nodes: 2,
            ..MinerConfig::default()
        };
        let mined = mine(&g, &cfg).unwrap().subgraphs;
        let add_add = mined
            .iter()
            .find(|m| m.pattern.labels() == [OpKind::Add, OpKind::Add])
            .unwrap();
        // the 4-tap conv has a 4-add chain: 3 overlapping add→add
        // occurrences, of which only 2 are disjoint (the Fig. 4 effect)
        assert_eq!(add_add.occurrences.len(), 3);
        assert_eq!(add_add.mis_size, 2);
    }

    #[test]
    fn ranking_puts_largest_mis_first() {
        let g = conv_graph();
        let cfg = MinerConfig {
            min_support: 2,
            max_pattern_nodes: 3,
            ..MinerConfig::default()
        };
        let mined = mine(&g, &cfg).unwrap().subgraphs;
        for w in mined.windows(2) {
            assert!(w[0].mis_size >= w[1].mis_size);
        }
    }

    #[test]
    fn step_budget_cuts_mining_short_with_partial_provenance() {
        let g = conv_graph();
        let cfg = MinerConfig {
            min_support: 2,
            budget: Budget::unlimited().with_max_steps(8),
            ..MinerConfig::default()
        };
        let out = mine(&g, &cfg).unwrap();
        assert_eq!(out.provenance, Provenance::TruncatedByBudget);
        // an unlimited run finds strictly more
        let full = mine(
            &g,
            &MinerConfig {
                min_support: 2,
                ..MinerConfig::default()
            },
        )
        .unwrap();
        assert!(full.subgraphs.len() >= out.subgraphs.len());
    }

    #[test]
    fn respects_min_support() {
        let g = conv_graph();
        let cfg = MinerConfig {
            min_support: 5,
            max_pattern_nodes: 3,
            ..MinerConfig::default()
        };
        let mined = mine(&g, &cfg).unwrap().subgraphs;
        // nothing appears 5+ times disjointly in this tiny graph except
        // nothing — all multi-node patterns have ≤ 5 occurrences; MNI ≤ 5
        for m in &mined {
            assert!(m.mni_support >= 5, "{}", m.pattern);
        }
    }

    #[test]
    fn mined_patterns_are_connected_and_valid() {
        let g = conv_graph();
        let mined = mine(
            &g,
            &MinerConfig {
                min_support: 2,
                ..MinerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(mined.provenance, Provenance::Completed);
        for m in &mined.subgraphs {
            assert!(m.pattern.is_connected(), "{}", m.pattern);
            let dp = m.to_datapath(&g, "p").unwrap();
            assert!(dp.try_validate().is_ok());
        }
    }

    #[test]
    fn max_patterns_cap_is_exact() {
        // the conv graph explores well over 4 frequent patterns when
        // uncapped; with max_patterns = 4 EXACTLY 4 may enter the frontier
        // (regression: the old check ran only between extension rounds, so
        // one round could overshoot the cap)
        let g = conv_graph();
        let uncapped = mine(
            &g,
            &MinerConfig {
                min_support: 2,
                ..MinerConfig::default()
            },
        )
        .unwrap()
        .subgraphs
        .len();
        assert!(uncapped > 4, "premise: uncapped run explores more");
        for cap in [1usize, 2, 4, 7] {
            let capped = mine(
                &g,
                &MinerConfig {
                    min_support: 2,
                    max_patterns: cap,
                    ..MinerConfig::default()
                },
            )
            .unwrap()
            .subgraphs;
            // every reported subgraph came off the frontier, which the
            // exact cap bounds at `cap` patterns
            assert!(
                capped.len() <= cap,
                "cap {cap} exceeded: {} patterns reported",
                capped.len()
            );
        }
    }

    #[test]
    fn automorphic_embeddings_do_not_inflate_occurrences_or_mis() {
        // four disjoint trees of add(mul, mul): the symmetric mul-add-mul
        // pattern has TWO automorphic embeddings per tree (the muls swap),
        // but each tree is ONE occurrence — the MIS must equal the true
        // instance count, not double it
        let mut g = Graph::new("sym");
        let mut outs = Vec::new();
        for _ in 0..4 {
            let a = g.input();
            let b = g.input();
            let c = g.input();
            let d = g.input();
            let m1 = g.add(Op::Mul, &[a, b]);
            let m2 = g.add(Op::Mul, &[c, d]);
            outs.push(g.add(Op::Add, &[m1, m2]));
        }
        for o in outs {
            g.output(o);
        }
        let cfg = MinerConfig {
            min_support: 4,
            max_pattern_nodes: 3,
            ..MinerConfig::default()
        };
        let mined = mine(&g, &cfg).unwrap().subgraphs;
        let sym = mined
            .iter()
            .find(|m| {
                m.pattern.len() == 3
                    && m.pattern.edge_count() == 2
                    && m.pattern
                        .labels()
                        .iter()
                        .filter(|&&l| l == OpKind::Mul)
                        .count()
                        == 2
            })
            .expect("mul-add-mul pattern must be mined");
        assert_eq!(sym.occurrences.len(), 4, "one occurrence per tree");
        assert_eq!(sym.mis_size, 4, "disjoint trees are all independent");
    }

    #[test]
    fn utilizable_statistics_are_computed_once_and_cached() {
        let g = conv_graph();
        let mined = mine(
            &g,
            &MinerConfig {
                min_support: 2,
                ..MinerConfig::default()
            },
        )
        .unwrap()
        .subgraphs;
        let m = &mined[0];
        let fan = g.fanouts();
        let first = m.utilizable_occurrences(&g, &fan);
        let again = m.utilizable_occurrences(&g, &fan);
        // the second call must return the cached slice, not a recomputation
        assert!(std::ptr::eq(first, again));
        assert_eq!(
            m.utilizable_mis(&g, &fan),
            maximal_independent_set(first).len()
        );
    }

    #[test]
    fn memory_budget_truncates_mining_deterministically() {
        let g = conv_graph();
        let unlimited = mine(
            &g,
            &MinerConfig {
                min_support: 2,
                ..MinerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(unlimited.provenance, Provenance::Completed);
        // a budget below the run's natural footprint: results degrade but
        // the run completes, flagged TruncatedByBudget
        let tight = MinerConfig {
            min_support: 2,
            budget: Budget::unlimited().with_max_bytes(256),
            ..MinerConfig::default()
        };
        let a = mine(&g, &tight).unwrap();
        assert_eq!(a.provenance, Provenance::TruncatedByBudget);
        assert!(a.subgraphs.iter().any(|m| m.truncated));
        for m in &a.subgraphs {
            // truncated statistics stay internally consistent: stored
            // occurrences are exactly what the MIS analysed
            assert!(m.mis_size <= m.occurrences.len());
        }
        // deterministic: a second identical run truncates identically
        let b = mine(&g, &tight).unwrap();
        assert_eq!(a.subgraphs.len(), b.subgraphs.len());
        for (x, y) in a.subgraphs.iter().zip(&b.subgraphs) {
            assert_eq!(x.occurrences, y.occurrences);
            assert_eq!(x.mis_size, y.mis_size);
            assert_eq!(x.truncated, y.truncated);
        }
    }

    #[test]
    fn zero_memory_budget_still_terminates_without_panic() {
        let g = conv_graph();
        let out = mine(
            &g,
            &MinerConfig {
                min_support: 2,
                budget: Budget::unlimited().with_max_bytes(0),
                ..MinerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.provenance, Provenance::TruncatedByBudget);
    }

    #[test]
    fn every_occurrence_is_a_real_embedding() {
        // property: reported occurrences induce the pattern
        let g = conv_graph();
        let mined = mine(
            &g,
            &MinerConfig {
                min_support: 2,
                ..MinerConfig::default()
            },
        )
        .unwrap()
        .subgraphs;
        for m in &mined {
            for occ in &m.occurrences {
                let (p2, _) = Pattern::from_occurrence(&g, occ);
                // the occurrence's induced pattern must contain at least
                // the mined pattern's edges (it may have extra internal
                // edges the pattern does not require)
                assert!(p2.edge_count() >= m.pattern.edge_count());
                assert_eq!(p2.len(), m.pattern.len());
            }
        }
    }
}
