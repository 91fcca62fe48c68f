//! The embedding search's executable specification, compiled only for
//! tests: the original scalar matcher, with row-major [`Embedding`]
//! output. The property suite below requires the SoA/bitset
//! [`find_embeddings`] to return exactly its embedding sequence.

use super::{edge_exists, matching_order, GraphIndex};
use crate::pattern::Pattern;
use apex_ir::{Graph, NodeId, OpKind};

/// One embedding: pattern-node index → graph node. The search itself
/// stores embeddings column-wise in an [`super::EmbeddingList`]; this
/// row type is the reference matcher's output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct Embedding(pub Vec<NodeId>);

// ---------------------------------------------------------------------------
// Reference matcher
// ---------------------------------------------------------------------------

/// The original scalar embedding search, retained as the executable
/// specification of [`find_embeddings`]: per-candidate `Vec` allocation,
/// linear `used` scans, row-major output. Property tests assert the SoA
/// search returns exactly the same embedding sequence; it is not used on
/// any production path.
pub(super) fn find_embeddings_reference(
    pattern: &Pattern,
    index: &GraphIndex<'_>,
    limit: usize,
) -> (Vec<Embedding>, bool) {
    let n = pattern.len();
    if n == 0 {
        return (Vec::new(), false);
    }
    let order = matching_order(pattern);
    let mut state = RefSearch {
        pattern,
        index,
        order: &order,
        assignment: vec![None; n],
        used: Vec::new(),
        out: Vec::new(),
        limit,
        truncated: false,
    };
    state.recurse(0);
    (state.out, state.truncated)
}

struct RefSearch<'a, 'g> {
    pattern: &'a Pattern,
    index: &'a GraphIndex<'g>,
    order: &'a [u32],
    assignment: Vec<Option<NodeId>>,
    used: Vec<NodeId>,
    out: Vec<Embedding>,
    limit: usize,
    truncated: bool,
}

impl RefSearch<'_, '_> {
    fn recurse(&mut self, depth: usize) {
        if self.truncated {
            return;
        }
        if depth == self.order.len() {
            let mapping: Option<Vec<NodeId>> = self.assignment.iter().copied().collect();
            let Some(mapping) = mapping else { return };
            if ports_feasible(self.pattern, self.index.graph(), &mapping) {
                self.out.push(Embedding(mapping));
                if self.out.len() >= self.limit {
                    self.truncated = true;
                }
            }
            return;
        }
        let pnode = self.order[depth] as usize;
        let label = self.pattern.labels()[pnode];
        let mut candidates = self.candidates(pnode, label);
        candidates.sort();
        candidates.dedup();
        for cand in candidates {
            if self.used.contains(&cand) {
                continue;
            }
            if !self.locally_consistent(pnode, cand) {
                continue;
            }
            self.assignment[pnode] = Some(cand);
            self.used.push(cand);
            self.recurse(depth + 1);
            self.used.pop();
            self.assignment[pnode] = None;
            if self.truncated {
                return;
            }
        }
    }

    fn candidates(&self, pnode: usize, label: OpKind) -> Vec<NodeId> {
        for (s, d, _) in self.pattern.edges() {
            let (s, d) = (s as usize, d as usize);
            if d == pnode {
                if let Some(img) = self.assignment[s] {
                    return self
                        .index
                        .fanout(img)
                        .iter()
                        .copied()
                        .filter(|&v| {
                            self.index.graph().op(v).is_compute()
                                && self.index.graph().op(v).kind() == label
                        })
                        .collect();
                }
            }
            if s == pnode {
                if let Some(img) = self.assignment[d] {
                    return self
                        .index
                        .graph()
                        .node(img)
                        .inputs()
                        .iter()
                        .copied()
                        .filter(|&v| {
                            self.index.graph().op(v).is_compute()
                                && self.index.graph().op(v).kind() == label
                        })
                        .collect();
                }
            }
        }
        self.index.nodes_with_label(label).to_vec()
    }

    fn locally_consistent(&self, pnode: usize, cand: NodeId) -> bool {
        let g = self.index.graph();
        for (s, d, port) in self.pattern.edges() {
            let (s, d) = (s as usize, d as usize);
            if d == pnode {
                if let Some(src_img) = self.assignment[s] {
                    if !edge_exists(g, src_img, cand, port) {
                        return false;
                    }
                }
            } else if s == pnode {
                if let Some(dst_img) = self.assignment[d] {
                    if !edge_exists(g, cand, dst_img, port) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// The original port-feasibility check, retained as the specification of
/// the mask-based [`super::ports_feasible`] and used by the reference
/// matcher: a `Vec<bool>` of used ports per pattern node and a `Vec` of
/// candidate ports per pattern edge.
fn ports_feasible(pattern: &Pattern, g: &Graph, mapping: &[NodeId]) -> bool {
    for d in 0..pattern.len() {
        let edges = pattern.in_edges(d);
        if edges.is_empty() {
            continue;
        }
        let img_inputs = g.node(mapping[d]).inputs();
        // tiny backtracking over port assignments (arity <= 3)
        let mut used = vec![false; img_inputs.len()];
        if !assign(edges, 0, img_inputs, mapping, &mut used) {
            return false;
        }
    }
    true
}

fn assign(
    edges: &[crate::pattern::PatternEdge],
    k: usize,
    img_inputs: &[NodeId],
    mapping: &[NodeId],
    used: &mut Vec<bool>,
) -> bool {
    if k == edges.len() {
        return true;
    }
    let e = edges[k];
    let want = mapping[e.src as usize];
    let range: Vec<usize> = match e.port {
        Some(p) => vec![p as usize],
        None => (0..img_inputs.len()).collect(),
    };
    for p in range {
        if p < img_inputs.len() && !used[p] && img_inputs[p] == want {
            used[p] = true;
            if assign(edges, k + 1, img_inputs, mapping, used) {
                used[p] = false;
                return true;
            }
            used[p] = false;
        }
    }
    false
}

mod properties {
    use super::super::{find_embeddings_metered, grow_embeddings, EmbeddingSet};
    use super::*;
    use crate::miner::enumerate_extensions;
    use crate::{find_embeddings, mine, MinerConfig};
    use apex_fault::{Budget, Provenance};
    use apex_ir::{Graph, Op};
    use proptest::prelude::*;

    /// What [`check_growth`] exercised.
    #[derive(Debug, Default)]
    struct Coverage {
        grown: usize,
        fallbacks: usize,
        truncated: usize,
        capped: usize,
    }

    /// Walks the miner's breadth-first pattern growth over `g` (every
    /// enumerated extension of every frequent pattern, deduplicated by
    /// canonical code as `mine` does) and requires each child grown from
    /// a complete parent list to equal the search row for row: same
    /// rows, same `truncated`, same bytes charged and provenance when
    /// both start from a meter under `cap` with `preload(child)` bytes
    /// already used.
    fn check_growth(
        g: &Graph,
        cfg: &MinerConfig,
        cap: Option<u64>,
        mut preload: impl FnMut() -> u64,
    ) -> Coverage {
        let index = GraphIndex::new(g);
        let budget = match cap {
            Some(c) => Budget::unlimited().with_max_bytes(c),
            None => Budget::unlimited(),
        };
        let unmetered = || Budget::unlimited().start();
        let mut seen = std::collections::BTreeSet::new();
        let mut frontier: std::collections::VecDeque<(Pattern, EmbeddingSet)> =
            std::collections::VecDeque::new();
        for (label, nodes) in index.labels() {
            if nodes.len() >= cfg.min_support {
                let p = Pattern::single(label);
                let es = find_embeddings_metered(&p, &index, cfg.max_embeddings, &mut unmetered());
                seen.insert(p.canonical_code());
                frontier.push_back((p, es));
            }
        }
        let mut explored = frontier.len();
        let mut cov = Coverage::default();
        while let Some((pattern, parent)) = frontier.pop_front() {
            if explored >= cfg.max_patterns {
                continue;
            }
            for ext in enumerate_extensions(&pattern, &parent, &index, cfg) {
                let child = ext.apply(&pattern);
                if !seen.insert(child.canonical_code()) {
                    continue;
                }
                let (mut m_search, mut m_grow) = (budget.start(), budget.start());
                let pre = preload();
                m_search.charge(pre);
                m_grow.charge(pre);
                let want =
                    find_embeddings_metered(&child, &index, cfg.max_embeddings, &mut m_search);
                if parent.truncated {
                    cov.fallbacks += 1;
                } else {
                    let got = grow_embeddings(
                        &parent,
                        &child,
                        ext,
                        &index,
                        cfg.max_embeddings,
                        &mut m_grow,
                    );
                    assert_eq!(got.truncated, want.truncated, "{child}");
                    assert_eq!(got.len(), want.len(), "{child}");
                    for i in 0..want.len() {
                        assert_eq!(got.list.row(i), want.list.row(i), "row {i} of {child}");
                    }
                    assert_eq!(m_grow.used(), m_search.used(), "{child}");
                    assert_eq!(m_grow.provenance(), m_search.provenance(), "{child}");
                    cov.grown += 1;
                    cov.truncated += usize::from(want.truncated);
                    cov.capped += usize::from(m_search.provenance() != Provenance::Completed);
                }
                // the walk itself continues on complete statistics
                let full =
                    find_embeddings_metered(&child, &index, cfg.max_embeddings, &mut unmetered());
                if explored < cfg.max_patterns && full.mni_support(child.len()) >= cfg.min_support {
                    explored += 1;
                    frontier.push_back((child, full));
                }
            }
        }
        cov
    }

    #[test]
    fn grown_lists_equal_the_search_on_the_suite() {
        for app in apex_apps::analyzed_apps()
            .into_iter()
            .chain(apex_apps::unseen_apps())
        {
            let cov = check_growth(&app.graph, &MinerConfig::default(), None, || 0);
            assert!(cov.grown > 50, "{}: {cov:?}", app.info.name);
        }
    }

    #[test]
    fn small_limits_and_byte_caps_truncate_grown_lists_like_the_search() {
        let mut state = 0x853C_49E6_748F_EA9Bu64;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut total = Coverage::default();
        for (app, limit) in [
            ("gaussian", 40),
            ("harris", 7),
            ("resnet", 150),
            ("camera", 25),
        ] {
            let app = apex_apps::by_name(app).unwrap();
            let cfg = MinerConfig {
                max_embeddings: limit,
                max_patterns: 80,
                ..MinerConfig::default()
            };
            // caps around one list's worth of rows, part of it preloaded
            let cov = check_growth(&app.graph, &cfg, Some(4096), || rand(4096));
            total.grown += cov.grown;
            total.fallbacks += cov.fallbacks;
            total.truncated += cov.truncated;
            total.capped += cov.capped;
        }
        assert!(
            total.grown > 100 && total.fallbacks > 0 && total.truncated > total.capped,
            "{total:?}"
        );
        assert!(total.capped > 0, "{total:?}");
    }

    fn arb_graph() -> impl Strategy<Value = Graph> {
        let spec = prop::collection::vec((0u8..6, any::<u16>(), any::<u16>()), 4..40);
        spec.prop_map(|ops| {
            let mut g = Graph::new("prop");
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
                    4 => g.add(Op::Umax, &[a, b]),
                    _ => g.add(Op::Lshr, &[a, b]),
                };
                pool.push(n);
            }
            let last = *pool.last().unwrap();
            g.output(last);
            g
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn grown_lists_equal_the_search_on_arbitrary_graphs(
            g in arb_graph(),
            limit in 1usize..60,
            cap in 0u32..2048,
        ) {
            let cap = u64::from(cap);
            let cfg = MinerConfig {
                min_support: 2,
                max_pattern_nodes: 5,
                max_patterns: 60,
                ..MinerConfig::default()
            };
            check_growth(&g, &cfg, None, || 0);
            let cfg = MinerConfig { max_embeddings: limit, ..cfg };
            let mut k = 0u64;
            check_growth(&g, &cfg, Some(cap), || {
                k += 1;
                (k * 37) % (cap + 1)
            });
        }

        #[test]
        fn soa_search_matches_reference_matcher(g in arb_graph()) {
            // the SoA/bitset search must return EXACTLY the embedding
            // sequence of the retained naive reference matcher — same rows,
            // same order, same truncation — on every mined pattern shape
            let index = GraphIndex::new(&g);
            let mined = mine(&g, &MinerConfig {
                min_support: 2,
                max_pattern_nodes: 4,
                max_patterns: 30,
                ..MinerConfig::default()
            })
            .unwrap()
            .subgraphs;
            for m in mined.iter().take(12) {
                let fast = find_embeddings(&m.pattern, &index, 5_000);
                let (rows, truncated) = find_embeddings_reference(&m.pattern, &index, 5_000);
                prop_assert_eq!(fast.truncated, truncated);
                prop_assert_eq!(fast.len(), rows.len());
                for (i, e) in rows.iter().enumerate() {
                    prop_assert_eq!(fast.list.row(i), e.0.clone(), "row {} differs", i);
                }
            }
        }
    }
}
