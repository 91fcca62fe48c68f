//! The embedding search's executable specification, compiled only for
//! tests: the original scalar matcher, with row-major [`Embedding`]
//! output. The property suite below requires the SoA/bitset
//! [`find_embeddings`] to return exactly its embedding sequence.

use super::{edge_exists, matching_order, ports_feasible, GraphIndex};
use crate::pattern::Pattern;
use apex_ir::{NodeId, OpKind};

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

mod properties {
    use super::*;
    use crate::{find_embeddings, mine, MinerConfig};
    use apex_ir::{Graph, Op};
    use proptest::prelude::*;

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
