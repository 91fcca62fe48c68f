//! Maximal-independent-set analysis of subgraph occurrences
//! (paper Section 3.2, Fig. 4).
//!
//! Overlapping occurrences of a frequent subgraph cannot all be
//! accelerated by fully-utilized PEs. Each occurrence becomes a node of an
//! overlap graph (edge = two occurrences share an application node); the
//! size of a maximal independent set of that graph estimates how many
//! fully-utilized PEs implementing the subgraph the application can use.
//!
//! The overlap graph is never materialized: the greedy selection walks a
//! CSR node → owning-occurrence index, so an occurrence's neighbours are
//! the owners of its nodes, deduplicated with a stamp array. The byte
//! meter is charged what the explicit graph would cost, so budget
//! truncation is that of the adjacency-list greedy kept as the test-only
//! spec in the `spec` child module.

use apex_fault::{Budget, Meter};
use apex_ir::NodeId;

/// Greedy maximal independent set: repeatedly selects the remaining node
/// with the fewest remaining neighbours and removes its neighbourhood.
///
/// Returns the indices of the selected occurrences. The result is a
/// *maximal* independent set (cannot be grown), matching the paper's
/// definition; the min-degree heuristic makes it a good estimate of the
/// maximum.
pub fn maximal_independent_set(occurrences: &[Vec<NodeId>]) -> Vec<usize> {
    maximal_independent_set_metered(occurrences, &mut Budget::unlimited().start()).0
}

/// [`maximal_independent_set`] for the miner: accounts the
/// overlap-analysis scratch against `meter`. When a charge is rejected
/// the analysis deterministically retries over the first half of the
/// occurrence list, repeatedly, until it fits — so memory exhaustion
/// degrades to a conservative utilization estimate over an occurrence
/// *prefix* instead of aborting. Returns the selected indices and the
/// prefix length analysed (`< occurrences.len()` exactly when the budget
/// truncated the analysis); the caller must shrink its stored occurrence
/// list to that prefix to stay verifier-consistent. Scratch charges are
/// released before returning (the structures are dropped here).
///
/// The charges are those of an explicit overlap graph, whatever is
/// actually built: one node → occurrence index slot per application
/// node id, then each occurrence's owner entries as it is indexed, then
/// `C(|owners|, 2)` edge slots per index entry in one sum. A sum is
/// rejected exactly when some prefix of its parts charged one by one
/// would be, so truncation does not depend on how the charge is split.
pub fn maximal_independent_set_metered(
    occurrences: &[Vec<NodeId>],
    meter: &mut Meter,
) -> (Vec<usize>, usize) {
    let mut n = occurrences.len();
    loop {
        let before = meter.used();
        let owners = OwnerIndex::build(&occurrences[..n], meter);
        meter.release(meter.used() - before);
        match owners {
            Some(owners) => return (owners.greedy_mis(&occurrences[..n]), n),
            None => n /= 2,
        }
    }
}

/// The node → occurrence inverted index in CSR form: the occurrences
/// owning application node `v` are `list[start[v]..start[v + 1]]`,
/// ascending and duplicate-free. Occurrence `i`'s overlap neighbours are
/// the owners of its nodes, so the greedy never materializes the
/// overlap graph's adjacency lists.
struct OwnerIndex {
    start: Vec<u32>,
    list: Vec<u32>,
}

impl OwnerIndex {
    /// Builds the index by counting sort, charging `meter` as described
    /// on [`maximal_independent_set_metered`]; `None` the moment a
    /// charge is rejected.
    fn build(occurrences: &[Vec<NodeId>], meter: &mut Meter) -> Option<OwnerIndex> {
        if occurrences.is_empty() {
            return Some(OwnerIndex {
                start: vec![0],
                list: Vec::new(),
            });
        }
        let slots = occurrences
            .iter()
            .flatten()
            .map(|id| id.index())
            .max()
            .unwrap_or(0)
            + 1;
        if !meter.charge((slots * std::mem::size_of::<Vec<u32>>()) as u64) {
            return None;
        }
        // pass 1: owners per node; `last[v]` is the latest occurrence
        // counted at `v`, so a node repeated within one occurrence
        // (callers outside the miner may pass such lists) counts once
        let mut last = vec![u32::MAX; slots];
        let mut start = vec![0u32; slots + 1];
        for (i, occ) in occurrences.iter().enumerate() {
            if !meter.charge((occ.len() * std::mem::size_of::<u32>()) as u64) {
                return None;
            }
            for &node in occ {
                if last[node.index()] != i as u32 {
                    last[node.index()] = i as u32;
                    start[node.index() + 1] += 1;
                }
            }
        }
        let edge_bytes = (2 * std::mem::size_of::<usize>()) as u64;
        let pairs: u64 = start
            .iter()
            .map(|&c| u64::from(c) * u64::from(c).saturating_sub(1) / 2)
            .sum();
        if !meter.charge(pairs.saturating_mul(edge_bytes)) {
            return None;
        }
        for v in 0..slots {
            start[v + 1] += start[v];
        }
        // pass 2: scatter in occurrence order, so each owner run ascends
        let mut fill = start.clone();
        let mut list = vec![0u32; start[slots] as usize];
        last.fill(u32::MAX);
        for (i, occ) in occurrences.iter().enumerate() {
            for &node in occ {
                let v = node.index();
                if last[v] != i as u32 {
                    last[v] = i as u32;
                    list[fill[v] as usize] = i as u32;
                    fill[v] += 1;
                }
            }
        }
        Some(OwnerIndex { start, list })
    }

    fn owners(&self, node: NodeId) -> &[u32] {
        let v = node.index();
        &self.list[self.start[v] as usize..self.start[v + 1] as usize]
    }

    /// Calls `visit` once per overlap neighbour of occurrence `i` (not
    /// `i` itself), using `stamp` with the fresh tag `tag`.
    fn neighbours(
        &self,
        occ: &[NodeId],
        i: usize,
        stamp: &mut [u32],
        tag: u32,
        mut visit: impl FnMut(usize),
    ) {
        stamp[i] = tag;
        for &node in occ {
            for &j in self.owners(node) {
                if stamp[j as usize] != tag {
                    stamp[j as usize] = tag;
                    visit(j as usize);
                }
            }
        }
    }

    /// The greedy min-degree selection: repeatedly picks the alive
    /// occurrence with the fewest alive neighbours (lowest index on a
    /// tie) and kills its neighbourhood. Degrees start at the full
    /// neighbour count and drop by one per killed neighbour; a stamp
    /// array dedups each neighbourhood as it is walked.
    fn greedy_mis(&self, occurrences: &[Vec<NodeId>]) -> Vec<usize> {
        let n = occurrences.len();
        let mut stamp = vec![u32::MAX; n];
        let mut tag = 0u32;
        let mut degree = vec![0usize; n];
        for (i, occ) in occurrences.iter().enumerate() {
            self.neighbours(occ, i, &mut stamp, tag, |_| degree[i] += 1);
            tag += 1;
        }
        let mut alive = vec![true; n];
        let mut chosen = Vec::new();
        let mut killed = Vec::new();
        loop {
            let mut best: Option<usize> = None;
            for v in 0..n {
                if alive[v] && best.is_none_or(|b| degree[v] < degree[b]) {
                    best = Some(v);
                }
            }
            let Some(v) = best else { break };
            chosen.push(v);
            alive[v] = false;
            killed.clear();
            self.neighbours(&occurrences[v], v, &mut stamp, tag, |u| {
                if alive[u] {
                    alive[u] = false;
                    killed.push(u);
                }
            });
            tag += 1;
            for &u in &killed {
                self.neighbours(&occurrences[u], u, &mut stamp, tag, |w| {
                    degree[w] = degree[w].saturating_sub(1);
                });
                tag += 1;
            }
        }
        chosen.sort_unstable();
        chosen
    }
}

/// Convenience: the MIS size of a set of occurrences.
pub fn mis_size(occurrences: &[Vec<NodeId>]) -> usize {
    maximal_independent_set(occurrences).len()
}

#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::spec::{
        maximal_independent_set_metered_reference, overlap_graph, overlap_graph_reference,
    };
    use super::*;
    use apex_fault::Provenance;

    fn sorted_intersects(a: &[NodeId], b: &[NodeId]) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&x| NodeId(x)).collect()
    }

    #[test]
    fn disjoint_occurrences_all_selected() {
        let occ = vec![ids(&[0, 1]), ids(&[2, 3]), ids(&[4, 5])];
        assert_eq!(mis_size(&occ), 3);
    }

    #[test]
    fn fully_overlapping_occurrences_pick_one() {
        let occ = vec![ids(&[0, 1]), ids(&[1, 2]), ids(&[0, 2])];
        assert_eq!(mis_size(&occ), 1);
    }

    #[test]
    fn chain_overlap_picks_alternating() {
        // occurrences in a path: 0-1, 1-2, 2-3, 3-4 → MIS = {0-1, 2-3} or
        // similar, size 2
        let occ = vec![ids(&[0, 1]), ids(&[1, 2]), ids(&[2, 3]), ids(&[3, 4])];
        assert_eq!(mis_size(&occ), 2);
    }

    #[test]
    fn paper_fig4_example() {
        // Fig. 4: four occurrences of the two-add chain in a conv tree;
        // occurrences (a1,a2), (a2,a3), (a3,a4), (a4,a5) – MIS size 2
        let occ = vec![ids(&[10, 11]), ids(&[11, 12]), ids(&[12, 13]), ids(&[13, 14])];
        let mis = maximal_independent_set(&occ);
        assert_eq!(mis.len(), 2);
        // chosen occurrences must be pairwise disjoint
        for (i, &a) in mis.iter().enumerate() {
            for &b in &mis[i + 1..] {
                assert!(!sorted_intersects(&occ[a], &occ[b]));
            }
        }
    }

    #[test]
    fn result_is_independent_and_maximal() {
        let occ = vec![
            ids(&[0, 1]),
            ids(&[1, 2]),
            ids(&[3, 4]),
            ids(&[4, 5]),
            ids(&[6, 7]),
        ];
        let adj = overlap_graph(&occ, &mut Budget::unlimited().start()).unwrap();
        let mis = maximal_independent_set(&occ);
        // independent
        for (i, &a) in mis.iter().enumerate() {
            for &b in &mis[i + 1..] {
                assert!(!adj[a].contains(&b));
            }
        }
        // maximal: every non-member has a chosen neighbour
        for v in 0..occ.len() {
            if !mis.contains(&v) {
                assert!(adj[v].iter().any(|u| mis.contains(u)), "{v} could be added");
            }
        }
    }

    #[test]
    fn greedy_mis_can_grow_on_a_subset() {
        // why a subgraph's `mis_size` bounds no MIS over a subset of its
        // occurrences (such as the utilizable ones): without occurrence 0
        // the min-degree greedy finds three disjoint occurrences, not two
        let occ = vec![
            ids(&[2, 7]),
            ids(&[2, 4]),
            ids(&[0, 5]),
            ids(&[0, 7]),
            ids(&[2, 6]),
            ids(&[4, 5]),
        ];
        assert_eq!(mis_size(&occ), 2);
        assert_eq!(mis_size(&occ[1..]), 3);
    }

    #[test]
    fn empty_input_gives_empty_set() {
        assert_eq!(mis_size(&[]), 0);
    }

    #[test]
    fn inverted_index_matches_pairwise_reference() {
        // deterministic xorshift RNG
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = 1 + (rand() % 20) as usize;
            let occ: Vec<Vec<NodeId>> = (0..n)
                .map(|_| {
                    let k = 1 + (rand() % 5) as usize;
                    let mut v: Vec<NodeId> =
                        (0..k).map(|_| NodeId((rand() % 30) as u32)).collect();
                    v.sort();
                    v.dedup();
                    v
                })
                .collect();
            let got = overlap_graph(&occ, &mut Budget::unlimited().start()).unwrap();
            // all-pairs reference (the original implementation)
            let mut want = vec![Vec::new(); n];
            for i in 0..n {
                for j in (i + 1)..n {
                    if sorted_intersects(&occ[i], &occ[j]) {
                        want[i].push(j);
                        want[j].push(i);
                    }
                }
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn overlap_graph_matches_the_per_pair_reference_under_byte_caps() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let (mut built, mut rejected, mut prefixes) = (0, 0, 0);
        for _ in 0..400 {
            // dense overlap on few nodes, repeated nodes left in place
            let nodes = 2 + rand(40);
            let count = if rand(4) == 0 { rand(160) } else { rand(40) };
            let occ: Vec<Vec<NodeId>> = (0..count)
                .map(|_| {
                    let mut v: Vec<NodeId> = (0..1 + rand(6))
                        .map(|_| NodeId(rand(nodes) as u32))
                        .collect();
                    if rand(2) == 0 {
                        v.sort();
                    }
                    v
                })
                .collect();
            let full = overlap_graph_reference(&occ, &mut Budget::unlimited().start())
                .map_or(0, |adj| adj.iter().map(Vec::len).sum::<usize>() as u64);
            let cap = rand(64 * (full + 32));
            let budget = Budget::unlimited().with_max_bytes(cap);
            // some scratch is already charged when the analysis starts
            let preload = rand(64);
            let (mut got_m, mut want_m) = (budget.start(), budget.start());
            got_m.charge(preload);
            want_m.charge(preload);
            let got = overlap_graph(&occ, &mut got_m);
            let want = overlap_graph_reference(&occ, &mut want_m);
            assert_eq!(got, want, "cap {cap}: {occ:?}");
            // a rejected build leaves its accepted prefix charged until
            // the caller releases it; a completed one charges the same sum
            if got.is_some() {
                assert_eq!(got_m.used(), want_m.used());
                built += 1;
            } else {
                rejected += 1;
            }
            assert_eq!(got_m.provenance(), want_m.provenance());

            let (mut got_m, mut want_m) = (budget.start(), budget.start());
            got_m.charge(preload);
            want_m.charge(preload);
            let got = maximal_independent_set_metered(&occ, &mut got_m);
            let want = maximal_independent_set_metered_reference(&occ, &mut want_m);
            assert_eq!(got, want, "cap {cap}: {occ:?}");
            assert_eq!(got_m.used(), want_m.used(), "scratch released alike");
            assert_eq!(got_m.provenance(), want_m.provenance());
            if got.1 > 0 && got.1 < occ.len() {
                prefixes += 1;
            }
        }
        assert!(
            built > 0 && rejected > 0 && prefixes > 0,
            "{built} {rejected} {prefixes}"
        );
    }

    #[test]
    fn csr_greedy_matches_the_adjacency_greedy_on_mined_occurrences() {
        let cfg = crate::MinerConfig {
            budget: Budget::unlimited(),
            ..crate::MinerConfig::default()
        };
        let (mut checked, mut prefixes) = (0, 0);
        for app in apex_apps::analyzed_apps()
            .into_iter()
            .chain(apex_apps::unseen_apps())
        {
            for m in crate::mine(&app.graph, &cfg).unwrap().subgraphs {
                let occ = &m.occurrences;
                let full = maximal_independent_set(occ);
                assert_eq!(full.len(), m.mis_size);
                for cap in [None, Some(1 << 10), Some(1 << 14), Some(1 << 17)] {
                    let budget = cap.map_or(Budget::unlimited(), |c| {
                        Budget::unlimited().with_max_bytes(c)
                    });
                    let (mut got_m, mut want_m) = (budget.start(), budget.start());
                    let got = maximal_independent_set_metered(occ, &mut got_m);
                    let want = maximal_independent_set_metered_reference(occ, &mut want_m);
                    assert_eq!(got, want, "{} cap {cap:?}", m.pattern);
                    assert_eq!(got_m.used(), want_m.used());
                    assert_eq!(got_m.provenance(), want_m.provenance());
                    prefixes += usize::from(got.1 < occ.len());
                }
                checked += 1;
            }
        }
        assert!(checked > 1000 && prefixes > 100, "{checked} {prefixes}");
    }

    #[test]
    fn budgeted_mis_with_room_matches_unbudgeted() {
        let occ = vec![ids(&[0, 1]), ids(&[1, 2]), ids(&[2, 3]), ids(&[3, 4])];
        let mut meter = Budget::unlimited().start();
        let (mis, analysed) = maximal_independent_set_metered(&occ, &mut meter);
        assert_eq!(analysed, occ.len());
        assert_eq!(mis, maximal_independent_set(&occ));
        assert_eq!(meter.provenance(), Provenance::Completed);
        assert_eq!(meter.used(), 0, "scratch charges are released");
    }

    #[test]
    fn budgeted_mis_truncates_to_a_prefix_deterministically() {
        let occ: Vec<Vec<NodeId>> = (0..64).map(|i| ids(&[i, i + 1])).collect();
        let mut meter = Budget::unlimited().with_max_bytes(600).start();
        let (mis, analysed) = maximal_independent_set_metered(&occ, &mut meter);
        assert_eq!(
            meter.provenance(),
            Provenance::TruncatedByBudget,
            "a 600-byte budget cannot fit 64 occurrences"
        );
        assert!(analysed < occ.len());
        assert_eq!(mis, maximal_independent_set(&occ[..analysed]));
        // deterministic: same inputs + budget → same truncation point
        let mut meter2 = Budget::unlimited().with_max_bytes(600).start();
        let (mis2, analysed2) = maximal_independent_set_metered(&occ, &mut meter2);
        assert_eq!((mis, analysed), (mis2, analysed2));
    }

    #[test]
    fn zero_budget_mis_degrades_to_empty_not_panic() {
        let occ = vec![ids(&[0, 1]), ids(&[1, 2])];
        let mut meter = Budget::unlimited().with_max_bytes(0).start();
        let (mis, analysed) = maximal_independent_set_metered(&occ, &mut meter);
        assert_eq!(analysed, 0);
        assert!(mis.is_empty());
    }

    #[test]
    fn repeated_nodes_within_an_occurrence_add_no_self_edges() {
        // defensive: callers outside the miner may pass un-deduplicated
        // node lists; the inverted index must not self-link an occurrence
        let occ = vec![ids(&[1, 1, 2]), ids(&[3, 4])];
        let adj = overlap_graph(&occ, &mut Budget::unlimited().start()).unwrap();
        assert!(adj[0].is_empty() && adj[1].is_empty());
        assert_eq!(mis_size(&occ), 2);
    }
}
