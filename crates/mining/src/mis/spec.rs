//! The overlap graph's executable specification, compiled only for
//! tests: the original construction, which charges and pushes every
//! co-owned pair once per shared node, then sorts and deduplicates. The
//! properties in `mis.rs` require [`super::overlap_graph`] to match it in
//! result, adjacency, budget truncation and meter accounting.

use super::{greedy_mis, owner_index};
use apex_fault::Meter;
use apex_ir::NodeId;

/// The per-pair-charging overlap graph, retained as the specification of
/// [`super::overlap_graph`]; it is not used on any production path.
pub(super) fn overlap_graph_reference(
    occurrences: &[Vec<NodeId>],
    meter: &mut Meter,
) -> Option<Vec<Vec<usize>>> {
    let n = occurrences.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    if n == 0 {
        return Some(adj);
    }
    let owners = owner_index(occurrences, meter)?;
    let edge_bytes = (2 * std::mem::size_of::<usize>()) as u64;
    for list in &owners {
        for (k, &a) in list.iter().enumerate() {
            for &b in &list[k + 1..] {
                if !meter.charge(edge_bytes) {
                    return None;
                }
                adj[a as usize].push(b as usize);
                adj[b as usize].push(a as usize);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    Some(adj)
}

/// [`super::maximal_independent_set_metered`] over the reference overlap
/// graph: the same halving retry and scratch release.
pub(super) fn maximal_independent_set_metered_reference(
    occurrences: &[Vec<NodeId>],
    meter: &mut Meter,
) -> (Vec<usize>, usize) {
    let mut n = occurrences.len();
    loop {
        let before = meter.used();
        let adj = overlap_graph_reference(&occurrences[..n], meter);
        meter.release(meter.used() - before);
        match adj {
            Some(adj) => return (greedy_mis(n, &adj), n),
            None => n /= 2,
        }
    }
}
