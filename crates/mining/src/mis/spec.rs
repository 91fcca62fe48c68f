//! The MIS analysis's executable specification, compiled only for tests:
//! the explicit overlap graph (adjacency lists built from the
//! node → occurrence index, charged one pair sum) with the greedy
//! min-degree selection over it, and beneath that the original
//! construction that charges and pushes every co-owned pair once per
//! shared node. The properties in `mis.rs` require
//! [`super::maximal_independent_set_metered`] to match the adjacency
//! greedy in selection, analysed prefix, meter accounting and
//! provenance, and the adjacency to match the per-pair construction.

use apex_fault::Meter;
use apex_ir::NodeId;

/// Builds the overlap graph: `adj[i]` lists occurrences sharing at least
/// one application node with occurrence `i` (each list sorted ascending,
/// duplicate-free).
///
/// Built from a node → occurrence inverted index rather than all-pairs
/// node-set intersection: every application node lists the occurrences
/// containing it, and occurrence `i`'s neighbours are the owners of its
/// nodes. A stamp array (`stamp[j] == i` once `j` joined `adj[i]`) keeps
/// each list duplicate-free as it is built, so a pair sharing several
/// nodes is pushed once. Cost is Σ over occurrences of the owner lists
/// of its nodes, plus sorting the final lists — proportional to the
/// overlap actually present instead of O(n²) pairwise scans.
///
/// The inverted index and the adjacency lists are charged against `meter`
/// before they are built; `None` the moment a charge is rejected (nothing
/// partial escapes — a missing edge would let overlapping occurrences
/// masquerade as independent). The adjacency is charged
/// `C(|owners|, 2)` edge slots per index entry, in one sum: the meter
/// rejects that sum exactly when it would reject some prefix of the
/// slots charged one by one, so truncation under a byte cap does not
/// depend on how the charge is split.
pub(super) fn overlap_graph(
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
    let pairs: u64 = owners
        .iter()
        .map(|l| (l.len() as u64) * (l.len() as u64).saturating_sub(1) / 2)
        .sum();
    if !meter.charge(pairs.saturating_mul(edge_bytes)) {
        return None;
    }
    let mut stamp = vec![u32::MAX; n];
    for (i, occ) in occurrences.iter().enumerate() {
        let list = &mut adj[i];
        stamp[i] = i as u32; // no self-edge
        for &node in occ {
            for &j in &owners[node.index()] {
                if stamp[j as usize] != i as u32 {
                    stamp[j as usize] = i as u32;
                    list.push(j as usize);
                }
            }
        }
        list.sort_unstable();
    }
    Some(adj)
}

/// The node → occurrence inverted index over `occurrences` (non-empty),
/// each owner list ascending and duplicate-free; charged against `meter`
/// as it grows, `None` when a charge is rejected.
fn owner_index(occurrences: &[Vec<NodeId>], meter: &mut Meter) -> Option<Vec<Vec<u32>>> {
    let max_node = occurrences
        .iter()
        .flatten()
        .map(|id| id.index())
        .max()
        .unwrap_or(0);
    let index_bytes = ((max_node + 1) * std::mem::size_of::<Vec<u32>>()) as u64;
    if !meter.charge(index_bytes) {
        return None;
    }
    let mut owners: Vec<Vec<u32>> = vec![Vec::new(); max_node + 1];
    for (i, occ) in occurrences.iter().enumerate() {
        if !meter.charge((occ.len() * std::mem::size_of::<u32>()) as u64) {
            return None;
        }
        for &node in occ {
            let slot = &mut owners[node.index()];
            // occurrence node sets are deduplicated, but stay correct for
            // callers that pass repeated nodes
            if slot.last() != Some(&(i as u32)) {
                slot.push(i as u32);
            }
        }
    }
    Some(owners)
}

/// The per-pair-charging overlap graph, retained as the specification of
/// [`overlap_graph`]; it is not used on any production path.
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

/// The adjacency-list greedy, retained as the specification of
/// [`super::maximal_independent_set_metered`]: the same halving retry
/// and scratch release, over an explicit overlap graph.
pub(super) fn maximal_independent_set_metered_reference(
    occurrences: &[Vec<NodeId>],
    meter: &mut Meter,
) -> (Vec<usize>, usize) {
    let mut n = occurrences.len();
    loop {
        let before = meter.used();
        let adj = overlap_graph(&occurrences[..n], meter);
        meter.release(meter.used() - before);
        match adj {
            Some(adj) => return (greedy_mis(n, &adj), n),
            None => n /= 2,
        }
    }
}

/// The greedy min-degree selection over a built overlap graph.
fn greedy_mis(n: usize, adj: &[Vec<usize>]) -> Vec<usize> {
    let mut alive = vec![true; n];
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut chosen = Vec::new();
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
        for &u in &adj[v] {
            if alive[u] {
                alive[u] = false;
                for &w in &adj[u] {
                    degree[w] = degree[w].saturating_sub(1);
                }
            }
        }
    }
    chosen.sort_unstable();
    chosen
}
