//! Placement: assigning netlist nodes to fabric tiles.
//!
//! PE instances take PE tiles, register-file FIFOs take the register file
//! of a PE tile (shared with a PE instance if need be), application inputs
//! stream from memory tiles, outputs drain to I/O tiles, and pipeline
//! registers live in switch boxes along the routes (so they are not
//! placed here). A deterministic greedy seed is refined by simulated
//! annealing on total Manhattan wirelength.

use crate::fabric::{Fabric, TileId, TileKind};
use apex_fault::{ApexError, Stage};
use apex_map::{NetKind, Netlist};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Placement classes of netlist nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PlaceClass {
    /// PE compute slot (one per PE tile).
    PeSlot,
    /// Register-file slot (one per PE tile, independent of the PE slot).
    RfSlot,
    /// Memory streaming slot (two per memory tile — one per SRAM bank).
    MemSlot,
    /// I/O slot (two per I/O tile).
    IoSlot,
}

/// What class a netlist node needs, or `None` for nodes that live in the
/// interconnect (registers) .
pub fn place_class(kind: &NetKind) -> Option<PlaceClass> {
    match kind {
        NetKind::Pe(_) => Some(PlaceClass::PeSlot),
        NetKind::Fifo(_) => Some(PlaceClass::RfSlot),
        NetKind::WordInput | NetKind::BitInput => Some(PlaceClass::MemSlot),
        NetKind::WordOutput | NetKind::BitOutput => Some(PlaceClass::IoSlot),
        NetKind::Reg | NetKind::BitReg => None,
    }
}

/// A placement: netlist node → tile (placed nodes only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Tile per netlist node (`None` for interconnect registers).
    pub tile_of_node: Vec<Option<TileId>>,
    /// Total Manhattan wirelength of the collapsed netlist edges.
    pub wirelength: usize,
}

/// Placement failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// Not enough slots of a class.
    Capacity {
        /// The exhausted class.
        class: PlaceClass,
        /// Nodes needing the class.
        needed: usize,
        /// Slots available.
        available: usize,
    },
    /// The netlist is cyclic and cannot be swept topologically.
    Cyclic,
    /// A deterministic fault-injection site fired (tests only).
    Injected(&'static str),
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::Capacity {
                class,
                needed,
                available,
            } => write!(
                f,
                "fabric capacity exceeded for {class:?}: need {needed}, have {available}"
            ),
            PlaceError::Cyclic => write!(f, "netlist is cyclic"),
            PlaceError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for PlaceError {}

impl From<PlaceError> for ApexError {
    fn from(e: PlaceError) -> Self {
        ApexError::with_source(Stage::Place, e)
    }
}

/// Placement options.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaceOptions {
    /// Simulated-annealing moves.
    pub moves: usize,
    /// RNG seed (placement is fully deterministic for a given seed).
    pub seed: u64,
    /// Initial annealing temperature (in wirelength units).
    pub start_temp: f64,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            moves: 40_000,
            seed: 0xA5EED,
            start_temp: 8.0,
        }
    }
}

/// Follows an input reference through interconnect registers back to the
/// placeable producer, counting the registers traversed. `None` when the
/// walk leaves the netlist (a reference past its end, a register without
/// an input) or passes more registers than the netlist has nodes, which
/// only a register cycle can make it do.
pub fn trace_through_regs(netlist: &Netlist, mut node: u32) -> Option<(u32, u32)> {
    let mut regs = 0;
    loop {
        let n = netlist.nodes.get(node as usize)?;
        match &n.kind {
            NetKind::Reg | NetKind::BitReg if (regs as usize) < netlist.nodes.len() => {
                regs += 1;
                node = n.inputs.first()?.node;
            }
            NetKind::Reg | NetKind::BitReg => return None,
            _ => return Some((node, regs)),
        }
    }
}

/// Edges of the collapsed netlist (registers folded into the wire). An
/// input that traces to no producer ([`trace_through_regs`]) adds none.
pub fn placement_edges(netlist: &Netlist) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for (i, node) in netlist.nodes.iter().enumerate() {
        if place_class(&node.kind).is_none() {
            continue;
        }
        for r in &node.inputs {
            if let Some((src, _regs)) = trace_through_regs(netlist, r.node) {
                edges.push((src, i as u32));
            }
        }
    }
    edges
}

struct Slots {
    /// slot → tile
    tiles: Vec<TileId>,
    /// slot → occupying node
    occupant: Vec<Option<u32>>,
}

impl Slots {
    fn for_class(fabric: &Fabric, class: PlaceClass) -> Slots {
        let tiles: Vec<TileId> = match class {
            PlaceClass::PeSlot | PlaceClass::RfSlot => fabric.tiles_of(TileKind::Pe),
            PlaceClass::MemSlot => {
                let mut v = Vec::new();
                for t in fabric.tiles_of(TileKind::Mem) {
                    v.push(t);
                    v.push(t); // two banks
                }
                v
            }
            PlaceClass::IoSlot => {
                let mut v = Vec::new();
                for t in fabric.tiles_of(TileKind::Io) {
                    v.push(t);
                    v.push(t);
                }
                v
            }
        };
        let n = tiles.len();
        Slots {
            tiles,
            occupant: vec![None; n],
        }
    }
}

/// Places a netlist on the fabric.
///
/// # Errors
/// Fails if any placement class runs out of slots.
pub fn place(
    netlist: &Netlist,
    fabric: &Fabric,
    options: &PlaceOptions,
) -> Result<Placement, PlaceError> {
    apex_fault::fail_point!("place::start", PlaceError::Injected("place::start"));
    let classes = [
        PlaceClass::PeSlot,
        PlaceClass::RfSlot,
        PlaceClass::MemSlot,
        PlaceClass::IoSlot,
    ];
    // dense per-class slot tables (indexed by `ci`, not a map probe)
    let ci = |class: PlaceClass| -> usize {
        match class {
            PlaceClass::PeSlot => 0,
            PlaceClass::RfSlot => 1,
            PlaceClass::MemSlot => 2,
            PlaceClass::IoSlot => 3,
        }
    };
    let mut slots: Vec<Slots> = classes.iter().map(|&c| Slots::for_class(fabric, c)).collect();

    // capacity check
    for &class in &classes {
        let needed = netlist
            .nodes
            .iter()
            .filter(|n| place_class(&n.kind) == Some(class))
            .count();
        let available = slots[ci(class)].tiles.len();
        if needed > available {
            return Err(PlaceError::Capacity {
                class,
                needed,
                available,
            });
        }
    }

    // flat (row, col) tables: the annealing loop takes the distance
    // metric four times per move, so decode each tile's coordinates once
    // instead of dividing per call
    let mut rows = vec![0u32; fabric.len()];
    let mut cols = vec![0u32; fabric.len()];
    for t in 0..fabric.len() {
        let (r, c) = fabric.coords(TileId(t as u32));
        rows[t] = r as u32;
        cols[t] = c as u32;
    }
    let tdist = |a: TileId, b: TileId| -> usize {
        (rows[a.0 as usize].abs_diff(rows[b.0 as usize])
            + cols[a.0 as usize].abs_diff(cols[b.0 as usize])) as usize
    };

    // CSR adjacency of the collapsed netlist
    let edges = placement_edges(netlist);
    let n = netlist.nodes.len();
    let mut adj_off = vec![0u32; n + 1];
    for &(a, b) in &edges {
        adj_off[a as usize + 1] += 1;
        adj_off[b as usize + 1] += 1;
    }
    for i in 0..n {
        adj_off[i + 1] += adj_off[i];
    }
    let mut adj_to = vec![0u32; edges.len() * 2];
    let mut cursor = adj_off.clone();
    for &(a, b) in &edges {
        adj_to[cursor[a as usize] as usize] = b;
        cursor[a as usize] += 1;
        adj_to[cursor[b as usize] as usize] = a;
        cursor[b as usize] += 1;
    }
    let adj = |u: u32| -> &[u32] {
        &adj_to[adj_off[u as usize] as usize..adj_off[u as usize + 1] as usize]
    };

    // packed (row << 16 | col) per tile: both the greedy seed scan and
    // the annealing inner loop reduce a candidate's cost to shifts and
    // abs_diffs on one u32 instead of two table lookups per axis
    let tile_pos: Vec<u32> = (0..fabric.len()).map(|t| (rows[t] << 16) | cols[t]).collect();

    // greedy seed: topological sweep, each node to the free slot nearest
    // the centroid of its already-placed neighbours. Free slots live in
    // per-class parallel arrays (ascending slot index, packed position)
    // so the scan is a dense sequential pass over exactly the open slots
    // instead of an occupancy-branching walk over all of them — the
    // ascending order preserves the reference tie-break (first strict
    // improvement wins = lowest slot index)
    let order = netlist.topo_order().map_err(|_| PlaceError::Cyclic)?;
    let mut tile_of: Vec<Option<TileId>> = vec![None; netlist.nodes.len()];
    let mut slot_of: Vec<Option<(PlaceClass, usize)>> = vec![None; netlist.nodes.len()];
    let mut free_ks: Vec<Vec<u32>> = slots
        .iter()
        .map(|s| (0..s.tiles.len() as u32).collect())
        .collect();
    let mut free_pos: Vec<Vec<u32>> = slots
        .iter()
        .map(|s| s.tiles.iter().map(|t| tile_pos[t.0 as usize]).collect())
        .collect();
    // Manhattan distance decomposes into independent row and column
    // terms, so the neighbour-distance sum for every candidate row (and
    // column) comes from one counting sweep per node instead of a
    // per-slot scan over the neighbour list. Scratch reused across nodes.
    let n_rows = fabric.config.height + 1; // +1: the I/O row
    let n_cols = fabric.config.width;
    let mut row_cnt = vec![0i64; n_rows];
    let mut col_cnt = vec![0i64; n_cols];
    let mut row_cost = vec![0i64; n_rows];
    let mut col_cost = vec![0i64; n_cols];
    // cost[k] = Σ_j cnt[j] * |k - j|, via one forward + one backward pass
    fn axis_costs(cnt: &[i64], cost: &mut [i64]) {
        let (mut seen, mut acc) = (0i64, 0i64);
        for k in 0..cnt.len() {
            acc += seen;
            cost[k] = acc;
            seen += cnt[k];
        }
        let (mut seen, mut acc) = (0i64, 0i64);
        for k in (0..cnt.len()).rev() {
            acc += seen;
            cost[k] += acc;
            seen += cnt[k];
        }
    }
    let center_row = (fabric.config.height / 2) as u32;
    for &u in &order {
        let Some(class) = place_class(&netlist.nodes[u as usize].kind) else {
            continue;
        };
        row_cnt.fill(0);
        col_cnt.fill(0);
        let mut n_placed = 0usize;
        for &v in adj(u) {
            if let Some(t) = tile_of[v as usize] {
                n_placed += 1;
                row_cnt[rows[t.0 as usize] as usize] += 1;
                col_cnt[cols[t.0 as usize] as usize] += 1;
            }
        }
        let c = ci(class);
        let mut best: Option<(usize, usize)> = None; // (cost, free-list index)
        if n_placed == 0 {
            // spread unconstrained nodes deterministically (distance to
            // the (height/2, 0) centre tile)
            for (i, &p) in free_pos[c].iter().enumerate() {
                let cost = ((p >> 16).abs_diff(center_row) + (p & 0xFFFF)) as usize;
                if best.is_none_or(|(bc, _)| cost < bc) {
                    best = Some((cost, i));
                }
            }
        } else {
            axis_costs(&row_cnt, &mut row_cost);
            axis_costs(&col_cnt, &mut col_cost);
            for (i, &p) in free_pos[c].iter().enumerate() {
                let cost = (row_cost[(p >> 16) as usize] + col_cost[(p & 0xFFFF) as usize]) as usize;
                if best.is_none_or(|(bc, _)| cost < bc) {
                    best = Some((cost, i));
                }
            }
        }
        // the capacity pre-check guarantees a free slot; if that invariant
        // ever broke, report exhaustion instead of panicking
        let Some((_, i)) = best else {
            return Err(PlaceError::Capacity {
                class,
                needed: 1,
                available: 0,
            });
        };
        let k = free_ks[c][i] as usize;
        free_ks[c].remove(i);
        free_pos[c].remove(i);
        let s = &mut slots[c];
        s.occupant[k] = Some(u);
        tile_of[u as usize] = Some(s.tiles[k]);
        slot_of[u as usize] = Some((class, k));
    }

    // simulated annealing refinement
    let mut seed = options.seed | 1;
    let mut rand = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let dist = |a: Option<TileId>, b: Option<TileId>| -> usize {
        match (a, b) {
            (Some(a), Some(b)) => tdist(a, b),
            _ => 0,
        }
    };
    // packed position per node for the annealing inner loop. Every
    // adjacency endpoint is a placed placeable node (placement_edges only
    // emits placeable–placeable edges and the greedy seed placed them
    // all), so the Option indirection of `tile_of` is dead weight in the
    // per-move cost sums.
    let mut pos: Vec<u32> = tile_of
        .iter()
        .map(|t| t.map_or(0, |t| tile_pos[t.0 as usize]))
        .collect();
    let pdist = |a: u32, b: u32| -> usize {
        ((a >> 16).abs_diff(b >> 16) + (a & 0xFFFF).abs_diff(b & 0xFFFF)) as usize
    };
    let placeable: Vec<u32> = (0..netlist.nodes.len() as u32)
        .filter(|&u| slot_of[u as usize].is_some())
        .collect();
    let total_cost = |tile_of: &[Option<TileId>]| -> usize {
        edges
            .iter()
            .map(|&(a, b)| dist(tile_of[a as usize], tile_of[b as usize]))
            .sum()
    };
    let mut current = total_cost(&tile_of);
    let mut best_tiles = tile_of.clone();
    let mut best_cost = current;
    // accepted moves since `best_tiles` was last synced; replaying this
    // log on a new best reproduces `tile_of` exactly (rejected moves are
    // reverted before they could land here) without an O(nodes) clone
    let mut best_log: Vec<(u32, Option<TileId>)> = Vec::new();
    if !placeable.is_empty() {
        for step in 0..options.moves {
            let temp = options.start_temp
                * (1.0 - step as f64 / options.moves as f64).max(0.0001);
            let u = placeable[(rand() as usize) % placeable.len()];
            // `placeable` only lists nodes with a slot, and `slots` covers
            // every class; skip the move rather than panic if either breaks
            let Some((class, ku)) = slot_of[u as usize] else {
                continue;
            };
            let s = &mut slots[ci(class)];
            let kv = (rand() as usize) % s.tiles.len();
            if kv == ku {
                continue;
            }
            let v = s.occupant[kv];
            if v == Some(u) {
                continue;
            }
            // delta cost over the touched nodes' adjacency only, before
            // and after in one walk: u moves to slot kv and v, if any, to
            // u's slot; positions are written only if the move is applied
            let (pu, pv) = (pos[u as usize], tile_pos[s.tiles[kv].0 as usize]);
            let moved = |w: u32, pw: u32| -> u32 {
                if w == u {
                    pv
                } else if Some(w) == v {
                    pu
                } else {
                    pw
                }
            };
            let (mut before, mut after) = (0usize, 0usize);
            for (x, nx) in [(Some(u), pv), (v, pu)] {
                let Some(x) = x else { continue };
                let px = pos[x as usize];
                for &w in adj(x) {
                    let pw = pos[w as usize];
                    before += pdist(px, pw);
                    after += pdist(nx, moved(w, pw));
                }
            }
            let delta = after as f64 - before as f64;
            let accept = delta <= 0.0 || {
                let p = (-delta / temp).exp();
                ((rand() >> 11) as f64 / (1u64 << 53) as f64) < p
            };
            if accept {
                current = (current as f64 + delta) as usize;
                s.occupant[ku] = v;
                s.occupant[kv] = Some(u);
                slot_of[u as usize] = Some((class, kv));
                tile_of[u as usize] = Some(s.tiles[kv]);
                pos[u as usize] = pv;
                best_log.push((u, tile_of[u as usize]));
                if let Some(v) = v {
                    slot_of[v as usize] = Some((class, ku));
                    tile_of[v as usize] = Some(s.tiles[ku]);
                    pos[v as usize] = pu;
                    best_log.push((v, tile_of[v as usize]));
                }
                if current < best_cost {
                    best_cost = current;
                    for &(n, t) in &best_log {
                        best_tiles[n as usize] = t;
                    }
                    best_log.clear();
                }
            }
        }
    }

    let wirelength = total_cost(&best_tiles);
    Ok(Placement {
        tile_of_node: best_tiles,
        wirelength,
    })
}

/// Process-wide placement memo: full key string kept alongside the FNV
/// hash so a collision can never return a wrong placement (the hit is
/// verified against the key, a mismatch just recomputes).
static PLACE_MEMO: std::sync::Mutex<BTreeMap<u64, (Box<str>, Placement)>> =
    std::sync::Mutex::new(BTreeMap::new());

/// Bound on memo entries; a DSE sweep revisits the same handful of
/// (app, fabric-shape) keys, so a small table is plenty. Clearing on
/// overflow is deterministic (no LRU clock).
const PLACE_MEMO_CAP: usize = 256;

/// Everything `place` depends on: the collapsed netlist structure (node
/// placement classes + input wiring — rule indices and payloads are
/// deliberately excluded so sibling PE variants with identical collapsed
/// structure share one placement), the fabric shape, and the annealing
/// options.
fn place_memo_key(netlist: &Netlist, fabric: &Fabric, options: &PlaceOptions) -> String {
    use std::fmt::Write;
    let c = &fabric.config;
    let mut s = String::with_capacity(16 * netlist.nodes.len() + 64);
    let _ = write!(
        s,
        "f{},{},{},{},{}|o{},{},{:x}",
        c.width,
        c.height,
        c.mem_column_stride,
        c.word_tracks,
        c.bit_tracks,
        options.moves,
        options.seed,
        options.start_temp.to_bits()
    );
    for node in &netlist.nodes {
        let tag = match &node.kind {
            NetKind::WordInput => 'w',
            NetKind::BitInput => 'b',
            NetKind::Pe(_) => 'p',
            NetKind::Reg => 'r',
            NetKind::BitReg => 'q',
            NetKind::Fifo(_) => 'f',
            NetKind::WordOutput => 'o',
            NetKind::BitOutput => 'z',
        };
        s.push(';');
        s.push(tag);
        for r in &node.inputs {
            let _ = write!(s, ",{}", r.node);
        }
    }
    s
}

/// [`place`] behind a content-addressed memo keyed on the collapsed
/// netlist structure, fabric shape, and options: a DSE sweep places the
/// same (app, fabric-shape) pair once per sibling-variant family instead
/// of re-annealing it per variant. Deterministic regardless of cache
/// state — `place` is a pure function of exactly the key contents, so a
/// hit returns bit-identically what a miss would compute.
///
/// # Errors
/// Fails if any placement class runs out of slots.
pub fn place_cached(
    netlist: &Netlist,
    fabric: &Fabric,
    options: &PlaceOptions,
) -> Result<Placement, PlaceError> {
    apex_fault::fail_point!("place::start", PlaceError::Injected("place::start"));
    let key = place_memo_key(netlist, fabric, options);
    let hash = apex_fault::fnv1a(&[&key]);
    // a poisoned lock (a panicking thread mid-insert) falls back to the
    // uncached path rather than unwrapping
    if let Ok(memo) = PLACE_MEMO.lock() {
        if let Some((stored, placement)) = memo.get(&hash) {
            if **stored == *key {
                return Ok(placement.clone());
            }
        }
    }
    let placement = place(netlist, fabric, options)?;
    if let Ok(mut memo) = PLACE_MEMO.lock() {
        if memo.len() >= PLACE_MEMO_CAP {
            memo.clear();
        }
        memo.insert(hash, (key.into_boxed_str(), placement.clone()));
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use apex_map::map_application;
    use apex_pe::baseline_pe;
    use apex_rewrite::standard_ruleset;

    fn mapped_gaussian() -> (Netlist, apex_rewrite::RuleSet) {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
        let d = map_application(&app.graph, &pe.datapath, &rules).unwrap();
        (d.netlist, rules)
    }

    #[test]
    fn gaussian_places_on_default_fabric() {
        let (netlist, _) = mapped_gaussian();
        let fabric = Fabric::new(FabricConfig::default());
        let p = place(&netlist, &fabric, &PlaceOptions::default()).unwrap();
        // every placeable node has a tile of the right kind
        for (i, node) in netlist.nodes.iter().enumerate() {
            match place_class(&node.kind) {
                Some(PlaceClass::PeSlot | PlaceClass::RfSlot) => {
                    assert_eq!(fabric.kind(p.tile_of_node[i].unwrap()), TileKind::Pe);
                }
                Some(PlaceClass::MemSlot) => {
                    assert_eq!(fabric.kind(p.tile_of_node[i].unwrap()), TileKind::Mem);
                }
                Some(PlaceClass::IoSlot) => {
                    assert_eq!(fabric.kind(p.tile_of_node[i].unwrap()), TileKind::Io);
                }
                None => assert!(p.tile_of_node[i].is_none()),
            }
        }
    }

    #[test]
    fn pe_slots_are_exclusive() {
        let (netlist, _) = mapped_gaussian();
        let fabric = Fabric::new(FabricConfig::default());
        let p = place(&netlist, &fabric, &PlaceOptions::default()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for (i, node) in netlist.nodes.iter().enumerate() {
            if matches!(node.kind, NetKind::Pe(_)) {
                assert!(seen.insert(p.tile_of_node[i].unwrap()), "PE tile reused");
            }
        }
    }

    #[test]
    fn annealing_does_not_worsen_the_seed() {
        let (netlist, _) = mapped_gaussian();
        let fabric = Fabric::new(FabricConfig::default());
        let seed_only = place(
            &netlist,
            &fabric,
            &PlaceOptions {
                moves: 0,
                ..PlaceOptions::default()
            },
        )
        .unwrap();
        let annealed = place(&netlist, &fabric, &PlaceOptions::default()).unwrap();
        assert!(
            annealed.wirelength <= seed_only.wirelength,
            "annealed {} vs seed {}",
            annealed.wirelength,
            seed_only.wirelength
        );
    }

    #[test]
    fn capacity_errors_are_reported() {
        let (netlist, _) = mapped_gaussian();
        let fabric = Fabric::new(FabricConfig {
            width: 4,
            height: 4,
            ..FabricConfig::default()
        });
        let err = place(&netlist, &fabric, &PlaceOptions::default()).unwrap_err();
        assert!(matches!(err, PlaceError::Capacity { .. }));
    }

    #[test]
    fn cached_placement_matches_uncached() {
        let (netlist, _) = mapped_gaussian();
        let fabric = Fabric::new(FabricConfig::default());
        let direct = place(&netlist, &fabric, &PlaceOptions::default()).unwrap();
        // miss then hit: both must equal the uncached result exactly
        let miss = place_cached(&netlist, &fabric, &PlaceOptions::default()).unwrap();
        let hit = place_cached(&netlist, &fabric, &PlaceOptions::default()).unwrap();
        assert_eq!(direct, miss);
        assert_eq!(direct, hit);
    }

    #[test]
    fn memo_key_separates_options_and_shapes() {
        let (netlist, _) = mapped_gaussian();
        let fabric = Fabric::new(FabricConfig::default());
        let base = place_memo_key(&netlist, &fabric, &PlaceOptions::default());
        let other_seed = place_memo_key(
            &netlist,
            &fabric,
            &PlaceOptions {
                seed: 7,
                ..PlaceOptions::default()
            },
        );
        assert_ne!(base, other_seed);
        let tall = Fabric::new(FabricConfig {
            height: 20,
            ..FabricConfig::default()
        });
        assert_ne!(base, place_memo_key(&netlist, &tall, &PlaceOptions::default()));
    }

    #[test]
    fn placement_is_deterministic() {
        let (netlist, _) = mapped_gaussian();
        let fabric = Fabric::new(FabricConfig::default());
        let a = place(&netlist, &fabric, &PlaceOptions::default()).unwrap();
        let b = place(&netlist, &fabric, &PlaceOptions::default()).unwrap();
        assert_eq!(a, b);
    }
}
