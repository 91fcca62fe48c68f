//! Routing: negotiated-congestion maze routing over the switch-box
//! track graph (a PathFinder-style rip-up-and-reroute loop), plus the
//! post-route verification that stands in for the paper's Verilog
//! simulation of the configured fabric.
//!
//! One engine lives here. It runs on a [`RouteGraph`] — a CSR adjacency
//! over the fabric tiles with dense per-edge usage and history arrays,
//! stamp-array Dijkstra state, and a reusable lazy-deletion heap — and
//! rips up **incrementally**: after the first negotiation round only the
//! nets crossing over-capacity links are re-routed. The original
//! `BTreeMap`-backed full-reroute router is kept as a test-only
//! executable specification in the `spec` child module; its property
//! suite pins the first round and every shortest-path query of this
//! engine to it.

use crate::fabric::{Fabric, TileId};
use crate::place::{place_class, trace_through_regs, Placement};
use apex_fault::{ApexError, Budget, Provenance, Stage};
use apex_ir::ValueType;
use apex_map::Netlist;
use apex_rewrite::RuleSet;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::OnceLock;

/// One routed point-to-point connection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutedEdge {
    /// Consuming netlist node.
    pub consumer: u32,
    /// Input slot of the consumer.
    pub slot: usize,
    /// Producing (placeable) netlist node after folding registers.
    pub producer: u32,
    /// Tile path from producer to consumer (inclusive; length 1 when they
    /// share a tile).
    pub path: Vec<TileId>,
    /// Pipeline registers this connection must absorb in switch boxes.
    pub regs: u32,
    /// Whether the connection is 16-bit (`false` = 1-bit track).
    pub word: bool,
}

impl RoutedEdge {
    /// Number of tile-to-tile hops.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// A complete routing.
///
/// [`Routing::signal_hops`] is memoized: the stats/energy pipeline asks
/// for it repeatedly and the answer never changes for a given routing.
/// The cache is identity-transparent — equality and serialization ignore
/// it (mirroring the mining `Pattern::canonical_code` cache).
#[derive(Clone, Serialize, Deserialize)]
pub struct Routing {
    /// All routed connections.
    pub routes: Vec<RoutedEdge>,
    /// Registers that could not be absorbed by switch boxes along their
    /// route (route shorter than the register count); these are modelled
    /// as stacked SB registers and should stay near zero.
    pub overflow_regs: usize,
    /// Rip-up/reroute iterations used.
    pub iterations: usize,
    /// How the negotiation loop ended (always [`Provenance::Completed`]
    /// unless the stage budget tripped after the final round finished).
    pub provenance: Provenance,
    /// Memoized [`Routing::signal_hops`] (a routing is only ever paired
    /// with the fabric it was routed on, so one cached value suffices).
    signal_hops_cache: OnceLock<usize>,
}

impl PartialEq for Routing {
    fn eq(&self, other: &Self) -> bool {
        self.routes == other.routes
            && self.overflow_regs == other.overflow_regs
            && self.iterations == other.iterations
            && self.provenance == other.provenance
    }
}

impl std::fmt::Debug for Routing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // the memo cache is display state, not identity: keep warm and
        // cold routings Debug-identical (the determinism suite
        // fingerprints artifacts via their Debug rendering)
        f.debug_struct("Routing")
            .field("routes", &self.routes)
            .field("overflow_regs", &self.overflow_regs)
            .field("iterations", &self.iterations)
            .field("provenance", &self.provenance)
            .finish()
    }
}

impl Routing {
    fn new(
        routes: Vec<RoutedEdge>,
        overflow_regs: usize,
        iterations: usize,
        provenance: Provenance,
    ) -> Self {
        Routing {
            routes,
            overflow_regs,
            iterations,
            provenance,
            signal_hops_cache: OnceLock::new(),
        }
    }

    /// Total hops across all connections.
    pub fn total_hops(&self) -> usize {
        self.routes.iter().map(RoutedEdge::hops).sum()
    }

    /// Hops counted per *distinct signal* per link: fanout branches of a
    /// net share the wire, so this (not [`Routing::total_hops`]) is the
    /// physically switching wire count used for energy accounting.
    ///
    /// Computed once and cached; callers must always pass the fabric the
    /// routing was produced on (every call site does — routings are not
    /// portable across fabrics).
    pub fn signal_hops(&self, fabric: &crate::fabric::Fabric) -> usize {
        *self.signal_hops_cache.get_or_init(|| {
            let mut seen: Vec<(usize, bool, u32)> = Vec::with_capacity(self.total_hops());
            for r in &self.routes {
                for w in r.path.windows(2) {
                    seen.push((fabric.link(w[0], w[1]), r.word, r.producer));
                }
            }
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        })
    }

    /// Registers physically absorbed in switch boxes.
    pub fn sb_regs(&self) -> usize {
        self.routes.iter().map(|r| r.regs as usize).sum()
    }
}

/// Routing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// Congestion could not be resolved within the iteration budget.
    Congested {
        /// Links still over capacity.
        overused_links: usize,
    },
    /// A connection's endpoints were not placed.
    Unplaced {
        /// The offending consumer.
        node: u32,
    },
    /// The stage budget expired before a capacity-clean routing existed.
    Exhausted {
        /// How the budget tripped (timeout / step budget / cancellation).
        provenance: Provenance,
    },
    /// A deterministic fault-injection site fired (tests only).
    Injected(&'static str),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Congested { overused_links } => {
                write!(f, "unresolved congestion on {overused_links} links")
            }
            RouteError::Unplaced { node } => write!(f, "node {node} is not placed"),
            RouteError::Exhausted { provenance } => {
                write!(f, "routing budget exhausted ({provenance})")
            }
            RouteError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for RouteError {}

impl From<RouteError> for ApexError {
    fn from(e: RouteError) -> Self {
        ApexError::with_source(Stage::Route, e)
    }
}

/// Routing options.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteOptions {
    /// Maximum rip-up/reroute rounds.
    pub max_iterations: usize,
    /// History-cost increment per overused link per round.
    pub history_increment: f64,
    /// Wall-clock / step budget for the negotiation loop.
    pub budget: Budget,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            max_iterations: 10,
            history_increment: 2.0,
            budget: Budget::unlimited(),
        }
    }
}

impl RouteOptions {
    /// A relaxed variant for congestion-retry degradation: more
    /// negotiation rounds and gentler history growth so PathFinder can
    /// spread nets instead of thrashing.
    pub fn relaxed(&self) -> RouteOptions {
        RouteOptions {
            max_iterations: self.max_iterations.saturating_mul(3).max(30),
            history_increment: self.history_increment * 0.5,
            budget: self.budget.clone(),
        }
    }
}

/// The connections that need routes: every input edge of a placed node,
/// with interconnect registers folded onto the wire.
pub fn connections(netlist: &Netlist, rules: &RuleSet) -> Vec<(u32, usize, u32, u32, bool)> {
    let mut out = Vec::new();
    for (i, node) in netlist.nodes.iter().enumerate() {
        if place_class(&node.kind).is_none() {
            continue;
        }
        let in_tys = netlist.input_types(i as u32, rules);
        for (slot, r) in node.inputs.iter().enumerate() {
            let (producer, regs) = trace_through_regs(netlist, r.node);
            let word = in_tys[slot] == ValueType::Word;
            out.push((i as u32, slot, producer, regs, word));
        }
    }
    out
}

/// CSR adjacency over the fabric's directed tile-to-tile links, built
/// once per fabric. Edge `e` of tile `u` (in [`Fabric::neighbours`]
/// order: up, down, left, right) gets the dense id `off[u] + e`; per-edge
/// routing state (usage, history, track assignment) indexes
/// `edge * 2 + word` instead of sparse `(from * len + to, word)` maps.
pub struct RouteGraph {
    /// CSR row offsets, one per tile plus a terminator.
    off: Vec<u32>,
    /// Target tile per CSR edge.
    to: Vec<u32>,
}

impl RouteGraph {
    /// Builds the CSR adjacency for a fabric.
    pub fn new(fabric: &Fabric) -> Self {
        let n = fabric.len();
        let mut off = Vec::with_capacity(n + 1);
        let mut to = Vec::with_capacity(n * 4);
        off.push(0u32);
        for t in 0..n as u32 {
            for v in fabric.neighbours(TileId(t)) {
                to.push(v.0);
            }
            off.push(to.len() as u32);
        }
        RouteGraph { off, to }
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.to.len()
    }

    /// The dense edge id of a directed adjacent link, or `None` when the
    /// tiles are not fabric neighbours.
    pub fn edge_of(&self, from: TileId, to: TileId) -> Option<usize> {
        let lo = *self.off.get(from.0 as usize)? as usize;
        let hi = *self.off.get(from.0 as usize + 1)? as usize;
        (lo..hi).find(|&e| self.to[e] == to.0)
    }
}

/// Reusable per-route state: dense usage/history arrays over
/// `(edge, word)` and stamp-array Dijkstra scratch (no per-net
/// allocation; clearing is O(touched), not O(edges)).
struct RouterState {
    /// Producers carrying a signal on `(edge, word)`; indexed
    /// `edge * 2 + word`. Small vectors — a link carries at most a few
    /// distinct signals.
    usage: Vec<Vec<u32>>,
    /// `(edge, word)` slots ever used this `route()` call (deduped).
    touched: Vec<u32>,
    touched_mark: Vec<bool>,
    /// Negotiated-congestion history per `(edge, word)`.
    history: Vec<f64>,
    /// Dijkstra scratch, valid only where `stamp == cur`.
    dist: Vec<f64>,
    prev: Vec<u32>,
    stamp: Vec<u32>,
    cur: u32,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Scratch mark for the over-capacity edge set (incremental rip-up).
    over_mark: Vec<bool>,
}

const NO_PREV: u32 = u32::MAX;

impl RouterState {
    fn new(graph: &RouteGraph, n_tiles: usize) -> Self {
        let slots = graph.n_edges() * 2;
        RouterState {
            usage: vec![Vec::new(); slots],
            touched: Vec::new(),
            touched_mark: vec![false; slots],
            history: vec![0.0; slots],
            dist: vec![f64::INFINITY; n_tiles],
            prev: vec![NO_PREV; n_tiles],
            stamp: vec![0; n_tiles],
            cur: 0,
            heap: BinaryHeap::new(),
            over_mark: vec![false; slots],
        }
    }

    fn add_usage(&mut self, idx: usize, producer: u32) {
        let v = &mut self.usage[idx];
        if !v.contains(&producer) {
            v.push(producer);
            if !self.touched_mark[idx] {
                self.touched_mark[idx] = true;
                self.touched.push(idx as u32);
            }
        }
    }

    fn remove_usage(&mut self, idx: usize, producer: u32) {
        let v = &mut self.usage[idx];
        if let Some(p) = v.iter().position(|&x| x == producer) {
            // membership and count are all that matter; order is not
            v.swap_remove(p);
        }
    }

    fn clear_usage(&mut self) {
        for &idx in &self.touched {
            self.usage[idx as usize].clear();
            self.touched_mark[idx as usize] = false;
        }
        self.touched.clear();
    }

    /// Touched `(edge, word)` slots currently over their track capacity.
    fn overused(&self, wcap: usize, bcap: usize) -> Vec<u32> {
        self.touched
            .iter()
            .copied()
            .filter(|&idx| {
                let cap = if idx & 1 == 1 { wcap } else { bcap };
                self.usage[idx as usize].len() > cap
            })
            .collect()
    }

    /// Dijkstra over the CSR graph with congestion-aware link costs —
    /// arithmetic-identical to the spec's `shortest_path_reference`
    /// (same quantized heap keys, same epsilons, same neighbour order),
    /// so the two produce the same paths bit for bit.
    fn shortest(
        &mut self,
        graph: &RouteGraph,
        src: TileId,
        dst: TileId,
        word: bool,
        producer: u32,
        capacity: usize,
    ) -> Vec<TileId> {
        if src == dst {
            return vec![src];
        }
        self.cur += 1;
        let stamp = self.cur;
        self.heap.clear();
        self.dist[src.0 as usize] = 0.0;
        self.prev[src.0 as usize] = NO_PREV;
        self.stamp[src.0 as usize] = stamp;
        self.heap.push(Reverse((0, src.0)));
        while let Some(Reverse((d_milli, u))) = self.heap.pop() {
            let d = d_milli as f64 / 1000.0;
            let du = if self.stamp[u as usize] == stamp {
                self.dist[u as usize]
            } else {
                f64::INFINITY
            };
            if d > du + 1e-9 {
                continue;
            }
            if u == dst.0 {
                break;
            }
            let lo = self.off_at(graph, u);
            let hi = self.off_at(graph, u + 1);
            for e in lo..hi {
                let v = graph.to[e];
                let idx = e * 2 + usize::from(word);
                let prods = &self.usage[idx];
                let carries_me = prods.contains(&producer);
                let used = prods.len();
                let cost = if carries_me {
                    0.05 // the wire already exists; branch at the switch box
                } else {
                    let congestion = if used >= capacity {
                        5.0 * (used - capacity + 1) as f64
                    } else {
                        0.2 * used as f64 / capacity as f64
                    };
                    1.0 + congestion + self.history[idx]
                };
                let nd = d + cost;
                let dv = if self.stamp[v as usize] == stamp {
                    self.dist[v as usize]
                } else {
                    f64::INFINITY
                };
                if nd + 1e-9 < dv {
                    self.dist[v as usize] = nd;
                    self.prev[v as usize] = u;
                    self.stamp[v as usize] = stamp;
                    self.heap.push(Reverse(((nd * 1000.0) as u64, v)));
                }
            }
        }
        // reconstruct
        let mut path = vec![dst];
        let mut cur = dst.0;
        while cur != src.0 {
            // invariant: the fabric grid is fully connected, so Dijkstra
            // always reaches dst and every hop has a predecessor; a broken
            // chain yields a non-contiguous path that `verify_routed`
            // rejects
            if self.stamp[cur as usize] != stamp {
                break;
            }
            let p = self.prev[cur as usize];
            if p == NO_PREV {
                break;
            }
            cur = p;
            path.push(TileId(cur));
        }
        path.reverse();
        path
    }

    fn off_at(&self, graph: &RouteGraph, u: u32) -> usize {
        graph.off[u as usize] as usize
    }
}

/// Routes a placed netlist on the CSR engine.
///
/// Round one routes every net; each later round rips up and re-routes
/// only the nets crossing over-capacity links (incremental PathFinder).
/// Round one replays the spec's full-reroute `route_reference` bit for
/// bit, so a routing that converges in one round is identical to it.
///
/// # Errors
/// Fails when congestion cannot be resolved or endpoints are unplaced.
pub fn route(
    netlist: &Netlist,
    rules: &RuleSet,
    fabric: &Fabric,
    placement: &Placement,
    options: &RouteOptions,
) -> Result<Routing, RouteError> {
    apex_fault::fail_point!("route::start", RouteError::Injected("route::start"));
    let conns = connections(netlist, rules);
    let graph = RouteGraph::new(fabric);
    let mut st = RouterState::new(&graph, fabric.len());
    let mut routes: Vec<RoutedEdge> = Vec::with_capacity(conns.len());
    let mut meter = options.budget.start();
    let wcap = fabric.config.word_tracks;
    let bcap = fabric.config.bit_tracks;

    // reroutes one connection and accumulates its usage
    let route_one = |st: &mut RouterState,
                     meter: &mut apex_fault::Meter,
                     (consumer, slot, producer, regs, word): (u32, usize, u32, u32, bool)|
     -> Result<RoutedEdge, RouteError> {
        if !meter.tick() {
            return Err(RouteError::Exhausted {
                provenance: meter.provenance(),
            });
        }
        let src = placement.tile_of_node[producer as usize]
            .ok_or(RouteError::Unplaced { node: producer })?;
        let dst = placement.tile_of_node[consumer as usize]
            .ok_or(RouteError::Unplaced { node: consumer })?;
        let capacity = if word { wcap } else { bcap };
        let path = st.shortest(&graph, src, dst, word, producer, capacity);
        for w in path.windows(2) {
            // invariant: consecutive path tiles are fabric neighbours (the
            // Dijkstra walked real CSR edges), so the edge id exists
            if let Some(e) = graph.edge_of(w[0], w[1]) {
                st.add_usage(e * 2 + usize::from(word), producer);
            }
        }
        Ok(RoutedEdge {
            consumer,
            slot,
            producer,
            regs,
            word,
            path,
        })
    };

    let mut overused: Vec<u32> = Vec::new();
    for round in 0..options.max_iterations {
        if !meter.check_slow() {
            return Err(RouteError::Exhausted {
                provenance: meter.provenance(),
            });
        }
        let iterations = round + 1;
        if round == 0 {
            // full negotiation round: every net re-routed from scratch
            st.clear_usage();
            routes.clear();
            for &conn in &conns {
                routes.push(route_one(&mut st, &mut meter, conn)?);
            }
        } else {
            // incremental rip-up: only nets crossing an over-capacity
            // link are torn out and re-routed; everyone else keeps both
            // their path and their claim on the track graph
            for &idx in &overused {
                st.over_mark[idx as usize] = true;
            }
            let mut ripped: std::collections::BTreeSet<(u32, bool)> =
                std::collections::BTreeSet::new();
            for r in &routes {
                for w in r.path.windows(2) {
                    let Some(e) = graph.edge_of(w[0], w[1]) else {
                        continue;
                    };
                    if st.over_mark[e * 2 + usize::from(r.word)] {
                        ripped.insert((r.producer, r.word));
                        break;
                    }
                }
            }
            for &idx in &overused {
                st.over_mark[idx as usize] = false;
            }
            // a net is a (producer, signal-kind) pair: all fanout branches
            // share wires, so rip-up removes the whole net before any
            // branch re-routes (partial removal would corrupt the shared
            // usage counts)
            for r in &routes {
                if !ripped.contains(&(r.producer, r.word)) {
                    continue;
                }
                for w in r.path.windows(2) {
                    if let Some(e) = graph.edge_of(w[0], w[1]) {
                        st.remove_usage(e * 2 + usize::from(r.word), r.producer);
                    }
                }
            }
            for (i, &conn) in conns.iter().enumerate() {
                let (_, _, producer, _, word) = conn;
                if !ripped.contains(&(producer, word)) {
                    continue;
                }
                routes[i] = route_one(&mut st, &mut meter, conn)?;
            }
        }
        // congestion check: distinct signals per link vs track count
        overused = st.overused(wcap, bcap);
        if overused.is_empty() {
            let overflow_regs = routes
                .iter()
                .map(|r| (r.regs as usize).saturating_sub(r.hops()))
                .sum();
            return Ok(Routing::new(routes, overflow_regs, iterations, meter.provenance()));
        }
        for &idx in &overused {
            st.history[idx as usize] += options.history_increment;
        }
    }
    Err(RouteError::Congested {
        overused_links: overused.len(),
    })
}

/// Post-route verification — our substitute for simulating the configured
/// CGRA Verilog with VCS (paper Section 4, step 3c): checks that every
/// netlist connection has a contiguous route between the placed endpoint
/// tiles and that no link exceeds its track capacity.
///
/// # Errors
/// Returns a description of the first inconsistency.
pub fn verify_routed(
    netlist: &Netlist,
    rules: &RuleSet,
    fabric: &Fabric,
    placement: &Placement,
    routing: &Routing,
) -> Result<(), String> {
    let conns = connections(netlist, rules);
    if conns.len() != routing.routes.len() {
        return Err(format!(
            "expected {} routes, found {}",
            conns.len(),
            routing.routes.len()
        ));
    }
    let mut usage: BTreeMap<(usize, bool), std::collections::BTreeSet<u32>> = BTreeMap::new();
    for r in &routing.routes {
        let src = placement.tile_of_node[r.producer as usize]
            .ok_or_else(|| format!("producer {} unplaced", r.producer))?;
        let dst = placement.tile_of_node[r.consumer as usize]
            .ok_or_else(|| format!("consumer {} unplaced", r.consumer))?;
        if r.path.first() != Some(&src) || r.path.last() != Some(&dst) {
            return Err(format!(
                "route {}→{} does not connect its endpoints",
                r.producer, r.consumer
            ));
        }
        for w in r.path.windows(2) {
            if fabric.distance(w[0], w[1]) != 1 {
                return Err("route hops between non-adjacent tiles".into());
            }
            usage
                .entry((fabric.link(w[0], w[1]), r.word))
                .or_default()
                .insert(r.producer);
        }
    }
    for (&(_, word), signals) in &usage {
        let cap = if word {
            fabric.config.word_tracks
        } else {
            fabric.config.bit_tracks
        };
        if signals.len() > cap {
            return Err(format!("link over capacity: {} > {cap}", signals.len()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod spec;

#[cfg(test)]
mod tests {
    use super::spec::{route_reference, shortest_path_reference};
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::place::{place, PlaceOptions};
    use apex_map::map_application;
    use apex_pe::baseline_pe;
    use apex_rewrite::standard_ruleset;

    fn routed_gaussian() -> (Netlist, RuleSet, Fabric, Placement, Routing) {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
        let d = map_application(&app.graph, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(&d.netlist, &fabric, &PlaceOptions::default()).unwrap();
        let routing = route(&d.netlist, &rules, &fabric, &placement, &RouteOptions::default())
            .unwrap();
        (d.netlist, rules, fabric, placement, routing)
    }

    #[test]
    fn gaussian_routes_within_capacity() {
        let (netlist, rules, fabric, placement, routing) = routed_gaussian();
        verify_routed(&netlist, &rules, &fabric, &placement, &routing).unwrap();
        assert!(routing.total_hops() > 0);
        assert_eq!(routing.overflow_regs, 0);
    }

    #[test]
    fn route_count_matches_connection_count() {
        let (netlist, rules, _, _, routing) = routed_gaussian();
        assert_eq!(routing.routes.len(), connections(&netlist, &rules).len());
    }

    #[test]
    fn csr_engine_matches_reference_on_gaussian() {
        let (netlist, rules, fabric, placement, routing) = routed_gaussian();
        let reference = route_reference(
            &netlist,
            &rules,
            &fabric,
            &placement,
            &RouteOptions::default(),
        )
        .unwrap();
        assert_eq!(routing, reference);
    }

    #[test]
    fn signal_hops_is_cached_and_stable() {
        let (_, _, fabric, _, routing) = routed_gaussian();
        let first = routing.signal_hops(&fabric);
        assert!(first > 0);
        assert_eq!(routing.signal_hops(&fabric), first);
        // the cache is identity-transparent: a fresh clone of the same
        // routing computes the same number from scratch
        let cold = Routing::new(
            routing.routes.clone(),
            routing.overflow_regs,
            routing.iterations,
            routing.provenance,
        );
        assert_eq!(cold.signal_hops(&fabric), first);
        assert_eq!(cold, routing);
    }

    #[test]
    fn paths_are_shortest_when_uncongested() {
        let (_, _, fabric, _, routing) = routed_gaussian();
        // at least half the routes should be at Manhattan distance (light
        // congestion on a 32x16 array)
        let tight = routing
            .routes
            .iter()
            .filter(|r| r.hops() == fabric.distance(r.path[0], *r.path.last().unwrap()))
            .count();
        assert!(tight * 2 >= routing.routes.len());
    }

    #[test]
    fn congestion_fails_gracefully_on_tiny_fabrics() {
        // a 2-wide fabric with 1 track cannot carry gaussian
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
        let d = map_application(&app.graph, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig {
            width: 30,
            height: 10,
            word_tracks: 1,
            bit_tracks: 1,
            ..FabricConfig::default()
        });
        match place(&d.netlist, &fabric, &PlaceOptions::default()) {
            Err(_) => {} // capacity error is acceptable
            Ok(placement) => {
                let r = route(
                    &d.netlist,
                    &rules,
                    &fabric,
                    &placement,
                    &RouteOptions {
                        max_iterations: 2,
                        ..RouteOptions::default()
                    },
                );
                // either it squeezes through or reports congestion cleanly
                if let Err(e) = r {
                    assert!(matches!(e, RouteError::Congested { .. }));
                }
            }
        }
    }

    #[test]
    fn zero_deadline_reports_exhausted_budget() {
        let (netlist, rules, fabric, placement, _) = routed_gaussian();
        let err = route(
            &netlist,
            &rules,
            &fabric,
            &placement,
            &RouteOptions {
                budget: Budget::unlimited()
                    .with_deadline(std::time::Duration::ZERO),
                ..RouteOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            RouteError::Exhausted {
                provenance: Provenance::TimedOut
            }
        );
    }

    #[test]
    fn same_tile_connection_has_empty_route() {
        let f = Fabric::new(FabricConfig::default());
        let p = shortest_path_reference(
            &f,
            f.at(1, 1),
            f.at(1, 1),
            true,
            0,
            5,
            &BTreeMap::new(),
            &BTreeMap::new(),
        );
        assert_eq!(p.len(), 1);
        let graph = RouteGraph::new(&f);
        let mut st = RouterState::new(&graph, f.len());
        let p = st.shortest(&graph, f.at(1, 1), f.at(1, 1), true, 0, 5);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn route_graph_edges_cover_every_neighbour_pair() {
        let f = Fabric::new(FabricConfig::default());
        let g = RouteGraph::new(&f);
        let mut edges = 0usize;
        for t in 0..f.len() as u32 {
            for v in f.neighbours(TileId(t)) {
                assert!(g.edge_of(TileId(t), v).is_some());
                edges += 1;
            }
        }
        assert_eq!(edges, g.n_edges());
        // non-adjacent pairs have no edge
        assert_eq!(g.edge_of(f.at(0, 0), f.at(2, 0)), None);
        assert_eq!(g.edge_of(f.at(0, 0), f.at(0, 0)), None);
    }
}
