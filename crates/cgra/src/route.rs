//! Routing: negotiated-congestion maze routing over the switch-box
//! track graph (a PathFinder-style rip-up-and-reroute loop), plus the
//! post-route verification that stands in for the paper's Verilog
//! simulation of the configured fabric.
//!
//! One engine lives here. Each [`route`] call fills a [`RouteGraph`] — a
//! padded adjacency over the fabric tiles, four link ids per tile (see
//! [`Fabric::edge`]) — and a router state with dense per-link usage
//! counts and history, stamp-array Dijkstra scratch, and a reusable heap
//! of packed `u64` entries. It rips up **incrementally**: after the
//! first negotiation round only the nets crossing over-capacity links
//! are re-routed. [`verify_routed`] and the bitstream's track assignment
//! index the same dense link ids straight from [`Fabric::edge`], without
//! a graph. The original `BTreeMap`-backed full-reroute router is kept
//! as a test-only executable specification in the `spec` child module;
//! its property suite pins the first round and every shortest-path query
//! of this engine to it.

use crate::fabric::{Fabric, TileId};
use crate::place::{place_class, trace_through_regs, Placement};
use apex_fault::{ApexError, Budget, Provenance, Stage};
use apex_map::{NetKind, Netlist};
use apex_rewrite::RuleSet;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    /// The netlist leaves a connection undefined.
    Netlist(NetDefect),
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
            RouteError::Netlist(d) => write!(f, "{d}"),
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

/// A netlist defect that leaves the connections to route undefined (see
/// [`connections`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDefect {
    /// The PE at this node instantiates a rule the rule set lacks.
    UnknownRule(u32),
    /// The input at this slot of this node traces to no producer
    /// ([`trace_through_regs`]): it leaves the netlist or runs around a
    /// register cycle.
    Untraceable(u32, usize),
}

impl std::fmt::Display for NetDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetDefect::UnknownRule(node) => write!(f, "node {node} instantiates an unknown rule"),
            NetDefect::Untraceable(node, slot) => {
                write!(f, "input {slot} of node {node} traces to no producer")
            }
        }
    }
}

/// A connection that needs a route: consumer node, input slot, producer
/// node, interconnect registers folded onto the wire, and whether the
/// signal is 16-bit.
pub type Connection = (u32, usize, u32, u32, bool);

/// The connections that need routes: every input edge of a placed node,
/// with interconnect registers folded onto the wire.
///
/// # Errors
/// The first node, in netlist order, whose connections are undefined.
pub fn connections(netlist: &Netlist, rules: &RuleSet) -> Result<Vec<Connection>, NetDefect> {
    let mut out = Vec::new();
    for (i, node) in netlist.nodes.iter().enumerate() {
        if place_class(&node.kind).is_none() {
            continue;
        }
        // a node's word inputs come first (`Netlist::input_types`)
        let n_word = match &node.kind {
            NetKind::Pe(inst) => match rules.rules.get(inst.rule as usize) {
                Some(rule) => rule.config.word_input_map.len(),
                None => return Err(NetDefect::UnknownRule(i as u32)),
            },
            NetKind::Fifo(_) | NetKind::WordOutput => 1,
            _ => 0,
        };
        for (slot, r) in node.inputs.iter().enumerate() {
            let (producer, regs) = trace_through_regs(netlist, r.node)
                .ok_or(NetDefect::Untraceable(i as u32, slot))?;
            out.push((i as u32, slot, producer, regs, slot < n_word));
        }
    }
    Ok(out)
}

/// The fabric's directed tile-to-tile links as a padded adjacency: link
/// `tile * 4 + d` (the dense id of [`Fabric::edge`]) leads to tile
/// `to[tile * 4 + d]`, or nowhere on the fabric's border. It is filled
/// from coordinates, one array per [`route`] call. Per-link routing state
/// (usage, history, track assignment) indexes `edge * 2 + word`.
pub(crate) struct RouteGraph {
    /// Target tile per link id, [`NO_TILE`] where the border cuts it.
    to: Vec<u32>,
}

/// Marks a link id that leads off the fabric.
const NO_TILE: u32 = u32::MAX;

impl RouteGraph {
    /// Builds the adjacency for a fabric.
    pub(crate) fn new(fabric: &Fabric) -> Self {
        let (w, n) = (fabric.config.width, fabric.len());
        let mut to = vec![NO_TILE; fabric.edge_ids()];
        for t in 0..n {
            let (c, links) = (t % w, &mut to[t * 4..t * 4 + 4]);
            if t >= w {
                links[0] = (t - w) as u32;
            }
            if t + w < n {
                links[1] = (t + w) as u32;
            }
            if c > 0 {
                links[2] = (t - 1) as u32;
            }
            if c + 1 < w {
                links[3] = (t + 1) as u32;
            }
        }
        RouteGraph { to }
    }
}

/// One tile's Dijkstra scratch, valid only where `stamp` is the current
/// query's.
#[derive(Clone, Copy)]
struct Visit {
    dist: f64,
    prev: u32,
    stamp: u32,
}

/// Reusable per-route state: dense usage/history arrays over
/// `(edge, word)` and stamp-array Dijkstra scratch (no per-net
/// allocation; clearing is O(touched), not O(edges)).
struct RouterState {
    /// Distinct signals on each `(edge, word)` slot, indexed
    /// `edge * 2 + word`: the relaxation reads this count first, so an
    /// empty slot costs one load.
    count: Vec<u32>,
    /// The producers behind `count`. Small vectors — a link carries at
    /// most a few distinct signals.
    usage: Vec<Vec<u32>>,
    /// `(edge, word)` slots ever used this `route()` call (deduped).
    touched: Vec<u32>,
    touched_mark: Vec<bool>,
    /// Negotiated-congestion history per `(edge, word)`.
    history: Vec<f64>,
    visit: Vec<Visit>,
    cur: u32,
    /// Heap entries pack `(key << tile_bits) | tile`, so they pop in the
    /// `(key, tile)` order of a tuple heap; see [`RouterState::entry`].
    heap: BinaryHeap<Reverse<u64>>,
    tile_bits: u32,
    /// Scratch mark for the over-capacity edge set (incremental rip-up).
    over_mark: Vec<bool>,
}

const NO_PREV: u32 = u32::MAX;

impl RouterState {
    fn new(fabric: &Fabric) -> Self {
        let slots = fabric.edge_ids() * 2;
        let n_tiles = fabric.len();
        RouterState {
            count: vec![0; slots],
            usage: vec![Vec::new(); slots],
            touched: Vec::new(),
            touched_mark: vec![false; slots],
            history: vec![0.0; slots],
            visit: vec![
                Visit {
                    dist: f64::INFINITY,
                    prev: NO_PREV,
                    stamp: 0,
                };
                n_tiles
            ],
            cur: 0,
            heap: BinaryHeap::new(),
            tile_bits: usize::BITS - (n_tiles.max(2) - 1).leading_zeros(),
            over_mark: vec![false; slots],
        }
    }

    /// The heap entry of `tile` at path cost `dist`: the cost in
    /// thousandths (the quantized key) above the tile bits. The key is
    /// clamped to the `64 - tile_bits` bits left for it, which is
    /// 2^54 thousandths (1.8·10^13 cost units) on the default 544-tile
    /// fabric and at least 2^32 thousandths on any fabric. A hop costs at
    /// most `1 + 5·signals + history`, and history grows by
    /// `history_increment` per negotiation round, so a path needs an
    /// astronomic history before its key reaches the clamp; below it the
    /// packed order is exactly the `(key, tile)` order.
    fn entry(&self, dist: f64, tile: u32) -> u64 {
        let key = ((dist * 1000.0) as u64).min(u64::MAX >> self.tile_bits);
        (key << self.tile_bits) | u64::from(tile)
    }

    fn add_usage(&mut self, idx: usize, producer: u32) {
        let v = &mut self.usage[idx];
        if !v.contains(&producer) {
            v.push(producer);
            self.count[idx] += 1;
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
            self.count[idx] -= 1;
        }
    }

    fn clear_usage(&mut self) {
        for &idx in &self.touched {
            self.usage[idx as usize].clear();
            self.count[idx as usize] = 0;
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
                self.count[idx as usize] as usize > cap
            })
            .collect()
    }

    /// Dijkstra over the padded adjacency with congestion-aware link
    /// costs — arithmetic-identical to the spec's
    /// `shortest_path_reference` (same quantized keys, same `(key, tile)`
    /// pop order, same epsilons, same neighbour order), so the two
    /// produce the same paths bit for bit.
    ///
    /// An entry that would pop after dst's current entry is never
    /// pushed: the search stops at dst, so it could never be expanded.
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
        let tile_mask = (1u64 << self.tile_bits) - 1;
        self.heap.clear();
        self.visit[src.0 as usize] = Visit {
            dist: 0.0,
            prev: NO_PREV,
            stamp,
        };
        self.heap.push(Reverse(self.entry(0.0, src.0)));
        let mut dst_entry = u64::MAX;
        while let Some(Reverse(packed)) = self.heap.pop() {
            let u = (packed & tile_mask) as u32;
            let d = (packed >> self.tile_bits) as f64 / 1000.0;
            let at_u = self.visit[u as usize];
            let du = if at_u.stamp == stamp {
                at_u.dist
            } else {
                f64::INFINITY
            };
            if d > du + 1e-9 {
                continue;
            }
            if u == dst.0 {
                break;
            }
            let base = u as usize * 4;
            for (e, &v) in graph.to[base..base + 4].iter().enumerate() {
                if v == NO_TILE {
                    continue;
                }
                let idx = (base + e) * 2 + usize::from(word);
                let used = self.count[idx] as usize;
                let cost = if used != 0 && self.usage[idx].contains(&producer) {
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
                let at_v = self.visit[v as usize];
                let dv = if at_v.stamp == stamp {
                    at_v.dist
                } else {
                    f64::INFINITY
                };
                if nd + 1e-9 < dv {
                    self.visit[v as usize] = Visit {
                        dist: nd,
                        prev: u,
                        stamp,
                    };
                    let entry = self.entry(nd, v);
                    if v == dst.0 {
                        dst_entry = entry;
                    } else if entry > dst_entry {
                        continue;
                    }
                    self.heap.push(Reverse(entry));
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
            let at = self.visit[cur as usize];
            if at.stamp != stamp || at.prev == NO_PREV {
                break;
            }
            cur = at.prev;
            path.push(TileId(cur));
        }
        path.reverse();
        path
    }
}

/// Routes a placed netlist.
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
    let conns = connections(netlist, rules).map_err(RouteError::Netlist)?;
    let graph = RouteGraph::new(fabric);
    let mut st = RouterState::new(fabric);
    let mut routes: Vec<RoutedEdge> = Vec::with_capacity(conns.len());
    let mut meter = options.budget.start();
    let wcap = fabric.config.word_tracks;
    let bcap = fabric.config.bit_tracks;

    // reroutes one connection and accumulates its usage
    let route_one = |st: &mut RouterState,
                     meter: &mut apex_fault::Meter,
                     (consumer, slot, producer, regs, word): Connection|
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
            // Dijkstra walked real links), so the link id exists
            if let Some(e) = fabric.edge(w[0], w[1]) {
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
    // nets to rip up this round, indexed by `net`
    let mut ripped: Vec<bool> = Vec::new();
    let net = |producer: u32, word: bool| producer as usize * 2 + usize::from(word);
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
            ripped.clear();
            ripped.resize(netlist.nodes.len() * 2, false);
            for r in &routes {
                let crosses = r.path.windows(2).any(|w| {
                    fabric
                        .edge(w[0], w[1])
                        .is_some_and(|e| st.over_mark[e * 2 + usize::from(r.word)])
                });
                if crosses {
                    ripped[net(r.producer, r.word)] = true;
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
                if !ripped[net(r.producer, r.word)] {
                    continue;
                }
                for w in r.path.windows(2) {
                    if let Some(e) = fabric.edge(w[0], w[1]) {
                        st.remove_usage(e * 2 + usize::from(r.word), r.producer);
                    }
                }
            }
            for (i, &conn) in conns.iter().enumerate() {
                let (_, _, producer, _, word) = conn;
                if ripped[net(producer, word)] {
                    routes[i] = route_one(&mut st, &mut meter, conn)?;
                }
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

/// One defect of a [`Routing`] (see [`Routing::defects`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDefect {
    /// The netlist leaves the required connections undefined, so no
    /// route can match one: the count and each route's connection go
    /// unchecked.
    Netlist(NetDefect),
    /// The routing has the first number of routes for the second number
    /// of required connections ([`connections`]).
    Count(usize, usize),
    /// A defect of the route at this index of [`Routing::routes`].
    Route(usize, RouteFault),
    /// More distinct signals on a link than it has tracks of their kind.
    OverCapacity {
        /// The link's source and target tiles.
        link: (TileId, TileId),
        /// Whether the signals are 16-bit.
        word: bool,
        /// Distinct signals on the link.
        signals: usize,
        /// The link's tracks of that kind.
        tracks: usize,
    },
}

/// What a [`RouteDefect::Route`] finds wrong with its route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteFault {
    /// The route matches no required connection (endpoints, slot,
    /// register count and signal kind).
    Unrequired,
    /// The route's producer (if `true`, else its consumer) is not a
    /// placed node.
    Unplaced(bool),
    /// The path does not run from the producer's tile to the consumer's
    /// (given).
    Endpoints(TileId, TileId),
    /// The path's tiles at this index and the next are not fabric
    /// neighbours (the hop uses tracks that do not exist).
    Hop(usize),
    /// The path's tile at this index was visited before (a route is a
    /// simple path).
    Revisit(usize),
}

impl Routing {
    /// Every defect of the routing against the netlist's connections and
    /// the placement: the route count first (or, if the netlist leaves
    /// the connections undefined, its first such defect), then per route
    /// in order whether it matches a required connection, whether it
    /// connects its placed endpoints, whether each hop joins fabric
    /// neighbours and whether the path is simple (only the first
    /// revisit), then every over-capacity link in `(link, word)` order,
    /// counting the hops of routes with placed endpoints. Empty exactly
    /// when the routing is sound; never panics or loops, on any netlist.
    pub fn defects(
        &self,
        netlist: &Netlist,
        rules: &RuleSet,
        fabric: &Fabric,
        placement: &Placement,
    ) -> Vec<RouteDefect> {
        let mut out = Vec::new();
        let conns = match connections(netlist, rules) {
            Ok(conns) => {
                if conns.len() != self.routes.len() {
                    out.push(RouteDefect::Count(self.routes.len(), conns.len()));
                }
                Some(conns)
            }
            Err(d) => {
                out.push(RouteDefect::Netlist(d));
                None
            }
        };
        let tile = |node: u32| placement.tile_of_node.get(node as usize).copied().flatten();
        // the routes with placed endpoints, whose hops count towards
        // link capacity
        let mut by_producer: Vec<&RoutedEdge> = Vec::with_capacity(self.routes.len());
        // the route that last visited each tile
        let mut visited = vec![u32::MAX; fabric.len()];
        for (i, r) in self.routes.iter().enumerate() {
            let at = |fault| RouteDefect::Route(i, fault);
            let conn = (r.consumer, r.slot, r.producer, r.regs, r.word);
            // `route` keeps connection order; any other order is searched
            if let Some(conns) = &conns {
                if conns.get(i) != Some(&conn) && !conns.contains(&conn) {
                    out.push(at(RouteFault::Unrequired));
                }
            }
            let (Some(src), Some(dst)) = (tile(r.producer), tile(r.consumer)) else {
                out.push(at(RouteFault::Unplaced(tile(r.producer).is_none())));
                continue;
            };
            by_producer.push(r);
            if r.path.first() != Some(&src) || r.path.last() != Some(&dst) {
                out.push(at(RouteFault::Endpoints(src, dst)));
            }
            let mut revisit = None;
            for (hop, &t) in r.path.iter().enumerate() {
                if hop > 0 && fabric.edge(r.path[hop - 1], t).is_none() {
                    out.push(at(RouteFault::Hop(hop - 1)));
                }
                let seen = match visited.get_mut(t.0 as usize) {
                    Some(last) => std::mem::replace(last, i as u32) == i as u32,
                    None => r.path[..hop].contains(&t),
                };
                if seen && revisit.is_none() {
                    revisit = Some(at(RouteFault::Revisit(hop)));
                }
            }
            out.extend(revisit);
        }
        // distinct signals per (edge, word) slot: visiting the routes
        // grouped by producer, a slot counts a producer when its group
        // first reaches the slot
        by_producer.sort_unstable_by_key(|r| r.producer);
        let tracks = |word| [fabric.config.bit_tracks, fabric.config.word_tracks][usize::from(word)];
        let slots = fabric.edge_ids() * 2;
        let mut count = vec![0u32; slots];
        let mut last = vec![u32::MAX; slots];
        let mut over = Vec::new();
        for r in by_producer {
            for w in r.path.windows(2) {
                let Some(e) = fabric.edge(w[0], w[1]) else {
                    continue;
                };
                let idx = e * 2 + usize::from(r.word);
                if last[idx] == r.producer {
                    continue;
                }
                last[idx] = r.producer;
                count[idx] += 1;
                if count[idx] as usize == tracks(r.word) + 1 {
                    over.push(((fabric.link(w[0], w[1]), r.word), idx, (w[0], w[1])));
                }
            }
        }
        over.sort_unstable_by_key(|o| o.0);
        out.extend(over.into_iter().map(|((_, word), idx, link)| RouteDefect::OverCapacity {
            link,
            word,
            signals: count[idx] as usize,
            tracks: tracks(word),
        }));
        out
    }
}

/// Post-route verification — our substitute for simulating the configured
/// CGRA Verilog with VCS (paper Section 4, step 3c): runs
/// [`Routing::defects`], so it checks that the routes are exactly as many
/// as the netlist's connections and each matches one of them, that each
/// route is a simple path of fabric-neighbour hops between the placed
/// endpoint tiles, and that no link exceeds its track capacity.
///
/// # Errors
/// Describes the first defect: the route count, else the first bad route
/// in routing order, else the first over-capacity link in `(link, word)`
/// order.
pub fn verify_routed(
    netlist: &Netlist,
    rules: &RuleSet,
    fabric: &Fabric,
    placement: &Placement,
    routing: &Routing,
) -> Result<(), String> {
    let Some(&defect) = routing.defects(netlist, rules, fabric, placement).first() else {
        return Ok(());
    };
    Err(match defect {
        RouteDefect::Netlist(d) => d.to_string(),
        RouteDefect::Count(routes, conns) => format!("expected {conns} routes, found {routes}"),
        RouteDefect::OverCapacity {
            signals, tracks, ..
        } => format!("link over capacity: {signals} > {tracks}"),
        RouteDefect::Route(i, fault) => {
            let r = &routing.routes[i];
            let route = format!("route {}→{}", r.producer, r.consumer);
            match fault {
                RouteFault::Unrequired => format!("{route} matches no required connection"),
                RouteFault::Unplaced(true) => format!("producer {} unplaced", r.producer),
                RouteFault::Unplaced(false) => format!("consumer {} unplaced", r.consumer),
                RouteFault::Endpoints(..) => format!("{route} does not connect its endpoints"),
                RouteFault::Hop(_) => "route hops between non-adjacent tiles".into(),
                RouteFault::Revisit(_) => format!("{route} revisits a tile"),
            }
        }
    })
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
    use std::collections::{BTreeMap, BTreeSet};

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
        assert_eq!(routing.routes.len(), connections(&netlist, &rules).unwrap().len());
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
        let mut st = RouterState::new(&f);
        let p = st.shortest(&graph, f.at(1, 1), f.at(1, 1), true, 0, 5);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn route_graph_links_are_the_fabric_neighbours() {
        for (width, height) in [(32, 16), (1, 1), (1, 4), (5, 1)] {
            let f = Fabric::new(FabricConfig {
                width,
                height,
                ..FabricConfig::default()
            });
            let g = RouteGraph::new(&f);
            assert_eq!(g.to.len(), f.edge_ids());
            for t in 0..f.len() as u32 {
                let linked: Vec<TileId> = g.to[t as usize * 4..][..4]
                    .iter()
                    .filter(|&&v| v != NO_TILE)
                    .map(|&v| TileId(v))
                    .collect();
                assert_eq!(linked, f.neighbours(TileId(t)), "tile {t} on {width}x{height}");
                for (d, &v) in g.to[t as usize * 4..][..4].iter().enumerate() {
                    if v != NO_TILE {
                        assert_eq!(f.edge(TileId(t), TileId(v)), Some(t as usize * 4 + d));
                    }
                }
            }
        }
        // non-adjacent pairs, wrap-arounds and off-fabric tiles have no link
        let f = Fabric::new(FabricConfig::default());
        assert_eq!(f.edge(f.at(0, 0), f.at(2, 0)), None);
        assert_eq!(f.edge(f.at(0, 0), f.at(0, 0)), None);
        assert_eq!(f.edge(f.at(0, 31), f.at(1, 0)), None);
        assert_eq!(f.edge(f.at(1, 0), f.at(0, 31)), None);
        assert_eq!(f.edge(f.at(16, 3), TileId(f.len() as u32 + 3)), None);
    }

    /// The packed heap entry orders like the `(key, tile)` tuple it
    /// replaces, up to the clamp.
    #[test]
    fn packed_heap_entries_order_like_key_tile_pairs() {
        let f = Fabric::new(FabricConfig::default());
        let st = RouterState::new(&f);
        assert_eq!(st.tile_bits, 10, "544 tiles need 10 bits");
        let costs = [0.0, 0.0005, 0.001, 1.0, 1.05, 7.2999, 7.3, 1e6, 1.7e13];
        let mut pairs = Vec::new();
        for &c in &costs {
            for t in [0u32, 1, 300, 543] {
                pairs.push((((c * 1000.0) as u64, t), st.entry(c, t)));
            }
        }
        for &(a, pa) in &pairs {
            for &(b, pb) in &pairs {
                assert_eq!(a.cmp(&b), pa.cmp(&pb), "{a:?} vs {b:?}");
            }
        }
        // past the clamp, keys saturate instead of wrapping into tile bits
        assert_eq!(st.entry(1e300, 5) & 0x3FF, 5);
        assert!(st.entry(1e300, 0) > st.entry(1.7e13, 543));
    }

    /// Over-capacity links are reported in `(link, word)` order, as the
    /// map-backed check reported them.
    #[test]
    fn verify_reports_the_first_over_capacity_link() {
        let (netlist, rules, fabric, placement, routing) = routed_gaussian();
        let narrow = Fabric::new(FabricConfig {
            word_tracks: 1,
            bit_tracks: 1,
            ..fabric.config.clone()
        });
        let err = verify_routed(&netlist, &rules, &narrow, &placement, &routing).unwrap_err();
        let mut usage: BTreeMap<(usize, bool), BTreeSet<u32>> = BTreeMap::new();
        for r in &routing.routes {
            for w in r.path.windows(2) {
                usage
                    .entry((fabric.link(w[0], w[1]), r.word))
                    .or_default()
                    .insert(r.producer);
            }
        }
        let first = usage.values().find(|s| s.len() > 1).expect("gaussian shares some link");
        assert_eq!(err, format!("link over capacity: {} > 1", first.len()));
    }
}
