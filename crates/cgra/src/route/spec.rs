//! The router's executable specification, compiled only for tests.
//!
//! [`route_reference`] is the original full-reroute PathFinder loop over
//! sparse `BTreeMap` congestion state, and [`shortest_path_reference`]
//! its Dijkstra. The CSR engine in the parent module is pinned to them:
//! its first negotiation round replays [`route_reference`] bit for bit,
//! and [`RouterState::shortest`] replays [`shortest_path_reference`] on
//! any congestion state.

use super::{connections, RouteError, RouteOptions, RoutedEdge, Routing};
use crate::fabric::{Fabric, TileId};
use crate::place::Placement;
use apex_map::Netlist;
use apex_rewrite::RuleSet;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The original full-reroute PathFinder loop over sparse `BTreeMap`
/// congestion state — retained verbatim as the executable specification
/// the property suite replays the CSR engine against.
///
/// # Errors
/// Fails when congestion cannot be resolved or endpoints are unplaced.
pub(super) fn route_reference(
    netlist: &Netlist,
    rules: &RuleSet,
    fabric: &Fabric,
    placement: &Placement,
    options: &RouteOptions,
) -> Result<Routing, RouteError> {
    apex_fault::fail_point!("route::start", RouteError::Injected("route::start"));
    let conns = connections(netlist, rules).map_err(RouteError::Netlist)?;
    // usage and history per (link, word?) — sparse maps keyed by link id
    let mut history: BTreeMap<(usize, bool), f64> = BTreeMap::new();
    let mut routes: Vec<RoutedEdge> = Vec::new();
    let mut meter = options.budget.start();

    for round in 0..options.max_iterations {
        if !meter.check_slow() {
            return Err(RouteError::Exhausted {
                provenance: meter.provenance(),
            });
        }
        let iterations = round + 1;
        // a link carries one track per *distinct signal*: fanout branches
        // of the same producer share the wire for free
        let mut usage: BTreeMap<(usize, bool), std::collections::BTreeSet<u32>> = BTreeMap::new();
        routes.clear();
        for &(consumer, slot, producer, regs, word) in &conns {
            if !meter.tick() {
                return Err(RouteError::Exhausted {
                    provenance: meter.provenance(),
                });
            }
            let src = placement.tile_of_node[producer as usize]
                .ok_or(RouteError::Unplaced { node: producer })?;
            let dst = placement.tile_of_node[consumer as usize]
                .ok_or(RouteError::Unplaced { node: consumer })?;
            let capacity = if word {
                fabric.config.word_tracks
            } else {
                fabric.config.bit_tracks
            };
            let path =
                shortest_path_reference(fabric, src, dst, word, producer, capacity, &usage, &history);
            for w in path.windows(2) {
                let l = fabric.link(w[0], w[1]);
                usage.entry((l, word)).or_default().insert(producer);
            }
            routes.push(RoutedEdge {
                consumer,
                slot,
                producer,
                path,
                regs,
                word,
            });
        }
        // congestion check: distinct signals per link vs track count
        let overused: Vec<(usize, bool)> = usage
            .iter()
            .filter(|(&(_, word), signals)| {
                signals.len()
                    > if word {
                        fabric.config.word_tracks
                    } else {
                        fabric.config.bit_tracks
                    }
            })
            .map(|(&k, _)| k)
            .collect();
        if overused.is_empty() {
            let overflow_regs = routes
                .iter()
                .map(|r| (r.regs as usize).saturating_sub(r.hops()))
                .sum();
            return Ok(Routing::new(routes, overflow_regs, iterations, meter.provenance()));
        }
        for k in overused {
            *history.entry(k).or_insert(0.0) += options.history_increment;
        }
    }
    // final count of overused links
    let mut usage: BTreeMap<(usize, bool), std::collections::BTreeSet<u32>> = BTreeMap::new();
    for r in &routes {
        for w in r.path.windows(2) {
            usage
                .entry((fabric.link(w[0], w[1]), r.word))
                .or_default()
                .insert(r.producer);
        }
    }
    let overused_links = usage
        .iter()
        .filter(|(&(_, word), signals)| {
            signals.len()
                > if word {
                    fabric.config.word_tracks
                } else {
                    fabric.config.bit_tracks
                }
        })
        .count();
    Err(RouteError::Congested { overused_links })
}

/// Dijkstra over tiles with congestion-aware link costs. Links already
/// carrying this producer's signal are nearly free (wire reuse). The
/// specification twin of [`RouterState::shortest`].
#[allow(clippy::too_many_arguments)]
pub(super) fn shortest_path_reference(
    fabric: &Fabric,
    src: TileId,
    dst: TileId,
    word: bool,
    producer: u32,
    capacity: usize,
    usage: &BTreeMap<(usize, bool), std::collections::BTreeSet<u32>>,
    history: &BTreeMap<(usize, bool), f64>,
) -> Vec<TileId> {
    if src == dst {
        return vec![src];
    }
    let n = fabric.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<TileId>> = vec![None; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    dist[src.0 as usize] = 0.0;
    heap.push(Reverse((0, src.0)));
    while let Some(Reverse((d_milli, u))) = heap.pop() {
        let u_t = TileId(u);
        let d = d_milli as f64 / 1000.0;
        if d > dist[u as usize] + 1e-9 {
            continue;
        }
        if u_t == dst {
            break;
        }
        for v in fabric.neighbours(u_t) {
            let l = fabric.link(u_t, v);
            let signals = usage.get(&(l, word));
            let carries_me = signals.is_some_and(|s| s.contains(&producer));
            let used = signals.map_or(0, std::collections::BTreeSet::len);
            let cost = if carries_me {
                0.05 // the wire already exists; branch at the switch box
            } else {
                let congestion = if used >= capacity {
                    5.0 * (used - capacity + 1) as f64
                } else {
                    0.2 * used as f64 / capacity as f64
                };
                let hist = history.get(&(l, word)).copied().unwrap_or(0.0);
                1.0 + congestion + hist
            };
            let nd = d + cost;
            if nd + 1e-9 < dist[v.0 as usize] {
                dist[v.0 as usize] = nd;
                prev[v.0 as usize] = Some(u_t);
                heap.push(Reverse(((nd * 1000.0) as u64, v.0)));
            }
        }
    }
    // reconstruct
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        // invariant: the fabric grid is fully connected, so Dijkstra always
        // reaches dst and every hop has a predecessor; a broken chain
        // yields a non-contiguous path that `verify_routed` rejects
        let Some(p) = prev[cur.0 as usize] else {
            break;
        };
        cur = p;
        path.push(cur);
    }
    path.reverse();
    path
}

mod properties {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::place::{place, PlaceOptions};
    use crate::route::{route, verify_routed, RouteGraph, RouterState, NO_TILE};
    use apex_ir::Op;
    use apex_map::map_application;
    use apex_pe::baseline_pe;
    use apex_rewrite::standard_ruleset;
    use apex_testgen::DfgGen;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Word DAGs over four inputs, read at the last two values.
    const APP: DfgGen = DfgGen {
        name: "prop_app",
        inputs: (4, 0),
        ops: &[Op::Add, Op::Mul, Op::Sub, Op::Umin],
        const_ops: &[Op::Add],
        len: 4..40,
        outputs: (2, 0),
    };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The stamp-array Dijkstra is arithmetic-identical to the spec's:
        /// one randomized congested state — usage sets and history on
        /// random real `(edge, word)` slots of the padded link layout —
        /// is mirrored into the dense `RouterState` slots (their counts
        /// included, through `add_usage`) and the spec's sparse maps, then a run of
        /// queries (random endpoints, signal kinds, producers and
        /// capacities) must return the same path from both, each path
        /// claiming its wires in both states before the next query, as
        /// the negotiation loop does.
        #[test]
        fn stamp_array_dijkstra_matches_reference(
            width in 2usize..=12,
            height in 1usize..=8,
            slots in prop::collection::vec((any::<u32>(), 0u32..6, 0u32..8), 0..400),
            queries in prop::collection::vec(
                (any::<u32>(), any::<u32>(), any::<bool>(), 0u32..6, 1usize..=5),
                1..24,
            ),
        ) {
            let fabric = Fabric::new(FabricConfig { width, height, ..FabricConfig::default() });
            let graph = RouteGraph::new(&fabric);
            let mut st = RouterState::new(&fabric);
            // every real (edge, word) slot of the padded layout, with the
            // spec's sparse key for it; border ids lead nowhere and have
            // no slot
            let mut key_of: Vec<(usize, (usize, bool))> = Vec::with_capacity(fabric.edge_ids() * 2);
            for e in 0..fabric.edge_ids() {
                if graph.to[e] == NO_TILE {
                    continue;
                }
                let link = fabric.link(TileId((e / 4) as u32), TileId(graph.to[e]));
                key_of.push((e * 2, (link, false)));
                key_of.push((e * 2 + 1, (link, true)));
            }
            let mut usage: BTreeMap<(usize, bool), BTreeSet<u32>> = BTreeMap::new();
            let mut history: BTreeMap<(usize, bool), f64> = BTreeMap::new();
            for (sel, producer, quanta) in slots {
                let (idx, key) = key_of[sel as usize % key_of.len()];
                st.add_usage(idx, producer);
                usage.entry(key).or_default().insert(producer);
                let h = f64::from(quanta) * 0.75;
                st.history[idx] += h;
                *history.entry(key).or_insert(0.0) += h;
            }
            for (a, b, word, producer, capacity) in queries {
                let src = TileId(a % fabric.len() as u32);
                let dst = TileId(b % fabric.len() as u32);
                let fast = st.shortest(&graph, src, dst, word, producer, capacity);
                let reference = shortest_path_reference(
                    &fabric, src, dst, word, producer, capacity, &usage, &history,
                );
                prop_assert_eq!(&fast, &reference);
                for w in fast.windows(2) {
                    let e = fabric.edge(w[0], w[1]);
                    prop_assert!(e.is_some(), "path hops between non-adjacent tiles");
                    if let Some(e) = e {
                        st.add_usage(e * 2 + usize::from(word), producer);
                    }
                    usage
                        .entry((fabric.link(w[0], w[1]), word))
                        .or_default()
                        .insert(producer);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Incremental rip-up never produces an illegal routing, and on
        /// single-round convergence (round one is shared with the reference
        /// by construction) it is bit-identical to the reference engine.
        #[test]
        fn incremental_routing_is_sound(
            app in APP,
            seed: u64,
            wt in 2usize..=5,
            bt in 2usize..=5,
        ) {
            let pe = baseline_pe();
            let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app]).unwrap();
            let design = map_application(&app, &pe.datapath, &rules).unwrap();
            let fabric = Fabric::new(FabricConfig {
                word_tracks: wt,
                bit_tracks: bt,
                ..FabricConfig::default()
            });
            let placement = place(
                &design.netlist,
                &fabric,
                &PlaceOptions { moves: 1_000, seed, ..PlaceOptions::default() },
            )
            .unwrap();
            let incremental = route(
                &design.netlist,
                &rules,
                &fabric,
                &placement,
                &RouteOptions::default(),
            );
            if let Ok(r) = &incremental {
                verify_routed(&design.netlist, &rules, &fabric, &placement, r).unwrap();
            }
            let reference = route_reference(
                &design.netlist,
                &rules,
                &fabric,
                &placement,
                &RouteOptions::default(),
            );
            if matches!(&reference, Ok(r) if r.iterations == 1) {
                prop_assert_eq!(incremental, reference);
            }
        }
    }
}
