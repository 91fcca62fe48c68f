//! Map/CGRA checker passes: netlist well-formedness, placement
//! legality (tile compatibility, slot capacity), routing validity
//! (connected paths on real tracks, per-track capacity), and bitstream
//! encodability (field ranges, faithful round-trip).

use crate::Violation;
use apex_cgra::{
    place_class, Bitstream, Fabric, PlaceClass, Placement, RouteDefect, RouteFault, Routing,
    TileConfig, TileId, TileKind,
};
use apex_map::{NetKind, Netlist};
use apex_merge::MergedDatapath;
use apex_pe::{pack_config, unpack_config};
use apex_rewrite::RuleSet;
use std::collections::BTreeMap;
use std::mem::discriminant;

fn tile_str(fabric: &Fabric, t: TileId) -> String {
    if (t.0 as usize) < fabric.len() {
        let (r, c) = fabric.coords(t);
        format!("tile ({r},{c})")
    } else {
        format!("tile #{} (out of range)", t.0)
    }
}

/// Verifies a mapped netlist against its ruleset.
///
/// Rules:
/// * `MAP-NETLIST` — the netlist fails [`Netlist::validate`] (dangling
///   references, arity/type mismatches, cycles, unknown rules).
pub fn verify_netlist(netlist: &Netlist, rules: &RuleSet) -> Vec<Violation> {
    match netlist.validate(rules) {
        Ok(()) => Vec::new(),
        Err(e) => vec![Violation::new(
            "MAP-NETLIST",
            format!("netlist '{}'", netlist.name),
            "nodes",
            e.to_string(),
        )],
    }
}

/// Verifies a placement of a netlist onto a fabric.
///
/// Rules:
/// * `PLACE-LEN` — the placement vector does not cover every netlist
///   node,
/// * `PLACE-MISSING` — a placeable node has no tile,
/// * `PLACE-SPURIOUS` — an interconnect register was given a tile,
/// * `PLACE-CLASS` — a node sits on a tile of the wrong kind (or an
///   out-of-range tile),
/// * `PLACE-CAP` — more nodes of one class on a tile than it has slots
///   (PE and RF slots: 1 per PE tile; memory and I/O slots: 2 per tile).
pub fn verify_placement(
    netlist: &Netlist,
    fabric: &Fabric,
    placement: &Placement,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let artifact = format!("placement of '{}'", netlist.name);
    if placement.tile_of_node.len() != netlist.nodes.len() {
        out.push(Violation::new(
            "PLACE-LEN",
            &artifact,
            "tile_of_node",
            format!(
                "placement covers {} node(s), netlist has {}",
                placement.tile_of_node.len(),
                netlist.nodes.len()
            ),
        ));
        return out;
    }
    let mut load: BTreeMap<(TileId, PlaceClass), usize> = BTreeMap::new();
    for (i, node) in netlist.nodes.iter().enumerate() {
        let class = place_class(&node.kind);
        let tile = placement.tile_of_node[i];
        match (class, tile) {
            (Some(class), None) => {
                out.push(Violation::new(
                    "PLACE-MISSING",
                    &artifact,
                    format!("node {i}"),
                    format!("{class:?} node has no tile"),
                ));
            }
            (None, Some(t)) => {
                out.push(Violation::new(
                    "PLACE-SPURIOUS",
                    &artifact,
                    format!("node {i}"),
                    format!(
                        "interconnect register placed on {} (registers live in switch boxes)",
                        tile_str(fabric, t)
                    ),
                ));
            }
            (Some(class), Some(t)) => {
                let want = match class {
                    PlaceClass::PeSlot | PlaceClass::RfSlot => TileKind::Pe,
                    PlaceClass::MemSlot => TileKind::Mem,
                    PlaceClass::IoSlot => TileKind::Io,
                };
                if (t.0 as usize) >= fabric.len() || fabric.kind(t) != want {
                    out.push(Violation::new(
                        "PLACE-CLASS",
                        &artifact,
                        format!("node {i}"),
                        format!(
                            "{class:?} node on {}, needs a {want:?} tile",
                            tile_str(fabric, t)
                        ),
                    ));
                } else {
                    *load.entry((t, class)).or_insert(0) += 1;
                }
            }
            (None, None) => {}
        }
    }
    for ((t, class), n) in load {
        let cap = match class {
            PlaceClass::PeSlot | PlaceClass::RfSlot => 1,
            PlaceClass::MemSlot | PlaceClass::IoSlot => 2,
        };
        if n > cap {
            out.push(Violation::new(
                "PLACE-CAP",
                &artifact,
                tile_str(fabric, t),
                format!("{n} {class:?} node(s) on a tile with {cap} slot(s)"),
            ));
        }
    }
    out
}

/// Verifies a routing solution against the placement it serves: reports
/// [`Routing::defects`], the check `apex_cgra::verify_routed` runs, as
/// violations.
///
/// Rules:
/// * `ROUTE-NETLIST` — the netlist leaves its connection list undefined
///   (a PE names a rule the rule set lacks, or an input traces to no
///   producer: out of the netlist, or around a register cycle); the
///   count and each route's connection then go unchecked,
/// * `ROUTE-COUNT` — the number of routes disagrees with the netlist's
///   connection list,
/// * `ROUTE-CONN` — a route does not correspond to any required
///   connection (wrong endpoints, slot, signal kind, or register count),
/// * `ROUTE-ENDPOINT` — a route's endpoints are unplaced, or its path
///   does not start/end at the placed tiles,
/// * `ROUTE-PATH` — adjacent path tiles are not fabric neighbours (the
///   route uses tracks that do not exist),
/// * `ROUTE-CAP` — more distinct signals on one directed link than it
///   has tracks of that kind,
/// * `ROUTE-INC` — a route's path visits the same tile twice (a cycle:
///   shortest-path trees cannot produce one, so a loop marks a corrupt
///   or hand-edited artifact — e.g. a botched incremental rip-up).
pub fn verify_routing(
    netlist: &Netlist,
    rules: &RuleSet,
    fabric: &Fabric,
    placement: &Placement,
    routing: &Routing,
) -> Vec<Violation> {
    let artifact = format!("routing of '{}'", netlist.name);
    let violation = |d| match d {
        RouteDefect::Netlist(d) => {
            Violation::new("ROUTE-NETLIST", &artifact, "connections", d.to_string())
        }
        RouteDefect::Count(routes, conns) => Violation::new(
            "ROUTE-COUNT",
            &artifact,
            "routes",
            format!("{routes} route(s) for {conns} required connection(s)"),
        ),
        RouteDefect::OverCapacity {
            link: (from, to),
            word,
            signals,
            tracks,
        } => Violation::new(
            "ROUTE-CAP",
            &artifact,
            format!("link {} -> {}", tile_str(fabric, from), tile_str(fabric, to)),
            format!(
                "{signals} distinct {} signal(s) on {tracks} track(s)",
                if word { "word" } else { "bit" }
            ),
        ),
        RouteDefect::Route(i, fault) => {
            let r = &routing.routes[i];
            let at = format!("route[{i}] node {} slot {}", r.consumer, r.slot);
            let (rule, at, message) = match fault {
                RouteFault::Unrequired => (
                    "ROUTE-CONN",
                    at,
                    format!(
                        "no required connection ({} -> {} slot {}, {} reg(s), word={})",
                        r.producer, r.consumer, r.slot, r.regs, r.word
                    ),
                ),
                RouteFault::Unplaced(_) => (
                    "ROUTE-ENDPOINT",
                    at,
                    "route endpoint is not a placed node".to_owned(),
                ),
                RouteFault::Endpoints(src, dst) => (
                    "ROUTE-ENDPOINT",
                    at,
                    format!(
                        "path {:?}..{:?} does not span {} -> {}",
                        r.path.first(),
                        r.path.last(),
                        tile_str(fabric, src),
                        tile_str(fabric, dst)
                    ),
                ),
                RouteFault::Hop(h) => (
                    "ROUTE-PATH",
                    format!("{at} hop {h}"),
                    format!(
                        "{} and {} are not fabric neighbours",
                        tile_str(fabric, r.path[h]),
                        tile_str(fabric, r.path[h + 1])
                    ),
                ),
                RouteFault::Revisit(h) => (
                    "ROUTE-INC",
                    format!("{at} hop {h}"),
                    format!(
                        "path revisits {} (routes must be simple)",
                        tile_str(fabric, r.path[h])
                    ),
                ),
            };
            Violation::new(rule, &artifact, at, message)
        }
    };
    routing
        .defects(netlist, rules, fabric, placement)
        .into_iter()
        .map(violation)
        .collect()
}

/// Verifies a generated bitstream against the design it encodes.
///
/// Rules:
/// * `BITS-PE` — a placed PE instance's tile carries no (or a wrong) PE
///   configuration, or the total PE-config count disagrees with the
///   netlist,
/// * `BITS-PAYLOAD` — an instance's payloads do not satisfy its rule's
///   binding contract (count, payload kind, bound register active),
/// * `BITS-ROUNDTRIP` — decode(encode(config)) is not the identity,
/// * `BITS-SB` — a routed hop has no crossing recorded in its switch
///   box,
/// * `BITS-TRACK` — a crossing's track index exceeds the link's track
///   capacity.
pub fn verify_bitstream(
    netlist: &Netlist,
    rules: &RuleSet,
    dp: &MergedDatapath,
    fabric: &Fabric,
    placement: &Placement,
    routing: &Routing,
    bs: &Bitstream,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let artifact = format!("bitstream of '{}'", netlist.name);

    // --- PE configurations ----------------------------------------------
    let mut pe_cfg_expected = 0usize;
    for (i, node) in netlist.nodes.iter().enumerate() {
        let NetKind::Pe(inst) = &node.kind else { continue };
        let Some(tile) = placement.tile_of_node.get(i).copied().flatten() else {
            continue; // PLACE-MISSING territory
        };
        let Some(rule) = rules.rules.get(inst.rule as usize) else {
            continue; // MAP-NETLIST territory
        };
        pe_cfg_expected += 1;
        let loc = format!("node {i} on {}", tile_str(fabric, tile));

        // payload contract must hold before instantiate() may run
        let mut payload_ok = inst.payloads.len() == rule.payload_bindings.len();
        if payload_ok {
            for (payload, (_, dpn)) in inst.payloads.iter().zip(&rule.payload_bindings) {
                match rule.config.node_cfg.get(*dpn as usize) {
                    Some(Some(nc)) if discriminant(&nc.op) == discriminant(payload) => {}
                    _ => {
                        payload_ok = false;
                        break;
                    }
                }
            }
        }
        if !payload_ok {
            out.push(Violation::new(
                "BITS-PAYLOAD",
                &artifact,
                loc,
                format!(
                    "{} payload(s) do not satisfy rule '{}' bindings ({})",
                    inst.payloads.len(),
                    rule.name,
                    rule.payload_bindings.len()
                ),
            ));
            continue;
        }
        let cfg = rule.instantiate(&inst.payloads);
        let packed = pack_config(dp, &cfg);
        let stored = bs.tiles.get(&tile).into_iter().flatten().find_map(|t| {
            if let TileConfig::Pe { bits } = t {
                Some(bits)
            } else {
                None
            }
        });
        match stored {
            None => {
                out.push(Violation::new(
                    "BITS-PE",
                    &artifact,
                    loc,
                    "placed PE instance has no PE configuration in the bitstream".to_owned(),
                ));
                continue;
            }
            Some(bits) if *bits != packed => {
                out.push(Violation::new(
                    "BITS-PE",
                    &artifact,
                    loc,
                    "stored PE configuration bits differ from the instance's packed config"
                        .to_owned(),
                ));
                continue;
            }
            Some(_) => {}
        }
        if unpack_config(dp, &packed, &cfg).as_ref() != Ok(&cfg) {
            out.push(Violation::new(
                "BITS-ROUNDTRIP",
                &artifact,
                loc,
                "decode(encode(config)) is not the identity".to_owned(),
            ));
        }
    }
    let pe_cfg_total = bs
        .tiles
        .values()
        .flatten()
        .filter(|t| matches!(t, TileConfig::Pe { .. }))
        .count();
    if pe_cfg_total != pe_cfg_expected {
        out.push(Violation::new(
            "BITS-PE",
            &artifact,
            "tiles",
            format!("{pe_cfg_total} PE configuration(s) for {pe_cfg_expected} placed instance(s)"),
        ));
    }

    // --- switch-box crossings -------------------------------------------
    // which signal kinds traverse each directed hop, per the routing
    let mut hop_kinds: BTreeMap<(TileId, TileId), (bool, bool)> = BTreeMap::new();
    for r in &routing.routes {
        for w in r.path.windows(2) {
            let e = hop_kinds.entry((w[0], w[1])).or_insert((false, false));
            if r.word {
                e.0 = true;
            } else {
                e.1 = true;
            }
        }
    }
    for (&(from, to), &(has_word, has_bit)) in &hop_kinds {
        let crossings = bs.tiles.get(&from).into_iter().flatten().find_map(|t| {
            if let TileConfig::Sb { crossings } = t {
                Some(crossings.as_slice())
            } else {
                None
            }
        });
        let hop_str = || {
            format!(
                "{} -> {}",
                tile_str(fabric, from),
                tile_str(fabric, to)
            )
        };
        let Some(found) = crossings.map(|cs| cs.iter().any(|&(f, t, _)| f == from && t == to))
        else {
            out.push(Violation::new(
                "BITS-SB",
                &artifact,
                hop_str(),
                "routed hop's switch box has no crossing list".to_owned(),
            ));
            continue;
        };
        if !found {
            out.push(Violation::new(
                "BITS-SB",
                &artifact,
                hop_str(),
                "routed hop has no crossing recorded in its switch box".to_owned(),
            ));
        }
        // track indices must be encodable on the link's own track kind
        let cap = match (has_word, has_bit) {
            (true, false) => fabric.config.word_tracks,
            (false, true) => fabric.config.bit_tracks,
            _ => fabric.config.word_tracks.max(fabric.config.bit_tracks),
        };
        for &(f, t, track) in crossings.unwrap_or(&[]) {
            if f == from && t == to && (track as usize) >= cap {
                out.push(Violation::new(
                    "BITS-TRACK",
                    &artifact,
                    hop_str(),
                    format!("crossing uses track {track}, link has {cap}"),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_cgra::{
        generate_bitstream, place, route, verify_routed, FabricConfig, PlaceOptions,
        RouteOptions,
    };
    use apex_map::map_application;
    use apex_pe::baseline_pe;
    use apex_rewrite::standard_ruleset;

    struct Design {
        netlist: Netlist,
        rules: RuleSet,
        dp: MergedDatapath,
        fabric: Fabric,
        placement: Placement,
        routing: Routing,
        bs: Bitstream,
    }

    fn small_design() -> Design {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).expect("ruleset");
        let d = map_application(&app.graph, &pe.datapath, &rules).expect("maps");
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(&d.netlist, &fabric, &PlaceOptions::default()).expect("places");
        let routing = route(&d.netlist, &rules, &fabric, &placement, &RouteOptions::default())
            .expect("routes");
        let bs = generate_bitstream(&d.netlist, &rules, &pe.datapath, &fabric, &placement, &routing);
        Design {
            netlist: d.netlist,
            rules,
            dp: pe.datapath,
            fabric,
            placement,
            routing,
            bs,
        }
    }

    #[test]
    fn honest_backend_artifacts_are_clean() {
        let d = small_design();
        let vs = verify_netlist(&d.netlist, &d.rules);
        assert!(vs.is_empty(), "{}", crate::render(&vs));
        let vs = verify_placement(&d.netlist, &d.fabric, &d.placement);
        assert!(vs.is_empty(), "{}", crate::render(&vs));
        let vs = verify_routing(&d.netlist, &d.rules, &d.fabric, &d.placement, &d.routing);
        assert!(vs.is_empty(), "{}", crate::render(&vs));
        let vs = verify_bitstream(
            &d.netlist, &d.rules, &d.dp, &d.fabric, &d.placement, &d.routing, &d.bs,
        );
        assert!(vs.is_empty(), "{}", crate::render(&vs));
    }

    #[test]
    fn wrong_tile_kind_is_caught() {
        let mut d = small_design();
        let pe_node = d
            .netlist
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NetKind::Pe(_)))
            .expect("a PE exists");
        let io_tile = d.fabric.tiles_of(TileKind::Io)[0];
        d.placement.tile_of_node[pe_node] = Some(io_tile);
        let vs = verify_placement(&d.netlist, &d.fabric, &d.placement);
        assert!(vs.iter().any(|v| v.rule == "PLACE-CLASS"), "{}", crate::render(&vs));
    }

    #[test]
    fn doubled_pe_slot_is_caught() {
        let mut d = small_design();
        let pes: Vec<usize> = d
            .netlist
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NetKind::Pe(_)))
            .map(|(i, _)| i)
            .collect();
        assert!(pes.len() >= 2);
        d.placement.tile_of_node[pes[1]] = d.placement.tile_of_node[pes[0]];
        let vs = verify_placement(&d.netlist, &d.fabric, &d.placement);
        assert!(vs.iter().any(|v| v.rule == "PLACE-CAP"), "{}", crate::render(&vs));
    }

    /// The routing violations of `d`, after checking that the flow's
    /// `verify_routed` rejects the routing too (both run
    /// `Routing::defects`).
    fn rejected_routing(d: &Design) -> Vec<Violation> {
        let vs = verify_routing(&d.netlist, &d.rules, &d.fabric, &d.placement, &d.routing);
        let verdict = verify_routed(&d.netlist, &d.rules, &d.fabric, &d.placement, &d.routing);
        assert!(verdict.is_err(), "verify_routed accepts:\n{}", crate::render(&vs));
        vs
    }

    /// A PE naming a rule the rule set lacks leaves its connections
    /// undefined: reported, not an index panic.
    #[test]
    fn unknown_rule_is_reported() {
        let mut d = small_design();
        let pe = d
            .netlist
            .nodes
            .iter_mut()
            .find_map(|n| match &mut n.kind {
                NetKind::Pe(inst) => Some(inst),
                _ => None,
            })
            .expect("gaussian maps to PEs");
        pe.rule = 9999;
        let vs = rejected_routing(&d);
        assert!(vs.iter().any(|v| v.rule == "ROUTE-NETLIST"), "{}", crate::render(&vs));
    }

    /// An input fed by a two-register cycle traces to no producer: the
    /// register walk stops instead of looping forever.
    #[test]
    fn register_cycle_is_reported() {
        let mut d = small_design();
        let n = d.netlist.nodes.len() as u32;
        for feed in [n + 1, n] {
            d.netlist.nodes.push(apex_map::NetNode {
                kind: NetKind::Reg,
                inputs: vec![apex_map::NetRef { node: feed, port: 0 }],
            });
        }
        let pe = d
            .netlist
            .nodes
            .iter_mut()
            .find(|node| matches!(node.kind, NetKind::Pe(_)) && !node.inputs.is_empty())
            .expect("a PE has an input");
        pe.inputs[0].node = n;
        let vs = rejected_routing(&d);
        assert!(vs.iter().any(|v| v.rule == "ROUTE-NETLIST"), "{}", crate::render(&vs));
    }

    #[test]
    fn teleporting_route_is_caught() {
        let mut d = small_design();
        let r = d
            .routing
            .routes
            .iter_mut()
            .find(|r| r.path.len() >= 3)
            .expect("a multi-hop route exists");
        r.path.remove(1); // skip a tile: adjacent hops now distance 2
        let vs = rejected_routing(&d);
        assert!(vs.iter().any(|v| v.rule == "ROUTE-PATH"), "{}", crate::render(&vs));
    }

    #[test]
    fn looping_route_is_caught() {
        let mut d = small_design();
        let fabric = d.fabric.clone();
        let r = d
            .routing
            .routes
            .iter_mut()
            .find(|r| r.path.len() >= 2)
            .expect("a multi-hop route exists");
        // splice a detour that immediately returns: a -> n -> a. Every
        // window stays a fabric-neighbour pair, so only ROUTE-INC fires.
        let a = r.path[0];
        let n = fabric
            .neighbours(a)
            .into_iter()
            .find(|n| r.path.get(1) != Some(n))
            .expect("tile has a spare neighbour");
        r.path.insert(1, a);
        r.path.insert(1, n);
        let vs = rejected_routing(&d);
        assert!(vs.iter().any(|v| v.rule == "ROUTE-INC"), "{}", crate::render(&vs));
        assert!(
            !vs.iter().any(|v| v.rule == "ROUTE-PATH"),
            "loop detour must keep hops adjacent: {}",
            crate::render(&vs)
        );
    }

    #[test]
    fn dropped_route_is_caught() {
        let mut d = small_design();
        d.routing.routes.pop();
        let vs = rejected_routing(&d);
        assert!(vs.iter().any(|v| v.rule == "ROUTE-COUNT"), "{}", crate::render(&vs));
    }

    /// A route whose slot or register count matches no connection keeps
    /// its path, so only `ROUTE-CONN` fires.
    #[test]
    fn route_for_no_required_connection_is_caught() {
        for corrupt in [
            (|r: &mut apex_cgra::RoutedEdge| r.slot += 7) as fn(&mut apex_cgra::RoutedEdge),
            |r| r.regs += 1,
        ] {
            let mut d = small_design();
            corrupt(&mut d.routing.routes[0]);
            let vs = rejected_routing(&d);
            let rules: Vec<_> = vs.iter().map(|v| v.rule).collect();
            assert_eq!(rules, ["ROUTE-CONN"], "{}", crate::render(&vs));
        }
    }

    #[test]
    fn producer_beyond_the_placement_is_caught() {
        let mut d = small_design();
        d.routing.routes[0].producer = d.placement.tile_of_node.len() as u32 + 5;
        let vs = rejected_routing(&d);
        assert!(vs.iter().any(|v| v.rule == "ROUTE-ENDPOINT"), "{}", crate::render(&vs));
    }

    #[test]
    fn missing_sb_crossing_is_caught() {
        let mut d = small_design();
        let sb_tile = d
            .bs
            .tiles
            .iter()
            .find(|(_, cfgs)| cfgs.iter().any(|c| matches!(c, TileConfig::Sb { .. })))
            .map(|(t, _)| *t)
            .expect("a switch box is configured");
        if let Some(cfgs) = d.bs.tiles.get_mut(&sb_tile) {
            for c in cfgs.iter_mut() {
                if let TileConfig::Sb { crossings } = c {
                    crossings.clear();
                }
            }
        }
        let vs = verify_bitstream(
            &d.netlist, &d.rules, &d.dp, &d.fabric, &d.placement, &d.routing, &d.bs,
        );
        assert!(vs.iter().any(|v| v.rule == "BITS-SB"), "{}", crate::render(&vs));
    }

    #[test]
    fn out_of_range_track_is_caught() {
        let mut d = small_design();
        let mut poisoned = false;
        for cfgs in d.bs.tiles.values_mut() {
            for c in cfgs.iter_mut() {
                if let TileConfig::Sb { crossings } = c {
                    if let Some(first) = crossings.first_mut() {
                        first.2 = 200;
                        poisoned = true;
                        break;
                    }
                }
            }
            if poisoned {
                break;
            }
        }
        assert!(poisoned);
        let vs = verify_bitstream(
            &d.netlist, &d.rules, &d.dp, &d.fabric, &d.placement, &d.routing, &d.bs,
        );
        assert!(vs.iter().any(|v| v.rule == "BITS-TRACK"), "{}", crate::render(&vs));
    }
}
