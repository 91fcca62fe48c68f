//! Configuration bitstream generation (paper Section 4, step 3c).
//!
//! Packs every tile's configuration: PE tiles get their datapath
//! configuration packed along the PE's configuration layout
//! ([`apex_pe::for_each_field`]), which the Verilog emitter slices its
//! `cfg` port along; switch boxes get one entry per routed hop (input
//! side/track → output side/track); connection boxes get the selected
//! track per PE input.
//!
//! Generation collects each tile's configurations and crossings in dense
//! per-tile lists and assigns tracks on the fabric's dense link ids
//! ([`Fabric::edge`]); the sorted [`Bitstream::tiles`] map is built once,
//! at the end.

use crate::fabric::{Fabric, TileId};
use crate::place::Placement;
use crate::route::Routing;
use apex_ir::Op;
use apex_map::{NetKind, Netlist};
use apex_merge::MergedDatapath;
use apex_rewrite::{RewriteRule, RuleSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of a single tile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TileConfig {
    /// A PE tile: packed datapath configuration bits.
    Pe {
        /// Packed little-endian configuration bits.
        bits: Vec<u8>,
    },
    /// A switch box: routed crossings `(from_tile, to_tile, track)`.
    Sb {
        /// Crossings through this tile.
        crossings: Vec<(TileId, TileId, u8)>,
    },
    /// A memory or I/O tile streaming a number of values.
    Stream {
        /// Values streamed per cycle.
        streams: u8,
    },
}

/// The full-array bitstream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitstream {
    /// Per-tile configuration (only configured tiles appear).
    pub tiles: BTreeMap<TileId, Vec<TileConfig>>,
    /// Total configuration bits.
    pub total_bits: usize,
}

/// Packs the configuration of a PE instance: the bits
/// `pack_config(dp, &rule.instantiate(payloads))` gives, read from the
/// rule's configuration and its payload bindings without building the
/// instantiated copy.
fn pack_instance(dp: &MergedDatapath, rule: &RewriteRule, payloads: &[Op]) -> Vec<u8> {
    debug_assert_eq!(payloads.len(), rule.payload_bindings.len());
    apex_pe::pack_config_with(dp, &rule.config, |node| {
        // a later binding of the same node overrides an earlier one, as
        // in `instantiate`
        let mut bound = rule.payload_bindings.iter().zip(payloads).rev();
        bound.find_map(|(&(_, dp_node), &op)| (dp_node as usize == node).then_some(op))
    })
}

/// The per-tile list at `tile`, grown on demand: an honest placement
/// and routing stay on the fabric, whose size the table starts at.
fn at_tile<T>(table: &mut Vec<Vec<T>>, tile: TileId) -> &mut Vec<T> {
    let t = tile.0 as usize;
    if t >= table.len() {
        table.resize_with(t + 1, Vec::new);
    }
    &mut table[t]
}

/// Generates the array bitstream for a placed-and-routed design.
///
/// Tile configurations and switch-box crossings collect in dense
/// per-tile lists, which become [`Bitstream::tiles`] once at the end.
pub fn generate_bitstream(
    netlist: &Netlist,
    rules: &RuleSet,
    dp: &MergedDatapath,
    fabric: &Fabric,
    placement: &Placement,
    routing: &Routing,
) -> Bitstream {
    let mut configs: Vec<Vec<TileConfig>> = vec![Vec::new(); fabric.len()];
    let mut total_bits = 0usize;

    for (i, node) in netlist.nodes.iter().enumerate() {
        let Some(tile) = placement.tile_of_node[i] else {
            continue;
        };
        let config = match &node.kind {
            NetKind::Pe(inst) => {
                let bits = pack_instance(dp, &rules.rules[inst.rule as usize], &inst.payloads);
                total_bits += bits.len() * 8;
                TileConfig::Pe { bits }
            }
            NetKind::Fifo(d) => {
                // FIFO depth is a small config word on the tile's RF
                total_bits += 8;
                TileConfig::Stream { streams: *d }
            }
            NetKind::WordInput | NetKind::BitInput | NetKind::WordOutput | NetKind::BitOutput => {
                total_bits += 4;
                TileConfig::Stream { streams: 1 }
            }
            _ => continue,
        };
        at_tile(&mut configs, tile).push(config);
    }

    // switch-box crossings: one track per distinct signal per link,
    // assigned deterministically in routing order. Dense per-(edge, word)
    // arrays over the fabric's link ids carry the assignment state (a
    // link holds at most a few distinct signals, so a linear scan beats a
    // map probe). A hop between non-adjacent tiles, which
    // `verify_routed` rejects, gets no crossing
    let slots = fabric.edge_ids() * 2;
    // per (edge, word) slot: the signals holding a track on it, chained
    // newest first through `held` (producer, track, next older), and the
    // next track to hand out
    const NO_SIGNAL: u32 = u32::MAX;
    let mut newest: Vec<u32> = vec![NO_SIGNAL; slots];
    let mut held: Vec<(u32, u8, u32)> = Vec::new();
    let mut next_track: Vec<u8> = vec![0; slots];
    let mut sb: Vec<Vec<(TileId, TileId, u8)>> = vec![Vec::new(); fabric.len()];
    for r in &routing.routes {
        // tracks wrap within the capacity of the signal's own kind: bit
        // links have bit_tracks tracks, not word_tracks
        let cap = if r.word {
            fabric.config.word_tracks
        } else {
            fabric.config.bit_tracks
        }
        .max(1) as u8;
        for w in r.path.windows(2) {
            let Some(e) = fabric.edge(w[0], w[1]) else {
                continue;
            };
            let idx = e * 2 + usize::from(r.word);
            let mut k = newest[idx];
            while k != NO_SIGNAL && held[k as usize].0 != r.producer {
                k = held[k as usize].2;
            }
            let t = if k != NO_SIGNAL {
                held[k as usize].1
            } else {
                let t = next_track[idx];
                next_track[idx] = t.wrapping_add(1) % cap;
                held.push((r.producer, t, newest[idx]));
                newest[idx] = (held.len() - 1) as u32;
                t
            };
            sb[w[0].0 as usize].push((w[0], w[1], t));
        }
    }
    for (list, crossings) in configs.iter_mut().zip(sb) {
        if !crossings.is_empty() {
            // each crossing: 2 bits side + ~3 bits track, in + out
            total_bits += crossings.len() * 10;
            list.push(TileConfig::Sb { crossings });
        }
    }
    let tiles = configs
        .into_iter()
        .enumerate()
        .filter(|(_, list)| !list.is_empty())
        .map(|(t, list)| (TileId(t as u32), list))
        .collect();
    Bitstream { tiles, total_bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use crate::place::{place, PlaceOptions};
    use crate::route::{route, RouteOptions};
    use apex_map::map_application;
    use apex_pe::baseline_pe;
    use apex_rewrite::standard_ruleset;

    #[test]
    fn bitstream_is_deterministic_and_nonempty() {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
        let d = map_application(&app.graph, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(&d.netlist, &fabric, &PlaceOptions::default()).unwrap();
        let routing =
            route(&d.netlist, &rules, &fabric, &placement, &RouteOptions::default()).unwrap();
        let b1 = generate_bitstream(&d.netlist, &rules, &pe.datapath, &fabric, &placement, &routing);
        let b2 = generate_bitstream(&d.netlist, &rules, &pe.datapath, &fabric, &placement, &routing);
        assert_eq!(b1, b2);
        assert!(b1.total_bits > 0);
        // every PE instance contributed a PE tile config
        let pe_cfgs: usize = b1
            .tiles
            .values()
            .flatten()
            .filter(|t| matches!(t, TileConfig::Pe { .. }))
            .count();
        assert_eq!(pe_cfgs, d.netlist.pe_count());
    }
}
