//! Fabric simulation from the configuration bitstream — our substitute
//! for the paper's Synopsys VCS simulation of the configured CGRA Verilog
//! (Section 4, step 3c).
//!
//! [`simulate_from_bitstream`] *decodes* every PE tile's packed
//! configuration bits back into datapath configurations and runs the
//! cycle-accurate fabric simulation from the decoded state. Agreement
//! with the golden model therefore checks the whole chain:
//! rule instantiation → bit packing → decoding → execution.
//!
//! There is one simulation engine: decoded configurations run on the
//! netlist's table-compiled lane simulator ([`Netlist::simulate_with`]),
//! which evaluates each instruction over all cycles at once and stops at
//! the netlist's settle depth, filling the remaining drain cycles with
//! the settled values. Its test-only specs (the cycle-major loop and the
//! decode-per-access interpreter) live in `apex-map`. The property suite
//! here requires the decoded run to equal a run on the rule templates
//! themselves.

use crate::bitstream::{unpack_config, Bitstream, TileConfig};
use crate::place::Placement;
use apex_map::{NetKind, Netlist, NetlistError};
use apex_merge::{DatapathConfig, MergedDatapath};
use apex_rewrite::RuleSet;
use std::collections::BTreeMap;

/// Errors while reconstructing the configuration state from a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricSimError {
    /// A PE instance's tile has no packed PE configuration.
    MissingTileConfig {
        /// The unconfigured netlist node.
        node: u32,
    },
    /// The decoded netlist failed to simulate.
    Netlist(NetlistError),
}

impl std::fmt::Display for FabricSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricSimError::MissingTileConfig { node } => {
                write!(f, "node {node}: tile has no PE configuration in the bitstream")
            }
            FabricSimError::Netlist(e) => write!(f, "decoded netlist failed to simulate: {e}"),
        }
    }
}

impl std::error::Error for FabricSimError {}

impl From<NetlistError> for FabricSimError {
    fn from(e: NetlistError) -> Self {
        FabricSimError::Netlist(e)
    }
}

/// Decodes the per-PE configurations out of a bitstream.
///
/// Returns netlist-node → decoded configuration for every PE instance.
///
/// # Errors
/// Fails if a placed PE's tile carries no packed configuration.
pub fn decode_pe_configs(
    netlist: &Netlist,
    rules: &RuleSet,
    dp: &MergedDatapath,
    placement: &Placement,
    bitstream: &Bitstream,
) -> Result<BTreeMap<u32, DatapathConfig>, FabricSimError> {
    // tiles may host several configs (a PE plus streams); consume PE
    // configs per tile in node order, mirroring generation order
    let mut next_pe_cfg: BTreeMap<crate::fabric::TileId, usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for (i, node) in netlist.nodes.iter().enumerate() {
        let NetKind::Pe(inst) = &node.kind else {
            continue;
        };
        let tile = placement.tile_of_node[i]
            .ok_or(FabricSimError::MissingTileConfig { node: i as u32 })?;
        let configs = bitstream
            .tiles
            .get(&tile)
            .ok_or(FabricSimError::MissingTileConfig { node: i as u32 })?;
        let idx = next_pe_cfg.entry(tile).or_insert(0);
        let bits = configs
            .iter()
            .filter_map(|c| match c {
                TileConfig::Pe { bits } => Some(bits),
                _ => None,
            })
            .nth(*idx)
            .ok_or(FabricSimError::MissingTileConfig { node: i as u32 })?;
        *idx += 1;
        let rule = &rules.rules[inst.rule as usize];
        let template = rule.instantiate(&inst.payloads);
        out.insert(i as u32, unpack_config(dp, bits, &template));
    }
    Ok(out)
}

/// Cycle-accurate fabric simulation driven by the decoded bitstream: the
/// decoded configurations override every PE's rule template in
/// [`Netlist::simulate_with`].
///
/// # Errors
/// Propagates decoding and simulation failures.
#[allow(clippy::too_many_arguments)]
pub fn simulate_from_bitstream(
    netlist: &Netlist,
    rules: &RuleSet,
    dp: &MergedDatapath,
    placement: &Placement,
    bitstream: &Bitstream,
    word_streams: &[Vec<u16>],
    bit_streams: &[Vec<bool>],
    pe_latency: u32,
) -> Result<apex_map::SimStreams, FabricSimError> {
    let decoded = decode_pe_configs(netlist, rules, dp, placement, bitstream)?;
    Ok(netlist.simulate_with(dp, rules, word_streams, bit_streams, pe_latency, &decoded)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::generate_bitstream;
    use crate::fabric::{Fabric, FabricConfig};
    use crate::place::{place, PlaceOptions};
    use crate::route::{route, RouteOptions};
    use apex_map::map_application;
    use apex_pe::baseline_pe;
    use apex_rewrite::standard_ruleset;

    #[test]
    fn bitstream_driven_simulation_matches_golden_model() {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
        let design = map_application(&app.graph, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(&design.netlist, &fabric, &PlaceOptions::default()).unwrap();
        let routing =
            route(&design.netlist, &rules, &fabric, &placement, &RouteOptions::default()).unwrap();
        let bitstream = generate_bitstream(
            &design.netlist,
            &rules,
            &pe.datapath,
            &fabric,
            &placement,
            &routing,
        );

        let n_in = design
            .netlist
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, apex_map::NetKind::WordInput))
            .count();
        let streams: Vec<Vec<u16>> = (0..n_in)
            .map(|i| (0..4).map(|t| (i as u16 * 31 + t * 7) & 0xFF).collect())
            .collect();

        let golden = design.netlist.simulate(&pe.datapath, &rules, &streams, &[], 0).unwrap();
        let decoded = simulate_from_bitstream(
            &design.netlist,
            &rules,
            &pe.datapath,
            &placement,
            &bitstream,
            &streams,
            &[],
            0,
        )
        .unwrap();
        assert_eq!(golden, decoded, "decoded bitstream must execute identically");
    }

    #[test]
    fn missing_tile_config_is_reported() {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
        let design = map_application(&app.graph, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(&design.netlist, &fabric, &PlaceOptions::default()).unwrap();
        let empty = Bitstream {
            tiles: BTreeMap::new(),
            total_bits: 0,
        };
        let err =
            decode_pe_configs(&design.netlist, &rules, &pe.datapath, &placement, &empty)
                .unwrap_err();
        assert!(matches!(err, FabricSimError::MissingTileConfig { .. }));
    }
}

#[cfg(test)]
mod corruption_tests {
    use super::*;
    use crate::bitstream::generate_bitstream;
    use crate::fabric::{Fabric, FabricConfig};
    use crate::place::{place, PlaceOptions};
    use crate::route::{route, RouteOptions};
    use apex_map::map_application;
    use apex_pe::baseline_pe;
    use apex_rewrite::standard_ruleset;

    /// The bitstream must be load-bearing: corrupting configuration bits
    /// changes the computed results (i.e. the decoded-simulation path is
    /// not accidentally reading the rule templates).
    #[test]
    fn corrupted_bitstreams_change_behaviour() {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
        let design = map_application(&app.graph, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(&design.netlist, &fabric, &PlaceOptions::default()).unwrap();
        let routing =
            route(&design.netlist, &rules, &fabric, &placement, &RouteOptions::default()).unwrap();
        let bitstream = generate_bitstream(
            &design.netlist,
            &rules,
            &pe.datapath,
            &fabric,
            &placement,
            &routing,
        );
        let n_in = design
            .netlist
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, apex_map::NetKind::WordInput))
            .count();
        let streams: Vec<Vec<u16>> = (0..n_in).map(|i| vec![(i as u16 * 13 + 5) & 0xFF]).collect();
        let golden = simulate_from_bitstream(
            &design.netlist,
            &rules,
            &pe.datapath,
            &placement,
            &bitstream,
            &streams,
            &[],
            0,
        )
        .unwrap();

        // flip each bit of the first PE tile's configuration; at least
        // half the flips must visibly change some output
        let (&tile, _) = bitstream
            .tiles
            .iter()
            .find(|(_, cs)| cs.iter().any(|c| matches!(c, TileConfig::Pe { .. })))
            .expect("a configured PE tile");
        let n_bits = {
            let TileConfig::Pe { bits } = bitstream.tiles[&tile]
                .iter()
                .find(|c| matches!(c, TileConfig::Pe { .. }))
                .unwrap()
            else {
                unreachable!()
            };
            bits.len() * 8
        };
        let mut changed = 0usize;
        for flip in 0..n_bits {
            let mut corrupted = bitstream.clone();
            for c in corrupted.tiles.get_mut(&tile).unwrap() {
                if let TileConfig::Pe { bits } = c {
                    bits[flip / 8] ^= 1 << (flip % 8);
                    break;
                }
            }
            // a flip may decode to an illegal configuration (mux select
            // beyond the candidate list) — clearly behaviour-changing
            let decoded = decode_pe_configs(
                &design.netlist,
                &rules,
                &pe.datapath,
                &placement,
                &corrupted,
            )
            .unwrap();
            if decoded
                .values()
                .any(|cfg| pe.datapath.validate_config(cfg).is_err())
            {
                changed += 1;
                continue;
            }
            let out = simulate_from_bitstream(
                &design.netlist,
                &rules,
                &pe.datapath,
                &placement,
                &corrupted,
                &streams,
                &[],
                0,
            )
            .unwrap();
            if out != golden {
                changed += 1;
            }
        }
        assert!(
            changed * 2 >= n_bits / 2,
            "configuration bits must be load-bearing: only {changed}/{n_bits} flips mattered"
        );
    }
}
