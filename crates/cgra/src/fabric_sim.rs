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
//! Decoding walks a per-tile cursor over the bitstream's PE
//! configurations and decodes each onto its rule's own configuration,
//! which supplies what bits cannot (the activity mask, the input maps),
//! so each PE's configuration is cloned once. The result is indexed by
//! netlist node, the override table [`Netlist::simulate_with`] takes. A
//! missing or truncated configuration, or one that selects an op its unit
//! does not have, is a [`FabricSimError`], never a panic.
//!
//! There is one simulation engine: decoded configurations run on the
//! netlist's table-compiled lane simulator ([`Netlist::simulate_with`]),
//! which evaluates each instruction over all cycles at once and stops at
//! the netlist's settle depth, filling the remaining drain cycles with
//! the settled values. Its test-only specs (the cycle-major loop and the
//! decode-per-access interpreter) live in `apex-map`. The property suite
//! here requires the decoded run to equal a run on the rule templates
//! themselves.

use crate::bitstream::{Bitstream, TileConfig};
use crate::place::Placement;
use apex_map::{NetKind, Netlist, NetlistError};
use apex_merge::{DatapathConfig, MergedDatapath};
use apex_pe::{unpack_config, UnpackError};
use apex_rewrite::RuleSet;

/// Errors while reconstructing the configuration state from a bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricSimError {
    /// A PE instance's tile has no packed PE configuration.
    MissingTileConfig {
        /// The unconfigured netlist node.
        node: u32,
    },
    /// A PE instance's packed configuration is shorter than the
    /// datapath's configuration width.
    TruncatedConfig {
        /// The netlist node whose configuration is cut short.
        node: u32,
    },
    /// A PE instance's packed configuration selects an op beyond its
    /// unit's op count, which packing never writes.
    OpSelect {
        /// The netlist node whose configuration is corrupt.
        node: u32,
        /// The datapath unit.
        unit: u32,
        /// The select's value.
        select: u64,
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
            FabricSimError::TruncatedConfig { node } => {
                write!(f, "node {node}: PE configuration in the bitstream is truncated")
            }
            FabricSimError::OpSelect { node, unit, select } => write!(
                f,
                "node {node}: PE configuration in the bitstream selects op {select} \
                 of unit {unit}, which has fewer ops"
            ),
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
/// Returns the decoded configuration of every PE instance, indexed by
/// netlist node (`None` for the other nodes). Each PE decodes onto its
/// rule's own configuration as the template — the activity mask and input
/// maps `unpack_config` cannot read from bits, and which instantiation
/// leaves untouched — so its configuration is cloned once.
///
/// # Errors
/// Fails at the first PE instance, in node order, whose tile carries no
/// packed configuration, a truncated one, or one whose op select names
/// an op its unit does not have.
pub fn decode_pe_configs(
    netlist: &Netlist,
    rules: &RuleSet,
    dp: &MergedDatapath,
    placement: &Placement,
    bitstream: &Bitstream,
) -> Result<Vec<Option<DatapathConfig>>, FabricSimError> {
    // dense per-tile views of the bitstream, and a cursor per tile: tiles
    // may host several configs (a PE plus streams); PE configs are
    // consumed per tile in node order, mirroring generation order
    let n_tiles = bitstream
        .tiles
        .last_key_value()
        .map_or(0, |(t, _)| t.0 as usize + 1);
    let mut configs: Vec<&[TileConfig]> = vec![&[]; n_tiles];
    for (t, list) in &bitstream.tiles {
        configs[t.0 as usize] = list;
    }
    let mut cursor = vec![0usize; n_tiles];
    let mut out = vec![None; netlist.nodes.len()];
    for (i, node) in netlist.nodes.iter().enumerate() {
        let NetKind::Pe(inst) = &node.kind else {
            continue;
        };
        let missing = FabricSimError::MissingTileConfig { node: i as u32 };
        let t = placement.tile_of_node[i].ok_or(missing.clone())?.0 as usize;
        let (Some(list), Some(at)) = (configs.get(t), cursor.get_mut(t)) else {
            return Err(missing);
        };
        let (k, bits) = list
            .iter()
            .enumerate()
            .skip(*at)
            .find_map(|(k, c)| match c {
                TileConfig::Pe { bits } => Some((k, bits)),
                _ => None,
            })
            .ok_or(missing)?;
        *at = k + 1;
        let rule = &rules.rules[inst.rule as usize];
        let node = i as u32;
        let cfg = unpack_config(dp, bits, &rule.config).map_err(|e| match e {
            UnpackError::Truncated => FabricSimError::TruncatedConfig { node },
            UnpackError::OpSelect { unit, select } => {
                FabricSimError::OpSelect { node, unit, select }
            }
        })?;
        out[i] = Some(cfg);
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
    use std::collections::BTreeMap;

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

    /// Cutting the last byte off any PE configuration is a typed error
    /// naming that PE, never a panic.
    #[test]
    fn truncated_pe_configs_are_reported() {
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
        let streams: Vec<Vec<u16>> = vec![vec![1, 2, 3]; 4];
        let mut cut = 0;
        for (node, tile) in placement.tile_of_node.iter().enumerate() {
            if !matches!(design.netlist.nodes[node].kind, apex_map::NetKind::Pe(_)) {
                continue;
            }
            let tile = tile.expect("PEs are placed");
            let mut short = bitstream.clone();
            let Some(TileConfig::Pe { bits }) = short
                .tiles
                .get_mut(&tile)
                .and_then(|cs| cs.iter_mut().find(|c| matches!(c, TileConfig::Pe { .. })))
            else {
                panic!("node {node}'s tile has a PE configuration");
            };
            bits.pop();
            let err = simulate_from_bitstream(
                &design.netlist,
                &rules,
                &pe.datapath,
                &placement,
                &short,
                &streams,
                &[],
                0,
            )
            .unwrap_err();
            assert_eq!(err, FabricSimError::TruncatedConfig { node: node as u32 });
            cut += 1;
        }
        assert_eq!(cut, design.netlist.pe_count());
    }

    /// Setting the 14-op ALU's 4-bit op select to 15 in a PE's
    /// configuration is a typed error naming that PE and unit: the RTL's
    /// `case` computes 0 for the value, so decoding it as any op would make
    /// the simulation disagree with the hardware.
    #[test]
    fn op_select_beyond_the_units_ops_is_reported() {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let dp = &pe.datapath;
        let (rules, _) = standard_ruleset(dp, &[], &[&app.graph]).unwrap();
        let design = map_application(&app.graph, dp, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(&design.netlist, &fabric, &PlaceOptions::default()).unwrap();
        let routing =
            route(&design.netlist, &rules, &fabric, &placement, &RouteOptions::default()).unwrap();
        let mut bitstream =
            generate_bitstream(&design.netlist, &rules, dp, &fabric, &placement, &routing);
        let alu = dp.nodes.iter().position(|n| n.ops.len() == 14).unwrap();
        let (mut at, mut lo) = (0, 0);
        apex_pe::for_each_field(dp, |field, width| {
            if field == apex_pe::Field::OpSelect(alu) {
                lo = at;
            }
            at += width;
        });
        let node = design.netlist.nodes.iter()
            .position(|n| matches!(n.kind, apex_map::NetKind::Pe(_)))
            .unwrap();
        let tile = placement.tile_of_node[node].unwrap();
        let Some(TileConfig::Pe { bits }) = bitstream
            .tiles
            .get_mut(&tile)
            .and_then(|cs| cs.iter_mut().find(|c| matches!(c, TileConfig::Pe { .. })))
        else {
            panic!("the first PE's tile has a PE configuration");
        };
        for b in lo..lo + 4 {
            bits[b / 8] |= 1 << (b % 8);
        }
        let err = decode_pe_configs(&design.netlist, &rules, dp, &placement, &bitstream)
            .unwrap_err();
        let expected = FabricSimError::OpSelect {
            node: node as u32,
            unit: alu as u32,
            select: 15,
        };
        assert_eq!(err, expected);
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
            // a flip may select an op its unit lacks, which decoding
            // refuses, or decode to an illegal configuration (mux select
            // beyond the candidate list) — clearly behaviour-changing
            let decoded = decode_pe_configs(
                &design.netlist,
                &rules,
                &pe.datapath,
                &placement,
                &corrupted,
            );
            let Ok(decoded) = decoded else {
                changed += 1;
                continue;
            };
            if decoded
                .iter()
                .flatten()
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
