//! Configuration bitstream generation (paper Section 4, step 3c).
//!
//! Packs every tile's configuration: PE tiles get their datapath
//! configuration (op selects, mux selects, constants) in the same bit
//! layout the Verilog emitter uses; switch boxes get one entry per routed
//! hop (input side/track → output side/track); connection boxes get the
//! selected track per PE input.
//!
//! Fields are packed straight into bytes and read back whole, with one
//! bounds check per field, so a truncated configuration decodes to `None`
//! instead of panicking. Generation collects each tile's configurations
//! and crossings in dense per-tile lists and assigns tracks on the
//! fabric's dense link ids ([`Fabric::edge`]); the sorted
//! [`Bitstream::tiles`] map is built once, at the end.

use crate::fabric::{Fabric, TileId};
use crate::place::Placement;
use crate::route::Routing;
use apex_ir::Op;
use apex_map::{NetKind, Netlist};
use apex_merge::{DatapathConfig, MergedDatapath};
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

/// Bits needed to select one of `choices` alternatives.
fn width_for(choices: usize) -> usize {
    if choices <= 1 {
        0
    } else {
        (usize::BITS - (choices - 1).leading_zeros()) as usize
    }
}

/// Little-endian bit packer writing fields straight into bytes.
struct BitWriter {
    bytes: Vec<u8>,
    len: usize,
}

impl BitWriter {
    /// Appends the low `width` bits of `value`.
    fn put(&mut self, mut value: u64, width: usize) {
        let mut left = width;
        while left > 0 {
            let off = self.len % 8;
            if off == 0 {
                self.bytes.push(0);
            }
            let n = (8 - off).min(left);
            if let Some(last) = self.bytes.last_mut() {
                *last |= ((value & ((1 << n) - 1)) as u8) << off;
            }
            value >>= n;
            self.len += n;
            left -= n;
        }
    }
}

/// Little-endian bit reader over a packed configuration.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl BitReader<'_> {
    /// The next `width` bits, or `None` past the end of the bytes.
    fn take(&mut self, width: usize) -> Option<u64> {
        if self.pos + width > self.bytes.len() * 8 {
            return None;
        }
        let mut v = 0u64;
        let mut got = 0;
        while got < width {
            let bit = self.pos + got;
            let n = (8 - bit % 8).min(width - got);
            let chunk = u64::from(self.bytes[bit / 8] >> (bit % 8)) & ((1 << n) - 1);
            v |= chunk << got;
            got += n;
        }
        self.pos += width;
        Some(v)
    }
}

/// Packs a datapath configuration into bits, mirroring the layout of
/// `apex_pe::config_bits` / the Verilog emitter.
pub fn pack_config(dp: &MergedDatapath, cfg: &DatapathConfig) -> Vec<u8> {
    pack(dp, cfg, |_| None)
}

/// Packs the configuration of a PE instance: the bits
/// `pack_config(dp, &rule.instantiate(payloads))` gives, read from the
/// rule's configuration and its payload bindings without building the
/// instantiated copy.
fn pack_instance(dp: &MergedDatapath, rule: &RewriteRule, payloads: &[Op]) -> Vec<u8> {
    debug_assert_eq!(payloads.len(), rule.payload_bindings.len());
    pack(dp, &rule.config, |node| {
        // a later binding of the same node overrides an earlier one, as
        // in `instantiate`
        let mut bound = rule.payload_bindings.iter().zip(payloads).rev();
        bound.find_map(|(&(_, dp_node), &op)| (dp_node as usize == node).then_some(op))
    })
}

/// [`pack_config`] with `payload(node)`, where it is some, in place of
/// that active node's op.
fn pack(
    dp: &MergedDatapath,
    cfg: &DatapathConfig,
    payload: impl Fn(usize) -> Option<Op>,
) -> Vec<u8> {
    let mut bits = BitWriter {
        bytes: Vec::new(),
        len: 0,
    };
    for (i, node) in dp.nodes.iter().enumerate() {
        let nc = cfg.node_cfg.get(i).and_then(Option::as_ref);
        let configured = nc.map(|nc| payload(i).unwrap_or(nc.op));
        // op select
        let op_idx = configured
            .and_then(|op| {
                node.ops.iter().position(|o| match (o, &op) {
                    (Op::Const(_), Op::Const(_)) => true,
                    (Op::BitConst(_), Op::BitConst(_)) => true,
                    (Op::Lut(_), Op::Lut(_)) => true,
                    (a, b) => a == b,
                })
            })
            .unwrap_or(0);
        bits.put(op_idx as u64, width_for(node.ops.len()));
        // payloads
        for (k, op) in node.ops.iter().enumerate() {
            let active = configured.filter(|_| k == op_idx);
            match op {
                Op::Const(_) => {
                    let v = match active {
                        Some(Op::Const(v)) => v,
                        _ => 0,
                    };
                    bits.put(u64::from(v), 16);
                }
                Op::BitConst(_) => {
                    let v = matches!(active, Some(Op::BitConst(true)));
                    bits.put(u64::from(v), 1);
                }
                Op::Lut(_) => {
                    let v = match active {
                        Some(Op::Lut(t)) => t,
                        _ => 0,
                    };
                    bits.put(u64::from(v), 8);
                }
                _ => {}
            }
        }
        // port selects
        for (p, cands) in node.port_candidates.iter().enumerate() {
            let sel = nc
                .and_then(|nc| nc.port_sel.get(p))
                .copied()
                .unwrap_or(0);
            bits.put(u64::from(sel), width_for(cands.len()));
        }
    }
    // output selections
    let total_sources = dp.nodes.len() + dp.word_inputs + dp.bit_inputs;
    let w = width_for(total_sources);
    for o in 0..dp.word_outputs {
        let v = cfg
            .word_out_sel
            .get(o)
            .map(|s| source_index(dp, *s))
            .unwrap_or(0);
        bits.put(v as u64, w);
    }
    for o in 0..dp.bit_outputs {
        let v = cfg
            .bit_out_sel
            .get(o)
            .map(|s| source_index(dp, *s))
            .unwrap_or(0);
        bits.put(v as u64, w);
    }
    bits.bytes
}

/// Decodes a packed configuration back into a [`DatapathConfig`].
///
/// The inverse of [`pack_config`]: node activity cannot be recovered from
/// bits alone (an inactive node and an active node configured to op 0 with
/// zero selections pack identically), so `template` supplies the activity
/// mask, the input maps and the name — everything else (every active
/// node's op and payload, mux selections, output selections) is taken
/// from `bytes`. Any configuration with the same activity mask serves as
/// the template, such as the rule's own uninstantiated one. Used by the
/// fabric-simulation path to prove the bitstream is faithful:
/// decode-then-simulate must equal the golden model.
///
/// Returns `None` when `bytes` is shorter than the datapath's
/// configuration width.
pub fn unpack_config(
    dp: &MergedDatapath,
    bytes: &[u8],
    template: &DatapathConfig,
) -> Option<DatapathConfig> {
    let mut bits = BitReader { bytes, pos: 0 };
    let mut cfg = template.clone();
    for (i, node) in dp.nodes.iter().enumerate() {
        let op_idx = bits.take(width_for(node.ops.len()))? as usize;
        // payloads, in op order; only the selected op's payload applies
        let mut decoded_op = *node.ops.get(op_idx).unwrap_or(&node.ops[0]);
        for (k, op) in node.ops.iter().enumerate() {
            let payload = match op {
                Op::Const(_) => Op::Const(bits.take(16)? as u16),
                Op::BitConst(_) => Op::BitConst(bits.take(1)? == 1),
                Op::Lut(_) => Op::Lut(bits.take(8)? as u8),
                _ => continue,
            };
            if k == op_idx {
                decoded_op = payload;
            }
        }
        match cfg.node_cfg.get_mut(i).and_then(Option::as_mut) {
            Some(nc) => {
                nc.op = decoded_op;
                for (p, cands) in node.port_candidates.iter().enumerate() {
                    let sel = bits.take(width_for(cands.len()))? as u32;
                    if let Some(slot) = nc.port_sel.get_mut(p) {
                        *slot = sel;
                    }
                }
            }
            None => {
                for cands in &node.port_candidates {
                    bits.take(width_for(cands.len()))?;
                }
            }
        }
    }
    let total_sources = dp.nodes.len() + dp.word_inputs + dp.bit_inputs;
    let w = width_for(total_sources);
    for o in 0..dp.word_outputs {
        let v = bits.take(w)? as usize;
        if let Some(slot) = cfg.word_out_sel.get_mut(o) {
            *slot = index_source(dp, v);
        }
    }
    for o in 0..dp.bit_outputs {
        let v = bits.take(w)? as usize;
        if let Some(slot) = cfg.bit_out_sel.get_mut(o) {
            *slot = index_source(dp, v);
        }
    }
    Some(cfg)
}

fn index_source(dp: &MergedDatapath, k: usize) -> apex_merge::DpSource {
    if k < dp.word_inputs {
        apex_merge::DpSource::WordInput(k as u16)
    } else if k < dp.word_inputs + dp.bit_inputs {
        apex_merge::DpSource::BitInput((k - dp.word_inputs) as u16)
    } else {
        apex_merge::DpSource::Node((k - dp.word_inputs - dp.bit_inputs) as u32)
    }
}

fn source_index(dp: &MergedDatapath, s: apex_merge::DpSource) -> usize {
    match s {
        apex_merge::DpSource::WordInput(k) => k as usize,
        apex_merge::DpSource::BitInput(k) => dp.word_inputs + k as usize,
        apex_merge::DpSource::Node(j) => dp.word_inputs + dp.bit_inputs + j as usize,
    }
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

    #[test]
    fn pack_config_width_matches_cost_model() {
        let pe = baseline_pe();
        // an empty configuration still packs to the full config width
        let cfg = apex_merge::DatapathConfig {
            name: "empty".into(),
            node_cfg: vec![None; pe.datapath.nodes.len()],
            word_out_sel: vec![],
            bit_out_sel: vec![],
            word_input_map: vec![],
            bit_input_map: vec![],
            node_map: vec![],
        };
        let bytes = pack_config(&pe.datapath, &cfg);
        let expected = apex_pe::config_bits(&pe.datapath);
        assert_eq!(bytes.len(), expected.div_ceil(8));
    }

    #[test]
    fn pack_unpack_round_trips_every_stored_config() {
        use apex_ir::{Graph, Op};
        use apex_merge::{merge_all, MergeOptions};
        use apex_tech::TechModel;
        // a merged two-config datapath exercises op selects, payloads,
        // mux selections, and output selections
        let mut g1 = Graph::new("mac");
        let (a, b, c) = {
            let a = g1.input();
            let b = g1.input();
            let c = g1.input();
            (a, b, c)
        };
        let m = g1.add(Op::Mul, &[a, b]);
        let s = g1.add(Op::Add, &[m, c]);
        g1.output(s);
        let mut g2 = Graph::new("scale");
        let x = g2.input();
        let w = g2.constant(7);
        let p = g2.add(Op::Mul, &[x, w]);
        let d = g2.add(Op::Sub, &[p, x]);
        g2.output(d);
        let (dp, _) = merge_all(&[g1, g2], &TechModel::default(), &MergeOptions::default()).unwrap();
        for cfg in &dp.configs {
            let bytes = pack_config(&dp, cfg);
            let decoded = unpack_config(&dp, &bytes, cfg);
            assert_eq!(decoded.as_ref(), Some(cfg), "decode(encode(cfg)) == cfg");
            // every shorter prefix is refused, never read past its end
            for len in 0..bytes.len() {
                assert_eq!(unpack_config(&dp, &bytes[..len], cfg), None, "{len} bytes");
            }
        }
    }

    #[test]
    fn bit_fields_round_trip_at_every_alignment() {
        let fields: Vec<(u64, usize)> = (0..200u64)
            .map(|k| {
                let width = (k * 7 % 23) as usize;
                (k.wrapping_mul(0x9E37_79B9_7F4A_7C15), width)
            })
            .collect();
        let mut w = BitWriter {
            bytes: Vec::new(),
            len: 0,
        };
        let mut reference: Vec<bool> = Vec::new();
        for &(v, width) in &fields {
            w.put(v, width);
            reference.extend((0..width).map(|k| (v >> k) & 1 == 1));
        }
        assert_eq!(w.len, reference.len());
        assert_eq!(w.bytes.len(), reference.len().div_ceil(8));
        for (k, &b) in reference.iter().enumerate() {
            assert_eq!((w.bytes[k / 8] >> (k % 8)) & 1 == 1, b, "bit {k}");
        }
        let mut r = BitReader {
            bytes: &w.bytes,
            pos: 0,
        };
        for &(v, width) in &fields {
            let mask = (1u64 << width) - 1;
            assert_eq!(r.take(width), Some(v & mask));
        }
        let slack = w.bytes.len() * 8 - w.len;
        assert_eq!(r.take(slack + 1), None);
    }

    #[test]
    fn decoded_bitstream_simulates_identically() {
        use apex_ir::{Graph, Op};
        let mut g = Graph::new("aff");
        let x = g.input();
        let w = g.constant(13);
        let b = g.constant(5);
        let m = g.add(Op::Mul, &[x, w]);
        let s = g.add(Op::Add, &[m, b]);
        g.output(s);
        let dp = apex_merge::MergedDatapath::from_graph(&g);
        let cfg = &dp.configs[0];
        let decoded = unpack_config(&dp, &pack_config(&dp, cfg), cfg).unwrap();
        for input in [0u16, 1, 99, 40_000] {
            let (a, _) = dp.evaluate(cfg, &[input], &[]).unwrap();
            let (b2, _) = dp.evaluate(&decoded, &[input], &[]).unwrap();
            assert_eq!(a, b2);
        }
    }

    #[test]
    fn distinct_constants_give_distinct_bitstreams() {
        use apex_ir::{Graph, Op};
        let mut g = Graph::new("scale");
        let a = g.input();
        let c = g.constant(7);
        let m = g.add(Op::Mul, &[a, c]);
        g.output(m);
        let dp = apex_merge::MergedDatapath::from_graph(&g);
        let mut cfg2 = dp.configs[0].clone();
        for nc in cfg2.node_cfg.iter_mut().flatten() {
            if matches!(nc.op, Op::Const(_)) {
                nc.op = Op::Const(9);
            }
        }
        assert_ne!(pack_config(&dp, &dp.configs[0]), pack_config(&dp, &cfg2));
    }
}
