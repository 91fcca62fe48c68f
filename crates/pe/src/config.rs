//! The layout of a PE's configuration word: the one definition of which
//! fields it holds, in what order, and how wide each is.
//!
//! [`for_each_field`] walks a [`MergedDatapath`] and visits every field
//! with its width, lowest bits first. Per functional unit it visits the
//! op select, then one payload register per payload op in op order
//! (`Const` 16 bits, `BitConst` 1, `Lut` 8), then one select per input
//! port. After the units come one select per word output and per bit
//! output. An output select indexes the PE's source space: word inputs,
//! bit inputs, then units. A select over `n` choices is
//! [`select_width`]`(n)` bits wide, which is zero for a single choice.
//!
//! Every consumer reads this walk: [`crate::config_bits`] sums its widths,
//! [`crate::emit_verilog`] slices the `cfg` port along it, and
//! [`pack_config`] / [`unpack_config`] write and read the bitstream's PE
//! configurations along it. The codec packs fields straight into bytes and
//! reads them back whole, one bounds check per field, without allocating
//! per field. A truncated configuration, or an op select the packer never
//! writes, is an [`UnpackError`], never a panic.
//!
//! The walk is a loop nest calling a closure, not an iterator, because
//! every PE of a bitstream is packed and decoded along it. The codec's
//! closures are `#[inline(always)]`, so the `match` on each visited
//! field resolves where the walk visits it, and the helpers the generic
//! [`pack_config_with`] calls are `#[inline]`, so they also inline into
//! the crate that instantiates it. An iterator walk, or the same walk
//! without the inlining, packs and decodes measurably slower.

use apex_ir::{Op, ValueType};
use apex_merge::{DatapathConfig, DpNode, DpSource, MergedDatapath};

/// One field of a PE's configuration word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Field {
    /// `OpSelect(unit)`: which of the unit's ops runs.
    OpSelect(usize),
    /// `Payload(unit, op)`: the payload register of the unit's op `op`
    /// (an index among the unit's ops).
    Payload(usize, usize),
    /// `PortSelect(unit, port)`: which candidate drives the unit's port.
    PortSelect(usize, usize),
    /// `OutputSelect(ty, output)`: which source drives the `output`-th
    /// output of type `ty`.
    OutputSelect(ValueType, usize),
}

/// Bits needed to select one of `choices` alternatives.
#[inline]
pub fn select_width(choices: usize) -> usize {
    if choices <= 1 {
        0
    } else {
        (usize::BITS - (choices - 1).leading_zeros()) as usize
    }
}

/// Width of the payload register an op carries, if it carries one.
#[inline]
fn payload_width(op: Op) -> Option<usize> {
    match op {
        Op::Const(_) => Some(16),
        Op::BitConst(_) => Some(1),
        Op::Lut(_) => Some(8),
        _ => None,
    }
}

/// Calls `visit` on every field of the datapath's configuration word
/// with its width, in layout order (see the module doc).
pub fn for_each_field(dp: &MergedDatapath, mut visit: impl FnMut(Field, usize)) {
    for (node, unit) in dp.nodes.iter().enumerate() {
        visit(Field::OpSelect(node), select_width(unit.ops.len()));
        for (op, &o) in unit.ops.iter().enumerate() {
            if let Some(width) = payload_width(o) {
                visit(Field::Payload(node, op), width);
            }
        }
        for (port, candidates) in unit.port_candidates.iter().enumerate() {
            visit(Field::PortSelect(node, port), select_width(candidates.len()));
        }
    }
    let width = select_width(source_count(dp));
    for (ty, outputs) in [(ValueType::Word, dp.word_outputs), (ValueType::Bit, dp.bit_outputs)] {
        for output in 0..outputs {
            visit(Field::OutputSelect(ty, output), width);
        }
    }
}

/// Size of the PE's source space, which output selects index.
pub(crate) fn source_count(dp: &MergedDatapath) -> usize {
    dp.word_inputs + dp.bit_inputs + dp.nodes.len()
}

/// A source's index in the PE's source space.
#[inline]
fn source_index(dp: &MergedDatapath, src: DpSource) -> usize {
    match src {
        DpSource::WordInput(k) => k as usize,
        DpSource::BitInput(k) => dp.word_inputs + k as usize,
        DpSource::Node(j) => dp.word_inputs + dp.bit_inputs + j as usize,
    }
}

/// The source at index `k` of the PE's source space.
pub(crate) fn source_at(dp: &MergedDatapath, k: usize) -> DpSource {
    if k < dp.word_inputs {
        DpSource::WordInput(k as u16)
    } else if k < dp.word_inputs + dp.bit_inputs {
        DpSource::BitInput((k - dp.word_inputs) as u16)
    } else {
        DpSource::Node((k - dp.word_inputs - dp.bit_inputs) as u32)
    }
}

/// The index of `op` among the unit's ops; payload ops match by kind.
#[inline]
fn op_index(unit: &DpNode, op: Op) -> Option<usize> {
    unit.ops.iter().position(|o| match (o, op) {
        (Op::Const(_), Op::Const(_))
        | (Op::BitConst(_), Op::BitConst(_))
        | (Op::Lut(_), Op::Lut(_)) => true,
        (a, b) => *a == b,
    })
}

/// Little-endian bit packer writing fields straight into bytes.
#[derive(Default)]
struct BitWriter {
    bytes: Vec<u8>,
    len: usize,
}

impl BitWriter {
    /// Appends the low `width` bits of `value`.
    #[inline]
    fn put(&mut self, mut value: u64, width: usize) {
        let mut left = width;
        while left > 0 {
            let off = self.len % 8;
            if off == 0 {
                self.bytes.push(0);
            }
            let n = (8 - off).min(left);
            self.bytes[self.len / 8] |= ((value & ((1 << n) - 1)) as u8) << off;
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

/// Packs a datapath configuration into little-endian bytes along the
/// layout. Inactive units and unset selects pack as zeros.
pub fn pack_config(dp: &MergedDatapath, cfg: &DatapathConfig) -> Vec<u8> {
    pack_config_with(dp, cfg, |_| None)
}

/// [`pack_config`] with `payload(node)`, where it is some, in place of
/// that active unit's op: a PE instance packs its rule's configuration
/// with the instance's payloads without building the instantiated copy.
pub fn pack_config_with(
    dp: &MergedDatapath,
    cfg: &DatapathConfig,
    payload: impl Fn(usize) -> Option<Op>,
) -> Vec<u8> {
    let mut bits = BitWriter::default();
    // the index and op the unit being walked runs, if it is active
    let mut active: Option<(usize, Op)> = None;
    for_each_field(dp, #[inline(always)] |field, width| {
        let value = match field {
            Field::OpSelect(node) => {
                let op = cfg
                    .node_cfg
                    .get(node)
                    .and_then(Option::as_ref)
                    .map(|nc| payload(node).unwrap_or(nc.op));
                let k = op.and_then(|op| op_index(&dp.nodes[node], op)).unwrap_or(0);
                active = op.map(|op| (k, op));
                k as u64
            }
            Field::Payload(node, op) => match (dp.nodes[node].ops[op], active) {
                (Op::Const(_), Some((k, Op::Const(v)))) if k == op => u64::from(v),
                (Op::BitConst(_), Some((k, Op::BitConst(b)))) if k == op => u64::from(b),
                (Op::Lut(_), Some((k, Op::Lut(t)))) if k == op => u64::from(t),
                _ => 0,
            },
            Field::PortSelect(node, port) => cfg
                .node_cfg
                .get(node)
                .and_then(Option::as_ref)
                .and_then(|nc| nc.port_sel.get(port))
                .map_or(0, |&sel| u64::from(sel)),
            Field::OutputSelect(ty, output) => {
                let word = ty == ValueType::Word;
                let sel = if word { &cfg.word_out_sel } else { &cfg.bit_out_sel };
                sel.get(output).map_or(0, |&src| source_index(dp, src) as u64)
            }
        };
        bits.put(value, width);
    });
    bits.bytes
}

/// Why a packed configuration does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnpackError {
    /// The bytes are shorter than the datapath's configuration width.
    Truncated,
    /// A unit's op select names an op the unit does not have: the packer
    /// never writes it, and the emitted RTL computes 0 for it.
    OpSelect {
        /// The unit.
        unit: u32,
        /// The select's value.
        select: u64,
    },
}

/// Decodes a packed configuration back into a [`DatapathConfig`].
///
/// The inverse of [`pack_config`]: node activity cannot be recovered from
/// bits alone (an inactive node and an active node configured to op 0 with
/// zero selections pack identically), so `template` supplies the activity
/// mask, the input maps and the name — everything else (every active
/// node's op and payload, mux selections, output selections) is taken
/// from `bytes`. Any configuration with the same activity mask serves as
/// the template, such as the rule's own uninstantiated one. The
/// fabric-simulation path uses it to prove the bitstream is faithful:
/// decode-then-simulate must equal the golden model.
///
/// # Errors
/// [`UnpackError::Truncated`] when `bytes` is shorter than the datapath's
/// configuration width, [`UnpackError::OpSelect`] at the first op select,
/// active unit or not, beyond its unit's op count.
pub fn unpack_config(
    dp: &MergedDatapath,
    bytes: &[u8],
    template: &DatapathConfig,
) -> Result<DatapathConfig, UnpackError> {
    let mut bits = BitReader { bytes, pos: 0 };
    let mut cfg = template.clone();
    // the op index the unit being walked selects
    let mut selected = 0;
    let mut failed = None;
    for_each_field(dp, #[inline(always)] |field, width| {
        if failed.is_some() {
            return;
        }
        let Some(v) = bits.take(width) else {
            failed = Some(UnpackError::Truncated);
            return;
        };
        match field {
            Field::OpSelect(node) => {
                selected = v as usize;
                let Some(&op) = dp.nodes[node].ops.get(selected) else {
                    let unit = node as u32;
                    failed = Some(UnpackError::OpSelect { unit, select: v });
                    return;
                };
                if let Some(Some(nc)) = cfg.node_cfg.get_mut(node) {
                    nc.op = op;
                }
            }
            Field::Payload(node, op) if op == selected => {
                if let Some(Some(nc)) = cfg.node_cfg.get_mut(node) {
                    nc.op = match dp.nodes[node].ops[op] {
                        Op::Const(_) => Op::Const(v as u16),
                        Op::BitConst(_) => Op::BitConst(v == 1),
                        // the walk yields payload fields for payload ops only
                        _ => Op::Lut(v as u8),
                    };
                }
            }
            Field::Payload(..) => {}
            Field::PortSelect(node, port) => {
                if let Some(Some(nc)) = cfg.node_cfg.get_mut(node) {
                    if let Some(slot) = nc.port_sel.get_mut(port) {
                        *slot = v as u32;
                    }
                }
            }
            Field::OutputSelect(ty, output) => {
                let word = ty == ValueType::Word;
                let sel = if word { &mut cfg.word_out_sel } else { &mut cfg.bit_out_sel };
                if let Some(slot) = sel.get_mut(output) {
                    *slot = source_at(dp, v as usize);
                }
            }
        }
    });
    failed.map_or(Ok(cfg), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::baseline_pe;
    use crate::cost::config_bits;
    use apex_ir::Graph;
    use apex_merge::{merge_all, MergeOptions};
    use apex_tech::TechModel;

    #[test]
    fn select_width_counts_choices() {
        assert_eq!(select_width(0), 0);
        assert_eq!(select_width(1), 0);
        assert_eq!(select_width(2), 1);
        assert_eq!(select_width(3), 2);
        assert_eq!(select_width(4), 2);
        assert_eq!(select_width(5), 3);
    }

    #[test]
    fn pack_config_width_matches_cost_model() {
        let pe = baseline_pe();
        // an empty configuration still packs to the full config width
        let cfg = DatapathConfig {
            name: "empty".into(),
            node_cfg: vec![None; pe.datapath.nodes.len()],
            word_out_sel: vec![],
            bit_out_sel: vec![],
            word_input_map: vec![],
            bit_input_map: vec![],
            node_map: vec![],
        };
        let bytes = pack_config(&pe.datapath, &cfg);
        assert_eq!(bytes.len(), config_bits(&pe.datapath).div_ceil(8));
    }

    #[test]
    fn pack_unpack_round_trips_every_stored_config() {
        // a merged two-config datapath exercises op selects, payloads,
        // mux selections, and output selections
        let mut g1 = Graph::new("mac");
        let (a, b, c) = (g1.input(), g1.input(), g1.input());
        let m = g1.add(Op::Mul, &[a, b]);
        let s = g1.add(Op::Add, &[m, c]);
        g1.output(s);
        let mut g2 = Graph::new("scale");
        let x = g2.input();
        let w = g2.constant(7);
        let p = g2.add(Op::Mul, &[x, w]);
        let d = g2.add(Op::Sub, &[p, x]);
        g2.output(d);
        let (dp, _) =
            merge_all(&[g1, g2], &TechModel::default(), &MergeOptions::default()).unwrap();
        for cfg in &dp.configs {
            let bytes = pack_config(&dp, cfg);
            let decoded = unpack_config(&dp, &bytes, cfg);
            assert_eq!(decoded.as_ref(), Ok(cfg), "decode(encode(cfg)) == cfg");
            // every shorter prefix is refused, never read past its end
            for len in 0..bytes.len() {
                let short = unpack_config(&dp, &bytes[..len], cfg);
                assert_eq!(short, Err(UnpackError::Truncated), "{len} bytes");
            }
        }
    }

    /// An op select beyond its unit's op count, which the packer never
    /// writes and the RTL's `case` computes 0 for, is refused: the
    /// baseline ALU's 14 ops take a 4-bit select, so 14 and 15 are free.
    #[test]
    fn op_select_beyond_the_units_ops_is_refused() {
        let dp = baseline_pe().datapath;
        let alu = dp.nodes.iter().position(|n| n.ops.len() == 14).unwrap();
        let template = DatapathConfig {
            name: "alu".into(),
            node_cfg: vec![None; dp.nodes.len()],
            word_out_sel: vec![],
            bit_out_sel: vec![],
            word_input_map: vec![],
            bit_input_map: vec![],
            node_map: vec![],
        };
        let (mut at, mut lo) = (0, 0);
        for_each_field(&dp, |field, width| {
            if field == Field::OpSelect(alu) {
                lo = at;
            }
            at += width;
        });
        for select in 0..16u64 {
            let mut bytes = pack_config(&dp, &template);
            for b in 0..4 {
                if select >> b & 1 == 1 {
                    bytes[(lo + b) / 8] |= 1 << ((lo + b) % 8);
                }
            }
            let decoded = unpack_config(&dp, &bytes, &template);
            if select < 14 {
                assert!(decoded.is_ok(), "select {select}");
            } else {
                let unit = alu as u32;
                assert_eq!(decoded, Err(UnpackError::OpSelect { unit, select }));
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
        let mut w = BitWriter::default();
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
        let mut g = Graph::new("aff");
        let x = g.input();
        let w = g.constant(13);
        let b = g.constant(5);
        let m = g.add(Op::Mul, &[x, w]);
        let s = g.add(Op::Add, &[m, b]);
        g.output(s);
        let dp = MergedDatapath::from_graph(&g);
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
        let mut g = Graph::new("scale");
        let a = g.input();
        let c = g.constant(7);
        let m = g.add(Op::Mul, &[a, c]);
        g.output(m);
        let dp = MergedDatapath::from_graph(&g);
        let mut cfg2 = dp.configs[0].clone();
        for nc in cfg2.node_cfg.iter_mut().flatten() {
            if matches!(nc.op, Op::Const(_)) {
                nc.op = Op::Const(9);
            }
        }
        assert_ne!(pack_config(&dp, &dp.configs[0]), pack_config(&dp, &cfg2));
    }
}
