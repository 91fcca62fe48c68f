//! Table-compiled cycle-accurate simulation.
//!
//! [`Netlist::simulate_with`] used to pay the full interpretation cost on
//! every cycle of every node: a `BTreeMap` override lookup, a
//! `DatapathConfig` clone (or `Rule::instantiate`), `validate_config`, a
//! datapath topological sort, and a handful of scatter `Vec`s — per PE,
//! per cycle. [`CompiledSim`] hoists all of that to a one-time compile:
//! the netlist is flattened into a dense value array (one slot per node
//! output port) plus a topologically ordered instruction table, and each
//! PE's configuration is resolved/validated once and lowered to a list of
//! datapath-op steps with pre-resolved operand sources. Running a cycle
//! is then a linear sweep: copy delayed values through flat ring buffers,
//! execute PE op steps against a scratch array, collect outputs.
//!
//! This is the only simulation engine in release builds. The
//! interpretation path is kept verbatim as test-only spec code
//! (`Netlist::simulate_with_reference` in `netlist/spec.rs`, compiled
//! under `#[cfg(test)]`), and the property suite there replays this
//! compiler against it (identical output streams, identical errors, over
//! randomized netlists, stream lengths, and configuration overrides).

use crate::netlist::{NetKind, NetlistError, Netlist};
use apex_ir::{Op, Value};
use apex_merge::{DatapathConfig, DpSource, MergedDatapath};
use apex_rewrite::RuleSet;
use std::collections::BTreeMap;

/// A pre-resolved operand source for a compiled PE step.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A netlist value slot (another node's output port this cycle).
    Slot(u32),
    /// An intra-PE intermediate (datapath node index into the scratch
    /// array; validation guarantees it is written before it is read).
    Scratch(u32),
    /// An unmapped PE word port (reads zero, like the reference scatter).
    ZeroWord,
    /// An unmapped PE bit port.
    ZeroBit,
}

/// One datapath functional-unit evaluation inside a compiled PE.
#[derive(Debug, Clone)]
struct Step {
    op: Op,
    /// Destination scratch slot (the datapath node index).
    dst: u32,
    ins: Vec<Src>,
}

/// What a compiled node computes each cycle.
#[derive(Debug, Clone)]
enum InstrKind {
    /// Reg / BitReg / Fifo: pass the producer slot through (the delay is
    /// applied by the shared ring-buffer stage below).
    Delay {
        /// Producer value slot.
        src: u32,
    },
    /// A PE: run the op steps, then gather the configured outputs.
    Pe {
        steps: Vec<Step>,
        outs: Vec<Src>,
    },
}

/// A compiled netlist node (delay elements and PEs only — inputs and
/// outputs are handled by the flat slot lists on [`CompiledSim`]).
#[derive(Debug, Clone)]
struct Instr {
    kind: InstrKind,
    /// First value slot of this node's outputs.
    out_base: u32,
    /// Number of outputs.
    width: u32,
    /// Cycle latency (0 = combinational pass-through).
    lat: u32,
    /// First element of this node's region in the ring-buffer arena
    /// (`lat * width` values).
    ring_base: u32,
}

/// A netlist compiled for repeated cycle evaluation. Compile once per
/// (netlist, configuration) pair, then [`CompiledSim::run`] any number of
/// streams against it; `run` takes `&self` and allocates only the
/// per-run state arrays.
pub struct CompiledSim {
    instrs: Vec<Instr>,
    /// Value slot per `WordInput` node, in node-index order.
    word_in_slots: Vec<u32>,
    bit_in_slots: Vec<u32>,
    /// Node ids backing `word_in_slots` (for `InputShortage` reporting).
    word_in_nodes: Vec<u32>,
    bit_in_nodes: Vec<u32>,
    /// Producer value slot per `WordOutput`/`BitOutput` node.
    word_out_slots: Vec<u32>,
    bit_out_slots: Vec<u32>,
    /// Zero-initialized value array (one slot per node output, typed).
    init_values: Vec<Value>,
    /// Zero-initialized ring arena (delay state starts drained-empty).
    init_ring: Vec<Value>,
    scratch_len: usize,
    /// Sum of all node latencies: extra cycles run past the input streams
    /// so every delayed value reaches the outputs.
    drain: u32,
    /// A configuration error found at compile time, surfaced on the first
    /// run that would actually evaluate a cycle — the reference
    /// interpreter only fails once cycle 0 reaches the offending PE, and
    /// a zero-cycle simulation must stay `Ok`.
    deferred: Option<NetlistError>,
}

impl CompiledSim {
    /// Compiles a netlist against a datapath/ruleset, resolving each PE's
    /// configuration (override or instantiated template) exactly once.
    ///
    /// # Errors
    /// Returns [`NetlistError::Cyclic`] on a cyclic netlist (matching the
    /// reference, which sorts before looking at streams). Configuration
    /// errors are deferred to [`CompiledSim::run`] to match the
    /// reference's evaluate-time reporting.
    pub fn compile(
        netlist: &Netlist,
        dp: &MergedDatapath,
        rules: &RuleSet,
        pe_latency: u32,
        config_overrides: &BTreeMap<u32, DatapathConfig>,
    ) -> Result<CompiledSim, NetlistError> {
        let order = netlist.topo_order()?;
        let n = netlist.nodes.len();

        // flat value layout: one slot per node output port
        let mut val_base = vec![0u32; n];
        let mut init_values: Vec<Value> = Vec::new();
        for i in 0..n as u32 {
            val_base[i as usize] = init_values.len() as u32;
            for t in netlist.output_types(i, rules) {
                init_values.push(Value::zero(t));
            }
        }

        let drain: u32 = (0..n as u32).map(|i| netlist.latency(i, pe_latency)).sum();

        let mut word_in_slots = Vec::new();
        let mut bit_in_slots = Vec::new();
        let mut word_in_nodes = Vec::new();
        let mut bit_in_nodes = Vec::new();
        let mut word_out_slots = Vec::new();
        let mut bit_out_slots = Vec::new();
        for (i, node) in netlist.nodes.iter().enumerate() {
            match node.kind {
                NetKind::WordInput => {
                    word_in_slots.push(val_base[i]);
                    word_in_nodes.push(i as u32);
                }
                NetKind::BitInput => {
                    bit_in_slots.push(val_base[i]);
                    bit_in_nodes.push(i as u32);
                }
                NetKind::WordOutput => {
                    let r = &node.inputs[0];
                    word_out_slots.push(val_base[r.node as usize] + u32::from(r.port));
                }
                NetKind::BitOutput => {
                    let r = &node.inputs[0];
                    bit_out_slots.push(val_base[r.node as usize] + u32::from(r.port));
                }
                _ => {}
            }
        }

        // the datapath topo order is shared by every PE; its failure (a
        // cyclic datapath) surfaces as the first PE's BadConfig, exactly
        // where the reference interpreter reports it
        let dp_order = dp.topo_order();

        let mut instrs: Vec<Instr> = Vec::new();
        let mut init_ring: Vec<Value> = Vec::new();
        let mut deferred: Option<NetlistError> = None;
        for &u in &order {
            let node = &netlist.nodes[u as usize];
            let lat = netlist.latency(u, pe_latency);
            let out_tys = netlist.output_types(u, rules);
            let width = out_tys.len() as u32;
            let ring_base = init_ring.len() as u32;
            if lat > 0 {
                for _ in 0..lat {
                    for t in &out_tys {
                        init_ring.push(Value::zero(*t));
                    }
                }
            }
            let kind = match &node.kind {
                NetKind::WordInput | NetKind::BitInput | NetKind::WordOutput
                | NetKind::BitOutput => continue,
                NetKind::Reg | NetKind::BitReg | NetKind::Fifo(_) => {
                    let r = &node.inputs[0];
                    InstrKind::Delay {
                        src: val_base[r.node as usize] + u32::from(r.port),
                    }
                }
                NetKind::Pe(inst) => {
                    let rule = &rules.rules[inst.rule as usize];
                    let cfg = config_overrides
                        .get(&u)
                        .cloned()
                        .unwrap_or_else(|| rule.instantiate(&inst.payloads));
                    let n_word = rule.config.word_input_map.len();
                    match compile_pe(netlist, dp, &dp_order, u, node, &cfg, n_word, &val_base) {
                        Ok((steps, outs)) => {
                            if outs.len() as u32 != width {
                                // the template promised `width` outputs
                                // but the (decoded) override selects a
                                // different count; the reference would
                                // read out of range — fail cleanly
                                if deferred.is_none() {
                                    deferred = Some(NetlistError::BadConfig {
                                        node: u,
                                        message: "output arity mismatch with decoded configuration"
                                            .to_owned(),
                                    });
                                }
                            }
                            InstrKind::Pe { steps, outs }
                        }
                        Err(e) => {
                            if deferred.is_none() {
                                deferred = Some(e);
                            }
                            // keep a placeholder so slots stay aligned;
                            // run() errors before ever executing it
                            InstrKind::Pe {
                                steps: Vec::new(),
                                outs: Vec::new(),
                            }
                        }
                    }
                }
            };
            instrs.push(Instr {
                kind,
                out_base: val_base[u as usize],
                width,
                lat,
                ring_base,
            });
        }

        Ok(CompiledSim {
            instrs,
            word_in_slots,
            bit_in_slots,
            word_in_nodes,
            bit_in_nodes,
            word_out_slots,
            bit_out_slots,
            init_values,
            init_ring,
            scratch_len: dp.node_count(),
            drain,
            deferred,
        })
    }

    /// Runs the compiled table cycle-accurately over the input streams —
    /// the flat-array equivalent of the spec's `simulate_with_reference`:
    /// same stream binding (node-index order, zero-padded past stream
    /// end), same drain length, same output ordering, same errors.
    ///
    /// # Errors
    /// Fails on missing input streams or (deferred) bad configurations.
    pub fn run(
        &self,
        word_streams: &[Vec<u16>],
        bit_streams: &[Vec<bool>],
    ) -> Result<crate::SimStreams, NetlistError> {
        let n_cycles = word_streams
            .first()
            .map(Vec::len)
            .or_else(|| bit_streams.first().map(Vec::len))
            .unwrap_or(0);
        let total = n_cycles + self.drain as usize;
        if total > 0 {
            // the reference reports the first (by node index) input node
            // whose stream is missing, before any PE evaluates
            if n_cycles > 0 {
                let missing_word = self.word_in_nodes.get(word_streams.len());
                let missing_bit = self.bit_in_nodes.get(bit_streams.len());
                let first = match (missing_word, missing_bit) {
                    (Some(&w), Some(&b)) => Some(w.min(b)),
                    (Some(&w), None) => Some(w),
                    (None, Some(&b)) => Some(b),
                    (None, None) => None,
                };
                if let Some(node) = first {
                    return Err(NetlistError::InputShortage { node });
                }
            }
            if let Some(e) = &self.deferred {
                return Err(e.clone());
            }
        }

        let mut values = self.init_values.clone();
        let mut ring = self.init_ring.clone();
        let mut heads = vec![0u32; self.instrs.len()];
        let mut scratch = vec![Value::Word(0); self.scratch_len];
        let mut comb: Vec<Value> = Vec::with_capacity(8);
        let mut ops: Vec<Value> = Vec::with_capacity(4);
        let mut word_out = vec![Vec::with_capacity(total); self.word_out_slots.len()];
        let mut bit_out = vec![Vec::with_capacity(total); self.bit_out_slots.len()];

        for cycle in 0..total {
            // bind inputs (zero past the end of the streams / the drain)
            for (k, &slot) in self.word_in_slots.iter().enumerate() {
                let v = if cycle < n_cycles {
                    word_streams[k].get(cycle).copied().unwrap_or(0)
                } else {
                    0
                };
                values[slot as usize] = Value::Word(v);
            }
            for (k, &slot) in self.bit_in_slots.iter().enumerate() {
                let v = if cycle < n_cycles {
                    bit_streams[k].get(cycle).copied().unwrap_or(false)
                } else {
                    false
                };
                values[slot as usize] = Value::Bit(v);
            }
            // one topological sweep over the instruction table
            for (ii, instr) in self.instrs.iter().enumerate() {
                comb.clear();
                match &instr.kind {
                    InstrKind::Delay { src } => comb.push(values[*src as usize]),
                    InstrKind::Pe { steps, outs } => {
                        for step in steps {
                            ops.clear();
                            for s in &step.ins {
                                ops.push(resolve(*s, &values, &scratch));
                            }
                            scratch[step.dst as usize] = step.op.eval(&ops);
                        }
                        for s in outs {
                            comb.push(resolve(*s, &values, &scratch));
                        }
                    }
                }
                let base = instr.out_base as usize;
                if instr.lat == 0 {
                    values[base..base + comb.len()].copy_from_slice(&comb);
                } else {
                    // ring buffer: emit the value stored `lat` cycles ago,
                    // store this cycle's in its place
                    let start = instr.ring_base as usize
                        + heads[ii] as usize * instr.width as usize;
                    for (k, v) in comb.iter().enumerate() {
                        values[base + k] = ring[start + k];
                        ring[start + k] = *v;
                    }
                    heads[ii] = (heads[ii] + 1) % instr.lat;
                }
            }
            for (k, &slot) in self.word_out_slots.iter().enumerate() {
                word_out[k].push(values[slot as usize].word());
            }
            for (k, &slot) in self.bit_out_slots.iter().enumerate() {
                bit_out[k].push(values[slot as usize].bit());
            }
        }
        Ok((word_out, bit_out))
    }
}

#[inline]
fn resolve(s: Src, values: &[Value], scratch: &[Value]) -> Value {
    match s {
        Src::Slot(i) => values[i as usize],
        Src::Scratch(j) => scratch[j as usize],
        Src::ZeroWord => Value::Word(0),
        Src::ZeroBit => Value::Bit(false),
    }
}

/// Lowers one PE's configuration to op steps + output gathers. Mirrors
/// `MergedDatapath::evaluate_as_source`: validate, scatter the netlist
/// inputs onto datapath ports through the config's input maps (later map
/// entries overwrite, unmapped ports read zero), evaluate active nodes in
/// datapath topo order, gather `word_out_sel` then `bit_out_sel`.
#[allow(clippy::too_many_arguments)]
fn compile_pe(
    _netlist: &Netlist,
    dp: &MergedDatapath,
    dp_order: &Result<Vec<u32>, apex_merge::DatapathError>,
    u: u32,
    node: &crate::netlist::NetNode,
    cfg: &DatapathConfig,
    n_word: usize,
    val_base: &[u32],
) -> Result<(Vec<Step>, Vec<Src>), NetlistError> {
    let bad = |e: &dyn std::fmt::Display| NetlistError::BadConfig {
        node: u,
        message: e.to_string(),
    };
    dp.validate_config(cfg).map_err(|e| bad(&e))?;
    let order = match dp_order {
        Ok(o) => o,
        Err(e) => return Err(bad(e)),
    };
    if cfg.word_input_map.len() != n_word
        || cfg.bit_input_map.len() != node.inputs.len().saturating_sub(n_word)
    {
        // the reference asserts these lengths; reachable only from
        // hand-corrupted configurations, so fail cleanly instead
        return Err(bad(&"input map length mismatch"));
    }
    // scatter: which netlist slot feeds each datapath port
    let mut port_word = vec![Src::ZeroWord; dp.word_inputs];
    let mut port_bit = vec![Src::ZeroBit; dp.bit_inputs];
    for (r, &port) in node.inputs[..n_word].iter().zip(&cfg.word_input_map) {
        if let Some(p) = port_word.get_mut(port as usize) {
            *p = Src::Slot(val_base[r.node as usize] + u32::from(r.port));
        }
    }
    for (r, &port) in node.inputs[n_word..].iter().zip(&cfg.bit_input_map) {
        if let Some(p) = port_bit.get_mut(port as usize) {
            *p = Src::Slot(val_base[r.node as usize] + u32::from(r.port));
        }
    }
    let src_of = |s: DpSource| -> Src {
        match s {
            DpSource::WordInput(k) => port_word
                .get(k as usize)
                .copied()
                .unwrap_or(Src::ZeroWord),
            DpSource::BitInput(k) => port_bit.get(k as usize).copied().unwrap_or(Src::ZeroBit),
            DpSource::Node(j) => Src::Scratch(j),
        }
    };
    let mut steps = Vec::new();
    for &j in order {
        let Some(nc) = &cfg.node_cfg[j as usize] else {
            continue;
        };
        let dpn = &dp.nodes[j as usize];
        let ins = nc
            .port_sel
            .iter()
            .enumerate()
            .map(|(p, &sel)| src_of(dpn.port_candidates[p][sel as usize]))
            .collect();
        steps.push(Step {
            op: nc.op,
            dst: j,
            ins,
        });
    }
    let outs = cfg
        .word_out_sel
        .iter()
        .chain(&cfg.bit_out_sel)
        .map(|&s| src_of(s))
        .collect();
    Ok((steps, outs))
}
