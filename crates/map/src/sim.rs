//! Table-compiled, time-vectorized fabric simulation.
//!
//! [`CompiledSim::compile`] lowers a netlist and its PE configurations
//! once: the netlist is flattened into value slots (one per node output
//! port) and a topologically ordered instruction table, and each PE's
//! configuration is resolved, validated and type-checked once and lowered
//! to datapath-op steps with pre-resolved operand sources.
//!
//! [`CompiledSim::run`] then runs the table *instruction-major*: every
//! slot holds a flat `u16` lane with one entry per cycle (bits as 0/1),
//! and each instruction computes all cycles at once: an op step is one
//! pass of [`Op::eval_lane`] over its operand lanes, and a latency-`d`
//! output is its combinational lane shifted by `d` behind zeros. Because
//! the netlist is a DAG, only the cycles up to its settle depth carry
//! information; later cycles repeat the last one (see `run`).
//!
//! This is the only simulation engine in release builds. Two test-only
//! specs pin it: the cycle-major loop it replaced
//! (`CompiledSim::run_reference` in `sim/spec.rs`) and the
//! decode-per-access interpreter (`Netlist::simulate_with_reference` in
//! `netlist/spec.rs`). Their property suites require identical output
//! streams and identical errors.

use crate::netlist::{NetKind, NetNode, Netlist, NetlistError};
use apex_ir::{Op, ValueType};
use apex_merge::{DatapathConfig, DpSource, MergedDatapath};
use apex_rewrite::RuleSet;

/// A pre-resolved operand source for a compiled PE step.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// A netlist value slot (another node's output port).
    Slot(u32),
    /// An intra-PE intermediate (datapath node index into the scratch
    /// lanes; validation guarantees it is written before it is read).
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
    /// Destination scratch lane (the datapath node index).
    dst: u32,
    ins: Vec<Src>,
}

/// What a compiled node computes.
#[derive(Debug, Clone)]
enum InstrKind {
    /// Reg / BitReg / Fifo: pass the producer slot through, delayed.
    Delay {
        /// Producer value slot.
        src: u32,
    },
    /// A PE: run the op steps, then gather the configured outputs.
    Pe { steps: Vec<Step>, outs: Vec<Src> },
}

/// A compiled netlist node (delay elements and PEs only — inputs and
/// outputs are handled by the flat slot lists on [`CompiledSim`]).
#[derive(Debug, Clone)]
struct Instr {
    kind: InstrKind,
    /// First value slot of this node's outputs.
    out_base: u32,
    /// Cycle latency (0 = combinational pass-through).
    lat: u32,
}

/// A netlist compiled for repeated simulation. Compile once per
/// (netlist, configuration) pair, then [`CompiledSim::run`] any number of
/// streams against it; `run` takes `&self` and allocates only the
/// per-run lanes.
pub(crate) struct CompiledSim {
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
    /// Type of each value slot (one per node output port).
    slot_types: Vec<ValueType>,
    scratch_len: usize,
    /// Sum of all node latencies: the output streams run this many
    /// cycles past the input streams, so every delayed value drains out.
    drain: u32,
    /// Longest latency along any path: past `n_cycles + settle` cycles
    /// every value is constant.
    settle: u32,
    /// A configuration error found at compile time, surfaced on the first
    /// run that would actually evaluate a cycle — the reference
    /// interpreter only fails once cycle 0 reaches the offending PE, and
    /// a zero-cycle simulation must stay `Ok`.
    deferred: Option<NetlistError>,
}

impl CompiledSim {
    /// Compiles a netlist against a datapath/ruleset, resolving each PE's
    /// configuration (override or instantiated template) exactly once.
    /// `config_overrides[u]`, where present, replaces node `u`'s
    /// template; an empty slice overrides nothing.
    ///
    /// # Errors
    /// Returns [`NetlistError::Cyclic`] on a cyclic netlist (matching the
    /// reference, which sorts before looking at streams). Configuration
    /// errors, operand type mismatches included, are deferred to
    /// [`CompiledSim::run`] to match the reference's evaluate-time
    /// reporting.
    pub(crate) fn compile(
        netlist: &Netlist,
        dp: &MergedDatapath,
        rules: &RuleSet,
        pe_latency: u32,
        config_overrides: &[Option<DatapathConfig>],
    ) -> Result<CompiledSim, NetlistError> {
        let order = netlist.topo_order()?;
        let n = netlist.nodes.len();

        // flat value layout: one slot per node output port; node `i`'s
        // ports are the slots from `val_base[i]` to `val_base[i + 1]`
        let mut val_base = vec![0u32; n + 1];
        let mut slot_types: Vec<ValueType> = Vec::new();
        for i in 0..n as u32 {
            val_base[i as usize] = slot_types.len() as u32;
            slot_types.extend(netlist.output_types(i, rules));
        }
        val_base[n] = slot_types.len() as u32;

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
        // the longest latency path ending at each node; the largest is
        // the netlist's settle depth
        let mut depth = vec![0u32; n];
        let mut deferred: Option<NetlistError> = None;
        for &u in &order {
            let node = &netlist.nodes[u as usize];
            let lat = netlist.latency(u, pe_latency);
            depth[u as usize] = lat
                + node
                    .inputs
                    .iter()
                    .map(|r| depth[r.node as usize])
                    .max()
                    .unwrap_or(0);
            let kind = match &node.kind {
                NetKind::WordInput
                | NetKind::BitInput
                | NetKind::WordOutput
                | NetKind::BitOutput => continue,
                NetKind::Reg | NetKind::BitReg | NetKind::Fifo(_) => {
                    let r = &node.inputs[0];
                    InstrKind::Delay {
                        src: val_base[r.node as usize] + u32::from(r.port),
                    }
                }
                NetKind::Pe(inst) => {
                    let rule = &rules.rules[inst.rule as usize];
                    let instantiated;
                    let cfg = match config_overrides.get(u as usize).and_then(Option::as_ref) {
                        Some(cfg) => cfg,
                        None => {
                            instantiated = rule.instantiate(&inst.payloads);
                            &instantiated
                        }
                    };
                    let n_word = rule.config.word_input_map.len();
                    let width = (val_base[u as usize + 1] - val_base[u as usize]) as usize;
                    let compiled =
                        compile_pe(dp, &dp_order, node, cfg, n_word, &val_base, &slot_types)
                            .and_then(|(steps, outs)| {
                                if outs.len() == width {
                                    Ok((steps, outs))
                                } else {
                                    // the template promised `width` outputs
                                    // but the (decoded) override selects a
                                    // different count; the reference would
                                    // read out of range — fail cleanly
                                    Err("output arity mismatch with decoded configuration"
                                        .to_owned())
                                }
                            });
                    match compiled {
                        Ok((steps, outs)) => InstrKind::Pe { steps, outs },
                        Err(message) => {
                            if deferred.is_none() {
                                deferred = Some(NetlistError::BadConfig { node: u, message });
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
                lat,
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
            slot_types,
            scratch_len: dp.node_count(),
            drain,
            settle: depth.into_iter().max().unwrap_or(0),
            deferred,
        })
    }

    /// Runs the compiled table over the input streams, instruction-major
    /// over per-slot cycle lanes. Stream binding (node-index order,
    /// zero-padded past each stream's end), output length
    /// (`n_cycles + drain`), output order and errors are those of the
    /// spec's `simulate_with_reference`.
    ///
    /// # Errors
    /// Fails on missing input streams or (deferred) bad configurations.
    pub(crate) fn run(
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

        // Only the first `live` cycles are computed. The netlist is a DAG
        // (compile rejects cycles; delay is a node latency, never a
        // feedback edge) and every op is pure, so a node's value at cycle
        // `t` is a function of the input values at cycles `t - L` over
        // the latency sums `L` of the paths into it, or of a delay's zero
        // initial state where `t - L` would fall below 0. Every such `L`
        // is at most `settle`, so from cycle `n_cycles + settle` on each
        // of those reads lands in the inputs' zero padding and no initial
        // state is read: every value is the same function of all-zero
        // inputs, constant in `t`. The cycles from `live` to `total`
        // therefore repeat cycle `live - 1`.
        let live = total.min(n_cycles + self.settle as usize + 1);
        let fed = n_cycles.min(live);
        let at = |slot: u32| slot as usize * live;
        let mut lanes = vec![0u16; self.slot_types.len() * live];
        for (&slot, s) in self.word_in_slots.iter().zip(word_streams) {
            let head = fed.min(s.len());
            lanes[at(slot)..][..head].copy_from_slice(&s[..head]);
        }
        for (&slot, s) in self.bit_in_slots.iter().zip(bit_streams) {
            for (v, &b) in lanes[at(slot)..][..fed].iter_mut().zip(s) {
                *v = u16::from(b);
            }
        }

        let mut scratch = vec![0u16; self.scratch_len * live];
        let zeros = vec![0u16; live];
        let mut out = vec![0u16; live];
        for instr in &self.instrs {
            // a delay of `lat` cycles: the first `lat` entries keep the
            // lane's zero initial state, the rest are the input shifted
            let lat = (instr.lat as usize).min(live);
            let base = at(instr.out_base);
            match &instr.kind {
                InstrKind::Delay { src } => {
                    lanes.copy_within(at(*src)..at(*src) + live - lat, base + lat);
                }
                InstrKind::Pe { steps, outs } => {
                    for step in steps {
                        let lane = |p: usize| -> &[u16] {
                            match step.ins.get(p) {
                                Some(Src::Slot(i)) => &lanes[at(*i)..][..live],
                                Some(Src::Scratch(j)) => &scratch[*j as usize * live..][..live],
                                _ => &zeros,
                            }
                        };
                        let (a, b, s) = (lane(0), lane(1), lane(2));
                        for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(s) {
                            *o = step.op.eval_lane(x, y, z);
                        }
                        scratch[step.dst as usize * live..][..live].copy_from_slice(&out);
                    }
                    for (k, src) in outs.iter().enumerate() {
                        let to = base + k * live + lat;
                        match src {
                            Src::Slot(i) => lanes.copy_within(at(*i)..at(*i) + live - lat, to),
                            Src::Scratch(j) => lanes[to..][..live - lat]
                                .copy_from_slice(&scratch[*j as usize * live..][..live - lat]),
                            Src::ZeroWord | Src::ZeroBit => {}
                        }
                    }
                }
            }
        }

        // each stream: its live lane, then the settled value to `total`
        let stream = |slot: u32| {
            let lane = &lanes[at(slot)..][..live];
            let settled = lane.last().copied().unwrap_or(0);
            lane.iter()
                .copied()
                .chain(std::iter::repeat_n(settled, total - live))
        };
        let word_out = self
            .word_out_slots
            .iter()
            .map(|&s| stream(s).collect())
            .collect();
        let bit_out = self
            .bit_out_slots
            .iter()
            .map(|&s| stream(s).map(|v| v != 0).collect())
            .collect();
        Ok((word_out, bit_out))
    }
}

/// Lowers one PE's configuration to op steps + output gathers. Mirrors
/// `MergedDatapath::evaluate_as_source`: validate, scatter the netlist
/// inputs onto datapath ports through the config's input maps (later map
/// entries overwrite, unmapped ports read zero), evaluate active nodes in
/// datapath topo order, gather `word_out_sel` then `bit_out_sel`. Each
/// step's operands are checked against [`Op::input_types`] here, once,
/// in place of `Op::eval`'s per-call assertions.
///
/// # Errors
/// Returns the `BadConfig` message for this PE.
fn compile_pe(
    dp: &MergedDatapath,
    dp_order: &Result<Vec<u32>, apex_merge::DatapathError>,
    node: &NetNode,
    cfg: &DatapathConfig,
    n_word: usize,
    val_base: &[u32],
    slot_types: &[ValueType],
) -> Result<(Vec<Step>, Vec<Src>), String> {
    dp.validate_config(cfg).map_err(|e| e.to_string())?;
    let order = dp_order.as_ref().map_err(|e| e.to_string())?;
    if cfg.word_input_map.len() != n_word
        || cfg.bit_input_map.len() != node.inputs.len().saturating_sub(n_word)
    {
        // the reference asserts these lengths; reachable only from
        // hand-corrupted configurations, so fail cleanly instead
        return Err("input map length mismatch".to_owned());
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
            DpSource::WordInput(k) => port_word.get(k as usize).copied().unwrap_or(Src::ZeroWord),
            DpSource::BitInput(k) => port_bit.get(k as usize).copied().unwrap_or(Src::ZeroBit),
            DpSource::Node(j) => Src::Scratch(j),
        }
    };
    let type_of = |s: Src| -> Option<ValueType> {
        match s {
            Src::Slot(i) => slot_types.get(i as usize).copied(),
            Src::Scratch(j) => cfg.node_cfg[j as usize]
                .as_ref()
                .map(|nc| nc.op.output_type()),
            Src::ZeroWord => Some(ValueType::Word),
            Src::ZeroBit => Some(ValueType::Bit),
        }
    };
    let mut steps = Vec::new();
    for &j in order {
        let Some(nc) = &cfg.node_cfg[j as usize] else {
            continue;
        };
        let dpn = &dp.nodes[j as usize];
        let ins: Vec<Src> = nc
            .port_sel
            .iter()
            .enumerate()
            .map(|(p, &sel)| src_of(dpn.port_candidates[p][sel as usize]))
            .collect();
        let tys = nc.op.input_types();
        if ins.len() != tys.len() || ins.iter().zip(tys).any(|(&s, &ty)| type_of(s) != Some(ty)) {
            return Err(format!(
                "datapath node {j}: operand types do not match {}",
                nc.op
            ));
        }
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

#[cfg(test)]
mod spec;
