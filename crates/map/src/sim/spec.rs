//! The lane engine's executable specification, compiled only for
//! tests: the cycle-major loop that [`CompiledSim::run`] replaced, kept
//! as `run_reference` over the same compiled table. The property suite
//! below replays both engines on netlists and streams the
//! `netlist/spec.rs` properties do not generate: pipelined suite apps
//! (drain far past the settle depth), ragged streams, bit inputs and bit
//! streams, zero-cycle runs that still drain, and deferred errors.

use super::{CompiledSim, Instr, InstrKind, Src};
use crate::netlist::NetlistError;
use apex_ir::Value;

impl CompiledSim {
    /// The cycle-major engine, retained as the executable specification
    /// for [`CompiledSim::run`]: every cycle sweeps the whole table,
    /// dispatching each op per cycle on typed [`Value`]s through
    /// `Op::eval`, and delays through per-instruction ring buffers. Runs
    /// all `n_cycles + drain` cycles.
    ///
    /// # Errors
    /// Fails on missing input streams or (deferred) bad configurations.
    pub(crate) fn run_reference(
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

        // the cycle-major state: typed zero slots, and one ring of
        // `lat * width` typed zeros per instruction
        let width = |instr: &Instr| match &instr.kind {
            InstrKind::Delay { .. } => 1,
            InstrKind::Pe { outs, .. } => outs.len(),
        };
        let zero = |slot: usize| Value::zero(self.slot_types[slot]);
        let mut ring_base = Vec::with_capacity(self.instrs.len());
        let mut ring: Vec<Value> = Vec::new();
        for instr in &self.instrs {
            ring_base.push(ring.len());
            for _ in 0..instr.lat {
                ring.extend((0..width(instr)).map(|k| zero(instr.out_base as usize + k)));
            }
        }
        let mut values: Vec<Value> = (0..self.slot_types.len()).map(zero).collect();
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
                    let start = ring_base[ii] + heads[ii] as usize * width(instr);
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

/// The lane engine equals the cycle-major engine — same outputs, same
/// lengths and same errors — over one compiled table.
mod properties {
    use super::super::CompiledSim;
    use crate::{map_application, NetKind, NetRef, Netlist, NetlistError, PeInstance, SimStreams};
    use apex_ir::{Op, ValueType};
    use apex_merge::{DatapathConfig, DpSource, MergedDatapath};
    use apex_pe::baseline_pe;
    use apex_rewrite::{standard_ruleset, RuleSet};
    use apex_testgen::DfgGen;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Compiles once and runs both engines; panics unless they agree.
    fn both(
        netlist: &Netlist,
        dp: &MergedDatapath,
        rules: &RuleSet,
        words: &[Vec<u16>],
        bits: &[Vec<bool>],
        pe_latency: u32,
        overrides: &[Option<DatapathConfig>],
    ) -> Result<SimStreams, NetlistError> {
        let sim = CompiledSim::compile(netlist, dp, rules, pe_latency, overrides).unwrap();
        let lanes = sim.run(words, bits);
        assert_eq!(lanes, sim.run_reference(words, bits));
        lanes
    }

    /// A node-indexed override table from a sparse map.
    fn dense(by_node: &BTreeMap<u32, DatapathConfig>, n: usize) -> Vec<Option<DatapathConfig>> {
        let mut out = vec![None; n];
        for (&u, cfg) in by_node {
            out[u as usize] = Some(cfg.clone());
        }
        out
    }

    /// Deterministic streams, one per input node of `kind`: the first
    /// has `n` entries and stream `k` has `n + lens[k] - 2`, floored at
    /// 0 (ragged: with `lens[k] < 5`, up to two shorter or longer).
    fn streams(
        netlist: &Netlist,
        kind: NetKind,
        n: usize,
        lens: &[u8],
        seed: u16,
    ) -> Vec<Vec<u16>> {
        let count = netlist.nodes.iter().filter(|nd| nd.kind == kind).count();
        (0..count)
            .map(|k| {
                let extra = if k == 0 {
                    2
                } else {
                    lens.get(k).map_or(2, |&l| usize::from(l))
                };
                let len = (n + extra).saturating_sub(2);
                (0..len)
                    .map(|t| {
                        seed.wrapping_mul(131)
                            .wrapping_add(k as u16 * 19 + t as u16 * 11)
                    })
                    .collect()
            })
            .collect()
    }

    /// The same netlist as this crate's own type: the pipeline crate
    /// links the non-test build of this crate, whose types are distinct.
    fn internal(n: &apex_map::Netlist) -> Netlist {
        let mut out = Netlist::new(n.name.clone());
        for node in &n.nodes {
            let kind = match &node.kind {
                apex_map::NetKind::WordInput => NetKind::WordInput,
                apex_map::NetKind::BitInput => NetKind::BitInput,
                apex_map::NetKind::Pe(p) => NetKind::Pe(PeInstance {
                    rule: p.rule,
                    payloads: p.payloads.clone(),
                }),
                apex_map::NetKind::Reg => NetKind::Reg,
                apex_map::NetKind::BitReg => NetKind::BitReg,
                apex_map::NetKind::Fifo(d) => NetKind::Fifo(*d),
                apex_map::NetKind::WordOutput => NetKind::WordOutput,
                apex_map::NetKind::BitOutput => NetKind::BitOutput,
            };
            let inputs = node.inputs.iter().map(|r| NetRef {
                node: r.node,
                port: r.port,
            });
            out.push(kind, inputs.collect());
        }
        out
    }

    /// Every one of the nine suite apps, branch-delay matched by
    /// `pipeline_application` at PE latency 1–3: the drain (the sum of
    /// all latencies) runs far past the settle depth, so the engines'
    /// agreement covers the settled tail the lane engine fills in.
    #[test]
    fn pipelined_suite_apps_match_cycle_major() {
        let pe = baseline_pe();
        for app in apex_apps::analyzed_apps()
            .into_iter()
            .chain(apex_apps::unseen_apps())
        {
            let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
            let mapped = apex_map::map_application(&app.graph, &pe.datapath, &rules)
                .unwrap()
                .netlist;
            for pe_latency in 1..=3 {
                let (pipelined, report) = apex_pipeline::pipeline_application(
                    &mapped,
                    &rules,
                    pe_latency,
                    &apex_pipeline::AppPipelineOptions::default(),
                )
                .unwrap();
                let netlist = internal(&pipelined);
                let sim =
                    CompiledSim::compile(&netlist, &pe.datapath, &rules, pe_latency, &[]).unwrap();
                assert!(
                    sim.drain > 2 * sim.settle,
                    "{}: drain {} settle {}",
                    app.info.name,
                    sim.drain,
                    sim.settle
                );
                assert!(sim.settle >= report.latency);
                let words = streams(
                    &netlist,
                    NetKind::WordInput,
                    5,
                    &[0, 4, 1, 3],
                    pe_latency as u16,
                );
                let (w, _) =
                    both(&netlist, &pe.datapath, &rules, &words, &[], pe_latency, &[]).unwrap();
                assert_eq!(w[0].len(), 5 + sim.drain as usize);
            }
        }
    }

    /// Word and bit inputs feeding word ops, muxes, compares and LUTs,
    /// read at the last word and the last bit value.
    const MIXED_APP: DfgGen = DfgGen {
        name: "sim_lane_app",
        inputs: (2, 2),
        ops: &[Op::Add, Op::Mux, Op::Ult, Op::Slt, Op::Lut(0), Op::Sub],
        const_ops: &[Op::Smax],
        len: 4..24,
        outputs: (1, 1),
    };

    /// Splices a delay onto each chosen edge: word edges get a Reg or a
    /// Fifo (depth 1..=3), bit edges a BitReg.
    fn splice(netlist: &mut Netlist, rules: &RuleSet, splices: &[(u16, u16, u8)]) {
        for &(nx, kx, depth) in splices {
            let i = (nx as usize) % netlist.nodes.len();
            if netlist.nodes[i].inputs.is_empty() {
                continue;
            }
            let k = (kx as usize) % netlist.nodes[i].inputs.len();
            let src = netlist.nodes[i].inputs[k];
            let kind = match (
                netlist.output_types(src.node, rules)[src.port as usize],
                depth,
            ) {
                (ValueType::Bit, _) => NetKind::BitReg,
                (ValueType::Word, 0) => NetKind::Reg,
                (ValueType::Word, d) => NetKind::Fifo(d),
            };
            let new = netlist.push(kind, vec![src]);
            netlist.nodes[i].inputs[k] = NetRef { node: new, port: 0 };
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Bit inputs and bit streams, ragged streams, and `n_cycles`
        /// down to 0 (with the drain still running past it when any
        /// latency is non-zero).
        #[test]
        fn lanes_match_cycle_major_on_mixed_netlists(
            app in MIXED_APP,
            splices in prop::collection::vec((any::<u16>(), any::<u16>(), 0u8..4), 0..8),
            n_cycles in 0usize..6,
            lens in prop::collection::vec(0u8..5, 4),
            pe_latency in 0u32..4,
            seed: u16,
            passthrough in prop::collection::vec((any::<u16>(), any::<u16>()), 0..3),
        ) {
            let pe = baseline_pe();
            let dp = &pe.datapath;
            let (rules, _) = standard_ruleset(dp, &[], &[&app]).unwrap();
            let mut netlist = map_application(&app, dp, &rules).unwrap().netlist;
            splice(&mut netlist, &rules, &splices);
            netlist.validate(&rules).unwrap();

            // overrides that route a PE port (mapped or not) straight to
            // the PE's first word and bit outputs, so an output lane can
            // be another slot's lane delayed, or zero
            let pes: Vec<u32> = (0..netlist.nodes.len() as u32)
                .filter(|&i| matches!(netlist.nodes[i as usize].kind, NetKind::Pe(_)))
                .collect();
            let mut overrides = BTreeMap::new();
            for &(x, port) in passthrough.iter().filter(|_| !pes.is_empty()) {
                let u = pes[x as usize % pes.len()];
                let NetKind::Pe(inst) = &netlist.nodes[u as usize].kind else { continue };
                let mut cfg = rules.rules[inst.rule as usize].instantiate(&inst.payloads);
                if let Some(w) = cfg.word_out_sel.first_mut() {
                    *w = DpSource::WordInput(port % dp.word_inputs as u16);
                }
                if let (Some(b), true) = (cfg.bit_out_sel.first_mut(), dp.bit_inputs > 0) {
                    *b = DpSource::BitInput(port % dp.bit_inputs as u16);
                }
                overrides.insert(u, cfg);
            }
            let overrides = dense(&overrides, netlist.nodes.len());

            let words = streams(&netlist, NetKind::WordInput, n_cycles, &lens, seed);
            // the first word stream sets `n_cycles`; bit streams are
            // ragged around it the same way
            let bits: Vec<Vec<bool>> = streams(&netlist, NetKind::BitInput, n_cycles, &lens[1..], seed ^ 0x5a5a)
                .into_iter()
                .map(|s| s.into_iter().map(|v| v & 4 != 0).collect())
                .collect();
            let out = both(&netlist, dp, &rules, &words, &bits, pe_latency, &overrides);
            let interpreted =
                netlist.simulate_with_reference(dp, &rules, &words, &bits, pe_latency, &overrides);
            prop_assert_eq!(&out, &interpreted);
            let drain: u32 = (0..netlist.nodes.len() as u32).map(|i| netlist.latency(i, pe_latency)).sum();
            let (w, b) = out.unwrap();
            prop_assert_eq!(w.len(), 1);
            prop_assert_eq!(b.len(), 1);
            prop_assert_eq!(w[0].len(), n_cycles + drain as usize);
            prop_assert_eq!(b[0].len(), n_cycles + drain as usize);
        }

        /// Deferred errors, against both specs: a missing stream is
        /// reported before a bad configuration, the first bad PE in
        /// topological order is the one reported, a zero-cycle run that
        /// still drains reports the bad configuration, and a run with no
        /// cycle at all stays `Ok`.
        #[test]
        fn errors_match_cycle_major_and_interpreter(
            app in MIXED_APP,
            n_cycles in 0usize..3,
            pe_latency in 0u32..2,
            drop_word: bool,
            bad in prop::collection::vec(any::<u16>(), 1..3),
        ) {
            let pe = baseline_pe();
            let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app]).unwrap();
            let netlist = map_application(&app, &pe.datapath, &rules).unwrap().netlist;
            let pes: Vec<u32> = (0..netlist.nodes.len() as u32)
                .filter(|&i| matches!(netlist.nodes[i as usize].kind, NetKind::Pe(_)))
                .collect();
            // truncating a configuration fails its validation
            let by_node: BTreeMap<u32, DatapathConfig> = bad
                .iter()
                .filter_map(|&x| {
                    let u = *pes.get(x as usize % pes.len().max(1))?;
                    let NetKind::Pe(inst) = &netlist.nodes[u as usize].kind else {
                        return None;
                    };
                    let mut cfg = rules.rules[inst.rule as usize].instantiate(&inst.payloads);
                    cfg.node_cfg.pop();
                    Some((u, cfg))
                })
                .collect();
            let overrides = dense(&by_node, netlist.nodes.len());
            let mut words = streams(&netlist, NetKind::WordInput, n_cycles, &[], 7);
            let mut bits: Vec<Vec<bool>> = streams(&netlist, NetKind::BitInput, n_cycles, &[], 9)
                .into_iter()
                .map(|s| s.into_iter().map(|v| v & 1 != 0).collect())
                .collect();
            let missing = if drop_word {
                words.pop().is_some()
            } else {
                bits.pop().is_some()
            };
            let out = both(&netlist, &pe.datapath, &rules, &words, &bits, pe_latency, &overrides);
            let interpreted = netlist.simulate_with_reference(
                &pe.datapath, &rules, &words, &bits, pe_latency, &overrides,
            );
            prop_assert_eq!(&out, &interpreted);

            let first_bad = netlist
                .topo_order()
                .unwrap()
                .into_iter()
                .find(|u| by_node.contains_key(u));
            let no_cycle = n_cycles == 0 && (pe_latency == 0 || pes.is_empty());
            let short = missing && n_cycles > 0;
            match out {
                Ok(_) => prop_assert!(no_cycle || !short && first_bad.is_none()),
                Err(NetlistError::InputShortage { .. }) => prop_assert!(!no_cycle && short),
                Err(NetlistError::BadConfig { node, .. }) => {
                    prop_assert!(!no_cycle && !short && Some(node) == first_bad);
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }
}
