//! The netlist simulator's executable specification, compiled only for
//! tests: the original decode-per-access interpreter, replayed against
//! the table-compiled [`Netlist::simulate_with`] by the property suite
//! below (same output streams and same errors, with and without
//! configuration overrides).

use super::{NetKind, NetRef, Netlist, NetlistError, SimStreams};
use apex_ir::Value;
use apex_merge::MergedDatapath;
use apex_rewrite::RuleSet;
use std::collections::VecDeque;

impl Netlist {
    /// The original decode-per-access interpreter, retained verbatim as
    /// the executable specification for [`Netlist::simulate_with`]: every
    /// cycle re-resolves each PE's configuration and re-walks the
    /// datapath. Slow, obviously correct, and replayed against the
    /// compiled engine by the property suite.
    ///
    /// # Errors
    /// Fails on invalid netlists or mismatched stream counts.
    pub(crate) fn simulate_with_reference(
        &self,
        dp: &MergedDatapath,
        rules: &RuleSet,
        word_streams: &[Vec<u16>],
        bit_streams: &[Vec<bool>],
        pe_latency: u32,
        config_overrides: &[Option<apex_merge::DatapathConfig>],
    ) -> Result<SimStreams, NetlistError> {
        let order = self.topo_order()?;
        let n_cycles = word_streams
            .first()
            .map(Vec::len)
            .or_else(|| bit_streams.first().map(Vec::len))
            .unwrap_or(0);
        let drain: u32 = (0..self.nodes.len() as u32)
            .map(|i| self.latency(i, pe_latency))
            .sum();
        let total = n_cycles + drain as usize;

        let mut queues: Vec<VecDeque<Vec<Value>>> = (0..self.nodes.len() as u32)
            .map(|i| {
                let lat = self.latency(i, pe_latency);
                let zeros: Vec<Value> = self
                    .output_types(i, rules)
                    .iter()
                    .map(|t| Value::zero(*t))
                    .collect();
                (0..lat).map(|_| zeros.clone()).collect()
            })
            .collect();
        let mut values: Vec<Vec<Value>> = (0..self.nodes.len() as u32)
            .map(|i| {
                self.output_types(i, rules)
                    .iter()
                    .map(|t| Value::zero(*t))
                    .collect()
            })
            .collect();

        let n_word_out = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NetKind::WordOutput))
            .count();
        let n_bit_out = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NetKind::BitOutput))
            .count();
        let mut word_out = vec![Vec::with_capacity(total); n_word_out];
        let mut bit_out = vec![Vec::with_capacity(total); n_bit_out];

        for cycle in 0..total {
            let mut wi = 0usize;
            let mut bi = 0usize;
            for (i, node) in self.nodes.iter().enumerate() {
                match node.kind {
                    NetKind::WordInput => {
                        let v = if cycle < n_cycles {
                            let s = word_streams
                                .get(wi)
                                .ok_or(NetlistError::InputShortage { node: i as u32 })?;
                            s.get(cycle).copied().unwrap_or(0)
                        } else {
                            0
                        };
                        values[i] = vec![Value::Word(v)];
                        wi += 1;
                    }
                    NetKind::BitInput => {
                        let v = if cycle < n_cycles {
                            let s = bit_streams
                                .get(bi)
                                .ok_or(NetlistError::InputShortage { node: i as u32 })?;
                            s.get(cycle).copied().unwrap_or(false)
                        } else {
                            false
                        };
                        values[i] = vec![Value::Bit(v)];
                        bi += 1;
                    }
                    _ => {}
                }
            }
            for &u in &order {
                let node = &self.nodes[u as usize];
                let read =
                    |r: &NetRef, values: &[Vec<Value>]| values[r.node as usize][r.port as usize];
                let comb: Option<Vec<Value>> = match &node.kind {
                    NetKind::WordInput | NetKind::BitInput | NetKind::WordOutput
                    | NetKind::BitOutput => None,
                    NetKind::Reg | NetKind::BitReg | NetKind::Fifo(_) => {
                        Some(vec![read(&node.inputs[0], &values)])
                    }
                    NetKind::Pe(inst) => {
                        let rule = &rules.rules[inst.rule as usize];
                        let cfg = config_overrides
                            .get(u as usize)
                            .and_then(Option::as_ref)
                            .cloned()
                            .unwrap_or_else(|| rule.instantiate(&inst.payloads));
                        let n_word = rule.config.word_input_map.len();
                        let words: Vec<u16> = node.inputs[..n_word]
                            .iter()
                            .map(|r| read(r, &values).word())
                            .collect();
                        let bits: Vec<bool> = node.inputs[n_word..]
                            .iter()
                            .map(|r| read(r, &values).bit())
                            .collect();
                        let (w, b) = dp
                            .evaluate_as_source(&cfg, &words, &bits)
                            .map_err(|e| NetlistError::BadConfig {
                                node: u,
                                message: e.to_string(),
                            })?;
                        let mut out: Vec<Value> = w.into_iter().map(Value::Word).collect();
                        out.extend(b.into_iter().map(Value::Bit));
                        Some(out)
                    }
                };
                if let Some(comb) = comb {
                    let q = &mut queues[u as usize];
                    match q.pop_front() {
                        Some(front) => {
                            values[u as usize] = front;
                            q.push_back(comb);
                        }
                        None => values[u as usize] = comb,
                    }
                }
            }
            let mut wo = 0usize;
            let mut bo = 0usize;
            for node in &self.nodes {
                match node.kind {
                    NetKind::WordOutput => {
                        let r = &node.inputs[0];
                        word_out[wo].push(values[r.node as usize][r.port as usize].word());
                        wo += 1;
                    }
                    NetKind::BitOutput => {
                        let r = &node.inputs[0];
                        bit_out[bo].push(values[r.node as usize][r.port as usize].bit());
                        bo += 1;
                    }
                    _ => {}
                }
            }
        }
        Ok((word_out, bit_out))
    }
}

/// The compiled simulator is bit-identical to the interpreter — same
/// outputs AND same errors — on randomized netlists, input streams, and
/// PE latencies.
///
/// Netlists come from mapping randomized applications, then splicing
/// registers and FIFOs onto random edges so the Delay instruction path
/// (ring buffers, drain cycles) is exercised alongside the PE path.
mod properties {
    use crate::{map_application, NetKind, NetRef};
    use apex_ir::{Graph, Op, ValueType};
    use apex_pe::baseline_pe;
    use apex_rewrite::standard_ruleset;
    use proptest::prelude::*;

    fn arb_app() -> impl Strategy<Value = Graph> {
        let spec = prop::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 4..32);
        spec.prop_map(|ops| {
            let mut g = Graph::new("sim_prop_app");
            let mut pool = vec![g.input(), g.input(), g.input()];
            for (sel, x, y) in ops {
                let a = pool[(x as usize) % pool.len()];
                let b = pool[(y as usize) % pool.len()];
                let n = match sel {
                    0 => g.add(Op::Add, &[a, b]),
                    1 => g.add(Op::Mul, &[a, b]),
                    2 => g.add(Op::Sub, &[a, b]),
                    3 => g.add(Op::Umin, &[a, b]),
                    _ => {
                        let c = g.constant(x);
                        g.add(Op::Add, &[a, c])
                    }
                };
                pool.push(n);
            }
            let last = pool[pool.len() - 1];
            g.output(last);
            g
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn compiled_sim_matches_reference(
            app in arb_app(),
            splices in prop::collection::vec((any::<u16>(), any::<u16>(), 0u8..4), 0..8),
            n_cycles in 0usize..6,
            pe_latency in 0u32..4,
            seed: u64,
        ) {
            let pe = baseline_pe();
            let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app]).unwrap();
            let design = map_application(&app, &pe.datapath, &rules).unwrap();
            let mut netlist = design.netlist;

            // splice delay elements onto random edges: word edges get a
            // Reg or a Fifo (depth 1..=3), bit edges a BitReg
            for (nx, kx, depth) in splices {
                let i = (nx as usize) % netlist.nodes.len();
                if netlist.nodes[i].inputs.is_empty() {
                    continue;
                }
                let k = (kx as usize) % netlist.nodes[i].inputs.len();
                let src = netlist.nodes[i].inputs[k];
                let ty = netlist.output_types(src.node, &rules)[src.port as usize];
                let kind = match (ty, depth) {
                    (ValueType::Bit, _) => NetKind::BitReg,
                    (ValueType::Word, 0) => NetKind::Reg,
                    (ValueType::Word, d) => NetKind::Fifo(d),
                };
                let new = netlist.push(kind, vec![src]);
                netlist.nodes[i].inputs[k] = NetRef { node: new, port: 0 };
            }
            netlist.validate(&rules).unwrap();

            let n_in = netlist
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, NetKind::WordInput))
                .count();
            let streams: Vec<Vec<u16>> = (0..n_in)
                .map(|i| {
                    (0..n_cycles)
                        .map(|t| (seed as u16)
                            .wrapping_mul(131)
                            .wrapping_add(i as u16 * 19 + t as u16 * 11))
                        .collect()
                })
                .collect();

            let overrides: Vec<Option<apex_merge::DatapathConfig>> = Vec::new();
            let compiled = netlist.simulate_with(
                &pe.datapath, &rules, &streams, &[], pe_latency, &overrides,
            );
            let reference = netlist.simulate_with_reference(
                &pe.datapath, &rules, &streams, &[], pe_latency, &overrides,
            );
            prop_assert_eq!(compiled, reference);

            // the override path (how the CGRA backend runs decoded
            // bitstream configurations): every PE's configuration comes
            // from the map instead of its rule, instantiated with
            // perturbed payloads so the overrides change behaviour
            let perturb = |op: &Op| match *op {
                Op::Const(c) => Op::Const(c ^ (seed as u16 | 1)),
                Op::BitConst(b) => Op::BitConst(!b),
                Op::Lut(t) => Op::Lut(!t),
                other => other,
            };
            let overrides: Vec<Option<apex_merge::DatapathConfig>> = netlist
                .nodes
                .iter()
                .map(|n| match &n.kind {
                    NetKind::Pe(inst) => {
                        let payloads: Vec<Op> = inst.payloads.iter().map(perturb).collect();
                        Some(rules.rules[inst.rule as usize].instantiate(&payloads))
                    }
                    _ => None,
                })
                .collect();
            prop_assert!(overrides.iter().any(Option::is_some));
            let compiled = netlist.simulate_with(
                &pe.datapath, &rules, &streams, &[], pe_latency, &overrides,
            );
            let reference = netlist.simulate_with_reference(
                &pe.datapath, &rules, &streams, &[], pe_latency, &overrides,
            );
            prop_assert_eq!(compiled, reference);
        }

        /// Error parity: starving the simulator of input streams must
        /// produce the same `InputShortage` from both engines.
        #[test]
        fn compiled_sim_matches_reference_on_short_inputs(
            app in arb_app(),
            drop in 1usize..3,
            pe_latency in 0u32..2,
        ) {
            let pe = baseline_pe();
            let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app]).unwrap();
            let design = map_application(&app, &pe.datapath, &rules).unwrap();
            let n_in = design
                .netlist
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, NetKind::WordInput))
                .count();
            if n_in < drop {
                return Ok(());
            }
            let streams: Vec<Vec<u16>> = (0..n_in - drop).map(|i| vec![i as u16; 2]).collect();
            let overrides: Vec<Option<apex_merge::DatapathConfig>> = Vec::new();
            let compiled = design.netlist.simulate_with(
                &pe.datapath, &rules, &streams, &[], pe_latency, &overrides,
            );
            let reference = design.netlist.simulate_with_reference(
                &pe.datapath, &rules, &streams, &[], pe_latency, &overrides,
            );
            prop_assert_eq!(&compiled, &reference);
            prop_assert!(compiled.is_err());
        }
    }
}
