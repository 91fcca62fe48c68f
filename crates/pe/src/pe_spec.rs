//! PE specification: a merged datapath plus everything needed to realize
//! it — cost models, pipelining state, and RTL generation hooks.
//!
//! This is our substitute for a PEak program (paper Section 4.1): one
//! source of truth from which the functional model
//! ([`apex_merge::MergedDatapath::evaluate`]), the hardware description
//! ([`crate::emit_verilog`]), and the mapper's rewrite rules
//! (`apex-rewrite`) are all derived.

use crate::cost::{config_energy, pe_area, structural_critical_path, worst_critical_path, PeArea};
use apex_merge::{DatapathConfig, DpSource, MergedDatapath};
use apex_tech::TechModel;
use serde::{Deserialize, Serialize};

/// Pipelining state of a PE (assigned by `apex-pipeline`, Section 4.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PePipeline {
    /// Pipeline stage of each datapath node (0-based).
    pub stage_of_node: Vec<u32>,
    /// Total number of stages (1 = purely combinational).
    pub stages: u32,
}

/// A processing-element specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeSpec {
    /// Variant name (e.g. "pe_base", "pe_ip", "pe_camera_4").
    pub name: String,
    /// The architectural datapath.
    pub datapath: MergedDatapath,
    /// Whether this is the hand-designed baseline PE with its fixed
    /// instruction-decode overhead (APEX-generated PEs: `false`).
    pub legacy_control: bool,
    /// Pipelining, if the automated pipeliner has run.
    pub pipeline: Option<PePipeline>,
}

impl PeSpec {
    /// Wraps a datapath into a (so far unpipelined) specification.
    pub fn new(name: &str, datapath: MergedDatapath, legacy_control: bool) -> Self {
        PeSpec {
            name: name.to_owned(),
            datapath,
            legacy_control,
            pipeline: None,
        }
    }

    /// The Verilog module name of the PE: its name with every character
    /// other than a letter, digit or `_` replaced by `_`, and prefixed
    /// with `pe_` if it would start with a digit.
    pub fn module_name(&self) -> String {
        let s: String = self
            .name
            .chars()
            .map(|c| if c.is_alphanumeric() || c == '_' { c } else { '_' })
            .collect();
        if s.starts_with(|c: char| c.is_ascii_digit()) {
            format!("pe_{s}")
        } else {
            s
        }
    }

    /// PE core area including pipeline registers, µm².
    pub fn area(&self, tech: &TechModel) -> PeArea {
        let mut area = pe_area(&self.datapath, tech, self.legacy_control);
        if let Some(p) = &self.pipeline {
            let regs = self.pipeline_register_count(p);
            area.functional_units += regs as f64 * tech.area(apex_ir::OpKind::Reg);
        }
        area
    }

    /// Number of 16-bit-equivalent pipeline registers the stage assignment
    /// implies. Registers sit *after* each port's configuration mux, so a
    /// port costs one register per stage boundary between its earliest
    /// source and the node — not one per mux leg.
    pub fn pipeline_register_count(&self, p: &PePipeline) -> usize {
        let mut regs = 0usize;
        for (v, node) in self.datapath.nodes.iter().enumerate() {
            for port in &node.port_candidates {
                if port.is_empty() {
                    continue;
                }
                let min_src_stage = port
                    .iter()
                    .map(|src| match src {
                        DpSource::Node(u) => p.stage_of_node[*u as usize],
                        _ => 0,
                    })
                    .min()
                    .unwrap_or(0);
                regs += (p.stage_of_node[v].saturating_sub(min_src_stage)) as usize;
            }
        }
        regs
    }

    /// Input-to-output latency in cycles (pipeline depth − 1 for staged
    /// PEs, 0 for combinational ones).
    pub fn latency(&self) -> u32 {
        self.pipeline.as_ref().map_or(0, |p| p.stages - 1)
    }

    /// Dynamic energy of one configuration execution, pJ.
    pub fn energy(&self, cfg: &DatapathConfig, tech: &TechModel) -> f64 {
        let mut e = config_energy(&self.datapath, cfg, tech, self.legacy_control);
        if let Some(p) = &self.pipeline {
            e += self.pipeline_register_count(p) as f64 * tech.energy(apex_ir::OpKind::Reg);
        }
        e
    }

    /// Worst-case combinational delay per clock cycle, ns. For pipelined
    /// PEs this is the worst *stage* delay; unpipelined PEs report their
    /// full critical path.
    pub fn cycle_delay(&self, tech: &TechModel) -> f64 {
        match &self.pipeline {
            None => {
                if self.datapath.configs.is_empty() {
                    structural_critical_path(&self.datapath, tech)
                } else {
                    worst_critical_path(&self.datapath, tech)
                }
            }
            Some(p) => self.max_stage_delay(p, tech),
        }
    }

    /// Worst combinational delay within any single pipeline stage, ns.
    #[allow(clippy::expect_used)]
    pub fn max_stage_delay(&self, p: &PePipeline, tech: &TechModel) -> f64 {
        // invariant: merged datapaths are built acyclic by construction
        let order = self.datapath.topo_order().expect("valid datapath");
        let mut arrival = vec![0.0f64; self.datapath.nodes.len()];
        let mut worst = 0.0f64;
        for &i in &order {
            let node = &self.datapath.nodes[i as usize];
            let mut in_arr = 0.0f64;
            for port in &node.port_candidates {
                for src in port {
                    if let DpSource::Node(u) = src {
                        // a stage boundary resets the path
                        if p.stage_of_node[*u as usize] == p.stage_of_node[i as usize] {
                            in_arr = in_arr.max(arrival[*u as usize]);
                        }
                    }
                }
                if port.len() > 1 {
                    in_arr += 0.02;
                }
            }
            let slowest = node
                .ops
                .iter()
                .map(|op| tech.delay(op.kind()))
                .fold(0.0, f64::max);
            arrival[i as usize] = in_arr + slowest;
            worst = worst.max(arrival[i as usize]);
        }
        worst
    }

    /// Maximum clock frequency in GHz given the cycle delay.
    pub fn max_frequency_ghz(&self, tech: &TechModel) -> f64 {
        1.0 / self.cycle_delay(tech).max(1e-3)
    }

    /// Number of 16-bit input connection boxes this PE needs in the CGRA.
    pub fn word_input_count(&self) -> usize {
        self.datapath.word_inputs
    }

    /// Number of 1-bit input connection boxes this PE needs.
    pub fn bit_input_count(&self) -> usize {
        self.datapath.bit_inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::{Graph, Op};

    fn mac_spec() -> PeSpec {
        let mut g = Graph::new("mac");
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let m = g.add(Op::Mul, &[a, b]);
        let s = g.add(Op::Add, &[m, c]);
        g.output(s);
        PeSpec::new("mac", MergedDatapath::from_graph(&g), false)
    }

    #[test]
    fn pipelining_reduces_cycle_delay_and_adds_registers() {
        let tech = TechModel::default();
        let mut spec = mac_spec();
        let flat_delay = spec.cycle_delay(&tech);
        let flat_area = spec.area(&tech).total();
        // put the multiplier in stage 0, the adder in stage 1
        spec.pipeline = Some(PePipeline {
            stage_of_node: vec![0, 1],
            stages: 2,
        });
        assert!(spec.cycle_delay(&tech) < flat_delay);
        assert!(spec.area(&tech).total() > flat_area);
        assert_eq!(spec.latency(), 1);
    }

    #[test]
    fn register_count_counts_stage_crossings() {
        let spec = mac_spec();
        let p = PePipeline {
            stage_of_node: vec![0, 2],
            stages: 3,
        };
        // the mul→add edge crosses two boundaries; the adder's other
        // input (external) is registered twice as well
        assert_eq!(spec.pipeline_register_count(&p), 4);
    }

    #[test]
    fn unpipelined_latency_is_zero() {
        let spec = mac_spec();
        assert_eq!(spec.latency(), 0);
        assert!(spec.max_frequency_ghz(&TechModel::default()) > 0.0);
    }
}
