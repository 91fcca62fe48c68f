//! Area, energy, and timing models for PE datapaths.
//!
//! This is the "PE core level" evaluation of the paper (Section 5): the
//! PE's arithmetic/logic units, configuration muxes, constant/configuration
//! registers, and (for the hand-designed baseline only) its fixed
//! instruction-decode and flag-logic overhead.

use apex_merge::{DatapathConfig, DpSource, MergedDatapath};
use apex_tech::TechModel;

/// Area breakdown of a PE core, µm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeArea {
    /// Functional units (max-area op per unit plus per-op decode).
    pub functional_units: f64,
    /// Configuration-mux legs on node ports.
    pub muxes: f64,
    /// Configuration storage (op selects, mux selects, constants).
    pub config: f64,
    /// Fixed control overhead (baseline PE only).
    pub control: f64,
}

impl PeArea {
    /// Total PE core area.
    pub fn total(&self) -> f64 {
        self.functional_units + self.muxes + self.config + self.control
    }
}

/// Number of configuration bits a datapath needs: the width of every
/// field of its layout ([`crate::for_each_field`]).
pub fn config_bits(dp: &MergedDatapath) -> usize {
    let mut bits = 0;
    crate::config::for_each_field(dp, |_, width| bits += width);
    bits
}

/// Computes the PE core area of a datapath.
///
/// `legacy_control` adds the baseline PE's fixed instruction-decode/flag
/// overhead (see [`TechModel::baseline_control_overhead`]); APEX-generated
/// PEs pass `false`.
pub fn pe_area(dp: &MergedDatapath, tech: &TechModel, legacy_control: bool) -> PeArea {
    let mut fu = 0.0;
    let mut mux = 0.0;
    for node in &dp.nodes {
        let unit: f64 = node
            .ops
            .iter()
            .map(|op| tech.area(op.kind()))
            .fold(0.0, f64::max);
        fu += unit + tech.decode_area_per_op() * (node.ops.len().saturating_sub(1)) as f64;
        for port in &node.port_candidates {
            if let Some(first) = port.first() {
                let leg = tech.mux_leg_area(dp.source_type(*first));
                mux += leg * (port.len().saturating_sub(1)) as f64;
            }
        }
    }
    // output muxes: a single output is hardwired to its driver and needs
    // no select leg at all; each additional output adds one leg (matching
    // the per-port leg model above)
    mux += tech.mux_leg_area(apex_ir::ValueType::Word) * dp.word_outputs.saturating_sub(1) as f64;
    let config = config_bits(dp) as f64 * tech.fabric.config_bit_area;
    let control = if legacy_control {
        tech.baseline_control_overhead()
    } else {
        0.0
    };
    PeArea {
        functional_units: fu,
        muxes: mux,
        config,
        control,
    }
}

/// Dynamic energy of executing one configuration for one cycle, pJ.
///
/// Inactive functional units are operand-gated; the PE pays its idle/clock
/// energy regardless (larger for the baseline PE due to its control
/// logic).
pub fn config_energy(
    dp: &MergedDatapath,
    cfg: &DatapathConfig,
    tech: &TechModel,
    legacy_control: bool,
) -> f64 {
    // the hand-designed general-purpose PE burns substantially more energy
    // per executed op: instruction decode toggles every cycle, the wide
    // ALU drags parasitics through every operation, and operand isolation
    // of unused units is imperfect. APEX-generated PEs are bare datapaths
    // with plain configuration registers. This gap is what the paper's
    // 69-82% PE-level energy reductions (Section 5.2) are made of.
    let (op_factor, idle) = if legacy_control {
        (2.2, tech.fabric.pe_idle_energy + 0.35)
    } else {
        (1.0, tech.fabric.pe_idle_energy)
    };
    let mut e = idle;
    for (node, nc) in dp.nodes.iter().zip(&cfg.node_cfg) {
        let Some(nc) = nc else { continue };
        e += tech.energy(nc.op.kind()) * op_factor;
        // active mux legs burn a little switching energy
        for port in &node.port_candidates {
            if port.len() > 1 {
                e += 0.004;
            }
        }
    }
    e
}

/// Critical-path delay of one configuration, ns: the longest
/// combinational path through the *selected* edges, including a small mux
/// penalty on ports that carry a configuration mux.
#[allow(clippy::expect_used)]
pub fn config_critical_path(dp: &MergedDatapath, cfg: &DatapathConfig, tech: &TechModel) -> f64 {
    // invariant: merged datapaths are built acyclic by construction
    // (merge_graph rejects back-edges), so topo_order cannot fail here
    let order = dp.topo_order().expect("valid datapath");
    let mut arrival = vec![0.0f64; dp.nodes.len()];
    for &i in &order {
        let Some(nc) = &cfg.node_cfg[i as usize] else {
            continue;
        };
        let node = &dp.nodes[i as usize];
        let mut input_arrival = 0.0f64;
        for (p, &sel) in nc.port_sel.iter().enumerate() {
            let src = node.port_candidates[p][sel as usize];
            let t = match src {
                DpSource::Node(j) => arrival[j as usize],
                _ => 0.0,
            };
            let mux_pen = if node.port_candidates[p].len() > 1 {
                0.02
            } else {
                0.0
            };
            input_arrival = input_arrival.max(t + mux_pen);
        }
        arrival[i as usize] = input_arrival + tech.delay(nc.op.kind());
    }
    let out_t = |src: &DpSource| match src {
        DpSource::Node(j) => arrival[*j as usize],
        _ => 0.0,
    };
    cfg.word_out_sel
        .iter()
        .chain(&cfg.bit_out_sel)
        .map(out_t)
        .fold(0.0, f64::max)
}

/// The worst critical path over every stored configuration, ns. PEs whose
/// worst path exceeds the target clock need pipelining (Section 4.2).
pub fn worst_critical_path(dp: &MergedDatapath, tech: &TechModel) -> f64 {
    dp.configs
        .iter()
        .map(|cfg| config_critical_path(dp, cfg, tech))
        .fold(0.0, f64::max)
}

/// Structural upper bound on the combinational path, ns: longest path over
/// the union of candidate edges with each node at its slowest op. Used for
/// PEs without stored configurations (e.g. the baseline PE).
#[allow(clippy::expect_used)]
pub fn structural_critical_path(dp: &MergedDatapath, tech: &TechModel) -> f64 {
    // invariant: merged datapaths are built acyclic by construction
    let order = dp.topo_order().expect("valid datapath");
    let mut arrival = vec![0.0f64; dp.nodes.len()];
    let mut worst = 0.0f64;
    for &i in &order {
        let node = &dp.nodes[i as usize];
        let mut input_arrival = 0.0f64;
        for port in &node.port_candidates {
            for src in port {
                if let DpSource::Node(j) = src {
                    input_arrival = input_arrival.max(arrival[*j as usize]);
                }
            }
            if port.len() > 1 {
                input_arrival += 0.02;
            }
        }
        let slowest = node
            .ops
            .iter()
            .map(|op| tech.delay(op.kind()))
            .fold(0.0, f64::max);
        arrival[i as usize] = input_arrival + slowest;
        worst = worst.max(arrival[i as usize]);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use apex_ir::{Graph, Op};

    fn mac_dp() -> MergedDatapath {
        let mut g = Graph::new("mac");
        let a = g.input();
        let b = g.input();
        let c = g.input();
        let m = g.add(Op::Mul, &[a, b]);
        let s = g.add(Op::Add, &[m, c]);
        g.output(s);
        MergedDatapath::from_graph(&g)
    }

    #[test]
    fn mac_area_is_mul_plus_add_plus_config() {
        let tech = TechModel::default();
        let dp = mac_dp();
        let area = pe_area(&dp, &tech, false);
        assert!(area.functional_units >= tech.area(apex_ir::OpKind::Mul));
        assert_eq!(area.muxes, 0.0, "hardwired ports + single output: mux-free");
        assert_eq!(area.control, 0.0);
        assert!(area.total() < 300.0, "specialized MAC PE stays small");
    }

    #[test]
    fn single_output_pays_no_mux_leg_but_extra_outputs_do() {
        // regression: a single-output datapath used to be charged one
        // output-mux leg even though there is nothing to select between
        let tech = TechModel::default();
        let mut dp = mac_dp();
        assert_eq!(dp.word_outputs, 1);
        let one = pe_area(&dp, &tech, false);
        assert_eq!(one.muxes, 0.0, "one output ⇒ no output mux");
        dp.word_outputs = 2;
        let two = pe_area(&dp, &tech, false);
        assert_eq!(
            two.muxes - one.muxes,
            tech.mux_leg_area(apex_ir::ValueType::Word),
            "each output beyond the first adds exactly one word leg"
        );
        dp.word_outputs = 0;
        let zero = pe_area(&dp, &tech, false);
        assert_eq!(zero.muxes, 0.0, "no outputs ⇒ no underflow, no mux");
    }

    #[test]
    fn legacy_control_dominates_baseline_style_pe() {
        let tech = TechModel::default();
        let dp = mac_dp();
        let with = pe_area(&dp, &tech, true).total();
        let without = pe_area(&dp, &tech, false).total();
        assert!((with - without - tech.baseline_control_overhead()).abs() < 1e-9);
    }

    #[test]
    fn mac_critical_path_needs_pipelining() {
        let tech = TechModel::default();
        let dp = mac_dp();
        let cp = worst_critical_path(&dp, &tech);
        assert!(cp > tech.clock_period_ns, "mul+add = {cp} ns > 1.1 ns");
        // structural bound is at least the configured path
        assert!(structural_critical_path(&dp, &tech) >= cp - 1e-9);
    }

    #[test]
    fn energy_counts_active_units_only() {
        let tech = TechModel::default();
        let dp = mac_dp();
        let full = config_energy(&dp, &dp.configs[0], &tech, false);
        let mut cfg = dp.configs[0].clone();
        // deactivate everything: only idle energy remains
        for nc in &mut cfg.node_cfg {
            *nc = None;
        }
        cfg.word_out_sel.clear();
        let idle = config_energy(&dp, &cfg, &tech, false);
        assert!(full > idle);
        assert!((idle - tech.fabric.pe_idle_energy).abs() < 1e-9);
    }

    #[test]
    fn config_bits_grow_with_muxes() {
        let mut dp = mac_dp();
        let before = config_bits(&dp);
        dp.nodes[1].port_candidates[1].push(DpSource::WordInput(0));
        assert!(config_bits(&dp) > before);
    }
}
