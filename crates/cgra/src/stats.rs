//! Post-place-and-route statistics, area/energy roll-up, and timing —
//! the quantities behind Table 2, Table 3, and Figures 11–16.

use crate::fabric::{Fabric, TileId};
use crate::place::{place_class, PlaceClass, Placement};
use crate::route::Routing;
use apex_map::{NetKind, Netlist};
use apex_pe::PeSpec;
use apex_rewrite::RuleSet;
use apex_tech::TechModel;
use serde::{Deserialize, Serialize};

/// Resource utilization after place-and-route (the paper's Table 3 row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PnrStats {
    /// PE tiles whose compute core is used (`#PE`).
    pub pe_tiles: usize,
    /// Register files used as FIFOs (`#RF`).
    pub rf_tiles: usize,
    /// Memory tiles streaming application data (`#MEM`).
    pub mem_tiles: usize,
    /// I/O tiles (`#IO`).
    pub io_tiles: usize,
    /// Pipeline registers absorbed into switch boxes (`#Reg`).
    pub sb_regs: usize,
    /// Tiles that only forward data (`#Routing tiles`).
    pub routing_tiles: usize,
    /// Total switch-box hops across all routes.
    pub total_hops: usize,
    /// Total Manhattan wirelength of the placement.
    pub wirelength: usize,
}

/// Gathers utilization from a placed and routed design.
pub fn gather_stats(
    netlist: &Netlist,
    fabric: &Fabric,
    placement: &Placement,
    routing: &Routing,
) -> PnrStats {
    // per-tile marks, grown on demand: an honest placement and routing
    // stay on the fabric, whose size the table starts at
    const FUNCTIONAL: u8 = 1;
    const MEM: u8 = 2;
    const IO: u8 = 4;
    const TRAVERSED: u8 = 8;
    let mut marks = vec![0u8; fabric.len()];
    let mut mark = |tile: TileId, bit: u8| {
        let t = tile.0 as usize;
        if t >= marks.len() {
            marks.resize(t + 1, 0);
        }
        marks[t] |= bit;
    };
    let mut pe_tiles = 0;
    let mut rf_tiles = 0;
    for (i, node) in netlist.nodes.iter().enumerate() {
        let Some(class) = place_class(&node.kind) else {
            continue;
        };
        // an unplaced node contributes nothing to utilization; stats stay
        // panic-free even on a partial placement
        let Some(tile) = placement.tile_of_node[i] else {
            continue;
        };
        match class {
            PlaceClass::PeSlot => pe_tiles += 1,
            PlaceClass::RfSlot => rf_tiles += 1,
            PlaceClass::MemSlot => mark(tile, MEM),
            PlaceClass::IoSlot => mark(tile, IO),
        }
        mark(tile, FUNCTIONAL);
    }
    for r in &routing.routes {
        for &t in &r.path {
            mark(t, TRAVERSED);
        }
    }
    let count = |bit: u8| marks.iter().filter(|&&m| m & bit != 0).count();
    PnrStats {
        pe_tiles,
        rf_tiles,
        mem_tiles: count(MEM),
        io_tiles: count(IO),
        sb_regs: routing.sb_regs(),
        routing_tiles: marks
            .iter()
            .filter(|&&m| m & (TRAVERSED | FUNCTIONAL) == TRAVERSED)
            .count(),
        total_hops: routing.signal_hops(fabric),
        wirelength: placement.wirelength,
    }
}

/// CGRA area by component, µm² (Fig. 15's stacking).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// PE cores (instances × core area).
    pub pe: f64,
    /// Register files used as FIFOs.
    pub rf: f64,
    /// Switch boxes of every active tile plus their pipeline registers.
    pub sb: f64,
    /// Connection boxes of used PE tiles.
    pub cb: f64,
    /// Memory tiles.
    pub mem: f64,
    /// I/O tiles.
    pub io: f64,
}

impl AreaBreakdown {
    /// Total area.
    pub fn total(&self) -> f64 {
        self.pe + self.rf + self.sb + self.cb + self.mem + self.io
    }

    /// Interconnect share (SB + CB).
    pub fn interconnect(&self) -> f64 {
        self.sb + self.cb
    }
}

/// Rolls up CGRA area for an application (used tiles only, as the paper
/// evaluates homogeneous arrays by the resources an application occupies).
pub fn cgra_area(
    netlist: &Netlist,
    stats: &PnrStats,
    pe: &PeSpec,
    tech: &TechModel,
) -> AreaBreakdown {
    let f = &tech.fabric;
    let pe_core = pe.area(tech).total();
    let mut rf = 0.0;
    for node in &netlist.nodes {
        if let NetKind::Fifo(d) = node.kind {
            rf += f64::from(d) * tech.area(apex_ir::OpKind::Fifo) + 60.0; // storage + addressing
        }
    }
    let active_tiles =
        stats.pe_tiles.max(stats.rf_tiles) + stats.mem_tiles + stats.io_tiles + stats.routing_tiles;
    let cb_per_pe = pe.word_input_count() as f64 * f.cb_word_area
        + pe.bit_input_count() as f64 * f.cb_bit_area;
    AreaBreakdown {
        pe: stats.pe_tiles as f64 * pe_core,
        rf,
        sb: active_tiles as f64 * f.sb_area + stats.sb_regs as f64 * f.sb_reg_area,
        cb: stats.pe_tiles as f64 * cb_per_pe,
        mem: stats.mem_tiles as f64 * f.mem_tile_area,
        io: stats.io_tiles as f64 * f.io_tile_area,
    }
}

/// CGRA energy per steady-state cycle (one unrolled output set), pJ.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// PE cores.
    pub pe: f64,
    /// Register-file FIFOs.
    pub rf: f64,
    /// Switch boxes (data movement + idle + pipeline registers).
    pub sb: f64,
    /// Connection boxes.
    pub cb: f64,
    /// Memory accesses.
    pub mem: f64,
}

impl EnergyBreakdown {
    /// Total energy per cycle.
    pub fn total(&self) -> f64 {
        self.pe + self.rf + self.sb + self.cb + self.mem
    }
}

/// PE-core energy per steady-state cycle of a mapped netlist, pJ: the sum
/// over PE instances, in netlist order, of each one's configured energy.
/// That energy reads only op kinds and mux legs, which binding a rule's
/// payloads never changes, so it comes from each rule's configuration,
/// once per rule used.
pub fn pe_energy_per_cycle(
    netlist: &Netlist,
    rules: &RuleSet,
    pe: &PeSpec,
    tech: &TechModel,
) -> f64 {
    let mut per_rule: Vec<Option<f64>> = vec![None; rules.rules.len()];
    let mut energy = 0.0;
    for node in &netlist.nodes {
        if let NetKind::Pe(inst) = &node.kind {
            let r = inst.rule as usize;
            energy += *per_rule[r].get_or_insert_with(|| pe.energy(&rules.rules[r].config, tech));
        }
    }
    energy
}

/// Rolls up per-cycle energy for a running application.
pub fn cgra_energy_per_cycle(
    netlist: &Netlist,
    rules: &RuleSet,
    stats: &PnrStats,
    pe: &PeSpec,
    tech: &TechModel,
) -> EnergyBreakdown {
    let f = &tech.fabric;
    let mut rf_energy = 0.0;
    let mut cb_energy = 0.0;
    let mut word_io = 0usize;
    for node in &netlist.nodes {
        match &node.kind {
            NetKind::Pe(_) => cb_energy += node.inputs.len() as f64 * f.cb_energy,
            NetKind::Fifo(_) => {
                // one read + one write per cycle
                rf_energy += 2.0 * tech.energy(apex_ir::OpKind::Fifo) + 0.05;
            }
            NetKind::WordInput | NetKind::WordOutput => word_io += 1,
            _ => {}
        }
    }
    let active_tiles =
        stats.pe_tiles.max(stats.rf_tiles) + stats.mem_tiles + stats.io_tiles + stats.routing_tiles;
    EnergyBreakdown {
        pe: pe_energy_per_cycle(netlist, rules, pe, tech),
        rf: rf_energy,
        sb: stats.total_hops as f64 * f.sb_energy_per_hop
            + active_tiles as f64 * f.sb_idle_energy
            + stats.sb_regs as f64 * f.sb_reg_energy,
        cb: cb_energy,
        mem: word_io as f64 * f.mem_access_energy,
    }
}

/// Whether tile outputs are registered (post-pipelining designs register
/// every PE output, decoupling PE delay from routing delay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputTiming {
    /// PE outputs feed routes combinationally (pre-pipelining).
    Combinational,
    /// PE outputs are registered (post-pipelining).
    Registered,
}

/// Achievable clock period of the placed-and-routed design, ns.
///
/// The longest unbroken routing segment (switch-box pipeline registers
/// split segments) either adds to the PE's cycle delay (combinational
/// outputs) or forms its own timing path (registered outputs).
pub fn achieved_period(
    routing: &Routing,
    pe: &PeSpec,
    tech: &TechModel,
    timing: OutputTiming,
) -> f64 {
    const HOP_DELAY: f64 = 0.075;
    let worst_segment = routing
        .routes
        .iter()
        .map(|r| {
            let segments = r.regs as usize + 1;
            r.hops().div_ceil(segments)
        })
        .max()
        .unwrap_or(0);
    let route_delay = worst_segment as f64 * HOP_DELAY;
    match timing {
        OutputTiming::Combinational => pe.cycle_delay(tech) + route_delay,
        OutputTiming::Registered => pe.cycle_delay(tech).max(route_delay),
    }
}

/// Cycles to process one frame/layer: steady-state issue plus pipeline
/// fill latency.
pub fn runtime_cycles(steady_state_cycles: u64, app_latency: u32) -> u64 {
    steady_state_cycles + u64::from(app_latency)
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

    fn pnr_gaussian() -> (Netlist, RuleSet, PeSpec, PnrStats, Routing) {
        let app = apex_apps::gaussian();
        let pe = baseline_pe();
        let (rules, _) = standard_ruleset(&pe.datapath, &[], &[&app.graph]).unwrap();
        let d = map_application(&app.graph, &pe.datapath, &rules).unwrap();
        let fabric = Fabric::new(FabricConfig::default());
        let placement = place(&d.netlist, &fabric, &PlaceOptions::default()).unwrap();
        let routing =
            route(&d.netlist, &rules, &fabric, &placement, &RouteOptions::default()).unwrap();
        let stats = gather_stats(&d.netlist, &fabric, &placement, &routing);
        (d.netlist, rules, pe, stats, routing)
    }

    #[test]
    fn stats_reflect_netlist_contents() {
        let (netlist, _, _, stats, _) = pnr_gaussian();
        assert_eq!(stats.pe_tiles, netlist.pe_count());
        assert_eq!(stats.rf_tiles, 0, "unpipelined design has no FIFOs");
        assert!(stats.mem_tiles > 0);
        assert!(stats.io_tiles > 0);
        assert!(stats.total_hops > 0);
    }

    #[test]
    fn area_components_are_positive_and_dominated_by_interconnect_or_pe() {
        let (netlist, _, pe, stats, _) = pnr_gaussian();
        let tech = TechModel::default();
        let area = cgra_area(&netlist, &stats, &pe, &tech);
        assert!(area.pe > 0.0 && area.sb > 0.0 && area.cb > 0.0 && area.mem > 0.0);
        assert!(area.total() > area.pe);
        // Fig. 15: interconnect is a significant CGRA cost
        assert!(area.interconnect() > 0.2 * area.pe);
    }

    #[test]
    fn energy_components_are_positive() {
        let (netlist, rules, pe, stats, _) = pnr_gaussian();
        let tech = TechModel::default();
        let e = cgra_energy_per_cycle(&netlist, &rules, &stats, &pe, &tech);
        assert!(e.pe > 0.0 && e.sb > 0.0 && e.cb > 0.0 && e.mem > 0.0);
        assert!(e.total() < 10_000.0, "sane magnitude: {e:?}");
    }

    #[test]
    fn unpipelined_period_exceeds_target() {
        let (_, _, pe, _, routing) = pnr_gaussian();
        let tech = TechModel::default();
        let period = achieved_period(&routing, &pe, &tech, OutputTiming::Combinational);
        // baseline PE is single-op and fast, but routes add delay
        assert!(period > pe.cycle_delay(&tech));
        let registered = achieved_period(&routing, &pe, &tech, OutputTiming::Registered);
        assert!(registered <= period);
    }

    #[test]
    fn runtime_includes_fill_latency() {
        assert_eq!(runtime_cycles(1000, 25), 1025);
    }
}
