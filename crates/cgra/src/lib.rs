//! # apex-cgra — CGRA fabric generation, place-and-route, and evaluation
//!
//! The backend of the APEX flow (paper Sections 2 and 4, evaluated in
//! Section 5): a 32×16 array of PE and memory tiles with a statically
//! configured interconnect (five 16-bit and five 1-bit tracks per switch
//! box, connection boxes per PE input), onto which mapped netlists are
//! placed (simulated annealing), routed (negotiated-congestion maze
//! routing), configured (bitstream generation), and evaluated for area,
//! energy, and achievable clock period.
//!
//! Post-route verification ([`verify_routed`]) plus the netlist's
//! cycle-accurate simulator stand in for the paper's Synopsys VCS
//! simulation of the configured Verilog (DESIGN.md §3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitstream;
mod fabric;
mod fabric_sim;
mod place;
mod route;
mod stats;
mod verilog;

pub use bitstream::{generate_bitstream, Bitstream, TileConfig};
pub use fabric::{Fabric, FabricConfig, TileId, TileKind};
pub use fabric_sim::{decode_pe_configs, simulate_from_bitstream, FabricSimError};
pub use place::{
    place, place_cached, place_class, placement_edges, trace_through_regs, PlaceClass,
    PlaceError, PlaceOptions, Placement,
};
pub use route::{
    connections, route, verify_routed, Connection, NetDefect, RouteDefect, RouteError,
    RouteFault, RouteOptions, RoutedEdge, Routing,
};
pub use verilog::emit_cgra_verilog;
pub use stats::{
    achieved_period, cgra_area, cgra_energy_per_cycle, gather_stats, pe_energy_per_cycle,
    runtime_cycles, AreaBreakdown, EnergyBreakdown, OutputTiming, PnrStats,
};
