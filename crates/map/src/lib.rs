//! # apex-map — application mapping (instruction selection)
//!
//! Stage 3 of the APEX flow (paper Section 4.1.2): transform the
//! application's dataflow graph of IR operations into a dataflow graph of
//! configured PEs (Fig. 7), using the LLVM-style greedy covering the paper
//! describes — complex rewrite rules first, then simpler ones.
//!
//! The output [`Netlist`] is what the rest of the backend consumes:
//! `apex-pipeline` inserts branch-delay registers and register-file FIFOs
//! into it, and `apex-cgra` places, routes, and simulates it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod mapper;
mod netlist;
mod sim;

pub use mapper::{map_application, MapError, MapStats, MappedDesign};
pub use netlist::{NetKind, NetNode, NetRef, Netlist, NetlistError, PeInstance, SimStreams};
