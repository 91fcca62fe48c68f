//! # apex-merge — datapath graph merging
//!
//! Stage 2 of the APEX flow (paper Section 3.3): merging several frequent
//! subgraphs into a single PE datapath that can be *configured* to
//! implement each of them, with minimal area, using the high-level-
//! synthesis datapath-merging formulation of Moreano et al.:
//!
//! * merge opportunities between nodes/edges of the subgraphs (Fig. 5c),
//! * a compatibility graph weighted by saved area (Fig. 5d),
//! * a maximum-weight clique (exact branch-and-bound, greedy-seeded), and
//! * reconstruction with configuration muxes (Fig. 5e).
//!
//! The output type, [`MergedDatapath`], is the PE's architectural
//! description: `apex-pe` turns it into a PE specification (area, energy,
//! timing, Verilog) and `apex-rewrite` synthesizes mapper rewrite rules
//! from its configuration space.
//!
//! # Examples
//!
//! ```
//! use apex_ir::{Graph, Op};
//! use apex_merge::{merge_all, MergeOptions};
//! use apex_tech::TechModel;
//!
//! // two subgraphs: (a*b)+c and (a+b)-c
//! let mut g1 = Graph::new("mac");
//! let (a, b, c) = (g1.input(), g1.input(), g1.input());
//! let m = g1.add(Op::Mul, &[a, b]);
//! let s = g1.add(Op::Add, &[m, c]);
//! g1.output(s);
//!
//! let mut g2 = Graph::new("addsub");
//! let (a, b, c) = (g2.input(), g2.input(), g2.input());
//! let s = g2.add(Op::Add, &[a, b]);
//! let d = g2.add(Op::Sub, &[s, c]);
//! g2.output(d);
//!
//! let tech = TechModel::default();
//! let (pe, _) = merge_all(&[g1, g2], &tech, &MergeOptions::default()).unwrap();
//! assert_eq!(pe.configs.len(), 2);
//! // the two adders share one unit, so the PE has 3 nodes (mul, add, add/sub)
//! assert!(pe.node_count() <= 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod clique;
mod datapath;
mod merge;

pub use clique::{max_weight_clique, CliqueProblem, CliqueSolution};
pub use datapath::{
    DatapathConfig, DatapathDefect, DatapathDefectKind, DatapathError, DpNode, DpSource,
    MergedDatapath, NodeConfig,
};
pub use merge::{merge_all, merge_graph, MergeError, MergeOptions, MergeReport};
