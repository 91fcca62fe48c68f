//! # apex-mining — frequent subgraph mining and MIS analysis
//!
//! Stage 1 of the APEX flow (paper Sections 3.1–3.2). This crate is our
//! substitute for GraMi: it mines the frequent computational subgraphs of
//! an application dataflow graph, then applies maximal-independent-set
//! analysis so overlapping occurrences don't inflate a subgraph's
//! usefulness (Fig. 3 and Fig. 4 of the paper).
//!
//! The pipeline:
//!
//! 1. [`mine`] grows frequent [`Pattern`]s from single labels, pruning by
//!    MNI support,
//! 2. each pattern's occurrences go through
//!    [`maximal_independent_set`], and
//! 3. results are ranked by MIS size — the order in which subgraphs get
//!    merged into PE architectures by `apex-merge`.
//!
//! # Examples
//!
//! ```
//! use apex_ir::{Graph, Op};
//! use apex_mining::{mine, MinerConfig};
//!
//! // Fig. 3's convolution: 4 constant-weight multiplies into an add chain
//! let mut g = Graph::new("conv");
//! let mut acc = None;
//! for k in 0..4 {
//!     let i = g.input();
//!     let w = g.constant(k);
//!     let m = g.add(Op::Mul, &[i, w]);
//!     acc = Some(match acc {
//!         None => m,
//!         Some(a) => g.add(Op::Add, &[a, m]),
//!     });
//! }
//! let out = acc.unwrap();
//! g.output(out);
//!
//! let mined = mine(&g, &MinerConfig { min_support: 3, ..MinerConfig::default() }).unwrap();
//! assert!(!mined.subgraphs.is_empty());
//! // results are ranked by non-overlapping occurrence count (MIS size)
//! assert!(mined.subgraphs.windows(2).all(|w| w[0].mis_size >= w[1].mis_size));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use apex_fault::{ApexError, Stage};
use std::fmt;

mod bitset;
mod isomorphism;
mod miner;
mod mis;
mod pattern;

pub use isomorphism::{
    find_embeddings, find_embeddings_metered, EmbeddingList, EmbeddingSet, GraphIndex,
};
pub use miner::{mine, rank, MineOutcome, MinedSubgraph, MinerConfig};
pub use mis::{maximal_independent_set, mis_size};
pub use pattern::{Pattern, PatternEdge};

/// Errors raised by the mining stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MineError {
    /// An occurrence does not map every pattern node.
    OccurrenceSize {
        /// Pattern size in nodes.
        expected: usize,
        /// Occurrence size in nodes.
        got: usize,
    },
    /// An occurrence node's op disagrees with its pattern label.
    LabelMismatch {
        /// Pattern node index.
        node: u32,
    },
    /// Two pattern edges constrain the same destination port.
    DuplicatePort {
        /// Pattern node index.
        node: u32,
        /// The doubly-constrained port.
        port: u8,
    },
    /// A pattern node has more in-edges than its op has input ports.
    PortsExhausted {
        /// Pattern node index.
        node: u32,
    },
    /// Internal ordering violation: an edge source was not materialized
    /// before its destination.
    UnplacedNode {
        /// Pattern node index.
        node: u32,
    },
    /// A deterministic fault-injection site fired (tests only).
    Injected(&'static str),
}

impl fmt::Display for MineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MineError::OccurrenceSize { expected, got } => {
                write!(f, "occurrence has {got} nodes, pattern has {expected}")
            }
            MineError::LabelMismatch { node } => {
                write!(f, "occurrence op mismatches label of pattern node {node}")
            }
            MineError::DuplicatePort { node, port } => {
                write!(f, "pattern node {node} has two edges into port {port}")
            }
            MineError::PortsExhausted { node } => {
                write!(f, "pattern node {node} has more in-edges than input ports")
            }
            MineError::UnplacedNode { node } => {
                write!(f, "pattern node {node} used before being materialized")
            }
            MineError::Injected(site) => write!(f, "injected fault at {site}"),
        }
    }
}

impl std::error::Error for MineError {}

impl From<MineError> for ApexError {
    fn from(e: MineError) -> Self {
        ApexError::with_source(Stage::Mine, e)
    }
}
