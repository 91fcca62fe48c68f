//! # apex-ir — dataflow-graph IR for the APEX reproduction
//!
//! This crate is our substitute for [CoreIR] in the APEX paper's flow: a
//! word-level (16-bit) dataflow-graph intermediate representation with a
//! 1-bit predicate datapath and a reference interpreter.
//!
//! Every later stage of the APEX pipeline consumes or produces these
//! graphs:
//!
//! * applications (`apex-apps`) are built as [`Graph`]s,
//! * the subgraph miner (`apex-mining`) mines them,
//! * the datapath merger (`apex-merge`) merges mined patterns into PE
//!   datapaths,
//! * the mapper (`apex-map`) rewrites application graphs into netlists of
//!   PE instances,
//! * the pipeliners (`apex-pipeline`) insert `NetKind::Reg`/`Fifo` nets
//!   into mapped netlists (`apex-map`'s `map_application` rejects IR
//!   registers), and
//! * the CGRA simulator (`apex-cgra`) checks fabric execution against
//!   [`evaluate`], the golden model.
//!
//! # Examples
//!
//! ```
//! use apex_ir::{evaluate, Graph, Op, Value};
//!
//! // out = (a * b) + c
//! let mut g = Graph::new("mac");
//! let a = g.input();
//! let b = g.input();
//! let c = g.input();
//! let m = g.add(Op::Mul, &[a, b]);
//! let s = g.add(Op::Add, &[m, c]);
//! g.output(s);
//!
//! let out = evaluate(&g, &[Value::Word(3), Value::Word(4), Value::Word(5)]);
//! assert_eq!(out, vec![Value::Word(17)]);
//! ```
//!
//! [CoreIR]: https://github.com/rdaly525/coreir

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod expr;
mod graph;
mod interp;
mod op;
mod text;

pub use expr::{BitExpr, Expr, ExprGraph};
pub use graph::{Graph, GraphDefect, GraphError, Node, NodeId};
pub use interp::evaluate;
pub use op::{Op, OpKind, Value, ValueType, ALL_OP_KINDS};
pub use text::{from_text, op_from_token, op_to_token, to_text, ParseError};
