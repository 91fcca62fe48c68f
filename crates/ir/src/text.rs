//! A small, line-oriented text format for dataflow graphs, so custom
//! applications can be written by hand, stored, and fed through the DSE
//! flow without recompiling.
//!
//! Format (one node per line, ids are implicit and sequential):
//!
//! ```text
//! graph mac
//! n0 = input
//! n1 = input
//! n2 = const 7
//! n3 = mul n0 n2
//! n4 = add n3 n1
//! n5 = output n4
//! ```
//!
//! Comments start with `#`; blank lines are ignored. [`to_text`] and
//! [`from_text`] round-trip exactly.

use crate::graph::{Graph, NodeId};
use crate::op::Op;
use std::fmt::Write as _;

/// Serializes a graph to the text format.
pub fn to_text(graph: &Graph) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "graph {}", graph.name());
    for (id, node) in graph.iter() {
        let _ = write!(s, "{id} = {}", op_name(node.op()));
        if let Some(payload) = op_payload(node.op()) {
            let _ = write!(s, " {payload}");
        }
        for src in node.inputs() {
            let _ = write!(s, " {src}");
        }
        s.push('\n');
    }
    s
}

/// Errors from parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses a graph from the text format.
///
/// # Errors
/// Reports the first malformed line with its number.
pub fn from_text(text: &str) -> Result<Graph, ParseError> {
    let mut graph: Option<Graph> = None;
    let mut expected_id = 0u32;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| ParseError {
            line: lineno + 1,
            message,
        };
        if let Some(name) = line.strip_prefix("graph ") {
            if graph.is_some() {
                return Err(err("duplicate graph header".into()));
            }
            graph = Some(Graph::new(name.trim()));
            continue;
        }
        let g = graph
            .as_mut()
            .ok_or_else(|| err("missing `graph <name>` header".into()))?;
        let (lhs, rhs) = line
            .split_once('=')
            .ok_or_else(|| err("expected `nK = op ...`".into()))?;
        let id = parse_node_id(lhs.trim()).ok_or_else(|| err(format!("bad node id '{lhs}'")))?;
        if id.0 != expected_id {
            return Err(err(format!(
                "node ids must be sequential: expected n{expected_id}, found {id}"
            )));
        }
        expected_id += 1;
        let mut toks = rhs.split_whitespace();
        let opname = toks
            .next()
            .ok_or_else(|| err("missing operation".into()))?;
        let rest: Vec<&str> = toks.collect();
        let (op, input_toks) = parse_op(opname, &rest).map_err(err)?;
        let mut inputs = Vec::with_capacity(input_toks.len());
        for t in input_toks {
            let src = parse_node_id(t).ok_or_else(|| err(format!("bad input id '{t}'")))?;
            inputs.push(src);
        }
        g.try_add(op, &inputs)
            .map_err(|e| err(e.to_string()))?;
    }
    graph.ok_or(ParseError {
        line: 0,
        message: "empty input".into(),
    })
}

fn parse_node_id(s: &str) -> Option<NodeId> {
    s.strip_prefix('n')?.parse().ok().map(NodeId)
}

/// Serializes a single op as one whitespace-free token (`add`,
/// `const:7`, `lut:0xca`, …) — the payload-carrying counterpart of the
/// graph format's `op payload` columns, for line-oriented codecs that
/// store ops in space-separated lists (e.g. the variant cache).
pub fn op_to_token(op: Op) -> String {
    match op_payload(op) {
        Some(p) => format!("{}:{p}", op_name(op)),
        None => op_name(op).to_owned(),
    }
}

/// Inverse of [`op_to_token`]; `None` for malformed tokens.
pub fn op_from_token(token: &str) -> Option<Op> {
    let (name, payload) = match token.split_once(':') {
        Some((n, p)) => (n, vec![p]),
        None => (token, Vec::new()),
    };
    let (op, rest) = parse_op(name, &payload).ok()?;
    // a payload-less op must not carry one, and vice versa
    if !rest.is_empty() || (payload.is_empty() != op_payload(op).is_none()) {
        return None;
    }
    Some(op)
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Input => "input",
        Op::BitInput => "bitinput",
        Op::Output => "output",
        Op::BitOutput => "bitoutput",
        Op::Const(_) => "const",
        Op::BitConst(_) => "bitconst",
        Op::Reg => "reg",
        Op::BitReg => "bitreg",
        Op::Fifo(_) => "fifo",
        Op::Add => "add",
        Op::Sub => "sub",
        Op::Mul => "mul",
        Op::Abs => "abs",
        Op::Smin => "smin",
        Op::Smax => "smax",
        Op::Umin => "umin",
        Op::Umax => "umax",
        Op::Shl => "shl",
        Op::Lshr => "lshr",
        Op::Ashr => "ashr",
        Op::And => "and",
        Op::Or => "or",
        Op::Xor => "xor",
        Op::Not => "not",
        Op::Mux => "mux",
        Op::Eq => "eq",
        Op::Neq => "neq",
        Op::Slt => "slt",
        Op::Sle => "sle",
        Op::Sgt => "sgt",
        Op::Sge => "sge",
        Op::Ult => "ult",
        Op::Ule => "ule",
        Op::Ugt => "ugt",
        Op::Uge => "uge",
        Op::BitAnd => "bitand",
        Op::BitOr => "bitor",
        Op::BitXor => "bitxor",
        Op::BitNot => "bitnot",
        Op::BitMux => "bitmux",
        Op::Lut(_) => "lut",
    }
}

fn op_payload(op: Op) -> Option<String> {
    match op {
        Op::Const(v) => Some(v.to_string()),
        Op::BitConst(b) => Some(u8::from(b).to_string()),
        Op::Fifo(d) => Some(d.to_string()),
        Op::Lut(t) => Some(format!("0x{t:02x}")),
        _ => None,
    }
}

/// Parses the op name plus payload, returning the op and the remaining
/// tokens (the input ids).
fn parse_op<'a>(name: &str, rest: &[&'a str]) -> Result<(Op, Vec<&'a str>), String> {
    let payload_first = |rest: &[&'a str]| -> Result<(&'a str, Vec<&'a str>), String> {
        let (head, tail) = rest
            .split_first()
            .ok_or_else(|| format!("'{name}' needs a payload"))?;
        Ok((head, tail.to_vec()))
    };
    let op = match name {
        "input" => Op::Input,
        "bitinput" => Op::BitInput,
        "output" => Op::Output,
        "bitoutput" => Op::BitOutput,
        "const" => {
            let (p, tail) = payload_first(rest)?;
            let v: u16 = p.parse().map_err(|_| format!("bad const '{p}'"))?;
            return Ok((Op::Const(v), tail));
        }
        "bitconst" => {
            let (p, tail) = payload_first(rest)?;
            let v: u8 = p.parse().map_err(|_| format!("bad bitconst '{p}'"))?;
            return Ok((Op::BitConst(v != 0), tail));
        }
        "fifo" => {
            let (p, tail) = payload_first(rest)?;
            let v: u8 = p.parse().map_err(|_| format!("bad fifo depth '{p}'"))?;
            return Ok((Op::Fifo(v), tail));
        }
        "lut" => {
            let (p, tail) = payload_first(rest)?;
            let hex = p.trim_start_matches("0x");
            let v = u8::from_str_radix(hex, 16).map_err(|_| format!("bad lut table '{p}'"))?;
            return Ok((Op::Lut(v), tail));
        }
        "reg" => Op::Reg,
        "bitreg" => Op::BitReg,
        "add" => Op::Add,
        "sub" => Op::Sub,
        "mul" => Op::Mul,
        "abs" => Op::Abs,
        "smin" => Op::Smin,
        "smax" => Op::Smax,
        "umin" => Op::Umin,
        "umax" => Op::Umax,
        "shl" => Op::Shl,
        "lshr" => Op::Lshr,
        "ashr" => Op::Ashr,
        "and" => Op::And,
        "or" => Op::Or,
        "xor" => Op::Xor,
        "not" => Op::Not,
        "mux" => Op::Mux,
        "eq" => Op::Eq,
        "neq" => Op::Neq,
        "slt" => Op::Slt,
        "sle" => Op::Sle,
        "sgt" => Op::Sgt,
        "sge" => Op::Sge,
        "ult" => Op::Ult,
        "ule" => Op::Ule,
        "ugt" => Op::Ugt,
        "uge" => Op::Uge,
        "bitand" => Op::BitAnd,
        "bitor" => Op::BitOr,
        "bitxor" => Op::BitXor,
        "bitnot" => Op::BitNot,
        "bitmux" => Op::BitMux,
        other => return Err(format!("unknown operation '{other}'")),
    };
    Ok((op, rest.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::evaluate;
    use crate::op::Value;

    fn mac() -> Graph {
        let mut g = Graph::new("mac");
        let a = g.input();
        let b = g.input();
        let c = g.constant(7);
        let m = g.add(Op::Mul, &[a, c]);
        let s = g.add(Op::Add, &[m, b]);
        g.output(s);
        g
    }

    #[test]
    fn round_trips_exactly() {
        let g = mac();
        let text = to_text(&g);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn parses_hand_written_source() {
        let src = "
# scale and threshold
graph thresh
n0 = input
n1 = const 3
n2 = mul n0 n1   # scaled
n3 = const 100
n4 = sgt n2 n3
n5 = bitoutput n4
";
        let g = from_text(src).unwrap();
        assert_eq!(g.name(), "thresh");
        let out = evaluate(&g, &[Value::Word(40)]);
        assert!(out[0].bit());
        let out = evaluate(&g, &[Value::Word(10)]);
        assert!(!out[0].bit());
    }

    #[test]
    fn payload_ops_round_trip() {
        let mut g = Graph::new("payloads");
        let a = g.input();
        let f = g.add(Op::Fifo(5), &[a]);
        g.output(f);
        let b0 = g.bit_input();
        let b1 = g.bit_input();
        let b2 = g.bit_input();
        let l = g.add(Op::Lut(0xCA), &[b0, b1, b2]);
        g.bit_output(l);
        let bc = g.add(Op::BitConst(true), &[]);
        g.bit_output(bc);
        let parsed = from_text(&to_text(&g)).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "graph t\nn0 = input\nn1 = frobnicate n0\n";
        let err = from_text(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("frobnicate"));
    }

    #[test]
    fn rejects_non_sequential_ids() {
        let src = "graph t\nn0 = input\nn5 = output n0\n";
        let err = from_text(src).unwrap_err();
        assert!(err.message.contains("sequential"));
    }

    #[test]
    fn rejects_type_errors_with_location() {
        let src = "graph t\nn0 = input\nn1 = bitoutput n0\n";
        let err = from_text(src).unwrap_err();
        assert_eq!(err.line, 3);
    }
}
