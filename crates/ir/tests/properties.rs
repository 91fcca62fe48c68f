//! Property tests on the IR: algebraic identities of the operation
//! semantics and graph invariants.

use apex_ir::{from_text, to_text, Op, OpKind, Value, ValueType, ALL_OP_KINDS};
use apex_testgen::DfgGen;
use proptest::prelude::*;

proptest! {
    // ---- operation semantics ------------------------------------------------

    #[test]
    fn add_commutes_and_sub_inverts(a: u16, b: u16) {
        let ab = Op::Add.eval(&[Value::Word(a), Value::Word(b)]);
        let ba = Op::Add.eval(&[Value::Word(b), Value::Word(a)]);
        prop_assert_eq!(ab, ba);
        let diff = Op::Sub.eval(&[ab, Value::Word(b)]);
        prop_assert_eq!(diff, Value::Word(a));
    }

    #[test]
    fn min_max_partition(a: u16, b: u16) {
        let mn = Op::Umin.eval(&[Value::Word(a), Value::Word(b)]).word();
        let mx = Op::Umax.eval(&[Value::Word(a), Value::Word(b)]).word();
        prop_assert_eq!(mn.min(mx), mn);
        prop_assert_eq!([mn, mx], if a <= b { [a, b] } else { [b, a] });
        // signed variants agree with i16 ordering
        let smn = Op::Smin.eval(&[Value::Word(a), Value::Word(b)]).word() as i16;
        prop_assert_eq!(smn, (a as i16).min(b as i16));
    }

    #[test]
    fn shifts_match_reference(a: u16, s in 0u16..16) {
        prop_assert_eq!(
            Op::Shl.eval(&[Value::Word(a), Value::Word(s)]).word(),
            a << s
        );
        prop_assert_eq!(
            Op::Lshr.eval(&[Value::Word(a), Value::Word(s)]).word(),
            a >> s
        );
        prop_assert_eq!(
            Op::Ashr.eval(&[Value::Word(a), Value::Word(s)]).word(),
            ((a as i16) >> s) as u16
        );
    }

    #[test]
    fn comparisons_are_consistent(a: u16, b: u16) {
        let lt = Op::Ult.eval(&[Value::Word(a), Value::Word(b)]).bit();
        let ge = Op::Uge.eval(&[Value::Word(a), Value::Word(b)]).bit();
        prop_assert_ne!(lt, ge);
        let eq = Op::Eq.eval(&[Value::Word(a), Value::Word(b)]).bit();
        let le = Op::Ule.eval(&[Value::Word(a), Value::Word(b)]).bit();
        prop_assert_eq!(le, lt || eq);
    }

    #[test]
    fn mux_returns_one_of_its_operands(a: u16, b: u16, s: bool) {
        let out = Op::Mux
            .eval(&[Value::Word(a), Value::Word(b), Value::Bit(s)])
            .word();
        prop_assert_eq!(out, if s { b } else { a });
    }

    #[test]
    fn abs_is_idempotent(a: u16) {
        let one = Op::Abs.eval(&[Value::Word(a)]);
        let two = Op::Abs.eval(&[one]);
        prop_assert_eq!(one, two);
    }

    #[test]
    fn lut_matches_its_table(table: u8, b0: bool, b1: bool, b2: bool) {
        let out = Op::Lut(table)
            .eval(&[Value::Bit(b0), Value::Bit(b1), Value::Bit(b2)])
            .bit();
        let idx = (b0 as u8) | ((b1 as u8) << 1) | ((b2 as u8) << 2);
        prop_assert_eq!(out, (table >> idx) & 1 == 1);
    }
}

// ---- typed evaluation vs raw lanes ------------------------------------------

/// One of every variant `Op::eval` can evaluate (primary inputs have
/// none); the graph generator draws each payload afresh.
const EVERY_OP: &[Op] = &[
    Op::Output,
    Op::BitOutput,
    Op::Const(0),
    Op::BitConst(false),
    Op::Reg,
    Op::BitReg,
    Op::Fifo(3),
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Abs,
    Op::Smin,
    Op::Smax,
    Op::Umin,
    Op::Umax,
    Op::Shl,
    Op::Lshr,
    Op::Ashr,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Not,
    Op::Mux,
    Op::Eq,
    Op::Neq,
    Op::Slt,
    Op::Sle,
    Op::Sgt,
    Op::Sge,
    Op::Ult,
    Op::Ule,
    Op::Ugt,
    Op::Uge,
    Op::BitAnd,
    Op::BitOr,
    Op::BitXor,
    Op::BitNot,
    Op::BitMux,
    Op::Lut(0),
];

/// Every variant `Op::eval` can evaluate, with both signs of `Const`,
/// both `BitConst`s and all 256 `Lut` tables.
fn evaluable_ops() -> Vec<Op> {
    let mut ops = EVERY_OP.to_vec();
    ops.extend([Op::Const(0x8000), Op::BitConst(true)]);
    ops.extend((1..=255u8).map(Op::Lut));
    ops
}

/// `Op::eval` on the typed operands `raw` decodes to (a bit port takes
/// the low bit) equals `Op::eval_lane` on their lane encoding; ports the
/// op lacks receive the raw word, which the lane function must ignore.
fn typed_eval_matches_lanes(op: Op, raw: [u16; 3]) -> Result<(), String> {
    let tys = op.input_types();
    let inputs: Vec<Value> = tys
        .iter()
        .zip(raw)
        .map(|(ty, r)| match ty {
            ValueType::Word => Value::Word(r),
            ValueType::Bit => Value::Bit(r & 1 == 1),
        })
        .collect();
    let lane = |p: usize| match inputs.get(p) {
        Some(Value::Word(w)) => *w,
        Some(Value::Bit(b)) => u16::from(*b),
        None => raw[p],
    };
    let want = match op.eval(&inputs) {
        Value::Word(w) => w,
        Value::Bit(b) => u16::from(b),
    };
    let got = op.eval_lane(lane(0), lane(1), lane(2));
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{op:?} on {raw:?}: eval gives lane {want}, eval_lane gives {got}"
        ))
    }
}

#[test]
fn evaluable_ops_cover_every_kind() {
    let mut kinds: Vec<OpKind> = evaluable_ops().iter().map(|op| op.kind()).collect();
    kinds.extend([OpKind::Input, OpKind::BitInput]);
    for kind in ALL_OP_KINDS {
        assert!(kinds.contains(kind), "{kind} missing from evaluable_ops");
    }
}

#[test]
fn eval_matches_eval_lane_on_edge_operands() {
    // signed extremes for Abs/Ashr/the signed compares, shift amounts
    // at and past the 4-bit mask, and both parities for every bit port
    const EDGES: [u16; 10] = [0, 1, 2, 15, 16, 17, 31, 0x7FFF, 0x8000, 0xFFFF];
    for op in evaluable_ops() {
        for a in EDGES {
            for b in EDGES {
                for s in EDGES {
                    typed_eval_matches_lanes(op, [a, b, s]).unwrap();
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn eval_matches_eval_lane(pick: u16, a: u16, b: u16, s: u16) {
        let ops = evaluable_ops();
        let op = ops[pick as usize % ops.len()];
        prop_assert_eq!(typed_eval_matches_lanes(op, [a, b, s]), Ok(()));
    }
}

// ---- random graphs: interpreter vs simulator -------------------------------

/// Word DAGs over three inputs, read at the last value.
const WORD_GRAPH: DfgGen = DfgGen {
    name: "prop",
    inputs: (3, 0),
    ops: &[
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Umax,
        Op::Lshr,
        Op::Reg,
        Op::Abs,
    ],
    const_ops: &[Op::Xor],
    len: 1..24,
    outputs: (1, 0),
};

/// Graphs over the whole catalogue: every evaluable op, bit ops, LUTs,
/// constants, registers and mid-graph outputs included.
const ANY_GRAPH: DfgGen = DfgGen {
    name: "any",
    inputs: (3, 2),
    ops: EVERY_OP,
    const_ops: &[],
    len: 1..40,
    outputs: (1, 1),
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn validate_accepts_generated_graphs(g in WORD_GRAPH) {
        prop_assert!(g.try_validate().is_ok());
        // node vector is a topological order by construction
        for (id, node) in g.iter() {
            for src in node.inputs() {
                prop_assert!(src.index() < id.index());
            }
        }
    }

    #[test]
    fn extract_subgraph_preserves_validity(g in WORD_GRAPH, pick: u8) {
        let compute = g.compute_nodes();
        if compute.is_empty() {
            return Ok(());
        }
        // take a contiguous chunk of compute nodes
        let start = (pick as usize) % compute.len();
        let keep = &compute[start..(start + 3).min(compute.len())];
        let (sub, map) = g.extract_subgraph(keep, "chunk");
        prop_assert!(sub.try_validate().is_ok());
        prop_assert_eq!(map.len(), keep.len());
    }

    /// DFG text is how generated graphs reach `apex-ir`'s own spec
    /// modules: it round-trips every op, and its rendering is a fixed
    /// point.
    #[test]
    fn generated_graphs_round_trip_through_text(g in ANY_GRAPH) {
        prop_assert!(g.try_validate().is_ok());
        let text = to_text(&g);
        let back = from_text(&text).map_err(|e| e.to_string())?;
        prop_assert_eq!(&back, &g);
        prop_assert_eq!(to_text(&back), text);
    }
}
