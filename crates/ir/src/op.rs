//! Operation set of the dataflow-graph IR.
//!
//! The IR models the word-level (16-bit) datapath of the AHA CGRA used by
//! the APEX paper, plus a 1-bit predicate datapath. Every operation has a
//! fixed signature (input port types and a single output type) and a pure
//! evaluation function.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Type of a value flowing along an IR edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ValueType {
    /// 16-bit word (the CGRA's native datapath width).
    Word,
    /// 1-bit predicate.
    Bit,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Word => write!(f, "word"),
            ValueType::Bit => write!(f, "bit"),
        }
    }
}

/// A runtime value: either a 16-bit word or a single bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// 16-bit word value.
    Word(u16),
    /// 1-bit value.
    Bit(bool),
}

impl Value {
    /// The type of this value.
    pub fn value_type(self) -> ValueType {
        match self {
            Value::Word(_) => ValueType::Word,
            Value::Bit(_) => ValueType::Bit,
        }
    }

    /// Extracts the word payload.
    ///
    /// # Panics
    /// Panics if the value is a [`Value::Bit`].
    pub fn word(self) -> u16 {
        match self {
            Value::Word(w) => w,
            Value::Bit(_) => panic!("expected word value, found bit"),
        }
    }

    /// Extracts the bit payload.
    ///
    /// # Panics
    /// Panics if the value is a [`Value::Word`].
    pub fn bit(self) -> bool {
        match self {
            Value::Bit(b) => b,
            Value::Word(_) => panic!("expected bit value, found word"),
        }
    }

    /// The canonical "zero" of a type, used to initialize registers.
    pub fn zero(ty: ValueType) -> Value {
        match ty {
            ValueType::Word => Value::Word(0),
            ValueType::Bit => Value::Bit(false),
        }
    }
}

impl From<u16> for Value {
    fn from(w: u16) -> Self {
        Value::Word(w)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bit(b)
    }
}

/// An IR operation.
///
/// Word operations compute on 16-bit operands with wrapping semantics;
/// `S`-prefixed operations reinterpret their operands as two's-complement
/// `i16`. Shift amounts use the low 4 bits of the shift operand, matching
/// a 16-bit barrel shifter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Op {
    // ---- structural -----------------------------------------------------
    /// Word-typed primary input (argument position is the graph's input
    /// ordering).
    Input,
    /// Bit-typed primary input.
    BitInput,
    /// Word-typed primary output (single word input).
    Output,
    /// Bit-typed primary output (single bit input).
    BitOutput,
    /// Compile-time word constant (e.g. a convolution kernel weight).
    Const(u16),
    /// Compile-time bit constant.
    BitConst(bool),
    /// Single-cycle pipeline register on the word datapath.
    Reg,
    /// Single-cycle pipeline register on the bit datapath.
    BitReg,
    /// Register file used as a FIFO with the given delay (Section 4.3 of
    /// the paper: long register chains become register-file FIFOs).
    Fifo(u8),

    // ---- word arithmetic -------------------------------------------------
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction (`in0 - in1`).
    Sub,
    /// Wrapping 16x16 -> low-16 multiplication.
    Mul,
    /// Signed absolute value.
    Abs,
    /// Signed minimum.
    Smin,
    /// Signed maximum.
    Smax,
    /// Unsigned minimum.
    Umin,
    /// Unsigned maximum.
    Umax,
    /// Logical left shift (`in0 << (in1 & 15)`).
    Shl,
    /// Logical right shift.
    Lshr,
    /// Arithmetic right shift.
    Ashr,
    /// Bitwise AND of words.
    And,
    /// Bitwise OR of words.
    Or,
    /// Bitwise XOR of words.
    Xor,
    /// Bitwise NOT of a word.
    Not,
    /// Word multiplexer: `if in2 { in1 } else { in0 }` (select on port 2).
    Mux,

    // ---- comparisons (word, word) -> bit ---------------------------------
    /// Equality.
    Eq,
    /// Inequality.
    Neq,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,

    // ---- bit datapath -----------------------------------------------------
    /// AND of two bits.
    BitAnd,
    /// OR of two bits.
    BitOr,
    /// XOR of two bits.
    BitXor,
    /// NOT of a bit.
    BitNot,
    /// Bit multiplexer: `if in2 { in1 } else { in0 }`.
    BitMux,
    /// Three-input look-up table; the table byte holds the output for each
    /// of the 8 input combinations (bit i = output for inputs `i2 i1 i0`).
    Lut(u8),
}

/// Payload-free operation label used by the subgraph miner and by the
/// technology model. Two nodes are "the same operation" for mining and
/// merging purposes iff their [`OpKind`]s are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum OpKind {
    Input,
    BitInput,
    Output,
    BitOutput,
    Const,
    BitConst,
    Reg,
    BitReg,
    Fifo,
    Add,
    Sub,
    Mul,
    Abs,
    Smin,
    Smax,
    Umin,
    Umax,
    Shl,
    Lshr,
    Ashr,
    And,
    Or,
    Xor,
    Not,
    Mux,
    Eq,
    Neq,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
    BitAnd,
    BitOr,
    BitXor,
    BitNot,
    BitMux,
    Lut,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = format!("{self:?}").to_lowercase();
        write!(f, "{s}")
    }
}

/// All operation kinds, in declaration order. Useful for building
/// technology tables and exhaustive tests.
pub const ALL_OP_KINDS: &[OpKind] = &[
    OpKind::Input,
    OpKind::BitInput,
    OpKind::Output,
    OpKind::BitOutput,
    OpKind::Const,
    OpKind::BitConst,
    OpKind::Reg,
    OpKind::BitReg,
    OpKind::Fifo,
    OpKind::Add,
    OpKind::Sub,
    OpKind::Mul,
    OpKind::Abs,
    OpKind::Smin,
    OpKind::Smax,
    OpKind::Umin,
    OpKind::Umax,
    OpKind::Shl,
    OpKind::Lshr,
    OpKind::Ashr,
    OpKind::And,
    OpKind::Or,
    OpKind::Xor,
    OpKind::Not,
    OpKind::Mux,
    OpKind::Eq,
    OpKind::Neq,
    OpKind::Slt,
    OpKind::Sle,
    OpKind::Sgt,
    OpKind::Sge,
    OpKind::Ult,
    OpKind::Ule,
    OpKind::Ugt,
    OpKind::Uge,
    OpKind::BitAnd,
    OpKind::BitOr,
    OpKind::BitXor,
    OpKind::BitNot,
    OpKind::BitMux,
    OpKind::Lut,
];

use ValueType::{Bit, Word};

impl Op {
    /// The payload-free label of this operation.
    pub fn kind(self) -> OpKind {
        match self {
            Op::Input => OpKind::Input,
            Op::BitInput => OpKind::BitInput,
            Op::Output => OpKind::Output,
            Op::BitOutput => OpKind::BitOutput,
            Op::Const(_) => OpKind::Const,
            Op::BitConst(_) => OpKind::BitConst,
            Op::Reg => OpKind::Reg,
            Op::BitReg => OpKind::BitReg,
            Op::Fifo(_) => OpKind::Fifo,
            Op::Add => OpKind::Add,
            Op::Sub => OpKind::Sub,
            Op::Mul => OpKind::Mul,
            Op::Abs => OpKind::Abs,
            Op::Smin => OpKind::Smin,
            Op::Smax => OpKind::Smax,
            Op::Umin => OpKind::Umin,
            Op::Umax => OpKind::Umax,
            Op::Shl => OpKind::Shl,
            Op::Lshr => OpKind::Lshr,
            Op::Ashr => OpKind::Ashr,
            Op::And => OpKind::And,
            Op::Or => OpKind::Or,
            Op::Xor => OpKind::Xor,
            Op::Not => OpKind::Not,
            Op::Mux => OpKind::Mux,
            Op::Eq => OpKind::Eq,
            Op::Neq => OpKind::Neq,
            Op::Slt => OpKind::Slt,
            Op::Sle => OpKind::Sle,
            Op::Sgt => OpKind::Sgt,
            Op::Sge => OpKind::Sge,
            Op::Ult => OpKind::Ult,
            Op::Ule => OpKind::Ule,
            Op::Ugt => OpKind::Ugt,
            Op::Uge => OpKind::Uge,
            Op::BitAnd => OpKind::BitAnd,
            Op::BitOr => OpKind::BitOr,
            Op::BitXor => OpKind::BitXor,
            Op::BitNot => OpKind::BitNot,
            Op::BitMux => OpKind::BitMux,
            Op::Lut(_) => OpKind::Lut,
        }
    }

    /// Input port types of this operation, in port order.
    pub fn input_types(self) -> &'static [ValueType] {
        match self {
            Op::Input | Op::BitInput | Op::Const(_) | Op::BitConst(_) => &[],
            Op::Output | Op::Reg | Op::Fifo(_) | Op::Abs | Op::Not => &[Word],
            Op::BitOutput | Op::BitReg | Op::BitNot => &[Bit],
            Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Smin
            | Op::Smax
            | Op::Umin
            | Op::Umax
            | Op::Shl
            | Op::Lshr
            | Op::Ashr
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Eq
            | Op::Neq
            | Op::Slt
            | Op::Sle
            | Op::Sgt
            | Op::Sge
            | Op::Ult
            | Op::Ule
            | Op::Ugt
            | Op::Uge => &[Word, Word],
            Op::Mux => &[Word, Word, Bit],
            Op::BitAnd | Op::BitOr | Op::BitXor => &[Bit, Bit],
            Op::BitMux | Op::Lut(_) => &[Bit, Bit, Bit],
        }
    }

    /// Output type of this operation.
    pub fn output_type(self) -> ValueType {
        match self {
            Op::Input
            | Op::Const(_)
            | Op::Reg
            | Op::Fifo(_)
            | Op::Output
            | Op::Add
            | Op::Sub
            | Op::Mul
            | Op::Abs
            | Op::Smin
            | Op::Smax
            | Op::Umin
            | Op::Umax
            | Op::Shl
            | Op::Lshr
            | Op::Ashr
            | Op::And
            | Op::Or
            | Op::Xor
            | Op::Not
            | Op::Mux => Word,
            Op::BitInput
            | Op::BitConst(_)
            | Op::BitReg
            | Op::BitOutput
            | Op::Eq
            | Op::Neq
            | Op::Slt
            | Op::Sle
            | Op::Sgt
            | Op::Sge
            | Op::Ult
            | Op::Ule
            | Op::Ugt
            | Op::Uge
            | Op::BitAnd
            | Op::BitOr
            | Op::BitXor
            | Op::BitNot
            | Op::BitMux
            | Op::Lut(_) => Bit,
        }
    }

    /// Number of input ports.
    pub fn arity(self) -> usize {
        self.input_types().len()
    }

    /// Whether ports 0 and 1 are interchangeable (the destination-port
    /// matching rule during merging only applies to non-commutative
    /// operations, Section 3.3).
    pub fn commutative(self) -> bool {
        matches!(
            self,
            Op::Add
                | Op::Mul
                | Op::Smin
                | Op::Smax
                | Op::Umin
                | Op::Umax
                | Op::And
                | Op::Or
                | Op::Xor
                | Op::Eq
                | Op::Neq
                | Op::BitAnd
                | Op::BitOr
                | Op::BitXor
        )
    }

    /// Whether the node participates in subgraph mining. Structural nodes
    /// (I/O, registers, FIFOs) do not; constants do, because merged PE
    /// datapaths contain constant registers (Fig. 2c, Fig. 5).
    pub fn is_compute(self) -> bool {
        !matches!(
            self,
            Op::Input
                | Op::BitInput
                | Op::Output
                | Op::BitOutput
                | Op::Reg
                | Op::BitReg
                | Op::Fifo(_)
        )
    }

    /// Evaluates the operation on input values: the typed wrapper of
    /// [`Op::eval_lane`], which holds the semantics.
    ///
    /// Registers and FIFOs act as wires here; cycle delay is modelled on
    /// mapped netlists, not in the IR.
    ///
    /// # Panics
    /// Panics if `inputs` does not match [`Op::input_types`].
    pub fn eval(self, inputs: &[Value]) -> Value {
        let tys = self.input_types();
        assert_eq!(
            inputs.len(),
            tys.len(),
            "op {self:?} expects {} inputs, got {}",
            tys.len(),
            inputs.len()
        );
        for (i, (v, ty)) in inputs.iter().zip(tys).enumerate() {
            assert_eq!(v.value_type(), *ty, "op {self:?} port {i} type mismatch");
        }
        let lane = |i: usize| match inputs.get(i) {
            Some(Value::Word(w)) => *w,
            Some(Value::Bit(b)) => u16::from(*b),
            None => 0,
        };
        let out = self.eval_lane(lane(0), lane(1), lane(2));
        match self.output_type() {
            Word => Value::Word(out),
            Bit => Value::Bit(out != 0),
        }
    }

    /// Evaluates the operation on raw lane values, the single definition
    /// of every operation's semantics. Ports 0, 1 and 2 arrive as `a`,
    /// `b` and `s`; ports the operation lacks are ignored. A word is its
    /// `u16`; a bit is `0` or `1`, and a bit-typed result is always `0`
    /// or `1`.
    ///
    /// Operand types are not checked: callers check them against
    /// [`Op::input_types`] once, as [`Op::eval`] does on every call.
    ///
    /// # Panics
    /// Panics on [`Op::Input`] and [`Op::BitInput`], which have no
    /// evaluation.
    #[inline]
    pub fn eval_lane(self, a: u16, b: u16, s: u16) -> u16 {
        let sa = a as i16;
        let sb = b as i16;
        match self {
            Op::Input | Op::BitInput => {
                panic!("primary inputs have no evaluation; bind them via the environment")
            }
            Op::Const(c) => c,
            Op::BitConst(c) => u16::from(c),
            Op::Output | Op::Reg | Op::Fifo(_) | Op::BitOutput | Op::BitReg => a,
            Op::Add => a.wrapping_add(b),
            Op::Sub => a.wrapping_sub(b),
            Op::Mul => a.wrapping_mul(b),
            Op::Abs => sa.wrapping_abs() as u16,
            Op::Smin => sa.min(sb) as u16,
            Op::Smax => sa.max(sb) as u16,
            Op::Umin => a.min(b),
            Op::Umax => a.max(b),
            Op::Shl => a << (b & 15),
            Op::Lshr => a >> (b & 15),
            Op::Ashr => (sa >> (b & 15)) as u16,
            Op::And | Op::BitAnd => a & b,
            Op::Or | Op::BitOr => a | b,
            Op::Xor | Op::BitXor => a ^ b,
            Op::Not => !a,
            Op::BitNot => a ^ 1,
            Op::Mux | Op::BitMux => {
                if s != 0 {
                    b
                } else {
                    a
                }
            }
            Op::Eq => u16::from(a == b),
            Op::Neq => u16::from(a != b),
            Op::Slt => u16::from(sa < sb),
            Op::Sle => u16::from(sa <= sb),
            Op::Sgt => u16::from(sa > sb),
            Op::Sge => u16::from(sa >= sb),
            Op::Ult => u16::from(a < b),
            Op::Ule => u16::from(a <= b),
            Op::Ugt => u16::from(a > b),
            Op::Uge => u16::from(a >= b),
            Op::Lut(table) => (u16::from(table) >> ((a & 1) | (b & 1) << 1 | (s & 1) << 2)) & 1,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Const(c) => write!(f, "const({c})"),
            Op::BitConst(c) => write!(f, "bitconst({c})"),
            Op::Fifo(d) => write!(f, "fifo({d})"),
            Op::Lut(t) => write!(f, "lut(0x{t:02x})"),
            other => write!(f, "{}", other.kind()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_are_consistent() {
        let ops = [
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
            Op::Lut(0xAA),
            Op::Const(3),
            Op::BitConst(true),
            Op::Reg,
            Op::BitReg,
            Op::Fifo(3),
        ];
        for op in ops {
            assert_eq!(op.arity(), op.input_types().len());
            // kind round-trips through display without panicking
            let _ = format!("{op} {:?}", op.kind());
        }
    }

    #[test]
    fn arithmetic_semantics() {
        assert_eq!(Op::Add.eval(&[Value::Word(0xFFFF), Value::Word(1)]), Value::Word(0));
        assert_eq!(Op::Sub.eval(&[Value::Word(0), Value::Word(1)]), Value::Word(0xFFFF));
        assert_eq!(Op::Mul.eval(&[Value::Word(300), Value::Word(300)]), Value::Word(90000u32 as u16));
        assert_eq!(Op::Abs.eval(&[Value::Word((-5i16) as u16)]), Value::Word(5));
        assert_eq!(
            Op::Smin.eval(&[Value::Word((-5i16) as u16), Value::Word(3)]),
            Value::Word((-5i16) as u16)
        );
        assert_eq!(Op::Umin.eval(&[Value::Word((-5i16) as u16), Value::Word(3)]), Value::Word(3));
    }

    #[test]
    fn shift_masks_amount() {
        assert_eq!(Op::Shl.eval(&[Value::Word(1), Value::Word(17)]), Value::Word(2));
        assert_eq!(Op::Ashr.eval(&[Value::Word(0x8000), Value::Word(15)]), Value::Word(0xFFFF));
        assert_eq!(Op::Lshr.eval(&[Value::Word(0x8000), Value::Word(15)]), Value::Word(1));
    }

    #[test]
    fn mux_selects_port_by_bit() {
        let a = Value::Word(11);
        let b = Value::Word(22);
        assert_eq!(Op::Mux.eval(&[a, b, Value::Bit(false)]), a);
        assert_eq!(Op::Mux.eval(&[a, b, Value::Bit(true)]), b);
    }

    #[test]
    fn comparisons_signed_vs_unsigned() {
        let neg = Value::Word((-1i16) as u16);
        let one = Value::Word(1);
        assert_eq!(Op::Slt.eval(&[neg, one]), Value::Bit(true));
        assert_eq!(Op::Ult.eval(&[neg, one]), Value::Bit(false));
    }

    #[test]
    fn lut_truth_table() {
        // table 0b11101000 = majority(i2,i1,i0)
        let maj = Op::Lut(0b1110_1000);
        for i in 0u8..8 {
            let bits = [
                Value::Bit(i & 1 != 0),
                Value::Bit(i & 2 != 0),
                Value::Bit(i & 4 != 0),
            ];
            let expect = (i & 1 != 0) as u8 + (i & 2 != 0) as u8 + (i & 4 != 0) as u8 >= 2;
            assert_eq!(maj.eval(&bits), Value::Bit(expect), "input {i:03b}");
        }
    }

    #[test]
    fn commutativity_flags() {
        assert!(Op::Add.commutative());
        assert!(Op::Mul.commutative());
        assert!(!Op::Sub.commutative());
        assert!(!Op::Shl.commutative());
        assert!(!Op::Mux.commutative());
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_checks_arity() {
        let _ = Op::Add.eval(&[Value::Word(1)]);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn eval_checks_types() {
        let _ = Op::Add.eval(&[Value::Word(1), Value::Bit(true)]);
    }
}
