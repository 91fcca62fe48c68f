//! Expression builder: a small Halide-flavoured convenience layer for
//! constructing dataflow graphs with ordinary Rust operators.
//!
//! [`ExprGraph`] owns the graph under construction; [`Expr`] handles are
//! cheap clones tied to it (operators accept both owned and borrowed
//! handles, so values can be reused freely). Arithmetic operators build
//! nodes, and named methods cover the non-operator IR ops.
//!
//! # Examples
//!
//! ```
//! use apex_ir::{evaluate, ExprGraph, Value};
//!
//! let mut b = ExprGraph::new("sobel_x");
//! let l = b.input();
//! let r = b.input();
//! let gx = (&r - &l) * b.lit(2) + (&r - &l);
//! gx.output();
//!
//! let g = b.finish();
//! let out = evaluate(&g, &[Value::Word(1), Value::Word(4)]);
//! assert_eq!(out[0].word(), 9); // (4-1)*2 + (4-1)
//! ```

use crate::graph::{Graph, NodeId};
use crate::op::Op;
use std::cell::RefCell;
use std::ops;
use std::rc::Rc;

/// A graph being built through expressions.
///
/// Single-threaded by design (expression building is a construction-time
/// convenience); the finished [`Graph`] is freely shareable.
#[derive(Debug, Clone)]
pub struct ExprGraph {
    inner: Rc<RefCell<Graph>>,
}

/// A handle to a word-typed value in an [`ExprGraph`].
#[derive(Debug, Clone)]
pub struct Expr {
    graph: Rc<RefCell<Graph>>,
    id: NodeId,
}

/// A handle to a bit-typed value in an [`ExprGraph`].
#[derive(Debug, Clone)]
pub struct BitExpr {
    graph: Rc<RefCell<Graph>>,
    id: NodeId,
}

impl ExprGraph {
    /// Starts a new expression graph.
    pub fn new(name: impl Into<String>) -> Self {
        ExprGraph {
            inner: Rc::new(RefCell::new(Graph::new(name))),
        }
    }

    fn wrap(&self, id: NodeId) -> Expr {
        Expr {
            graph: Rc::clone(&self.inner),
            id,
        }
    }

    /// Adds a word input.
    pub fn input(&mut self) -> Expr {
        let id = self.inner.borrow_mut().input();
        self.wrap(id)
    }

    /// Adds a bit input.
    pub fn bit_input(&mut self) -> BitExpr {
        let id = self.inner.borrow_mut().bit_input();
        BitExpr {
            graph: Rc::clone(&self.inner),
            id,
        }
    }

    /// Adds a word constant.
    pub fn lit(&mut self, value: u16) -> Expr {
        let id = self.inner.borrow_mut().constant(value);
        self.wrap(id)
    }

    /// Finishes construction, returning the graph. Outstanding expression
    /// handles remain usable against the builder's copy but no longer
    /// affect the returned graph.
    pub fn finish(self) -> Graph {
        self.inner.borrow().clone()
    }
}

impl Expr {
    fn binary(&self, op: Op, rhs: &Expr) -> Expr {
        let id = self.graph.borrow_mut().add(op, &[self.id, rhs.id]);
        Expr {
            graph: Rc::clone(&self.graph),
            id,
        }
    }

    fn compare(&self, op: Op, rhs: &Expr) -> BitExpr {
        let id = self.graph.borrow_mut().add(op, &[self.id, rhs.id]);
        BitExpr {
            graph: Rc::clone(&self.graph),
            id,
        }
    }

    /// The underlying node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Marks this value as a primary output.
    pub fn output(&self) -> NodeId {
        self.graph.borrow_mut().output(self.id)
    }

    /// Signed maximum.
    pub fn smax(&self, rhs: &Expr) -> Expr {
        self.binary(Op::Smax, rhs)
    }

    /// Signed minimum.
    pub fn smin(&self, rhs: &Expr) -> Expr {
        self.binary(Op::Smin, rhs)
    }

    /// Unsigned maximum.
    pub fn umax(&self, rhs: &Expr) -> Expr {
        self.binary(Op::Umax, rhs)
    }

    /// Unsigned minimum.
    pub fn umin(&self, rhs: &Expr) -> Expr {
        self.binary(Op::Umin, rhs)
    }

    /// Logical right shift.
    pub fn lshr(&self, rhs: &Expr) -> Expr {
        self.binary(Op::Lshr, rhs)
    }

    /// Arithmetic right shift.
    pub fn ashr(&self, rhs: &Expr) -> Expr {
        self.binary(Op::Ashr, rhs)
    }

    /// Signed absolute value.
    pub fn abs(&self) -> Expr {
        let id = self.graph.borrow_mut().add(Op::Abs, &[self.id]);
        Expr {
            graph: Rc::clone(&self.graph),
            id,
        }
    }

    /// Signed clamp into `[lo, hi]` via constant registers.
    pub fn clamp(&self, lo: u16, hi: u16) -> Expr {
        let (lo_id, hi_id) = {
            let mut g = self.graph.borrow_mut();
            (g.constant(lo), g.constant(hi))
        };
        let lo_e = Expr {
            graph: Rc::clone(&self.graph),
            id: lo_id,
        };
        let hi_e = Expr {
            graph: Rc::clone(&self.graph),
            id: hi_id,
        };
        self.smax(&lo_e).smin(&hi_e)
    }

    /// Word multiplexer: `if cond { if_true } else { self }`.
    pub fn select(&self, if_true: &Expr, cond: &BitExpr) -> Expr {
        let id = self
            .graph
            .borrow_mut()
            .add(Op::Mux, &[self.id, if_true.id, cond.id]);
        Expr {
            graph: Rc::clone(&self.graph),
            id,
        }
    }

    /// Signed greater-than.
    pub fn gt(&self, rhs: &Expr) -> BitExpr {
        self.compare(Op::Sgt, rhs)
    }
}

impl BitExpr {
    /// The underlying node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Marks this bit as a primary output.
    pub fn output(&self) -> NodeId {
        self.graph.borrow_mut().bit_output(self.id)
    }

    /// Bit AND.
    pub fn and(&self, rhs: &BitExpr) -> BitExpr {
        let id = self.graph.borrow_mut().add(Op::BitAnd, &[self.id, rhs.id]);
        BitExpr {
            graph: Rc::clone(&self.graph),
            id,
        }
    }

    /// Bit OR.
    pub fn or(&self, rhs: &BitExpr) -> BitExpr {
        let id = self.graph.borrow_mut().add(Op::BitOr, &[self.id, rhs.id]);
        BitExpr {
            graph: Rc::clone(&self.graph),
            id,
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl ops::$trait for Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                self.binary($op, &rhs)
            }
        }
        impl ops::$trait<&Expr> for Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                self.binary($op, rhs)
            }
        }
        impl ops::$trait<Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                self.binary($op, &rhs)
            }
        }
        impl ops::$trait<&Expr> for &Expr {
            type Output = Expr;
            fn $method(self, rhs: &Expr) -> Expr {
                self.binary($op, rhs)
            }
        }
    };
}

impl_binop!(Add, add, Op::Add);
impl_binop!(Sub, sub, Op::Sub);
impl_binop!(Mul, mul, Op::Mul);
impl_binop!(BitAnd, bitand, Op::And);
impl_binop!(BitOr, bitor, Op::Or);
impl_binop!(BitXor, bitxor, Op::Xor);
impl_binop!(Shl, shl, Op::Shl);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::evaluate;
    use crate::op::Value;

    #[test]
    fn builds_and_evaluates_arithmetic() {
        let mut b = ExprGraph::new("t");
        let x = b.input();
        let y = b.input();
        let two = b.lit(2);
        let e = (&x + &y) * two - x;
        e.output();
        let g = b.finish();
        let out = evaluate(&g, &[Value::Word(3), Value::Word(4)]);
        assert_eq!(out[0].word(), 11);
    }

    #[test]
    fn comparison_and_select() {
        let mut b = ExprGraph::new("t");
        let x = b.input();
        let y = b.input();
        let bigger = x.select(&y, &y.gt(&x)); // max(x, y)
        bigger.output();
        let g = b.finish();
        assert_eq!(evaluate(&g, &[Value::Word(5), Value::Word(9)])[0].word(), 9);
        assert_eq!(evaluate(&g, &[Value::Word(12), Value::Word(9)])[0].word(), 12);
    }

    #[test]
    fn clamp_saturates() {
        let mut b = ExprGraph::new("t");
        let x = b.input();
        x.clamp(10, 20).output();
        let g = b.finish();
        assert_eq!(evaluate(&g, &[Value::Word(3)])[0].word(), 10);
        assert_eq!(evaluate(&g, &[Value::Word(15)])[0].word(), 15);
        assert_eq!(evaluate(&g, &[Value::Word(99)])[0].word(), 20);
    }

    #[test]
    fn bit_logic_and_outputs() {
        let mut b = ExprGraph::new("t");
        let x = b.input();
        let th_lo = b.lit(10);
        let th_hi = b.lit(100);
        let in_band = x.gt(&th_lo).and(&th_hi.gt(&x));
        in_band.output();
        let g = b.finish();
        assert!(evaluate(&g, &[Value::Word(50)])[0].bit());
        assert!(!evaluate(&g, &[Value::Word(500)])[0].bit());
    }

    #[test]
    fn shifts_and_word_logic() {
        let mut b = ExprGraph::new("t");
        let x = b.input();
        let one = b.lit(1);
        let mask = b.lit(0x00FF);
        ((&x << &one) & mask).output();
        let g = b.finish();
        assert_eq!(evaluate(&g, &[Value::Word(0x0180)])[0].word(), 0x0000);
        assert_eq!(evaluate(&g, &[Value::Word(0x0055)])[0].word(), 0x00AA);
    }

    #[test]
    fn expr_graphs_feed_the_normal_flow() {
        // an expression-built graph is a first-class IR graph
        let mut b = ExprGraph::new("expr_app");
        let x = b.input();
        let w = b.lit(3);
        (x * w).clamp(0, 255).output();
        let g = b.finish();
        assert!(g.try_validate().is_ok());
        assert!(g.compute_op_count() >= 3);
    }
}
