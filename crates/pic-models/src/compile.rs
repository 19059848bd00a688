//! Bytecode compilation of [`Expr`] trees for batch evaluation.
//!
//! The GP inner loop evaluates every candidate expression over every
//! dataset row, every generation. Walking the boxed recursive tree for
//! each row pays a pointer chase and a branch per node per row. This
//! module lowers a tree once into a flat postorder **tape** — an op
//! array plus a constant pool, no heap pointers, no recursion — whose
//! [`CompiledExpr::eval_batch`] kernel runs each op over *all* rows of a
//! block of feature columns before moving to the next op. The per-op
//! dispatch cost amortizes over the whole dataset and the inner loops
//! are plain slice arithmetic the compiler can vectorize.
//!
//! **Semantics contract** (checked by `tests/compile_props.rs` and by
//! `pic_analysis::check_compiled_equivalence`): for every tree and every
//! input row, the tape produces results bit-identical to [`Expr::eval`] —
//! including the `|d| < 1e-9` protected-division branch and the
//! out-of-range-variable → `0.0` defensive read. The tape executes the
//! same IEEE operations in the same order as the recursive evaluator
//! (postorder, left operand first), so the guarantee holds exactly, not
//! just up to rounding.
//!
//! Compilation itself is iterative (an explicit work stack), so
//! pathologically deep trees — e.g. hostile model files — compile and
//! evaluate without touching the thread's call stack. [`Expr::eval`]
//! relies on this: it delegates to a tape above a small recursion budget.

use crate::expr::{Expr, DIV_GUARD};
use std::cell::RefCell;

/// Operation kinds of the tape. `Const` and `Var` push one value slot;
/// the binary ops pop two and push one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// Push constant-pool entry `arg`.
    Const,
    /// Push feature column `arg` (out-of-range columns read as `0.0`,
    /// matching `Expr::eval`).
    Var,
    /// Pop `b`, pop `a`, push `a + b`.
    Add,
    /// Pop `b`, pop `a`, push `a - b`.
    Sub,
    /// Pop `b`, pop `a`, push `a * b`.
    Mul,
    /// Pop `b`, pop `a`, push `a` if `|b| < 1e-9` else `a / b`.
    Div,
}

/// One tape instruction: an opcode plus its immediate operand (constant
/// pool index for `Const`, column index for `Var`, unused otherwise).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Op {
    kind: OpKind,
    arg: u32,
}

/// An [`Expr`] lowered to a flat postorder bytecode tape.
///
/// Evaluation is a stack machine over `slots` value registers; for batch
/// evaluation each register is a row-length buffer, so every instruction
/// streams over contiguous memory.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr {
    code: Vec<Op>,
    consts: Vec<f64>,
    slots: usize,
}

/// Variable indices too large for the tape's `u32` immediate collapse to
/// this sentinel: any real row is far shorter, so the read is 0.0 either
/// way, exactly as `Expr::eval` would produce.
const VAR_SENTINEL: u32 = u32::MAX;

impl CompiledExpr {
    /// Lower a tree to a tape. Iterative — deep trees are safe.
    pub fn compile(expr: &Expr) -> CompiledExpr {
        enum Frame<'a> {
            Visit(&'a Expr),
            Emit(OpKind),
        }
        let mut code = Vec::new();
        let mut consts: Vec<f64> = Vec::new();
        let mut work = vec![Frame::Visit(expr)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Visit(e) => match e {
                    Expr::Const(c) => {
                        // Pool constants, deduplicated by bit pattern so
                        // repeated ephemeral constants share an entry.
                        let bits = c.to_bits();
                        let k = consts
                            .iter()
                            .position(|p| p.to_bits() == bits)
                            .unwrap_or_else(|| {
                                consts.push(*c);
                                consts.len() - 1
                            });
                        code.push(Op {
                            kind: OpKind::Const,
                            arg: u32::try_from(k).expect("constant pool fits u32"),
                        });
                    }
                    Expr::Var(i) => code.push(Op {
                        kind: OpKind::Var,
                        arg: u32::try_from(*i).unwrap_or(VAR_SENTINEL),
                    }),
                    Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                        let kind = match e {
                            Expr::Add(..) => OpKind::Add,
                            Expr::Sub(..) => OpKind::Sub,
                            Expr::Mul(..) => OpKind::Mul,
                            _ => OpKind::Div,
                        };
                        // LIFO: the left subtree's frames run first, then
                        // the right's, then the emit — classic postorder.
                        work.push(Frame::Emit(kind));
                        work.push(Frame::Visit(b));
                        work.push(Frame::Visit(a));
                    }
                },
                Frame::Emit(kind) => code.push(Op { kind, arg: 0 }),
            }
        }
        // Register pressure: simulate the stack once at compile time.
        let mut sp = 0usize;
        let mut slots = 0usize;
        for op in &code {
            match op.kind {
                OpKind::Const | OpKind::Var => {
                    sp += 1;
                    slots = slots.max(sp);
                }
                _ => sp -= 1,
            }
        }
        debug_assert_eq!(sp, 1, "tape must leave exactly one value");
        CompiledExpr {
            code,
            consts,
            slots,
        }
    }

    /// Number of tape instructions (equals the tree's node count).
    pub fn ops(&self) -> usize {
        self.code.len()
    }

    /// Value registers the tape needs (its maximum stack depth).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Evaluate `out.len()` rows given column-wise (`cols[c][r]` is
    /// feature `c` of row `r`; owned columns or borrowed slices alike),
    /// writing one result per row into `out`. Allocation-free once
    /// `scratch` has warmed up to `slots × rows` floats.
    ///
    /// # Panics
    /// Panics if a column the tape reads is not `out.len()` long.
    pub fn eval_batch<C: AsRef<[f64]>>(
        &self,
        cols: &[C],
        out: &mut [f64],
        scratch: &mut EvalScratch,
    ) {
        let n = out.len();
        if n == 0 {
            return;
        }
        let buf = &mut scratch.stack;
        buf.clear();
        buf.resize(self.slots * n, 0.0);
        let mut sp = 0usize;
        for op in &self.code {
            match op.kind {
                OpKind::Const => {
                    buf[sp * n..(sp + 1) * n].fill(self.consts[op.arg as usize]);
                    sp += 1;
                }
                OpKind::Var => {
                    let dst = &mut buf[sp * n..(sp + 1) * n];
                    match cols.get(op.arg as usize) {
                        Some(col) => dst.copy_from_slice(col.as_ref()),
                        None => dst.fill(0.0),
                    }
                    sp += 1;
                }
                OpKind::Add | OpKind::Sub | OpKind::Mul | OpKind::Div => {
                    let (lo, hi) = buf.split_at_mut((sp - 1) * n);
                    let dst = &mut lo[(sp - 2) * n..];
                    let src = &hi[..n];
                    match op.kind {
                        OpKind::Add => {
                            for r in 0..n {
                                dst[r] += src[r];
                            }
                        }
                        OpKind::Sub => {
                            for r in 0..n {
                                dst[r] -= src[r];
                            }
                        }
                        OpKind::Mul => {
                            for r in 0..n {
                                dst[r] *= src[r];
                            }
                        }
                        OpKind::Div => {
                            for r in 0..n {
                                // Same comparison as `Expr::eval`: a NaN
                                // denominator fails the guard and the
                                // division runs, yielding NaN — not the
                                // protected numerator.
                                let d = src[r];
                                if d.abs() < DIV_GUARD {
                                    // protected: keep the numerator
                                } else {
                                    dst[r] /= d;
                                }
                            }
                        }
                        _ => unreachable!(),
                    }
                    sp -= 1;
                }
            }
        }
        out.copy_from_slice(&buf[..n]);
    }

    /// Evaluate one feature row. Non-recursive; the value stack lives in
    /// a thread-local buffer, so repeated calls are allocation-free.
    pub fn eval_row(&self, x: &[f64]) -> f64 {
        thread_local! {
            static STACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        }
        STACK.with(|cell| {
            let mut stack = cell.borrow_mut();
            stack.clear();
            stack.reserve(self.slots);
            for op in &self.code {
                match op.kind {
                    OpKind::Const => stack.push(self.consts[op.arg as usize]),
                    OpKind::Var => stack.push(x.get(op.arg as usize).copied().unwrap_or(0.0)),
                    kind => {
                        let b = stack.pop().expect("tape underflow");
                        let a = stack.pop().expect("tape underflow");
                        stack.push(match kind {
                            OpKind::Add => a + b,
                            OpKind::Sub => a - b,
                            OpKind::Mul => a * b,
                            OpKind::Div => {
                                if b.abs() < DIV_GUARD {
                                    a
                                } else {
                                    a / b
                                }
                            }
                            _ => unreachable!(),
                        });
                    }
                }
            }
            stack.pop().expect("tape leaves one value")
        })
    }
}

/// Reusable batch-evaluation workspace: `slots × rows` stack registers.
/// Create once per worker and reuse across candidates — after the first
/// (largest) use, evaluation never allocates.
#[derive(Debug, Default, Clone)]
pub struct EvalScratch {
    stack: Vec<f64>,
}

impl EvalScratch {
    /// An empty workspace (grows on first use).
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn sample() -> Expr {
        // ((x0 + 2) * x1) / (x1 - x0)
        Expr::Div(
            Box::new(Expr::Mul(
                Box::new(Expr::Add(
                    Box::new(Expr::Var(0)),
                    Box::new(Expr::Const(2.0)),
                )),
                Box::new(Expr::Var(1)),
            )),
            Box::new(Expr::Sub(Box::new(Expr::Var(1)), Box::new(Expr::Var(0)))),
        )
    }

    fn columns_of(rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let arity = rows.first().map_or(0, Vec::len);
        let mut d = Dataset::new((0..arity).map(|i| format!("x{i}")).collect());
        for r in rows {
            d.push(r.clone(), 0.0);
        }
        d.columns()
    }

    #[test]
    fn tape_matches_tree_on_rows() {
        let e = sample();
        let tape = CompiledExpr::compile(&e);
        assert_eq!(tape.ops(), e.node_count());
        let rows = vec![
            vec![3.0, 4.0],
            vec![0.0, 0.0],         // protected division (d = 0)
            vec![1.0, 1.0 + 5e-10], // d inside the guard band
            vec![-2.5, 7.0],
            vec![1e300, -1e300], // overflow territory
        ];
        let cols = columns_of(&rows);
        let mut out = vec![0.0; rows.len()];
        let mut scratch = EvalScratch::new();
        tape.eval_batch(&cols, &mut out, &mut scratch);
        for (row, &got) in rows.iter().zip(&out) {
            let want = e.eval(row);
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "row {row:?}: tree {want} vs tape {got}"
            );
            assert_eq!(tape.eval_row(row).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn constants_are_pooled() {
        let e = Expr::Add(
            Box::new(Expr::Mul(
                Box::new(Expr::Const(2.0)),
                Box::new(Expr::Var(0)),
            )),
            Box::new(Expr::Const(2.0)),
        );
        let tape = CompiledExpr::compile(&e);
        assert_eq!(tape.consts.len(), 1);
        assert_eq!(tape.eval_row(&[3.0]), 8.0);
    }

    #[test]
    fn out_of_range_var_reads_zero() {
        let e = Expr::Var(9);
        let tape = CompiledExpr::compile(&e);
        assert_eq!(tape.eval_row(&[1.0]), 0.0);
        let cols = columns_of(&[vec![1.0], vec![2.0]]);
        let mut out = vec![9.9; 2];
        tape.eval_batch(&cols, &mut out, &mut EvalScratch::new());
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn slots_track_register_pressure() {
        // left-leaning chain: 2 slots suffice
        let mut e = Expr::Var(0);
        for _ in 0..10 {
            e = Expr::Add(Box::new(e), Box::new(Expr::Var(0)));
        }
        assert_eq!(CompiledExpr::compile(&e).slots(), 2);
        // right-leaning chain: one pending operand per level
        let mut e = Expr::Var(0);
        for _ in 0..10 {
            e = Expr::Add(Box::new(Expr::Var(0)), Box::new(e));
        }
        assert_eq!(CompiledExpr::compile(&e).slots(), 11);
    }

    #[test]
    fn deep_tree_compiles_and_evaluates_iteratively() {
        // A 100k-deep chain would overflow any recursive walker.
        let mut e = Expr::Var(0);
        for _ in 0..100_000 {
            e = Expr::Add(Box::new(Expr::Const(1.0)), Box::new(e));
        }
        let tape = CompiledExpr::compile(&e);
        assert_eq!(tape.ops(), 200_001);
        assert_eq!(tape.eval_row(&[0.5]), 100_000.5);
        // free the chain iteratively too — Drop on Box<Expr> recurses
        let mut frames = vec![e];
        while let Some(f) = frames.pop() {
            match f {
                Expr::Const(_) | Expr::Var(_) => {}
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    frames.push(*a);
                    frames.push(*b);
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let tape = CompiledExpr::compile(&Expr::Var(0));
        let cols = Dataset::new(vec!["x".into()]).columns();
        let mut out: Vec<f64> = Vec::new();
        tape.eval_batch(&cols, &mut out, &mut EvalScratch::new());
    }
}
