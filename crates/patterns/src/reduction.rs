//! Reduction-loop detection (paper §3.3.2).
//!
//! A loop is a reduction loop when (a) it contains an accumulative
//! instruction `a = a ⊕ b` with `⊕` associative-and-commutative, and (b)
//! the reduction variable `a` is neither read nor modified by any other
//! instruction inside the loop. Loops performing atomic
//! add/min/max/inc/and/or/xor operations are also reduction loops.

use paraprox_ir::{for_each_expr, AtomicOp, BinOp, Expr, Kernel, Stmt, VarId};

use crate::path::{walk_with_paths, StmtPath};

/// How the reduction combines values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionKind {
    /// A plain accumulative instruction `a = a ⊕ b`.
    Accumulation {
        /// The reduction variable.
        var: VarId,
        /// The combining operator.
        op: BinOp,
    },
    /// One or more atomic read-modify-writes inside the loop.
    Atomic {
        /// The atomic operation used.
        op: AtomicOp,
    },
}

/// A detected reduction loop inside a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct ReductionLoop {
    /// Path of the `For` statement within the kernel body.
    pub path: StmtPath,
    /// What kind of reduction the loop performs.
    pub kind: ReductionKind,
}

/// Count reads of `var` in an expression.
fn reads_of(e: &Expr, var: VarId) -> usize {
    let mut n = 0;
    for_each_expr(e, &mut |e| {
        if matches!(e, Expr::Var(v) if *v == var) {
            n += 1;
        }
    });
    n
}

/// Statistics about how `var` is used inside a loop body.
#[derive(Default)]
struct VarUsage {
    reads: usize,
    writes: usize,
    accumulations: Vec<BinOp>,
}

fn scan_usage(stmts: &[Stmt], var: VarId, usage: &mut VarUsage) {
    for stmt in stmts {
        match stmt {
            Stmt::Let { var: v, init }
            | Stmt::Assign {
                var: v,
                value: init,
            } => {
                // Is this the accumulative form `var = var ⊕ e`?
                let is_accum = *v == var
                    && match init {
                        Expr::Binary(op, a, b) if op.is_reduction_compatible() => {
                            (matches!(**a, Expr::Var(x) if x == var) && reads_of(b, var) == 0)
                                || (matches!(**b, Expr::Var(x) if x == var)
                                    && reads_of(a, var) == 0)
                        }
                        _ => false,
                    };
                if is_accum {
                    if let Expr::Binary(op, _, _) = init {
                        usage.accumulations.push(*op);
                    }
                } else {
                    usage.reads += reads_of(init, var);
                    if *v == var {
                        usage.writes += 1;
                    }
                }
            }
            Stmt::Store { index, value, .. } | Stmt::Atomic { index, value, .. } => {
                usage.reads += reads_of(index, var) + reads_of(value, var);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                usage.reads += reads_of(cond, var);
                scan_usage(then_body, var, usage);
                scan_usage(else_body, var, usage);
            }
            Stmt::For {
                var: loop_var,
                init,
                cond,
                step,
                body,
            } => {
                usage.reads += reads_of(init, var)
                    + reads_of(cond.bound(), var)
                    + reads_of(step.amount(), var);
                if *loop_var == var {
                    usage.writes += 1;
                }
                scan_usage(body, var, usage);
            }
            Stmt::Sync => {}
            Stmt::Return(e) => usage.reads += reads_of(e, var),
        }
    }
}

/// Collect candidate reduction variables: every variable that appears on
/// the left of an accumulative instruction directly or transitively inside
/// the loop body.
fn candidate_vars(stmts: &[Stmt], out: &mut Vec<VarId>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { var, value } | Stmt::Let { var, init: value } => {
                if let Expr::Binary(op, a, b) = value {
                    if op.is_reduction_compatible() {
                        let self_ref = matches!(**a, Expr::Var(x) if x == *var)
                            || matches!(**b, Expr::Var(x) if x == *var);
                        if self_ref && !out.contains(var) {
                            out.push(*var);
                        }
                    }
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                candidate_vars(then_body, out);
                candidate_vars(else_body, out);
            }
            Stmt::For { body, .. } => candidate_vars(body, out),
            _ => {}
        }
    }
}

fn first_atomic(stmts: &[Stmt]) -> Option<AtomicOp> {
    for stmt in stmts {
        match stmt {
            Stmt::Atomic { op, .. } => return Some(*op),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                if let Some(op) = first_atomic(then_body).or_else(|| first_atomic(else_body)) {
                    return Some(op);
                }
            }
            // Nested loops are analyzed as their own reduction loops.
            Stmt::For { .. } => {}
            _ => {}
        }
    }
    None
}

/// Find every reduction loop in a kernel.
pub fn find_reduction_loops(kernel: &Kernel) -> Vec<ReductionLoop> {
    let mut found = Vec::new();
    walk_with_paths(&kernel.body, &mut |path, stmt| {
        let Stmt::For {
            body,
            var: loop_var,
            ..
        } = stmt
        else {
            return;
        };
        // Accumulation reductions.
        let mut vars = Vec::new();
        candidate_vars(body, &mut vars);
        for var in vars {
            if var == *loop_var {
                continue;
            }
            let mut usage = VarUsage::default();
            scan_usage(body, var, &mut usage);
            let ops: Vec<BinOp> = usage.accumulations.clone();
            if ops.len() == 1 && usage.reads == 0 && usage.writes == 0 {
                found.push(ReductionLoop {
                    path: path.clone(),
                    kind: ReductionKind::Accumulation { var, op: ops[0] },
                });
            }
        }
        // Atomic reductions.
        if let Some(op) = first_atomic(body) {
            found.push(ReductionLoop {
                path: path.clone(),
                kind: ReductionKind::Atomic { op },
            });
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{Expr, KernelBuilder, MemSpace, Ty};

    #[test]
    fn detects_additive_accumulation() {
        let mut kb = KernelBuilder::new("sum");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let n = kb.scalar("n", Ty::I32);
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        kb.for_up("i", Expr::i32(0), n, Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i));
            kb.assign(acc, Expr::Var(acc) + v);
        });
        let k = kb.finish();
        let loops = find_reduction_loops(&k);
        assert_eq!(loops.len(), 1);
        assert!(matches!(
            loops[0].kind,
            ReductionKind::Accumulation { op: BinOp::Add, .. }
        ));
    }

    #[test]
    fn detects_min_reduction_without_adjustment() {
        let mut kb = KernelBuilder::new("minimum");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let n = kb.scalar("n", Ty::I32);
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(f32::MAX));
        kb.for_up("i", Expr::i32(0), n, Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i));
            kb.assign(acc, Expr::Var(acc).min(v));
        });
        let k = kb.finish();
        let loops = find_reduction_loops(&k);
        assert_eq!(loops.len(), 1);
        assert!(matches!(
            loops[0].kind,
            ReductionKind::Accumulation { op: BinOp::Min, .. }
        ));
    }

    #[test]
    fn rejects_var_read_elsewhere_in_loop() {
        let mut kb = KernelBuilder::new("not_reduction");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let n = kb.scalar("n", Ty::I32);
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        kb.for_up("i", Expr::i32(0), n, Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i.clone()));
            kb.assign(acc, Expr::Var(acc) + v);
            // A prefix-sum-style use of acc disqualifies the loop.
            kb.store(output, i, Expr::Var(acc));
        });
        let k = kb.finish();
        assert!(find_reduction_loops(&k).is_empty());
    }

    #[test]
    fn detects_atomic_reduction_loop() {
        let mut kb = KernelBuilder::new("histogram");
        let input = kb.buffer("in", Ty::I32, MemSpace::Global);
        let counts = kb.buffer("counts", Ty::I32, MemSpace::Global);
        let n = kb.scalar("n", Ty::I32);
        kb.for_up("i", Expr::i32(0), n, Expr::i32(1), |kb, i| {
            let bin = kb.let_("bin", kb.load(input, i));
            kb.atomic(AtomicOp::Add, counts, bin, Expr::i32(1));
        });
        let k = kb.finish();
        let loops = find_reduction_loops(&k);
        assert_eq!(loops.len(), 1);
        assert!(matches!(
            loops[0].kind,
            ReductionKind::Atomic { op: AtomicOp::Add }
        ));
    }

    #[test]
    fn subtraction_is_not_a_reduction() {
        let mut kb = KernelBuilder::new("sub");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let n = kb.scalar("n", Ty::I32);
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        kb.for_up("i", Expr::i32(0), n, Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i));
            kb.assign(acc, Expr::Var(acc) - v);
        });
        let k = kb.finish();
        assert!(find_reduction_loops(&k).is_empty());
    }

    #[test]
    fn nested_loops_each_detected() {
        let mut kb = KernelBuilder::new("nested");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let n = kb.scalar("n", Ty::I32);
        let outer_acc = kb.let_mut("outer", Ty::F32, Expr::f32(0.0));
        kb.for_up("i", Expr::i32(0), n.clone(), Expr::i32(1), |kb, _i| {
            let inner_acc = kb.let_mut("inner", Ty::F32, Expr::f32(0.0));
            kb.for_up("j", Expr::i32(0), n.clone(), Expr::i32(1), |kb, j| {
                let v = kb.let_("v", kb.load(input, j));
                kb.assign(inner_acc, Expr::Var(inner_acc) + v);
            });
            kb.assign(outer_acc, Expr::Var(outer_acc) + Expr::Var(inner_acc));
        });
        let k = kb.finish();
        let loops = find_reduction_loops(&k);
        // Outer loop reduces outer_acc; inner loop reduces inner_acc.
        // The outer loop is NOT a reduction w.r.t. inner_acc (inner_acc is
        // both written by Let and read by the outer accumulation).
        assert_eq!(loops.len(), 2);
        let depths: Vec<usize> = loops.iter().map(|l| l.path.depth()).collect();
        assert!(depths.contains(&1) && depths.contains(&2));
    }
}
