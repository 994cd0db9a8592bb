//! A pure evaluator for device functions: the independent reference for
//! the differential tests.
//!
//! This evaluator executes a [`Func`] body on one row of scalar arguments
//! with no device state; any construct that would touch device state
//! (loads, thread specials, atomics, barriers) is rejected with
//! [`EvalError::NotPure`]. It shares nothing with the virtual device's
//! interpreter but the operator semantics ([`crate::BinOp::apply`],
//! [`crate::UnOp::apply`], [`Scalar::cast`]), so the differential suites
//! compare the two: `paraprox-vgpu`'s `tests/differential.rs` on generated
//! functions, and the root `tests/memo_suite.rs` on every memo table and
//! bit-tuning candidate, which production code evaluates on the device.
//! No production code calls it; `scripts/verify.sh` enforces that.

use crate::error::EvalError;
use crate::expr::Expr;
use crate::program::{Func, Program};
use crate::stmt::{LoopCond, LoopStep, Stmt};
use crate::types::Scalar;

/// Resource limits for the pure evaluator.
#[derive(Debug, Clone, Copy)]
pub struct EvalLimits {
    /// Maximum total loop iterations across the whole call (guards against
    /// non-terminating loops in malformed IR).
    pub max_iterations: u64,
    /// Maximum function-call depth.
    pub max_call_depth: u32,
}

impl Default for EvalLimits {
    fn default() -> Self {
        EvalLimits {
            max_iterations: 10_000_000,
            max_call_depth: 16,
        }
    }
}

struct PureCtx<'p> {
    program: &'p Program,
    limits: EvalLimits,
    iterations: u64,
}

enum Flow {
    Normal,
    Returned(Scalar),
}

/// Evaluate device function `func` of `program` on scalar `args`.
///
/// # Errors
///
/// Returns an error if argument count or types mismatch the declaration, if
/// the body uses impure constructs, exceeds `limits`, or fails to return.
pub fn eval_func(program: &Program, func: &Func, args: &[Scalar]) -> Result<Scalar, EvalError> {
    let mut ctx = PureCtx {
        program,
        limits: EvalLimits::default(),
        iterations: 0,
    };
    call(&mut ctx, func, args, 0)
}

/// Evaluate a closed expression (no params, vars, loads, or specials).
///
/// Used for constant folding in rewrites and for tests.
///
/// # Errors
///
/// Returns an error when the expression references context it does not
/// have, or an operation fails.
pub fn eval_expr_pure(program: &Program, expr: &Expr) -> Result<Scalar, EvalError> {
    let mut ctx = PureCtx {
        program,
        limits: EvalLimits::default(),
        iterations: 0,
    };
    let locals: Vec<Option<Scalar>> = Vec::new();
    eval_expr(&mut ctx, expr, &[], &locals, 0)
}

fn call(
    ctx: &mut PureCtx<'_>,
    func: &Func,
    args: &[Scalar],
    depth: u32,
) -> Result<Scalar, EvalError> {
    if depth > ctx.limits.max_call_depth {
        return Err(EvalError::IterationLimit);
    }
    if args.len() != func.params.len() {
        return Err(EvalError::ArityMismatch {
            expected: func.params.len(),
            found: args.len(),
        });
    }
    for (arg, param) in args.iter().zip(&func.params) {
        if arg.ty() != param.ty() {
            return Err(EvalError::TypeMismatch {
                expected: param.ty(),
                found: arg.ty(),
            });
        }
    }
    let mut locals: Vec<Option<Scalar>> = vec![None; func.locals.len()];
    match run_block(ctx, &func.body, args, &mut locals, depth)? {
        Flow::Returned(v) => Ok(v),
        Flow::Normal => Err(EvalError::MissingReturn(func.name.clone())),
    }
}

fn run_block(
    ctx: &mut PureCtx<'_>,
    stmts: &[Stmt],
    args: &[Scalar],
    locals: &mut Vec<Option<Scalar>>,
    depth: u32,
) -> Result<Flow, EvalError> {
    for stmt in stmts {
        match stmt {
            Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                let v = eval_expr(ctx, init, args, locals, depth)?;
                locals[var.index()] = Some(v);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = eval_expr(ctx, cond, args, locals, depth)?.as_bool()?;
                let body = if c { then_body } else { else_body };
                if let Flow::Returned(v) = run_block(ctx, body, args, locals, depth)? {
                    return Ok(Flow::Returned(v));
                }
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let mut value = eval_expr(ctx, init, args, locals, depth)?;
                loop {
                    let bound = eval_expr(ctx, cond.bound(), args, locals, depth)?;
                    let keep_going = match cond {
                        LoopCond::Lt(_) => crate::expr::CmpOp::Lt,
                        LoopCond::Le(_) => crate::expr::CmpOp::Le,
                        LoopCond::Gt(_) => crate::expr::CmpOp::Gt,
                        LoopCond::Ge(_) => crate::expr::CmpOp::Ge,
                    }
                    .apply(value, bound)?
                    .as_bool()?;
                    if !keep_going {
                        break;
                    }
                    ctx.iterations += 1;
                    if ctx.iterations > ctx.limits.max_iterations {
                        return Err(EvalError::IterationLimit);
                    }
                    locals[var.index()] = Some(value);
                    if let Flow::Returned(v) = run_block(ctx, body, args, locals, depth)? {
                        return Ok(Flow::Returned(v));
                    }
                    // Re-read the variable: the body may have modified it.
                    value = locals[var.index()].ok_or(EvalError::UninitializedVar(var.0))?;
                    let amount = eval_expr(ctx, step.amount(), args, locals, depth)?;
                    let op = match step {
                        LoopStep::Add(_) => crate::expr::BinOp::Add,
                        LoopStep::Sub(_) => crate::expr::BinOp::Sub,
                        LoopStep::Mul(_) => crate::expr::BinOp::Mul,
                        LoopStep::Shl(_) => crate::expr::BinOp::Shl,
                        LoopStep::Shr(_) => crate::expr::BinOp::Shr,
                    };
                    value = op.apply(value, amount)?;
                }
                locals[var.index()] = Some(value);
            }
            Stmt::Return(e) => {
                let v = eval_expr(ctx, e, args, locals, depth)?;
                return Ok(Flow::Returned(v));
            }
            Stmt::Store { .. } => return Err(EvalError::NotPure("store")),
            Stmt::Atomic { .. } => return Err(EvalError::NotPure("atomic")),
            Stmt::Sync => return Err(EvalError::NotPure("sync")),
        }
    }
    Ok(Flow::Normal)
}

fn eval_expr(
    ctx: &mut PureCtx<'_>,
    expr: &Expr,
    args: &[Scalar],
    locals: &[Option<Scalar>],
    depth: u32,
) -> Result<Scalar, EvalError> {
    match expr {
        Expr::Const(v) => Ok(*v),
        Expr::Var(v) => locals
            .get(v.index())
            .copied()
            .flatten()
            .ok_or(EvalError::UninitializedVar(v.0)),
        Expr::Param(i) => args.get(*i).copied().ok_or(EvalError::ArityMismatch {
            expected: *i + 1,
            found: args.len(),
        }),
        Expr::Special(_) => Err(EvalError::NotPure("thread special")),
        Expr::Unary(op, a) => op.apply(eval_expr(ctx, a, args, locals, depth)?),
        Expr::Binary(op, a, b) => {
            let va = eval_expr(ctx, a, args, locals, depth)?;
            let vb = eval_expr(ctx, b, args, locals, depth)?;
            op.apply(va, vb)
        }
        Expr::Cmp(op, a, b) => {
            let va = eval_expr(ctx, a, args, locals, depth)?;
            let vb = eval_expr(ctx, b, args, locals, depth)?;
            op.apply(va, vb)
        }
        Expr::Select {
            cond,
            if_true,
            if_false,
        } => {
            if eval_expr(ctx, cond, args, locals, depth)?.as_bool()? {
                eval_expr(ctx, if_true, args, locals, depth)
            } else {
                eval_expr(ctx, if_false, args, locals, depth)
            }
        }
        Expr::Cast(ty, a) => Ok(eval_expr(ctx, a, args, locals, depth)?.cast(*ty)),
        Expr::Load { .. } => Err(EvalError::NotPure("load")),
        Expr::Call {
            func,
            args: call_args,
        } => {
            let callee = ctx
                .program
                .funcs()
                .find(|(id, _)| id == func)
                .map(|(_, f)| f)
                .ok_or(EvalError::UnknownFunc(func.0))?;
            let mut values = Vec::with_capacity(call_args.len());
            for a in call_args {
                values.push(eval_expr(ctx, a, args, locals, depth)?);
            }
            call(ctx, callee, &values, depth + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::types::Ty;

    fn make_program_with(f: Func) -> (Program, Func) {
        let mut p = Program::new();
        let id = p.add_func(f);
        let f = p.func(id).clone();
        (p, f)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut fb = FuncBuilder::new("poly", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        let y = fb.let_("y", x.clone() * x.clone() + Expr::f32(1.0));
        fb.ret(y.sqrt());
        let (p, f) = make_program_with(fb.finish());
        let out = eval_func(&p, &f, &[Scalar::F32(2.0)]).unwrap();
        assert!((out.as_f32().unwrap() - 5.0_f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn branches_take_correct_arm() {
        let mut fb = FuncBuilder::new("absdiff", Ty::F32);
        let a = fb.scalar("a", Ty::F32);
        let b = fb.scalar("b", Ty::F32);
        fb.if_else(
            a.clone().gt(b.clone()),
            |fb| fb.ret(a.clone() - b.clone()),
            |fb| fb.ret(b.clone() - a.clone()),
        );
        let (p, f) = make_program_with(fb.finish());
        assert_eq!(
            eval_func(&p, &f, &[Scalar::F32(5.0), Scalar::F32(3.0)]).unwrap(),
            Scalar::F32(2.0)
        );
        assert_eq!(
            eval_func(&p, &f, &[Scalar::F32(3.0), Scalar::F32(5.0)]).unwrap(),
            Scalar::F32(2.0)
        );
    }

    #[test]
    fn loops_accumulate() {
        let mut fb = FuncBuilder::new("sum_to_n", Ty::I32);
        let n = fb.scalar("n", Ty::I32);
        let acc = fb.let_mut("acc", Ty::I32, Expr::i32(0));
        fb.for_up(
            "i",
            Expr::i32(1),
            n + Expr::i32(1),
            Expr::i32(1),
            |fb, i| {
                fb.assign(acc, Expr::Var(acc) + i);
            },
        );
        fb.ret(Expr::Var(acc));
        let (p, f) = make_program_with(fb.finish());
        assert_eq!(
            eval_func(&p, &f, &[Scalar::I32(10)]).unwrap(),
            Scalar::I32(55)
        );
    }

    #[test]
    fn missing_return_reported() {
        let mut fb = FuncBuilder::new("noret", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        fb.if_(x.clone().gt(Expr::f32(0.0)), |fb| fb.ret(x.clone()));
        let (p, f) = make_program_with(fb.finish());
        assert!(matches!(
            eval_func(&p, &f, &[Scalar::F32(-1.0)]),
            Err(EvalError::MissingReturn(_))
        ));
    }

    #[test]
    fn wrong_arity_and_types_rejected() {
        let mut fb = FuncBuilder::new("id", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        fb.ret(x);
        let (p, f) = make_program_with(fb.finish());
        assert!(matches!(
            eval_func(&p, &f, &[]),
            Err(EvalError::ArityMismatch { .. })
        ));
        assert!(matches!(
            eval_func(&p, &f, &[Scalar::I32(1)]),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn impure_constructs_rejected() {
        let f = Func {
            name: "impure".into(),
            params: vec![],
            ret: Ty::F32,
            locals: vec![],
            body: vec![Stmt::Return(Expr::Special(crate::expr::Special::ThreadIdX))],
        };
        let (p, f) = make_program_with(f);
        assert_eq!(
            eval_func(&p, &f, &[]),
            Err(EvalError::NotPure("thread special"))
        );
    }

    #[test]
    fn nested_calls_resolve() {
        let mut p = Program::new();
        let mut inner = FuncBuilder::new("sq", Ty::F32);
        let x = inner.scalar("x", Ty::F32);
        inner.ret(x.clone() * x);
        let inner_id = p.add_func(inner.finish());

        let mut outer = FuncBuilder::new("quart", Ty::F32);
        let y = outer.scalar("y", Ty::F32);
        let sq = Expr::Call {
            func: inner_id,
            args: vec![y],
        };
        outer.ret(Expr::Call {
            func: inner_id,
            args: vec![sq],
        });
        let outer_f = outer.finish();
        p.add_func(outer_f.clone());

        let out = eval_func(&p, &outer_f, &[Scalar::F32(2.0)]).unwrap();
        assert_eq!(out, Scalar::F32(16.0));
    }

    #[test]
    fn closed_expression_evaluation() {
        let p = Program::new();
        let e = (Expr::f32(2.0) + Expr::f32(3.0)) * Expr::f32(4.0);
        assert_eq!(eval_expr_pure(&p, &e).unwrap(), Scalar::F32(20.0));
        assert!(eval_expr_pure(&p, &Expr::Param(0)).is_err());
    }

    #[test]
    fn runaway_loop_hits_limit() {
        let mut fb = FuncBuilder::new("spin", Ty::I32);
        // for (i = 0; i < 1; i += 0) — never progresses.
        let var_body = |fb: &mut FuncBuilder, _i: Expr| {
            let _ = fb;
        };
        fb.for_up("i", Expr::i32(0), Expr::i32(1), Expr::i32(0), var_body);
        fb.ret(Expr::i32(0));
        let (p, f) = make_program_with(fb.finish());
        assert_eq!(eval_func(&p, &f, &[]), Err(EvalError::IterationLimit));
    }
}
