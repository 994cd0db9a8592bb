//! Per-item side-effect summaries and expression type inference.
//!
//! [`EffectSummary`] is the reusable replacement for the bespoke purity
//! walk that used to live in `paraprox-patterns` and for the ad-hoc type
//! guesses in `paraprox-approx`: it counts every effectful construct in a
//! statement list (transitively through device-function calls), records
//! which memory objects are read, written, or atomically updated, and
//! remembers the *first* impure construct in the exact pre-order the old
//! purity analysis used — so `Purity::Impure` payloads stay byte-identical.
//!
//! Type inference ([`infer_expr_ty`]) resolves the scalar type of an
//! expression against a [`TyScope`] (the declared locals, parameters, and
//! shared arrays of the enclosing kernel or function). Unlike the old
//! `safety.rs` helper it never guesses: an out-of-range local, parameter,
//! shared array, or callee is reported as a [`TypeError`].

use std::fmt;

use paraprox_ir::{
    Expr, FuncId, Kernel, KernelId, LocalDecl, MemRef, Param, Program, SharedDecl, Stmt, Ty,
};

/// Side effects of a statement list, transitive through calls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// Number of `Load` expressions (including those inside callees).
    pub loads: usize,
    /// Number of `Store` statements.
    pub stores: usize,
    /// Number of `Atomic` statements.
    pub atomics: usize,
    /// Number of `Sync` barriers.
    pub barriers: usize,
    /// Number of thread/block special reads.
    pub specials: usize,
    /// Number of call sites.
    pub calls: usize,
    /// Memory objects read by this item's own body (deduplicated,
    /// first-seen order; callee targets are not translated across the call
    /// boundary, only counted).
    pub reads: Vec<MemRef>,
    /// Memory objects written by plain stores in this item's own body.
    pub writes: Vec<MemRef>,
    /// Memory objects updated atomically in this item's own body.
    pub atomic_targets: Vec<MemRef>,
    /// The first impure construct in the legacy purity traversal order,
    /// or `None` when the item is pure.
    pub first_impurity: Option<&'static str>,
}

impl EffectSummary {
    /// True when the item has no side effects at all.
    pub fn is_pure(&self) -> bool {
        self.first_impurity.is_none()
    }

    fn impure(&mut self, reason: &'static str) {
        if self.first_impurity.is_none() {
            self.first_impurity = Some(reason);
        }
    }

    fn touch(list: &mut Vec<MemRef>, mem: MemRef) {
        if !list.contains(&mem) {
            list.push(mem);
        }
    }
}

impl fmt::Display for EffectSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pure() {
            return f.write_str("pure");
        }
        write!(
            f,
            "{} loads, {} stores, {} atomics, {} barriers, {} thread-id reads, {} calls; first impurity: {}",
            self.loads,
            self.stores,
            self.atomics,
            self.barriers,
            self.specials,
            self.calls,
            self.first_impurity.unwrap_or("none"),
        )
    }
}

/// Recursion state: memoized callee summaries plus a visiting set for
/// cycle detection.
struct Summarizer<'a> {
    program: &'a Program,
    memo: Vec<Option<EffectSummary>>,
    visiting: Vec<bool>,
}

impl<'a> Summarizer<'a> {
    fn new(program: &'a Program) -> Summarizer<'a> {
        let n = program.func_count();
        Summarizer {
            program,
            memo: vec![None; n],
            visiting: vec![false; n],
        }
    }

    /// Summary of the callee, or `None` for an unknown/cyclic callee
    /// (reported exactly like the legacy purity walk: "call to unknown
    /// function").
    fn callee(&mut self, func: FuncId) -> Option<EffectSummary> {
        let idx = func.0;
        if idx >= self.memo.len() || self.visiting[idx] {
            return None;
        }
        if let Some(s) = &self.memo[idx] {
            return Some(s.clone());
        }
        self.visiting[idx] = true;
        let body = &self.program.func(func).body;
        let mut s = EffectSummary::default();
        self.stmts(body, &mut s);
        self.visiting[idx] = false;
        self.memo[idx] = Some(s.clone());
        Some(s)
    }

    fn expr(&mut self, e: &Expr, s: &mut EffectSummary) {
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::Param(_) => {}
            Expr::Special(_) => {
                s.specials += 1;
                s.impure("thread/block special");
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.expr(a, s),
            Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) => {
                self.expr(a, s);
                self.expr(b, s);
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                self.expr(cond, s);
                self.expr(if_true, s);
                self.expr(if_false, s);
            }
            Expr::Load { mem, index } => {
                s.loads += 1;
                // The legacy purity walk reports the load before looking at
                // its index, so record the reason first.
                s.impure("memory load");
                EffectSummary::touch(&mut s.reads, *mem);
                self.expr(index, s);
            }
            Expr::Call { func, args } => {
                s.calls += 1;
                for a in args {
                    self.expr(a, s);
                }
                match self.callee(*func) {
                    Some(callee) => {
                        s.loads += callee.loads;
                        s.stores += callee.stores;
                        s.atomics += callee.atomics;
                        s.barriers += callee.barriers;
                        s.specials += callee.specials;
                        s.calls += callee.calls;
                        if let Some(r) = callee.first_impurity {
                            s.impure(r);
                        }
                    }
                    None => s.impure("call to unknown function"),
                }
            }
        }
    }

    fn stmts(&mut self, stmts: &[Stmt], s: &mut EffectSummary) {
        for stmt in stmts {
            match stmt {
                Stmt::Let { init, .. } => self.expr(init, s),
                Stmt::Assign { value, .. } => self.expr(value, s),
                Stmt::Store { mem, index, value } => {
                    s.stores += 1;
                    s.impure("memory store");
                    EffectSummary::touch(&mut s.writes, *mem);
                    self.expr(index, s);
                    self.expr(value, s);
                }
                Stmt::Atomic {
                    mem, index, value, ..
                } => {
                    s.atomics += 1;
                    s.impure("atomic operation");
                    EffectSummary::touch(&mut s.atomic_targets, *mem);
                    self.expr(index, s);
                    self.expr(value, s);
                }
                Stmt::Sync => {
                    s.barriers += 1;
                    s.impure("barrier");
                }
                Stmt::Return(e) => self.expr(e, s),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.expr(cond, s);
                    self.stmts(then_body, s);
                    self.stmts(else_body, s);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    ..
                } => {
                    self.expr(init, s);
                    self.expr(cond.bound(), s);
                    self.expr(step.amount(), s);
                    self.stmts(body, s);
                }
            }
        }
    }
}

/// Summarize the side effects of an arbitrary statement list.
pub fn summarize_stmts(program: &Program, stmts: &[Stmt]) -> EffectSummary {
    let mut s = EffectSummary::default();
    Summarizer::new(program).stmts(stmts, &mut s);
    s
}

/// Summarize device function `id`.
///
/// # Panics
///
/// Panics if `id` does not belong to `program`.
pub fn summarize_func(program: &Program, id: FuncId) -> EffectSummary {
    summarize_stmts(program, &program.func(id).body)
}

/// Summarize kernel `id`.
///
/// # Panics
///
/// Panics if `id` does not belong to `program`.
pub fn summarize_kernel(program: &Program, id: KernelId) -> EffectSummary {
    summarize_stmts(program, &program.kernel(id).body)
}

/// A type-inference failure: the expression refers to something the
/// enclosing scope does not declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeError {
    /// A `Var` with no matching local declaration.
    UnknownLocal(u32),
    /// A `Param` index past the parameter list.
    UnknownParam(usize),
    /// A `Shared` reference past the shared-array list.
    UnknownShared(u32),
    /// A `Call` to a function the program does not contain.
    UnknownCallee(usize),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnknownLocal(v) => write!(f, "undeclared local v{v}"),
            TypeError::UnknownParam(i) => write!(f, "parameter index {i} out of range"),
            TypeError::UnknownShared(s) => write!(f, "shared array index {s} out of range"),
            TypeError::UnknownCallee(i) => write!(f, "call to unknown function {i}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// The declarations an expression is typed against.
#[derive(Debug, Clone, Copy)]
pub struct TyScope<'a> {
    /// Parameter declarations.
    pub params: &'a [Param],
    /// Local-variable declarations.
    pub locals: &'a [LocalDecl],
    /// Shared-array declarations (empty for device functions).
    pub shared: &'a [SharedDecl],
}

impl<'a> TyScope<'a> {
    /// Scope of a kernel.
    pub fn of_kernel(k: &'a Kernel) -> TyScope<'a> {
        TyScope {
            params: &k.params,
            locals: &k.locals,
            shared: &k.shared,
        }
    }
}

/// Infer the scalar type of `e` against `scope`, consulting `program` for
/// callee return types. Never guesses: unknown references are errors.
pub fn infer_expr_ty(program: &Program, scope: &TyScope<'_>, e: &Expr) -> Result<Ty, TypeError> {
    match e {
        Expr::Const(s) => Ok(s.ty()),
        Expr::Var(v) => scope
            .locals
            .get(v.index())
            .map(|d| d.ty)
            .ok_or(TypeError::UnknownLocal(v.0)),
        Expr::Param(i) => scope
            .params
            .get(*i)
            .map(|p| p.ty())
            .ok_or(TypeError::UnknownParam(*i)),
        Expr::Special(_) => Ok(Ty::I32),
        Expr::Cast(ty, _) => Ok(*ty),
        Expr::Cmp(..) => Ok(Ty::Bool),
        Expr::Unary(_, a) => infer_expr_ty(program, scope, a),
        Expr::Binary(_, a, _) => infer_expr_ty(program, scope, a),
        Expr::Select { if_true, .. } => infer_expr_ty(program, scope, if_true),
        Expr::Load { mem, .. } => match mem {
            MemRef::Param(i) => scope
                .params
                .get(*i)
                .map(|p| p.ty())
                .ok_or(TypeError::UnknownParam(*i)),
            MemRef::Shared(s) => scope
                .shared
                .get(s.index())
                .map(|d| d.ty)
                .ok_or(TypeError::UnknownShared(s.0)),
        },
        Expr::Call { func, .. } => program
            .funcs()
            .nth(func.0)
            .map(|(_, f)| f.ret)
            .ok_or(TypeError::UnknownCallee(func.0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{FuncBuilder, KernelBuilder, MemSpace, Special, VarId};

    #[test]
    fn pure_function_summary_is_pure() {
        let mut p = Program::new();
        let mut fb = FuncBuilder::new("poly", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        fb.ret(x.clone() * x + Expr::f32(1.0));
        let id = p.add_func(fb.finish());
        let s = summarize_func(&p, id);
        assert!(s.is_pure());
        assert_eq!(s.to_string(), "pure");
    }

    #[test]
    fn kernel_summary_counts_and_targets() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("k");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let s_arr = kb.shared_array("s", Ty::F32, 8);
        let tx = kb.let_("tx", KernelBuilder::thread_id_x());
        kb.store(s_arr, tx.clone(), kb.load(input, tx.clone()));
        kb.sync();
        kb.store(out, tx.clone(), kb.load(s_arr, tx.clone()));
        kb.atomic(
            paraprox_ir::AtomicOp::Add,
            out,
            Expr::i32(0),
            Expr::f32(1.0),
        );
        let kid = p.add_kernel(kb.finish());
        let s = summarize_kernel(&p, kid);
        assert_eq!((s.loads, s.stores, s.atomics, s.barriers), (2, 2, 1, 1));
        assert_eq!(s.specials, 1);
        assert_eq!(s.reads, vec![input, s_arr]);
        assert_eq!(s.writes, vec![s_arr, out]);
        assert_eq!(s.atomic_targets, vec![out]);
        // The first effectful construct in pre-order is the thread special
        // inside the let initializer.
        assert_eq!(s.first_impurity, Some("thread/block special"));
    }

    #[test]
    fn transitive_call_effects_are_counted() {
        let mut p = Program::new();
        let f = paraprox_ir::Func {
            name: "reads".into(),
            params: vec![Param::Buffer {
                name: "b".into(),
                ty: Ty::F32,
                space: MemSpace::Global,
            }],
            ret: Ty::F32,
            locals: vec![],
            body: vec![Stmt::Return(Expr::Load {
                mem: MemRef::Param(0),
                index: Box::new(Expr::i32(0)),
            })],
        };
        let fid = p.add_func(f);
        let mut outer = FuncBuilder::new("outer", Ty::F32);
        outer.ret(Expr::Call {
            func: fid,
            args: vec![],
        });
        let oid = p.add_func(outer.finish());
        let s = summarize_func(&p, oid);
        assert_eq!(s.loads, 1);
        assert_eq!(s.calls, 1);
        assert_eq!(s.first_impurity, Some("memory load"));
        // The load happened inside the callee, not in `outer`'s own body.
        assert!(s.reads.is_empty());
    }

    #[test]
    fn recursive_call_reported_as_unknown() {
        let mut p = Program::new();
        // A function calling itself: constructible only by hand, but the
        // summarizer must not loop on it.
        let f = paraprox_ir::Func {
            name: "rec".into(),
            params: vec![],
            ret: Ty::I32,
            locals: vec![],
            body: vec![Stmt::Return(Expr::Call {
                func: FuncId(0),
                args: vec![],
            })],
        };
        let id = p.add_func(f);
        let s = summarize_func(&p, id);
        assert_eq!(s.first_impurity, Some("call to unknown function"));
    }

    #[test]
    fn infer_resolves_declared_types() {
        let mut p = Program::new();
        let mut fb = FuncBuilder::new("f", Ty::I32);
        fb.ret(Expr::i32(1));
        let fid = p.add_func(fb.finish());
        let mut kb = KernelBuilder::new("k");
        let buf = kb.buffer("b", Ty::U32, MemSpace::Global);
        let s_arr = kb.shared_array("s", Ty::F32, 4);
        let v = kb.let_typed("v", Ty::I32, Expr::i32(0));
        kb.store(buf, v.clone(), Expr::u32(0));
        let kid = p.add_kernel(kb.finish());
        let k = p.kernel(kid);
        let scope = TyScope::of_kernel(k);
        assert_eq!(infer_expr_ty(&p, &scope, &v), Ok(Ty::I32));
        assert_eq!(
            infer_expr_ty(
                &p,
                &scope,
                &Expr::Load {
                    mem: buf,
                    index: Box::new(Expr::i32(0))
                }
            ),
            Ok(Ty::U32)
        );
        assert_eq!(
            infer_expr_ty(
                &p,
                &scope,
                &Expr::Load {
                    mem: s_arr,
                    index: Box::new(Expr::i32(0))
                }
            ),
            Ok(Ty::F32)
        );
        assert_eq!(
            infer_expr_ty(
                &p,
                &scope,
                &Expr::Call {
                    func: fid,
                    args: vec![]
                }
            ),
            Ok(Ty::I32)
        );
    }

    #[test]
    fn infer_reports_unknowns_instead_of_guessing() {
        let p = Program::new();
        let scope = TyScope {
            params: &[],
            locals: &[],
            shared: &[],
        };
        assert_eq!(
            infer_expr_ty(&p, &scope, &Expr::Var(VarId(7))),
            Err(TypeError::UnknownLocal(7))
        );
        assert_eq!(
            infer_expr_ty(&p, &scope, &Expr::Param(3)),
            Err(TypeError::UnknownParam(3))
        );
        assert_eq!(
            infer_expr_ty(
                &p,
                &scope,
                &Expr::Call {
                    func: FuncId(9),
                    args: vec![]
                }
            ),
            Err(TypeError::UnknownCallee(9))
        );
        assert_eq!(
            infer_expr_ty(&p, &scope, &Expr::Special(Special::ThreadIdX)),
            Ok(Ty::I32)
        );
    }
}
