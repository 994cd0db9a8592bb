//! Static error propagation: per-knob error injection over a paired
//! (value-range, absolute-error) abstract domain.
//!
//! Every Paraprox approximation knob perturbs a value at a known program
//! point: memoization quantizes a function's return value, stencil
//! approximation replicates a load within its reaching distance,
//! reduction skipping rescales a loop's accumulators, scan prediction
//! perturbs a phase input, and the approximate memory space flips bits
//! in loaded words. This module models each knob as an [`Injection`] and
//! abstractly interprets the *exact* kernel IR, propagating the injected
//! error through arithmetic, calls, conditionals, counted loops
//! (bounded abstract unrolling with a join-widening fallback), barriers,
//! and atomics, down to a per-pipeline-slot absolute error bound.
//!
//! The abstract value is [`Aval`]: a [`VRange`] paired with an absolute
//! error `err ≥ 0`, meaning "the exact execution's value lies in
//! `range`, and the approximate execution's value differs from it by at
//! most `err`". Soundness of every transfer function is with respect to
//! that reading; when a bound cannot be established the error goes to
//! `+∞`, never to an optimistic finite value.
//!
//! **Refusal instead of a bound.** Error reaching a *Critical* sink —
//! a load/store/atomic address, a branch condition, a loop bound, or a
//! buffer the criticality partition ([`crate::partition`]) classifies as
//! Critical — cannot be bounded by interval reasoning (one flipped
//! branch or index rewrites arbitrary memory). Those flows produce an
//! error-severity `errorprop` [`Diagnostic`] and the rung is *refused*:
//! its static bound is reported as unbounded and tuners must treat it as
//! failing every TOQ.

use std::collections::BTreeMap;

use paraprox_ir::{
    AtomicOp, BinOp, Expr, FuncId, Kernel, KernelId, LoopCond, LoopStep, MemRef, Program, Scalar,
    Special, Stmt, Ty, UnOp, VarId,
};

use crate::context::LaunchContext;
use crate::diag::{push_unique, Diagnostic, Severity};
use crate::interval::VRange;
use crate::partition::{partition_kernel, Criticality, KernelPartition};

/// Statement-visit budget per launch; beyond this the interpretation is
/// abandoned and every slot error widens to `+∞` (sound, never silent).
const STEP_BUDGET: usize = 400_000;

/// Concrete loop-simulation cap: counted loops with more iterations than
/// this are handled by the join-widening fallback instead of unrolling.
const UNROLL_CAP: usize = 65_536;

/// Join-widening iterations before remaining unstable entries go to ⊤/∞.
const WIDEN_ROUNDS: usize = 8;

/// Magnitude of an injected error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrMag {
    /// A fixed absolute perturbation.
    Abs(f64),
    /// A fraction of the perturbed buffer's value-range width at the
    /// injection point (stencil replication stays within the buffer's
    /// own values, so its error is naturally range-relative).
    RangeFrac(f64),
}

impl ErrMag {
    fn resolve(self, range: VRange) -> f64 {
        match self {
            ErrMag::Abs(a) => a.max(0.0),
            ErrMag::RangeFrac(f) => {
                let w = range.width();
                if w.is_finite() {
                    (f.max(0.0) * w).max(0.0)
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

/// One approximation knob, modeled as error injected at its program point.
#[derive(Debug, Clone, PartialEq)]
pub enum Injection {
    /// Every load from `mem` inside `kernel` is perturbed by `mag`
    /// (stencil tile replication, scan subarray prediction, approximate
    /// memory bit flips).
    Load {
        /// Kernel whose loads are perturbed.
        kernel: KernelId,
        /// The perturbed buffer or shared array.
        mem: MemRef,
        /// Perturbation magnitude.
        mag: ErrMag,
    },
    /// Every call of `func` returns a value perturbed by at most `abs`
    /// (memo-table quantization step).
    Call {
        /// The memoized function.
        func: FuncId,
        /// Quantization error bound.
        abs: f64,
    },
    /// The counted loop at statement `path` inside `kernel` skips a
    /// fraction of its iterations: every accumulator it carries leaves
    /// the loop with an extra relative error `rel` of its magnitude
    /// (reduction skip-rate scaling).
    LoopScale {
        /// Kernel containing the loop.
        kernel: KernelId,
        /// Statement path of the `For` (as in [`Diagnostic::path`]).
        path: Vec<usize>,
        /// Relative error: `(skip - 1) / skip` for skip rate `skip`.
        rel: f64,
    },
}

/// Abstract buffer state at a pipeline slot: the exact execution's value
/// range and the accumulated approximation error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotState {
    /// Value range of the exact execution.
    pub range: VRange,
    /// Absolute error bound vs the exact execution (`+∞` = unbounded).
    pub err: f64,
}

impl SlotState {
    /// A slot with a known exact range and no error yet.
    pub fn exact(range: VRange) -> SlotState {
        SlotState { range, err: 0.0 }
    }

    /// A fully unknown slot.
    pub fn top() -> SlotState {
        SlotState {
            range: VRange::top(),
            err: 0.0,
        }
    }
}

/// One kernel launch of a pipeline, with its context and the pipeline
/// slot each buffer parameter binds to (`None` for scalar params or
/// buffers outside the tracked slot set).
#[derive(Debug, Clone)]
pub struct LaunchModel {
    /// Kernel being launched.
    pub kernel: KernelId,
    /// Launch shape, buffer extents, scalar values.
    pub ctx: LaunchContext,
    /// Pipeline slot index per kernel parameter position.
    pub args: Vec<Option<usize>>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Aval {
    range: VRange,
    err: f64,
}

impl Aval {
    fn new(range: VRange, err: f64) -> Aval {
        Aval {
            range,
            err: if err.is_nan() {
                f64::INFINITY
            } else {
                err.max(0.0)
            },
        }
    }

    fn top() -> Aval {
        Aval::new(VRange::top(), 0.0)
    }

    fn exact(v: f64) -> Aval {
        Aval::new(VRange::exact(v), 0.0)
    }

    fn join(self, other: Aval) -> Aval {
        Aval::new(self.range.join(other.range), self.err.max(other.err))
    }
}

struct Prop<'a> {
    program: &'a Program,
    kernel: &'a Kernel,
    id: KernelId,
    ctx: &'a LaunchContext,
    injections: &'a [Injection],
    env: BTreeMap<VarId, Aval>,
    mem: BTreeMap<MemRef, Aval>,
    /// Scalar argument bindings while interpreting a device function body
    /// (shadows `ctx.scalar` for `Expr::Param`).
    fargs: Option<Vec<Aval>>,
    /// Return-value accumulator while interpreting a device function.
    ret: Option<Aval>,
    path: Vec<usize>,
    steps: usize,
    exhausted: bool,
    out: Vec<Diagnostic>,
}

impl Prop<'_> {
    fn refuse(&mut self, msg: String) {
        push_unique(
            &mut self.out,
            Diagnostic::new(
                Severity::Error,
                self.id,
                &self.kernel.name,
                &self.path,
                "errorprop",
                msg,
            ),
        );
    }

    /// Refuse when an error-carrying value reaches a Critical sink.
    fn check_sink(&mut self, v: &Aval, sink: &str) {
        if v.err > 0.0 {
            self.refuse(format!(
                "approximation error (±{:.3e}) reaches {sink} — a Critical sink; \
                 refusing to bound this rung",
                v.err
            ));
        }
    }

    fn eval(&mut self, e: &Expr) -> Aval {
        match e {
            Expr::Const(s) => match s {
                Scalar::F32(v) => Aval::exact(f64::from(*v)),
                Scalar::I32(v) => Aval::exact(f64::from(*v)),
                Scalar::U32(v) => Aval::exact(f64::from(*v)),
                Scalar::Bool(b) => Aval::exact(if *b { 1.0 } else { 0.0 }),
            },
            Expr::Var(v) => self.env.get(v).copied().unwrap_or_else(Aval::top),
            Expr::Param(i) => {
                if let Some(args) = &self.fargs {
                    args.get(*i).copied().unwrap_or_else(Aval::top)
                } else {
                    match self.ctx.scalar.get(*i).copied().flatten() {
                        Some(Scalar::F32(v)) => Aval::exact(f64::from(v)),
                        Some(Scalar::I32(v)) => Aval::exact(f64::from(v)),
                        Some(Scalar::U32(v)) => Aval::exact(f64::from(v)),
                        Some(Scalar::Bool(b)) => Aval::exact(if b { 1.0 } else { 0.0 }),
                        None => Aval::top(),
                    }
                }
            }
            Expr::Special(s) => {
                let (gx, gy) = (f64::from(self.ctx.grid.0), f64::from(self.ctx.grid.1));
                let (bx, by) = (f64::from(self.ctx.block.0), f64::from(self.ctx.block.1));
                let range = match s {
                    Special::ThreadIdX => VRange::new(0.0, (bx - 1.0).max(0.0)),
                    Special::ThreadIdY => VRange::new(0.0, (by - 1.0).max(0.0)),
                    Special::BlockIdX => VRange::new(0.0, (gx - 1.0).max(0.0)),
                    Special::BlockIdY => VRange::new(0.0, (gy - 1.0).max(0.0)),
                    Special::BlockDimX => VRange::exact(bx),
                    Special::BlockDimY => VRange::exact(by),
                    Special::GridDimX => VRange::exact(gx),
                    Special::GridDimY => VRange::exact(gy),
                };
                Aval::new(range, 0.0)
            }
            Expr::Unary(op, a) => {
                let v = self.eval(a);
                unary(*op, v)
            }
            Expr::Binary(op, a, b) => {
                let (va, vb) = (self.eval(a), self.eval(b));
                binary(*op, va, vb)
            }
            Expr::Cmp(_, a, b) => {
                let (va, vb) = (self.eval(a), self.eval(b));
                // A comparison of perturbed operands can flip; the boolean
                // carries error 1 so any control sink downstream refuses.
                let err = if va.err > 0.0 || vb.err > 0.0 {
                    1.0
                } else {
                    0.0
                };
                Aval::new(VRange::new(0.0, 1.0), err)
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                let c = self.eval(cond);
                let (t, f) = (self.eval(if_true), self.eval(if_false));
                let hull = t.range.join(f.range);
                if c.err > 0.0 {
                    // The select may pick the wrong arm: the result can land
                    // anywhere in the dilated hull of both arms.
                    let w = hull.dilate(t.err.max(f.err)).width();
                    Aval::new(hull, t.err.max(f.err).max(w))
                } else {
                    Aval::new(hull, t.err.max(f.err))
                }
            }
            Expr::Cast(ty, a) => {
                let v = self.eval(a);
                match ty {
                    // Integer truncation moves a perturbed value by at most
                    // one extra unit.
                    Ty::I32 | Ty::U32 => Aval::new(
                        v.range.dilate(1.0),
                        if v.err > 0.0 { v.err + 1.0 } else { 0.0 },
                    ),
                    Ty::F32 => v,
                    Ty::Bool => {
                        Aval::new(VRange::new(0.0, 1.0), if v.err > 0.0 { 1.0 } else { 0.0 })
                    }
                }
            }
            Expr::Load { mem, index } => {
                let idx = self.eval(index);
                self.check_sink(&idx, "a load address");
                let mut v = self.mem.get(mem).copied().unwrap_or_else(Aval::top);
                for inj in self.injections {
                    if let Injection::Load {
                        kernel,
                        mem: imem,
                        mag,
                    } = inj
                    {
                        if *kernel == self.id && imem == mem {
                            v.err += mag.resolve(v.range);
                        }
                    }
                }
                Aval::new(v.range, v.err)
            }
            Expr::Call { func, args } => {
                let vals: Vec<Aval> = args.iter().map(|a| self.eval(a)).collect();
                let mut v = self.call_func(*func, vals);
                for inj in self.injections {
                    if let Injection::Call { func: ifunc, abs } = inj {
                        if ifunc == func {
                            v.err += abs.max(0.0);
                        }
                    }
                }
                Aval::new(v.range, v.err)
            }
        }
    }

    /// Abstractly interpret a device function body under argument values.
    fn call_func(&mut self, func: FuncId, args: Vec<Aval>) -> Aval {
        self.steps += 1;
        if self.exhausted {
            return Aval::new(VRange::top(), f64::INFINITY);
        }
        let body = self.program.func(func).body.clone();
        let saved_env = std::mem::take(&mut self.env);
        let saved_fargs = self.fargs.replace(args);
        let saved_ret = self.ret.take();
        self.walk(&body);
        let ret = self
            .ret
            .take()
            .unwrap_or_else(|| Aval::new(VRange::top(), f64::INFINITY));
        self.env = saved_env;
        self.fargs = saved_fargs;
        self.ret = saved_ret;
        ret
    }

    fn store_join(&mut self, mem: MemRef, v: Aval) {
        let entry = self.mem.entry(mem).or_insert(Aval {
            range: v.range,
            err: 0.0,
        });
        *entry = Aval::new(entry.range.join(v.range), entry.err.max(v.err));
    }

    /// Total thread count of the launch (for atomic error accumulation).
    fn thread_count(&self) -> f64 {
        let t = f64::from(self.ctx.grid.0)
            * f64::from(self.ctx.grid.1)
            * f64::from(self.ctx.block.0)
            * f64::from(self.ctx.block.1);
        t.max(1.0)
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for (i, stmt) in stmts.iter().enumerate() {
            self.steps += 1;
            if self.steps > STEP_BUDGET {
                self.exhausted = true;
                return;
            }
            self.path.push(i);
            self.step(stmt);
            self.path.pop();
        }
    }

    fn step(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                let v = self.eval(init);
                self.env.insert(*var, v);
            }
            Stmt::Store { mem, index, value } => {
                let idx = self.eval(index);
                self.check_sink(&idx, "a store address");
                let v = self.eval(value);
                self.store_join(*mem, v);
            }
            Stmt::Atomic {
                op,
                mem,
                index,
                value,
            } => {
                let idx = self.eval(index);
                self.check_sink(&idx, "an atomic address");
                let v = self.eval(value);
                let t = self.thread_count();
                let entry = self.mem.get(mem).copied().unwrap_or_else(Aval::top);
                let merged = match op {
                    // Up to T threads each contribute their own error.
                    AtomicOp::Add | AtomicOp::Inc => Aval::new(
                        entry.range + v.range * VRange::new(0.0, t),
                        entry.err + t * v.err,
                    ),
                    // Min/max select one contribution; error does not
                    // accumulate across threads.
                    AtomicOp::Min => Aval::new(entry.range.min_r(v.range), entry.err.max(v.err)),
                    AtomicOp::Max => Aval::new(entry.range.max_r(v.range), entry.err.max(v.err)),
                    // A single flipped bit in a bitwise combine is not
                    // interval-boundable.
                    AtomicOp::And | AtomicOp::Or | AtomicOp::Xor => Aval::new(
                        VRange::top(),
                        if v.err > 0.0 || entry.err > 0.0 {
                            f64::INFINITY
                        } else {
                            0.0
                        },
                    ),
                };
                self.mem.insert(*mem, merged);
            }
            Stmt::Sync => {}
            Stmt::Return(e) => {
                let v = self.eval(e);
                self.ret = Some(match self.ret {
                    Some(prev) => prev.join(v),
                    None => v,
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond);
                self.check_sink(&c, "a branch condition");
                let pre_env = self.env.clone();
                let pre_mem = self.mem.clone();
                self.walk(then_body);
                let then_env = std::mem::replace(&mut self.env, pre_env);
                let then_mem = std::mem::replace(&mut self.mem, pre_mem);
                self.walk(else_body);
                join_maps(&mut self.env, &then_env);
                join_maps(&mut self.mem, &then_mem);
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let iv = self.eval(init);
                let bv = self.eval(cond.bound());
                let sv = self.eval(step.amount());
                for (v, what) in [
                    (&iv, "a loop start"),
                    (&bv, "a loop bound"),
                    (&sv, "a loop step"),
                ] {
                    self.check_sink(v, what);
                }
                match trip_values(&iv, &bv, &sv, cond, step) {
                    Some(values) => {
                        for v in values {
                            self.env.insert(*var, Aval::exact(v));
                            self.walk(body);
                            if self.exhausted {
                                return;
                            }
                        }
                    }
                    None => self.widen_loop(*var, body),
                }
                // Exit value of the loop variable: whatever failed the
                // condition; keep it unknown but error-free.
                self.env.insert(*var, Aval::top());
                self.apply_loop_scale(body);
            }
        }
    }

    /// Unknown trip count: join-iterate the body to a fixpoint, widening
    /// still-unstable entries to ⊤/∞ after [`WIDEN_ROUNDS`].
    fn widen_loop(&mut self, var: VarId, body: &[Stmt]) {
        self.env.insert(var, Aval::top());
        for _ in 0..WIDEN_ROUNDS {
            let pre_env = self.env.clone();
            let pre_mem = self.mem.clone();
            self.walk(body);
            if self.exhausted {
                return;
            }
            join_maps(&mut self.env, &pre_env);
            join_maps(&mut self.mem, &pre_mem);
            if self.env == pre_env && self.mem == pre_mem {
                return;
            }
        }
        // Not stable: widen everything the body writes.
        let mut vars = Vec::new();
        let mut mems = Vec::new();
        paraprox_ir::for_each_stmt(body, &mut |s| match s {
            Stmt::Let { var, .. } | Stmt::Assign { var, .. } => vars.push(*var),
            Stmt::Store { mem, .. } | Stmt::Atomic { mem, .. } => mems.push(*mem),
            _ => {}
        });
        for v in vars {
            let had_err = self.env.get(&v).is_some_and(|a| a.err > 0.0);
            self.env.insert(
                v,
                Aval::new(VRange::top(), if had_err { f64::INFINITY } else { 0.0 }),
            );
        }
        for m in mems {
            let had_err = self.mem.get(&m).is_some_and(|a| a.err > 0.0);
            self.mem.insert(
                m,
                Aval::new(VRange::top(), if had_err { f64::INFINITY } else { 0.0 }),
            );
        }
        // One more pass over the widened state so sink refusals under the
        // widened values are still surfaced.
        self.walk(body);
    }

    /// Apply any [`Injection::LoopScale`] matching the loop that just
    /// closed at `self.path`: every accumulator the body carries gains a
    /// relative error of its own magnitude.
    fn apply_loop_scale(&mut self, body: &[Stmt]) {
        let rels: Vec<f64> = self
            .injections
            .iter()
            .filter_map(|inj| match inj {
                Injection::LoopScale { kernel, path, rel } if *kernel == self.id => {
                    (path == &self.path).then_some(*rel)
                }
                _ => None,
            })
            .collect();
        if rels.is_empty() {
            return;
        }
        let rel: f64 = rels.iter().copied().sum();
        let mut vars = Vec::new();
        let mut mems = Vec::new();
        paraprox_ir::for_each_stmt(body, &mut |s| match s {
            Stmt::Assign { var, .. } => vars.push(*var),
            Stmt::Store { mem, .. } | Stmt::Atomic { mem, .. } => mems.push(*mem),
            _ => {}
        });
        for v in vars {
            if let Some(a) = self.env.get(&v).copied() {
                self.env
                    .insert(v, Aval::new(a.range, a.err + rel * a.range.max_abs()));
            }
        }
        for m in mems {
            if let Some(a) = self.mem.get(&m).copied() {
                self.mem
                    .insert(m, Aval::new(a.range, a.err + rel * a.range.max_abs()));
            }
        }
    }
}

fn join_maps<K: Ord + Copy>(into: &mut BTreeMap<K, Aval>, other: &BTreeMap<K, Aval>) {
    for (k, v) in other {
        match into.get(k) {
            Some(cur) => {
                let j = cur.join(*v);
                into.insert(*k, j);
            }
            None => {
                into.insert(*k, *v);
            }
        }
    }
}

/// Concrete loop-variable values when init/bound/step are all exact and
/// the loop terminates within [`UNROLL_CAP`] iterations.
fn trip_values(
    init: &Aval,
    bound: &Aval,
    step: &Aval,
    cond: &LoopCond,
    step_kind: &LoopStep,
) -> Option<Vec<f64>> {
    let exact_of = |a: &Aval| {
        (a.err == 0.0 && a.range.is_finite() && a.range.width() == 0.0).then_some(a.range.lo)
    };
    let (i0, b, s) = (exact_of(init)?, exact_of(bound)?, exact_of(step)?);
    let holds = |v: f64| match cond {
        LoopCond::Lt(_) => v < b,
        LoopCond::Le(_) => v <= b,
        LoopCond::Gt(_) => v > b,
        LoopCond::Ge(_) => v >= b,
    };
    let next = |v: f64| match step_kind {
        LoopStep::Add(_) => v + s,
        LoopStep::Sub(_) => v - s,
        LoopStep::Mul(_) => v * s,
        LoopStep::Shl(_) => v * s.exp2(),
        LoopStep::Shr(_) => ((v as i64) >> (s as i64).clamp(0, 63)) as f64,
    };
    let mut v = i0;
    let mut out = Vec::new();
    while holds(v) {
        out.push(v);
        if out.len() > UNROLL_CAP {
            return None;
        }
        let n = next(v);
        if n == v || !n.is_finite() {
            return None;
        }
        v = n;
    }
    Some(out)
}

fn unary(op: UnOp, v: Aval) -> Aval {
    let r = v.range;
    let d = r.dilate(v.err);
    match op {
        UnOp::Neg => Aval::new(-r, v.err),
        UnOp::Abs => Aval::new(VRange::new(r.min_abs(), r.max_abs()), v.err),
        UnOp::Not => Aval::new(VRange::top(), if v.err > 0.0 { f64::INFINITY } else { 0.0 }),
        UnOp::Exp => {
            let range = VRange::new(r.lo.exp(), r.hi.exp());
            // Lipschitz constant on the dilated input range.
            let err = if v.err == 0.0 {
                0.0
            } else {
                d.hi.exp() * v.err
            };
            Aval::new(range, err)
        }
        UnOp::Log => {
            let range = if r.lo > 0.0 {
                VRange::new(r.lo.ln(), r.hi.ln())
            } else {
                VRange::top()
            };
            let err = if v.err == 0.0 {
                0.0
            } else if d.lo > 0.0 {
                v.err / d.lo
            } else {
                f64::INFINITY
            };
            Aval::new(range, err)
        }
        UnOp::Sqrt => {
            let range = if r.lo >= 0.0 {
                VRange::new(r.lo.sqrt(), r.hi.sqrt())
            } else {
                VRange::top()
            };
            // |√x − √y| ≤ √|x − y| for x, y ≥ 0; tighter 1/(2√lo) when the
            // dilated range stays away from zero.
            let err = if v.err == 0.0 {
                0.0
            } else if d.lo > 0.0 {
                (v.err / (2.0 * d.lo.sqrt())).min(v.err.sqrt())
            } else if d.lo >= 0.0 {
                v.err.sqrt()
            } else {
                f64::INFINITY
            };
            Aval::new(range, err)
        }
        UnOp::Rsqrt => {
            let range = if r.lo > 0.0 {
                VRange::new(1.0 / r.hi.sqrt(), 1.0 / r.lo.sqrt())
            } else {
                VRange::top()
            };
            let err = if v.err == 0.0 {
                0.0
            } else if d.lo > 0.0 {
                0.5 * d.lo.powf(-1.5) * v.err
            } else {
                f64::INFINITY
            };
            Aval::new(range, err)
        }
        UnOp::Sin | UnOp::Cos => {
            // 1-Lipschitz, range within [-1, 1].
            Aval::new(VRange::new(-1.0, 1.0), v.err)
        }
        UnOp::Floor => Aval::new(r.dilate(1.0), if v.err > 0.0 { v.err + 1.0 } else { 0.0 }),
    }
}

fn binary(op: BinOp, a: Aval, b: Aval) -> Aval {
    match op {
        BinOp::Add => Aval::new(a.range + b.range, a.err + b.err),
        BinOp::Sub => Aval::new(a.range - b.range, a.err + b.err),
        BinOp::Mul => {
            // |ab − a'b'| ≤ |a|·eb + |b'|·ea with |b'| ≤ |b| + eb. Guard
            // each term so an unbounded magnitude paired with a zero error
            // contributes 0, not NaN.
            let term = |mag: f64, e: f64| if e == 0.0 { 0.0 } else { mag * e };
            let err = term(a.range.max_abs(), b.err) + term(b.range.max_abs() + b.err, a.err);
            Aval::new(a.range * b.range, err)
        }
        BinOp::Div => {
            let err = if a.err == 0.0 && b.err == 0.0 {
                0.0
            } else {
                let bd = b.range.dilate(b.err);
                let (blo, bdlo) = (b.range.min_abs(), bd.min_abs());
                if blo > 0.0 && bdlo > 0.0 {
                    let term = |mag: f64, e: f64| if e == 0.0 { 0.0 } else { mag * e };
                    (term(a.range.max_abs(), b.err) + term(b.range.max_abs(), a.err)) / (blo * bdlo)
                } else {
                    f64::INFINITY
                }
            };
            Aval::new(a.range / b.range, err)
        }
        BinOp::Rem => {
            // A perturbed operand can wrap the modulus to the other rim.
            let err = if a.err == 0.0 && b.err == 0.0 {
                0.0
            } else if b.range.is_finite() {
                b.range.max_abs()
            } else {
                f64::INFINITY
            };
            let range = if b.range.is_finite() {
                VRange::new(-b.range.max_abs(), b.range.max_abs())
            } else {
                VRange::top()
            };
            Aval::new(range, err)
        }
        BinOp::Min => Aval::new(a.range.min_r(b.range), a.err.max(b.err)),
        BinOp::Max => Aval::new(a.range.max_r(b.range), a.err.max(b.err)),
        BinOp::Pow => {
            let range = if a.range.lo > 0.0 && a.range.is_finite() && b.range.is_finite() {
                VRange::corner_pow(a.range, b.range)
            } else {
                VRange::top()
            };
            let err = if a.err == 0.0 && b.err == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
            Aval::new(range, err)
        }
        // Bitwise operators: value ranges are not usefully trackable, and
        // a perturbed operand flips arbitrary bits.
        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => Aval::new(
            VRange::top(),
            if a.err > 0.0 || b.err > 0.0 {
                f64::INFINITY
            } else {
                0.0
            },
        ),
    }
}

impl VRange {
    /// Corner evaluation of `a^b` for a strictly positive finite base.
    fn corner_pow(a: VRange, b: VRange) -> VRange {
        let cs = [
            a.lo.powf(b.lo),
            a.lo.powf(b.hi),
            a.hi.powf(b.lo),
            a.hi.powf(b.hi),
        ];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in cs {
            if c.is_nan() {
                return VRange::top();
            }
            lo = lo.min(c);
            hi = hi.max(c);
        }
        VRange::new(lo, hi)
    }
}

/// Interpret one kernel launch: seed each buffer parameter from `params`
/// (indexed by parameter position; `None` = unknown), walk the body, and
/// return the per-parameter post-states plus any refusal diagnostics.
pub fn propagate_kernel(
    program: &Program,
    kernel: KernelId,
    ctx: &LaunchContext,
    params: &[Option<SlotState>],
    injections: &[Injection],
) -> (Vec<SlotState>, Vec<Diagnostic>) {
    let k = program.kernel(kernel);
    let mut prop = Prop {
        program,
        kernel: k,
        id: kernel,
        ctx,
        injections,
        env: BTreeMap::new(),
        mem: BTreeMap::new(),
        fargs: None,
        ret: None,
        path: Vec::new(),
        steps: 0,
        exhausted: false,
        out: Vec::new(),
    };
    for (p, state) in params.iter().enumerate() {
        if let Some(s) = state {
            prop.mem.insert(MemRef::Param(p), Aval::new(s.range, s.err));
        }
    }
    prop.walk(&k.body);
    let exhausted = prop.exhausted;
    let mut states = Vec::with_capacity(k.params.len());
    for p in 0..k.params.len() {
        let a = prop
            .mem
            .get(&MemRef::Param(p))
            .copied()
            .unwrap_or_else(Aval::top);
        states.push(SlotState {
            range: a.range,
            err: if exhausted { f64::INFINITY } else { a.err },
        });
    }
    let mut out = prop.out;
    if exhausted {
        push_unique(
            &mut out,
            Diagnostic::new(
                Severity::Warning,
                kernel,
                &k.name,
                &[],
                "errorprop",
                format!(
                    "interpretation budget ({STEP_BUDGET} statement visits) exhausted; \
                     error bounds widened to +inf"
                ),
            ),
        );
    }
    (states, out)
}

/// Propagate injected error through an entire pipeline.
///
/// `launches` are the pipeline's kernel launches in execution order;
/// `slots` carries each pipeline buffer's value range and accumulated
/// error and is updated in place (written-back only for parameters the
/// kernel's effect summary shows it writes). After each launch, any
/// buffer carrying error that the criticality partition classifies as
/// Critical produces a refusal citing the partition's witness chain.
///
/// Returns every diagnostic; a [`Severity::Error`] entry means the
/// injected configuration must be *refused* (treated as unbounded), not
/// merely bounded.
pub fn propagate(
    program: &Program,
    launches: &[LaunchModel],
    slots: &mut [SlotState],
    injections: &[Injection],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut partitions: BTreeMap<KernelId, KernelPartition> = BTreeMap::new();
    for launch in launches {
        let k = program.kernel(launch.kernel);
        let params: Vec<Option<SlotState>> = (0..k.params.len())
            .map(|p| {
                launch
                    .args
                    .get(p)
                    .copied()
                    .flatten()
                    .and_then(|s| slots.get(s).copied())
            })
            .collect();
        let (post, diags) =
            propagate_kernel(program, launch.kernel, &launch.ctx, &params, injections);
        for d in diags {
            push_unique(&mut out, d);
        }
        let summary = crate::effects::summarize_kernel(program, launch.kernel);
        let partition = partitions
            .entry(launch.kernel)
            .or_insert_with(|| partition_kernel(program, launch.kernel));
        for (p, state) in post.iter().enumerate() {
            let mem = MemRef::Param(p);
            let written = summary.writes.contains(&mem) || summary.atomic_targets.contains(&mem);
            if state.err > 0.0 {
                if let Some(v) = partition.verdict(mem) {
                    if v.criticality == Criticality::Critical {
                        push_unique(
                            &mut out,
                            Diagnostic::new(
                                Severity::Error,
                                launch.kernel,
                                &k.name,
                                &[],
                                "errorprop",
                                format!(
                                    "approximation error (±{:.3e}) reaches Critical buffer \
                                     `{}` (taint: {}) — refusing to bound this rung",
                                    state.err,
                                    v.name,
                                    v.witness_string()
                                ),
                            ),
                        );
                    }
                }
            }
            if written {
                if let Some(slot) = launch.args.get(p).copied().flatten() {
                    if let Some(s) = slots.get_mut(slot) {
                        s.range = s.range.join(state.range);
                        s.err = s.err.max(state.err);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{Expr, KernelBuilder, MemSpace, Ty};

    fn ctx_1d(n: usize) -> LaunchContext {
        let mut ctx = LaunchContext::with_dims((1, 1), (n as u32, 1));
        ctx.buffer_len = vec![Some(n), Some(n)];
        ctx.scalar = vec![None, None];
        ctx
    }

    /// out[i] = in[i] * 2 + 1 — error on `in` scales by 2.
    fn scale_kernel() -> (Program, KernelId) {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("scale");
        let src = kb.buffer("in", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.load(src, gid.clone());
        kb.store(dst, gid, v * Expr::f32(2.0) + Expr::f32(1.0));
        let id = p.add_kernel(kb.finish());
        (p, id)
    }

    #[test]
    fn linear_kernel_scales_injected_error() {
        let (p, k) = scale_kernel();
        let ctx = ctx_1d(8);
        let params = vec![
            Some(SlotState::exact(VRange::new(0.0, 1.0))),
            Some(SlotState::exact(VRange::exact(0.0))),
        ];
        let inj = vec![Injection::Load {
            kernel: k,
            mem: MemRef::Param(0),
            mag: ErrMag::Abs(0.25),
        }];
        let (post, diags) = propagate_kernel(&p, k, &ctx, &params, &inj);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
        // err(in) = 0.25, out = in*2+1 → err(out) = 0.5.
        assert!((post[1].err - 0.5).abs() < 1e-12, "{:?}", post[1]);
        // Output range contains [1, 3].
        assert!(post[1].range.lo <= 1.0 && post[1].range.hi >= 3.0);
        // No injection → no error at all.
        let (post0, _) = propagate_kernel(&p, k, &ctx, &params, &[]);
        assert_eq!(post0[1].err, 0.0);
    }

    #[test]
    fn branch_on_injected_error_is_refused() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("gate");
        let src = kb.buffer("in", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.load(src, gid.clone());
        kb.if_(v.clone().gt(Expr::f32(0.5)), |kb| {
            kb.store(dst, gid.clone(), Expr::f32(1.0));
        });
        let k = p.add_kernel(kb.finish());
        let ctx = ctx_1d(8);
        let params = vec![
            Some(SlotState::exact(VRange::new(0.0, 1.0))),
            Some(SlotState::exact(VRange::exact(0.0))),
        ];
        let inj = vec![Injection::Load {
            kernel: k,
            mem: MemRef::Param(0),
            mag: ErrMag::Abs(0.1),
        }];
        let (_, diags) = propagate_kernel(&p, k, &ctx, &params, &inj);
        assert!(
            diags
                .iter()
                .any(|d| d.severity == Severity::Error && d.message.contains("branch")),
            "{diags:?}"
        );
        // Without the injection the same kernel is clean.
        let (_, clean) = propagate_kernel(&p, k, &ctx, &params, &[]);
        assert!(clean.iter().all(|d| d.severity != Severity::Error));
    }

    #[test]
    fn counted_loop_accumulates_error_linearly() {
        // acc = Σ_{i<16} in[i]; err(in) = e → err(acc) ≤ 16 e.
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("sum");
        let src = kb.buffer("in", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("out", Ty::F32, MemSpace::Global);
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        kb.for_up("i", Expr::i32(0), Expr::i32(16), Expr::i32(1), |kb, i| {
            let v = kb.load(src, i);
            kb.assign(acc, Expr::from(acc) + v);
        });
        kb.store(dst, Expr::i32(0), Expr::from(acc));
        let k = p.add_kernel(kb.finish());
        let ctx = ctx_1d(16);
        let params = vec![
            Some(SlotState::exact(VRange::new(-1.0, 1.0))),
            Some(SlotState::exact(VRange::exact(0.0))),
        ];
        let inj = vec![Injection::Load {
            kernel: k,
            mem: MemRef::Param(0),
            mag: ErrMag::Abs(0.01),
        }];
        let (post, diags) = propagate_kernel(&p, k, &ctx, &params, &inj);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
        assert!((post[1].err - 0.16).abs() < 1e-9, "{:?}", post[1]);
        // Range of the sum is contained in [-16, 16] hull (plus the store
        // join with the initial slot range).
        assert!(post[1].range.lo >= -17.0 && post[1].range.hi <= 17.0);
    }

    #[test]
    fn loop_scale_injection_applies_relative_error() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("red");
        let src = kb.buffer("in", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("out", Ty::F32, MemSpace::Global);
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        kb.for_up("i", Expr::i32(0), Expr::i32(8), Expr::i32(1), |kb, i| {
            let v = kb.load(src, i);
            kb.assign(acc, Expr::from(acc) + v);
        });
        kb.store(dst, Expr::i32(0), Expr::from(acc));
        let k = p.add_kernel(kb.finish());
        let ctx = ctx_1d(8);
        let params = vec![
            Some(SlotState::exact(VRange::new(0.0, 1.0))),
            Some(SlotState::exact(VRange::exact(0.0))),
        ];
        // The accumulator loop is statement 1 (after the acc let).
        let inj = vec![Injection::LoopScale {
            kernel: k,
            path: vec![1],
            rel: 0.5,
        }];
        let (post, diags) = propagate_kernel(&p, k, &ctx, &params, &inj);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
        // acc range after 8 adds of [0,1] is [0,8]; rel 0.5 → err 4.
        assert!((post[1].err - 4.0).abs() < 1e-9, "{:?}", post[1]);
    }

    #[test]
    fn pipeline_propagates_across_launches() {
        let (p, k) = scale_kernel();
        let launches = vec![
            LaunchModel {
                kernel: k,
                ctx: ctx_1d(8),
                args: vec![Some(0), Some(1)],
            },
            LaunchModel {
                kernel: k,
                ctx: ctx_1d(8),
                args: vec![Some(1), Some(2)],
            },
        ];
        let mut slots = vec![
            SlotState::exact(VRange::new(0.0, 1.0)),
            SlotState::exact(VRange::exact(0.0)),
            SlotState::exact(VRange::exact(0.0)),
        ];
        let inj = vec![Injection::Load {
            kernel: k,
            mem: MemRef::Param(0),
            mag: ErrMag::Abs(0.25),
        }];
        let diags = propagate(&p, &launches, &mut slots, &inj);
        assert!(
            diags.iter().all(|d| d.severity != Severity::Error),
            "{diags:?}"
        );
        // Launch 1: err 0.5 into slot 1. Launch 2 re-injects 0.25 on its
        // param-0 load (slot 1, err 0.75) and doubles: err 1.5 into slot 2.
        assert!((slots[1].err - 0.5).abs() < 1e-12, "{:?}", slots[1]);
        assert!((slots[2].err - 1.5).abs() < 1e-12, "{:?}", slots[2]);
        // The unwritten input slot is untouched.
        assert_eq!(slots[0].err, 0.0);
    }
}
