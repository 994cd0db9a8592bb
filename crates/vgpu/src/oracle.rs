//! The tree-walking oracle: the original AST interpreter, kept as the
//! reference the bytecode engine is differentially tested against. It is
//! compiled only for tests and under the dev-only `oracle` feature, which
//! only `[dev-dependencies]` enable, so release builds carry one engine.
//!
//! The oracle walks `Expr`/`Stmt` trees over one `Vec<Scalar>` per value
//! and shares everything else with the bytecode engine: the memory
//! pipeline (`ExecCtx::do_load_into`/`do_store`/`do_atomic`) and every
//! charge. A device selects it with
//! `DeviceProfile::gtx560().with_engine(ExecEngine::TreeWalk)`.

use std::sync::atomic::Ordering;

use paraprox_ir::{
    BinOp, CmpOp, EvalError, Expr, Func, Kernel, LoopCond, LoopStep, MemRef, Program, Scalar,
    Special, Stmt, Ty,
};

use crate::device::ArgValue;
use crate::exec::{ExecCtx, LaneGet, LaneSet, Mask, FILLER, ITERATION_BUDGET};
use crate::mask::LaneMask;
use crate::profile::DeviceProfile;

/// Which interpreter executes kernel launches.
///
/// Both engines are required to produce bit-identical buffers, simulated
/// cycles, and cache statistics; the choice only affects host wall-clock
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecEngine {
    /// Execute the kernel's compiled bytecode (the default, and the only
    /// engine of a release build).
    #[default]
    Bytecode,
    /// Walk the `Expr`/`Stmt` AST directly (the reference oracle).
    TreeWalk,
}

impl DeviceProfile {
    /// Return the profile with its execution-engine knob set.
    pub fn with_engine(mut self, engine: ExecEngine) -> DeviceProfile {
        self.engine = engine;
        self
    }
}

/// Lane-indexed values; entries for inactive lanes hold an arbitrary filler.
type Lanes = Vec<Scalar>;

impl LaneGet for Vec<Scalar> {
    #[inline(always)]
    fn lane(&self, i: usize) -> Scalar {
        self[i]
    }
}

impl LaneSet for Vec<Scalar> {
    fn fill_filler(&mut self, lanes: usize) {
        self.clear();
        self.resize(lanes, FILLER);
    }

    #[inline(always)]
    fn set_lane(&mut self, i: usize, v: Scalar) {
        self[i] = v;
    }
}

/// Reusable lane vectors: the interpreter churns through short-lived
/// per-statement vectors, so each block's walk keeps a small free list
/// instead of hitting the allocator per expression.
#[derive(Default)]
struct ScratchPool {
    lanes: Vec<Lanes>,
}

/// Cap on pooled vectors; beyond this they are simply dropped.
const SCRATCH_POOL_CAP: usize = 64;

impl ScratchPool {
    fn take_lanes(&mut self, n: usize, fill: Scalar) -> Lanes {
        match self.lanes.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(n, fill);
                v
            }
            None => vec![fill; n],
        }
    }

    /// Take a recycled vector initialized as a copy of `src` — one
    /// recycle-plus-memcpy, instead of filling with a placeholder and
    /// overwriting every slot.
    fn take_lanes_from(&mut self, src: &[Scalar]) -> Lanes {
        match self.lanes.pop() {
            Some(mut v) => {
                v.clear();
                v.extend_from_slice(src);
                v
            }
            None => src.to_vec(),
        }
    }

    fn put_lanes(&mut self, v: Lanes) {
        if self.lanes.len() < SCRATCH_POOL_CAP {
            self.lanes.push(v);
        }
    }
}

enum FrameArgs<'v> {
    /// Kernel frame: scalar arguments come from the launch's `ArgValue`s.
    Kernel,
    /// Function frame: per-lane argument vectors.
    Func(&'v [Lanes]),
}

struct Frame<'v> {
    args: FrameArgs<'v>,
    locals: Vec<Option<Lanes>>,
    /// Set only for function frames: lanes that have executed `Return`,
    /// plus their values.
    returned: Option<(Mask, Lanes)>,
}

impl<'v> Frame<'v> {
    fn for_kernel(local_count: usize) -> Frame<'static> {
        Frame {
            args: FrameArgs::Kernel,
            locals: vec![None; local_count],
            returned: None,
        }
    }

    fn for_func(args: &'v [Lanes], local_count: usize, lanes: usize) -> Frame<'v> {
        Frame {
            args: FrameArgs::Func(args),
            locals: vec![None; local_count],
            returned: Some((LaneMask::empty(lanes), vec![FILLER; lanes])),
        }
    }
}

/// Run `kernel` (of `program`) over the whole block of `ctx`.
pub(crate) fn run_kernel(
    ctx: &mut ExecCtx<'_>,
    program: &Program,
    kernel: &Kernel,
) -> Result<(), EvalError> {
    let mask = LaneMask::full(ctx.lanes);
    let mut frame = Frame::for_kernel(kernel.locals.len());
    let mut oracle = Oracle {
        ctx,
        program,
        scratch: ScratchPool::default(),
    };
    oracle.run_block(&kernel.body, &mask, &mut frame)
}

/// One block's walk: the shared execution context, the program whose
/// functions calls resolve in, and the oracle's recycled lane vectors.
struct Oracle<'c, 'a> {
    ctx: &'c mut ExecCtx<'a>,
    program: &'c Program,
    scratch: ScratchPool,
}

impl Oracle<'_, '_> {
    fn eval(&mut self, e: &Expr, mask: &Mask, frame: &mut Frame<'_>) -> Result<Lanes, EvalError> {
        match e {
            Expr::Const(v) => Ok(self.scratch.take_lanes(self.ctx.lanes, *v)),
            Expr::Var(v) => {
                let lanes = frame.locals[v.index()]
                    .as_ref()
                    .ok_or(EvalError::UninitializedVar(v.0))?;
                Ok(self.scratch.take_lanes_from(lanes))
            }
            Expr::Param(i) => match &frame.args {
                FrameArgs::Kernel => match self.ctx.args.get(*i) {
                    Some(ArgValue::Scalar(s)) => Ok(self.scratch.take_lanes(self.ctx.lanes, *s)),
                    Some(ArgValue::Buffer(_)) => {
                        Err(EvalError::NotPure("buffer parameter read as a scalar"))
                    }
                    None => Err(EvalError::ArityMismatch {
                        expected: *i + 1,
                        found: self.ctx.args.len(),
                    }),
                },
                FrameArgs::Func(args) => match args.get(*i) {
                    Some(arg) => Ok(self.scratch.take_lanes_from(arg)),
                    None => Err(EvalError::ArityMismatch {
                        expected: *i + 1,
                        found: 0,
                    }),
                },
            },
            Expr::Special(s) => {
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("thread special"));
                }
                let (bx, by) = self.ctx.block_coords(0);
                let bdx = self.ctx.block.x as i32;
                let bdy = self.ctx.block.y as i32;
                let gdx = self.ctx.grid.x as i32;
                let gdy = self.ctx.grid.y as i32;
                let mut out = self.scratch.take_lanes(self.ctx.lanes, FILLER);
                for (lane, slot) in out.iter_mut().enumerate() {
                    let tx = (lane % self.ctx.block.x) as i32;
                    let ty = (lane / self.ctx.block.x) as i32;
                    *slot = Scalar::I32(match s {
                        Special::ThreadIdX => tx,
                        Special::ThreadIdY => ty,
                        Special::BlockIdX => bx,
                        Special::BlockIdY => by,
                        Special::BlockDimX => bdx,
                        Special::BlockDimY => bdy,
                        Special::GridDimX => gdx,
                        Special::GridDimY => gdy,
                    });
                }
                Ok(out)
            }
            Expr::Unary(op, a) => {
                let va = self.eval(a, mask, frame)?;
                self.ctx
                    .charge_compute(self.ctx.profile.unop_lat(*op), mask);
                let mut out = self.scratch.take_lanes(self.ctx.lanes, FILLER);
                if mask.all() {
                    for lane in 0..self.ctx.lanes {
                        out[lane] = op.apply(va[lane])?;
                    }
                } else {
                    for lane in mask.iter_set() {
                        out[lane] = op.apply(va[lane])?;
                    }
                }
                self.scratch.put_lanes(va);
                Ok(out)
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, mask, frame)?;
                let vb = self.eval(b, mask, frame)?;
                let float = mask
                    .iter_set()
                    .next()
                    .map(|l| va[l].ty() == Ty::F32)
                    .unwrap_or(false);
                self.ctx
                    .charge_compute(self.ctx.profile.binop_lat(*op, float), mask);
                let mut out = self.scratch.take_lanes(self.ctx.lanes, FILLER);
                if mask.all() {
                    for lane in 0..self.ctx.lanes {
                        out[lane] = op.apply(va[lane], vb[lane])?;
                    }
                } else {
                    for lane in mask.iter_set() {
                        out[lane] = op.apply(va[lane], vb[lane])?;
                    }
                }
                self.scratch.put_lanes(va);
                self.scratch.put_lanes(vb);
                Ok(out)
            }
            Expr::Cmp(op, a, b) => {
                let va = self.eval(a, mask, frame)?;
                let vb = self.eval(b, mask, frame)?;
                self.ctx.charge_compute(self.ctx.profile.alu_lat, mask);
                let mut out = self.scratch.take_lanes(self.ctx.lanes, FILLER);
                if mask.all() {
                    for lane in 0..self.ctx.lanes {
                        out[lane] = op.apply(va[lane], vb[lane])?;
                    }
                } else {
                    for lane in mask.iter_set() {
                        out[lane] = op.apply(va[lane], vb[lane])?;
                    }
                }
                self.scratch.put_lanes(va);
                self.scratch.put_lanes(vb);
                Ok(out)
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                let c = self.eval(cond, mask, frame)?;
                self.ctx.charge_compute(self.ctx.profile.alu_lat, mask);
                let mut t_mask = LaneMask::empty(self.ctx.lanes);
                let mut f_mask = LaneMask::empty(self.ctx.lanes);
                for lane in mask.iter_set() {
                    if c[lane].as_bool()? {
                        t_mask.set(lane, true);
                    } else {
                        f_mask.set(lane, true);
                    }
                }
                self.scratch.put_lanes(c);
                let mut out = self.scratch.take_lanes(self.ctx.lanes, FILLER);
                if t_mask.any() {
                    let tv = self.eval(if_true, &t_mask, frame)?;
                    for lane in t_mask.iter_set() {
                        out[lane] = tv[lane];
                    }
                    self.scratch.put_lanes(tv);
                }
                if f_mask.any() {
                    let fv = self.eval(if_false, &f_mask, frame)?;
                    for lane in f_mask.iter_set() {
                        out[lane] = fv[lane];
                    }
                    self.scratch.put_lanes(fv);
                }
                Ok(out)
            }
            Expr::Cast(ty, a) => {
                let va = self.eval(a, mask, frame)?;
                self.ctx.charge_compute(self.ctx.profile.alu_lat, mask);
                let mut out = self.scratch.take_lanes(self.ctx.lanes, FILLER);
                if mask.all() {
                    for lane in 0..self.ctx.lanes {
                        out[lane] = va[lane].cast(*ty);
                    }
                } else {
                    for lane in mask.iter_set() {
                        out[lane] = va[lane].cast(*ty);
                    }
                }
                self.scratch.put_lanes(va);
                Ok(out)
            }
            Expr::Load { mem, index } => {
                let idx = self.eval(index, mask, frame)?;
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("load"));
                }
                let out = self.do_load(*mem, &idx, mask)?;
                self.scratch.put_lanes(idx);
                Ok(out)
            }
            Expr::Call { func, args } => {
                let callee = self
                    .program
                    .funcs()
                    .find(|(id, _)| id == func)
                    .map(|(_, f)| f)
                    .ok_or(EvalError::UnknownFunc(func.0))?;
                let mut arg_lanes = Vec::with_capacity(args.len());
                for a in args {
                    arg_lanes.push(self.eval(a, mask, frame)?);
                }
                let out = self.call_func(callee, &arg_lanes, mask)?;
                for v in arg_lanes {
                    self.scratch.put_lanes(v);
                }
                Ok(out)
            }
        }
    }

    fn call_func(&mut self, func: &Func, args: &[Lanes], mask: &Mask) -> Result<Lanes, EvalError> {
        if args.len() != func.params.len() {
            return Err(EvalError::ArityMismatch {
                expected: func.params.len(),
                found: args.len(),
            });
        }
        for (arg, param) in args.iter().zip(&func.params) {
            for lane in mask.iter_set() {
                if arg[lane].ty() != param.ty() {
                    return Err(EvalError::TypeMismatch {
                        expected: param.ty(),
                        found: arg[lane].ty(),
                    });
                }
            }
        }
        // Call overhead (argument setup / jump).
        self.ctx.charge_compute(self.ctx.profile.alu_lat, mask);
        let mut frame = Frame::for_func(args, func.locals.len(), self.ctx.lanes);
        self.run_block(&func.body, mask, &mut frame)?;
        let (returned, values) = frame.returned.expect("function frame has returned set");
        for lane in mask.iter_set() {
            if !returned.get(lane) {
                return Err(EvalError::MissingReturn(func.name.clone()));
            }
        }
        Ok(values)
    }

    // ---- statements ----------------------------------------------------

    fn run_block(
        &mut self,
        stmts: &[Stmt],
        mask: &Mask,
        frame: &mut Frame<'_>,
    ) -> Result<(), EvalError> {
        if frame.returned.is_none() {
            // Kernel frames never return, so the live mask is the incoming
            // mask for every statement — no per-statement bookkeeping.
            if !mask.any() {
                return Ok(());
            }
            for stmt in stmts {
                self.run_stmt(stmt, mask, frame)?;
            }
            return Ok(());
        }
        let mut live = LaneMask::empty(self.ctx.lanes);
        for stmt in stmts {
            let (returned, _) = frame.returned.as_ref().expect("checked above");
            live.copy_from(mask);
            live.and_not_assign(returned);
            if !live.any() {
                break;
            }
            self.run_stmt(stmt, &live, frame)?;
        }
        Ok(())
    }

    fn run_stmt(
        &mut self,
        stmt: &Stmt,
        mask: &Mask,
        frame: &mut Frame<'_>,
    ) -> Result<(), EvalError> {
        match stmt {
            Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                let v = self.eval(init, mask, frame)?;
                match &mut frame.locals[var.index()] {
                    Some(existing) => {
                        if mask.all() {
                            existing.copy_from_slice(&v);
                        } else {
                            for lane in mask.iter_set() {
                                existing[lane] = v[lane];
                            }
                        }
                        self.scratch.put_lanes(v);
                    }
                    slot @ None => *slot = Some(v),
                }
                Ok(())
            }
            Stmt::Store { mem, index, value } => {
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("store"));
                }
                let idx = self.eval(index, mask, frame)?;
                let val = self.eval(value, mask, frame)?;
                let result = self.ctx.do_store(*mem, &idx, &val, mask);
                self.scratch.put_lanes(idx);
                self.scratch.put_lanes(val);
                result
            }
            Stmt::Atomic {
                op,
                mem,
                index,
                value,
            } => {
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("atomic"));
                }
                let idx = self.eval(index, mask, frame)?;
                let val = self.eval(value, mask, frame)?;
                let result = self.ctx.do_atomic(*op, *mem, &idx, &val, mask);
                self.scratch.put_lanes(idx);
                self.scratch.put_lanes(val);
                result
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, mask, frame)?;
                self.ctx.charge_compute(self.ctx.profile.alu_lat, mask); // branch
                let mut t_mask = LaneMask::empty(self.ctx.lanes);
                let mut f_mask = LaneMask::empty(self.ctx.lanes);
                for lane in mask.iter_set() {
                    if c[lane].as_bool()? {
                        t_mask.set(lane, true);
                    } else {
                        f_mask.set(lane, true);
                    }
                }
                self.scratch.put_lanes(c);
                if t_mask.any() {
                    self.run_block(then_body, &t_mask, frame)?;
                }
                if f_mask.any() {
                    self.run_block(else_body, &f_mask, frame)?;
                }
                Ok(())
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let init_v = self.eval(init, mask, frame)?;
                match &mut frame.locals[var.index()] {
                    Some(existing) => {
                        for lane in mask.iter_set() {
                            existing[lane] = init_v[lane];
                        }
                        self.scratch.put_lanes(init_v);
                    }
                    slot @ None => *slot = Some(init_v),
                }
                let cmp_op = match cond {
                    LoopCond::Lt(_) => CmpOp::Lt,
                    LoopCond::Le(_) => CmpOp::Le,
                    LoopCond::Gt(_) => CmpOp::Gt,
                    LoopCond::Ge(_) => CmpOp::Ge,
                };
                let step_op = match step {
                    LoopStep::Add(_) => BinOp::Add,
                    LoopStep::Sub(_) => BinOp::Sub,
                    LoopStep::Mul(_) => BinOp::Mul,
                    LoopStep::Shl(_) => BinOp::Shl,
                    LoopStep::Shr(_) => BinOp::Shr,
                };
                let mut loop_mask = mask.clone();
                if let Some((returned, _)) = &frame.returned {
                    loop_mask.and_not_assign(returned);
                }
                loop {
                    if !loop_mask.any() {
                        break;
                    }
                    // Evaluate the continuation condition for lanes still in
                    // the loop.
                    let bound = self.eval(cond.bound(), &loop_mask, frame)?;
                    self.ctx
                        .charge_compute(self.ctx.profile.alu_lat, &loop_mask); // cmp+branch
                    let current = frame.locals[var.index()]
                        .as_ref()
                        .ok_or(EvalError::UninitializedVar(var.0))?;
                    let mut next_mask = LaneMask::empty(self.ctx.lanes);
                    for lane in loop_mask.iter_set() {
                        if cmp_op.apply(current[lane], bound[lane])?.as_bool()? {
                            next_mask.set(lane, true);
                        }
                    }
                    self.scratch.put_lanes(bound);
                    loop_mask = next_mask;
                    if !loop_mask.any() {
                        break;
                    }
                    // The iteration budget is launch-wide: one shared
                    // counter across all workers, so runaway loops are
                    // bounded per launch rather than per block.
                    let used = self.ctx.iterations.fetch_add(1, Ordering::Relaxed) + 1;
                    if used > ITERATION_BUDGET {
                        return Err(EvalError::IterationLimit);
                    }
                    self.run_block(body, &loop_mask, frame)?;
                    // Lanes that returned inside the body leave the loop.
                    if let Some((returned, _)) = &frame.returned {
                        loop_mask.and_not_assign(returned);
                    }
                    if !loop_mask.any() {
                        break;
                    }
                    let amount = self.eval(step.amount(), &loop_mask, frame)?;
                    self.ctx
                        .charge_compute(self.ctx.profile.alu_lat, &loop_mask); // update
                    let current = frame.locals[var.index()]
                        .as_mut()
                        .ok_or(EvalError::UninitializedVar(var.0))?;
                    for lane in loop_mask.iter_set() {
                        current[lane] = step_op.apply(current[lane], amount[lane])?;
                    }
                    self.scratch.put_lanes(amount);
                }
                Ok(())
            }
            Stmt::Sync => {
                if matches!(frame.args, FrameArgs::Func(_)) {
                    return Err(EvalError::NotPure("sync"));
                }
                if mask.all() {
                    Ok(())
                } else {
                    Err(EvalError::DivergentBarrier)
                }
            }
            Stmt::Return(e) => {
                if frame.returned.is_none() {
                    return Err(EvalError::NotPure("return in kernel body"));
                }
                let v = self.eval(e, mask, frame)?;
                let (returned, values) = frame.returned.as_mut().expect("checked above");
                for lane in mask.iter_set() {
                    returned.set(lane, true);
                    values[lane] = v[lane];
                }
                self.scratch.put_lanes(v);
                Ok(())
            }
        }
    }

    fn do_load(&mut self, mem: MemRef, idx: &Lanes, mask: &Mask) -> Result<Lanes, EvalError> {
        // Empty: `do_load_into` sizes and fills it.
        let mut out = self.scratch.take_lanes(0, FILLER);
        self.ctx.do_load_into(mem, idx, mask, &mut out)?;
        Ok(out)
    }
}
