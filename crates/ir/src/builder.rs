//! Ergonomic builders for kernels and device functions.
//!
//! Both builders manage local-variable allocation and a stack of statement
//! frames so that structured control flow (`if`, `for`) can be written with
//! closures:
//!
//! ```
//! use paraprox_ir::{Expr, KernelBuilder, LoopStep, MemSpace, Ty};
//!
//! let mut kb = KernelBuilder::new("saxpy");
//! let x = kb.buffer("x", Ty::F32, MemSpace::Global);
//! let y = kb.buffer("y", Ty::F32, MemSpace::Global);
//! let a = kb.scalar("a", Ty::F32);
//! let n = kb.scalar("n", Ty::I32);
//! let gid = kb.let_("gid", KernelBuilder::global_id_x());
//! kb.if_(gid.clone().lt(n), |kb| {
//!     let v = kb.let_("v", a * kb.load(x, gid.clone()) + kb.load(y, gid.clone()));
//!     kb.store(y, gid.clone(), v);
//! });
//! let kernel = kb.finish();
//! assert_eq!(kernel.name, "saxpy");
//! ```

use crate::expr::{Expr, Special};
use crate::program::{Func, Kernel, LocalDecl, Param, SharedDecl};
use crate::stmt::{AtomicOp, LoopCond, LoopStep, MemRef, SharedId, Stmt};
use crate::types::{MemSpace, Ty, VarId};

/// Shared machinery between the kernel and function builders.
#[derive(Debug)]
struct BodyBuilder {
    locals: Vec<LocalDecl>,
    frames: Vec<Vec<Stmt>>,
}

impl BodyBuilder {
    fn new() -> BodyBuilder {
        BodyBuilder {
            locals: Vec::new(),
            frames: vec![Vec::new()],
        }
    }

    fn declare(&mut self, name: &str, ty: Ty) -> VarId {
        let id = VarId(self.locals.len() as u32);
        self.locals.push(LocalDecl {
            name: name.to_string(),
            ty,
        });
        id
    }

    fn push(&mut self, stmt: Stmt) {
        self.frames
            .last_mut()
            .expect("builder frame stack is never empty")
            .push(stmt);
    }

    fn finish(mut self) -> (Vec<LocalDecl>, Vec<Stmt>) {
        assert_eq!(
            self.frames.len(),
            1,
            "unbalanced control-flow frames at finish()"
        );
        let body = self.frames.pop().expect("root frame");
        (self.locals, body)
    }
}

/// Infer the type of an initializer expression for `let_` ergonomics.
///
/// Only the cases the builders need are covered; anything ambiguous
/// defaults to `F32`, and callers that care use `let_typed`.
fn infer_ty(e: &Expr, params: &[Param], locals: &[LocalDecl]) -> Ty {
    use crate::expr::{BinOp, UnOp};
    match e {
        Expr::Const(s) => s.ty(),
        Expr::Var(v) => locals.get(v.index()).map(|d| d.ty).unwrap_or(Ty::F32),
        Expr::Param(i) => params.get(*i).map(|p| p.ty()).unwrap_or(Ty::F32),
        Expr::Special(_) => Ty::I32,
        Expr::Cast(ty, _) => *ty,
        Expr::Cmp(..) => Ty::Bool,
        Expr::Unary(op, a) => match op {
            UnOp::Not => infer_ty(a, params, locals),
            UnOp::Neg | UnOp::Abs => infer_ty(a, params, locals),
            _ => Ty::F32,
        },
        Expr::Binary(op, a, b) => match op {
            BinOp::And | BinOp::Or | BinOp::Xor => infer_ty(a, params, locals),
            _ => {
                let ta = infer_ty(a, params, locals);
                if ta == Ty::Bool {
                    infer_ty(b, params, locals)
                } else {
                    ta
                }
            }
        },
        Expr::Select { if_true, .. } => infer_ty(if_true, params, locals),
        // Loads from buffer parameters carry the buffer's element type;
        // shared-array loads default to f32 (use `let_typed` otherwise).
        Expr::Load {
            mem: crate::stmt::MemRef::Param(i),
            ..
        } => params.get(*i).map(|p| p.ty()).unwrap_or(Ty::F32),
        Expr::Load { .. } => Ty::F32,
        Expr::Call { .. } => Ty::F32,
    }
}

/// Builder for [`Kernel`]s.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    params: Vec<Param>,
    shared: Vec<SharedDecl>,
    body: BodyBuilder,
}

impl KernelBuilder {
    /// Start building a kernel called `name`.
    pub fn new(name: &str) -> KernelBuilder {
        KernelBuilder {
            name: name.to_string(),
            params: Vec::new(),
            shared: Vec::new(),
            body: BodyBuilder::new(),
        }
    }

    /// Declare a buffer parameter; returns its [`MemRef`].
    pub fn buffer(&mut self, name: &str, ty: Ty, space: MemSpace) -> MemRef {
        let idx = self.params.len();
        self.params.push(Param::Buffer {
            name: name.to_string(),
            ty,
            space,
        });
        MemRef::Param(idx)
    }

    /// Declare a scalar parameter; returns an expression that reads it.
    pub fn scalar(&mut self, name: &str, ty: Ty) -> Expr {
        let idx = self.params.len();
        self.params.push(Param::Scalar {
            name: name.to_string(),
            ty,
        });
        Expr::Param(idx)
    }

    /// Declare a block-shared array of `len` elements; returns its
    /// [`MemRef`].
    pub fn shared_array(&mut self, name: &str, ty: Ty, len: usize) -> MemRef {
        let id = SharedId(self.shared.len() as u32);
        self.shared.push(SharedDecl {
            name: name.to_string(),
            ty,
            len,
        });
        MemRef::Shared(id)
    }

    /// `threadIdx.x` as an expression.
    pub fn thread_id_x() -> Expr {
        Expr::Special(Special::ThreadIdX)
    }

    /// `threadIdx.y` as an expression.
    pub fn thread_id_y() -> Expr {
        Expr::Special(Special::ThreadIdY)
    }

    /// `blockIdx.x` as an expression.
    pub fn block_id_x() -> Expr {
        Expr::Special(Special::BlockIdX)
    }

    /// `blockIdx.y` as an expression.
    pub fn block_id_y() -> Expr {
        Expr::Special(Special::BlockIdY)
    }

    /// `blockDim.x` as an expression.
    pub fn block_dim_x() -> Expr {
        Expr::Special(Special::BlockDimX)
    }

    /// `blockDim.y` as an expression.
    pub fn block_dim_y() -> Expr {
        Expr::Special(Special::BlockDimY)
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x` — the canonical 1-D global
    /// thread index.
    pub fn global_id_x() -> Expr {
        Self::block_id_x() * Self::block_dim_x() + Self::thread_id_x()
    }

    /// `blockIdx.y * blockDim.y + threadIdx.y`.
    pub fn global_id_y() -> Expr {
        Self::block_id_y() * Self::block_dim_y() + Self::thread_id_y()
    }

    /// A load expression `mem[index]`.
    pub fn load(&self, mem: MemRef, index: Expr) -> Expr {
        Expr::Load {
            mem,
            index: Box::new(index),
        }
    }

    /// Bind a fresh local to `init`, inferring its type; returns an
    /// expression reading the local.
    pub fn let_(&mut self, name: &str, init: Expr) -> Expr {
        let ty = infer_ty(&init, &self.params, &self.body.locals);
        self.let_typed(name, ty, init)
    }

    /// Bind a fresh local of an explicit type.
    pub fn let_typed(&mut self, name: &str, ty: Ty, init: Expr) -> Expr {
        let var = self.body.declare(name, ty);
        self.body.push(Stmt::Let { var, init });
        Expr::Var(var)
    }

    /// Declare a mutable local (for accumulators); returns its [`VarId`].
    pub fn let_mut(&mut self, name: &str, ty: Ty, init: Expr) -> VarId {
        let var = self.body.declare(name, ty);
        self.body.push(Stmt::Let { var, init });
        var
    }

    /// Re-assign a mutable local.
    pub fn assign(&mut self, var: VarId, value: Expr) {
        self.body.push(Stmt::Assign { var, value });
    }

    /// Store `value` to `mem[index]`.
    pub fn store(&mut self, mem: MemRef, index: Expr, value: Expr) {
        self.body.push(Stmt::Store { mem, index, value });
    }

    /// Atomic read-modify-write of `mem[index]`.
    pub fn atomic(&mut self, op: AtomicOp, mem: MemRef, index: Expr, value: Expr) {
        self.body.push(Stmt::Atomic {
            op,
            mem,
            index,
            value,
        });
    }

    /// Block-wide barrier.
    pub fn sync(&mut self) {
        self.body.push(Stmt::Sync);
    }

    /// Structured conditional with only a then-arm.
    pub fn if_(&mut self, cond: Expr, then_build: impl FnOnce(&mut Self)) {
        self.if_else(cond, then_build, |_| {});
    }

    /// Structured conditional with both arms.
    pub fn if_else(
        &mut self,
        cond: Expr,
        then_build: impl FnOnce(&mut Self),
        else_build: impl FnOnce(&mut Self),
    ) {
        let then_body = self.nested(then_build);
        let else_body = self.nested(else_build);
        self.body.push(Stmt::If {
            cond,
            then_body,
            else_body,
        });
    }

    /// Counted ascending loop `for (var = init; var < bound; var += step)`.
    /// The closure receives the builder and the loop variable.
    pub fn for_up(
        &mut self,
        name: &str,
        init: Expr,
        bound: Expr,
        step: Expr,
        build: impl FnOnce(&mut Self, Expr),
    ) {
        self.for_loop(name, init, LoopCond::Lt(bound), LoopStep::Add(step), build);
    }

    /// General counted loop with explicit condition and step kinds.
    pub fn for_loop(
        &mut self,
        name: &str,
        init: Expr,
        cond: LoopCond,
        step: LoopStep,
        build: impl FnOnce(&mut Self, Expr),
    ) {
        let var = self.body.declare(name, Ty::I32);
        let body = self.nested(|kb| build(kb, Expr::Var(var)));
        self.body.push(Stmt::For {
            var,
            init,
            cond,
            step,
            body,
        });
    }

    fn nested(&mut self, build: impl FnOnce(&mut Self)) -> Vec<Stmt> {
        // Temporarily swap in a fresh frame, then run the closure against
        // `self` so params/shared declared inside nested scopes still work.
        self.body.frames.push(Vec::new());
        build(self);
        self.body.frames.pop().expect("frame pushed above")
    }

    /// Finish and return the kernel.
    ///
    /// # Panics
    ///
    /// Panics if control-flow frames are unbalanced (a builder bug).
    pub fn finish(self) -> Kernel {
        let (locals, body) = self.body.finish();
        Kernel {
            name: self.name,
            params: self.params,
            shared: self.shared,
            locals,
            body,
        }
    }
}

/// Builder for device [`Func`]s.
///
/// Functions take scalar parameters only and must return via
/// [`FuncBuilder::ret`] on every terminating path.
#[derive(Debug)]
pub struct FuncBuilder {
    name: String,
    params: Vec<Param>,
    ret: Ty,
    body: BodyBuilder,
}

impl FuncBuilder {
    /// Start building a function `name` returning `ret`.
    pub fn new(name: &str, ret: Ty) -> FuncBuilder {
        FuncBuilder {
            name: name.to_string(),
            params: Vec::new(),
            ret,
            body: BodyBuilder::new(),
        }
    }

    /// Declare a scalar parameter; returns an expression that reads it.
    pub fn scalar(&mut self, name: &str, ty: Ty) -> Expr {
        let idx = self.params.len();
        self.params.push(Param::Scalar {
            name: name.to_string(),
            ty,
        });
        Expr::Param(idx)
    }

    /// Bind a fresh local, inferring its type.
    pub fn let_(&mut self, name: &str, init: Expr) -> Expr {
        let ty = infer_ty(&init, &self.params, &self.body.locals);
        self.let_typed(name, ty, init)
    }

    /// Bind a fresh local of an explicit type.
    pub fn let_typed(&mut self, name: &str, ty: Ty, init: Expr) -> Expr {
        let var = self.body.declare(name, ty);
        self.body.push(Stmt::Let { var, init });
        Expr::Var(var)
    }

    /// Declare a mutable local; returns its [`VarId`].
    pub fn let_mut(&mut self, name: &str, ty: Ty, init: Expr) -> VarId {
        let var = self.body.declare(name, ty);
        self.body.push(Stmt::Let { var, init });
        var
    }

    /// Re-assign a mutable local.
    pub fn assign(&mut self, var: VarId, value: Expr) {
        self.body.push(Stmt::Assign { var, value });
    }

    /// Structured conditional with only a then-arm.
    pub fn if_(&mut self, cond: Expr, then_build: impl FnOnce(&mut Self)) {
        self.if_else(cond, then_build, |_| {});
    }

    /// Structured conditional with both arms.
    pub fn if_else(
        &mut self,
        cond: Expr,
        then_build: impl FnOnce(&mut Self),
        else_build: impl FnOnce(&mut Self),
    ) {
        self.body.frames.push(Vec::new());
        then_build(self);
        let then_body = self.body.frames.pop().expect("frame pushed above");
        self.body.frames.push(Vec::new());
        else_build(self);
        let else_body = self.body.frames.pop().expect("frame pushed above");
        self.body.push(Stmt::If {
            cond,
            then_body,
            else_body,
        });
    }

    /// Counted ascending loop, as in [`KernelBuilder::for_up`].
    pub fn for_up(
        &mut self,
        name: &str,
        init: Expr,
        bound: Expr,
        step: Expr,
        build: impl FnOnce(&mut Self, Expr),
    ) {
        let var = self.body.declare(name, Ty::I32);
        self.body.frames.push(Vec::new());
        build(self, Expr::Var(var));
        let body = self.body.frames.pop().expect("frame pushed above");
        self.body.push(Stmt::For {
            var,
            init,
            cond: LoopCond::Lt(bound),
            step: LoopStep::Add(step),
            body,
        });
    }

    /// Return `value` from the function.
    pub fn ret(&mut self, value: Expr) {
        self.body.push(Stmt::Return(value));
    }

    /// Finish and return the function.
    ///
    /// # Panics
    ///
    /// Panics if control-flow frames are unbalanced (a builder bug).
    pub fn finish(self) -> Func {
        let (locals, body) = self.body.finish();
        Func {
            name: self.name,
            params: self.params,
            ret: self.ret,
            locals,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    #[test]
    fn kernel_builder_tracks_params_and_locals() {
        let mut kb = KernelBuilder::new("k");
        let buf = kb.buffer("in", Ty::F32, MemSpace::Global);
        let n = kb.scalar("n", Ty::I32);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.if_(gid.clone().lt(n), |kb| {
            let v = kb.let_("v", kb.load(buf, gid.clone()));
            kb.store(buf, gid.clone(), v * Expr::f32(2.0));
        });
        let k = kb.finish();
        assert_eq!(k.params.len(), 2);
        assert_eq!(k.locals.len(), 2);
        assert_eq!(k.body.len(), 2);
        assert!(matches!(k.body[1], Stmt::If { .. }));
    }

    #[test]
    fn nested_loops_build_correctly() {
        let mut kb = KernelBuilder::new("k");
        kb.for_up("i", Expr::i32(0), Expr::i32(3), Expr::i32(1), |kb, _i| {
            kb.for_up("j", Expr::i32(0), Expr::i32(3), Expr::i32(1), |kb, _j| {
                kb.sync();
            });
        });
        let k = kb.finish();
        match &k.body[0] {
            Stmt::For { body, .. } => match &body[0] {
                Stmt::For { body, .. } => assert!(matches!(body[0], Stmt::Sync)),
                other => panic!("expected inner for, got {other:?}"),
            },
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn func_builder_produces_return() {
        let mut fb = FuncBuilder::new("double", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        fb.ret(x * Expr::f32(2.0));
        let f = fb.finish();
        assert_eq!(f.params.len(), 1);
        assert!(matches!(f.body[0], Stmt::Return(_)));
    }

    #[test]
    fn type_inference_for_lets() {
        let mut kb = KernelBuilder::new("k");
        let n = kb.scalar("n", Ty::I32);
        let i = kb.let_("i", n.clone() + Expr::i32(1));
        let c = kb.let_("c", i.lt(n));
        // Check recorded local types.
        let k = {
            let _ = c;
            kb.finish()
        };
        assert_eq!(k.locals[0].ty, Ty::I32);
        assert_eq!(k.locals[1].ty, Ty::Bool);
    }

    #[test]
    fn global_id_shape() {
        let e = KernelBuilder::global_id_x();
        assert!(matches!(e, Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn shared_arrays_get_sequential_ids() {
        let mut kb = KernelBuilder::new("k");
        let a = kb.shared_array("a", Ty::F32, 128);
        let b = kb.shared_array("b", Ty::F32, 64);
        assert_eq!(a, MemRef::Shared(SharedId(0)));
        assert_eq!(b, MemRef::Shared(SharedId(1)));
        let k = kb.finish();
        assert_eq!(k.shared.len(), 2);
        assert_eq!(k.shared[1].len, 64);
    }
}
