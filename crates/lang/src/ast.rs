//! Abstract syntax for the kernel dialect.

use crate::error::Pos;

/// Source-level scalar types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcTy {
    /// `float`
    Float,
    /// `int`
    Int,
    /// `uint` / `unsigned`
    Uint,
    /// `bool`
    Bool,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f32),
    /// `true` / `false`.
    Bool(bool),
    /// Identifier (variable or parameter).
    Ident(String),
    /// `threadIdx.x` and friends: (base, axis).
    Special(String, char),
    /// Unary operation: `-`, `!`, `~`.
    Unary(&'static str, Box<Expr>),
    /// Binary operation by source operator.
    Binary(&'static str, Box<Expr>, Box<Expr>),
    /// Ternary conditional.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Cast `(ty) expr`.
    Cast(SrcTy, Box<Expr>),
    /// Array read `base[index]`.
    Index(String, Box<Expr>),
    /// Function or builtin call.
    Call(String, Vec<Expr>),
}

/// A spanned expression.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedExpr {
    /// The expression.
    pub expr: Expr,
    /// Where it starts.
    pub pos: Pos,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `ty name = init;`
    Decl {
        /// Declared type.
        ty: SrcTy,
        /// Variable name.
        name: String,
        /// Initializer.
        init: SpannedExpr,
    },
    /// `name op= value;` (`op` empty for plain `=`).
    Assign {
        /// Target variable.
        name: String,
        /// Compound operator without `=` (empty for plain assignment).
        op: String,
        /// Right-hand side.
        value: SpannedExpr,
    },
    /// `base[index] = value;`
    Store {
        /// Array name.
        base: String,
        /// Element index.
        index: SpannedExpr,
        /// Stored value.
        value: SpannedExpr,
    },
    /// `atomicAdd(&base[index], value);` etc.
    Atomic {
        /// Builtin name (`atomicAdd`, ...).
        name: String,
        /// Array name.
        base: String,
        /// Element index.
        index: SpannedExpr,
        /// Operand.
        value: SpannedExpr,
        /// Call position (for diagnostics).
        pos: Pos,
    },
    /// `if (cond) { .. } else { .. }`
    If {
        /// Condition.
        cond: SpannedExpr,
        /// Then-arm.
        then_body: Vec<Stmt>,
        /// Else-arm (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `for (int i = init; i CMP bound; i STEP amount) { .. }`
    For {
        /// Loop variable name (always declared `int` in the header).
        var: String,
        /// Initial value.
        init: SpannedExpr,
        /// Comparison operator: `<`, `<=`, `>`, `>=`.
        cmp: String,
        /// Bound.
        bound: SpannedExpr,
        /// Update operator: `+=`, `-=`, `*=`, `<<=`, `>>=`, `++`, `--`.
        update: String,
        /// Step amount (1 for `++`/`--`).
        amount: SpannedExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `__syncthreads();`, at its position.
    Sync(Pos),
    /// `return expr;`
    Return(SpannedExpr),
}

/// A function or kernel parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Element / scalar type.
    pub ty: SrcTy,
    /// Pointer parameter (device buffer)?
    pub is_pointer: bool,
    /// `__constant__`-qualified pointer?
    pub is_constant: bool,
}

/// A `__shared__` array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedDecl {
    /// Array name.
    pub name: String,
    /// Element type.
    pub ty: SrcTy,
    /// Compile-time length.
    pub len: usize,
}

/// A `__device__` function.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceFn {
    /// Name.
    pub name: String,
    /// Return type.
    pub ret: SrcTy,
    /// Scalar parameters.
    pub params: Vec<ParamDecl>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Declaration position.
    pub pos: Pos,
}

/// A `__global__` kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelFn {
    /// Name.
    pub name: String,
    /// Parameters (buffers and scalars).
    pub params: Vec<ParamDecl>,
    /// Shared arrays.
    pub shared: Vec<SharedDecl>,
    /// Body.
    pub body: Vec<Stmt>,
    /// Declaration position.
    pub pos: Pos,
}

/// A parsed translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Unit {
    /// Device functions, in order.
    pub functions: Vec<DeviceFn>,
    /// Kernels, in order.
    pub kernels: Vec<KernelFn>,
}
