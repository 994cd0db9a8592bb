//! Lowering from the source AST to the kernel IR.
//!
//! Performs name resolution (parameters, locals with C block scoping,
//! shared arrays, device functions), light type checking with C-style
//! numeric promotion (`int` → `float` etc., inserted as explicit IR
//! casts), builtin mapping (`expf` → [`paraprox_ir::UnOp::Exp`], …), and
//! structural translation of statements.

use std::collections::HashMap;

use paraprox_ir as ir;
use paraprox_ir::Expr as IrExpr;

use crate::ast::*;
use crate::error::{LangError, Pos};

pub(crate) fn lower(unit: &Unit) -> Result<ir::Program, LangError> {
    let mut program = ir::Program::new();
    let mut func_ids: HashMap<String, (ir::FuncId, usize)> = HashMap::new();

    // Device functions first (kernels may call any of them; functions may
    // call previously declared functions, as in C without prototypes).
    for (i, f) in unit.functions.iter().enumerate() {
        if func_ids.contains_key(&f.name) {
            return Err(LangError::new(
                f.pos,
                format!("duplicate function `{}`", f.name),
            ));
        }
        let lowered = lower_function(f, unit, &func_ids)?;
        let id = program.add_func(lowered);
        func_ids.insert(f.name.clone(), (id, i));
    }
    let mut kernel_names = Vec::new();
    for k in &unit.kernels {
        if kernel_names.contains(&k.name) {
            return Err(LangError::new(
                k.pos,
                format!("duplicate kernel `{}`", k.name),
            ));
        }
        kernel_names.push(k.name.clone());
        let lowered = lower_kernel(k, unit, &func_ids)?;
        program.add_kernel(lowered);
    }
    Ok(program)
}

fn ir_ty(ty: SrcTy) -> ir::Ty {
    match ty {
        SrcTy::Float => ir::Ty::F32,
        SrcTy::Int => ir::Ty::I32,
        SrcTy::Uint => ir::Ty::U32,
        SrcTy::Bool => ir::Ty::Bool,
    }
}

#[derive(Debug, Clone, Copy)]
enum Sym {
    ScalarParam(usize, SrcTy),
    BufferParam(usize, SrcTy),
    Shared(ir::SharedId, SrcTy),
    Local(ir::VarId, SrcTy),
}

struct Lowerer<'u> {
    unit: &'u Unit,
    func_ids: &'u HashMap<String, (ir::FuncId, usize)>,
    /// Name → symbol, innermost last (lookup scans from the end).
    scope: Vec<(String, Sym)>,
    locals: Vec<ir::LocalDecl>,
    in_kernel: bool,
}

impl Lowerer<'_> {
    fn lookup(&self, name: &str) -> Option<Sym> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    fn declare_local(&mut self, name: &str, ty: SrcTy) -> ir::VarId {
        let id = ir::VarId(self.locals.len() as u32);
        self.locals.push(ir::LocalDecl {
            name: name.to_string(),
            ty: ir_ty(ty),
        });
        self.scope.push((name.to_string(), Sym::Local(id, ty)));
        id
    }

    /// Numeric promotion: coerce `expr` (of type `from`) to `to`.
    fn coerce(&self, expr: IrExpr, from: SrcTy, to: SrcTy, pos: Pos) -> Result<IrExpr, LangError> {
        if from == to {
            return Ok(expr);
        }
        match (from, to) {
            (SrcTy::Bool, _) | (_, SrcTy::Bool) => Err(LangError::new(
                pos,
                "no implicit conversion between bool and numeric types",
            )),
            _ => Ok(IrExpr::Cast(ir_ty(to), Box::new(expr))),
        }
    }

    /// C-style usual arithmetic conversions for a binary operation.
    fn promote(
        &self,
        a: (IrExpr, SrcTy),
        b: (IrExpr, SrcTy),
        pos: Pos,
    ) -> Result<(IrExpr, IrExpr, SrcTy), LangError> {
        let rank = |t: SrcTy| match t {
            SrcTy::Bool => 0,
            SrcTy::Int => 1,
            SrcTy::Uint => 2,
            SrcTy::Float => 3,
        };
        let common = if rank(a.1) >= rank(b.1) { a.1 } else { b.1 };
        if (a.1 == SrcTy::Bool) != (b.1 == SrcTy::Bool) {
            return Err(LangError::new(pos, "cannot mix bool and numeric operands"));
        }
        let ea = self.coerce(a.0, a.1, common, pos)?;
        let eb = self.coerce(b.0, b.1, common, pos)?;
        Ok((ea, eb, common))
    }

    fn mem_ref(&self, base: &str, pos: Pos) -> Result<(ir::MemRef, SrcTy), LangError> {
        match self.lookup(base) {
            Some(Sym::BufferParam(i, ty)) => Ok((ir::MemRef::Param(i), ty)),
            Some(Sym::Shared(id, ty)) => Ok((ir::MemRef::Shared(id), ty)),
            Some(_) => Err(LangError::new(pos, format!("`{base}` is not an array"))),
            None => Err(LangError::new(pos, format!("unknown array `{base}`"))),
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self, e: &Expr, pos: Pos) -> Result<(IrExpr, SrcTy), LangError> {
        match e {
            Expr::Int(v) => {
                let v32 = i32::try_from(*v)
                    .map_err(|_| LangError::new(pos, "integer literal out of range"))?;
                Ok((IrExpr::i32(v32), SrcTy::Int))
            }
            Expr::Float(v) => Ok((IrExpr::f32(*v), SrcTy::Float)),
            Expr::Bool(v) => Ok((IrExpr::bool(*v), SrcTy::Bool)),
            Expr::Ident(name) => match self.lookup(name) {
                Some(Sym::Local(id, ty)) => Ok((IrExpr::Var(id), ty)),
                Some(Sym::ScalarParam(i, ty)) => Ok((IrExpr::Param(i), ty)),
                Some(Sym::BufferParam(..)) => Err(LangError::new(
                    pos,
                    format!("array `{name}` used without an index"),
                )),
                Some(Sym::Shared(..)) => Err(LangError::new(
                    pos,
                    format!("shared array `{name}` used without an index"),
                )),
                None => Err(LangError::new(pos, format!("unknown identifier `{name}`"))),
            },
            Expr::Special(base, axis) => {
                if !self.in_kernel {
                    return Err(LangError::new(
                        pos,
                        "thread specials are not allowed in __device__ functions",
                    ));
                }
                use ir::Special as Sp;
                let special = match (base.as_str(), axis) {
                    ("threadIdx", 'x') => Sp::ThreadIdX,
                    ("threadIdx", 'y') => Sp::ThreadIdY,
                    ("blockIdx", 'x') => Sp::BlockIdX,
                    ("blockIdx", 'y') => Sp::BlockIdY,
                    ("blockDim", 'x') => Sp::BlockDimX,
                    ("blockDim", 'y') => Sp::BlockDimY,
                    ("gridDim", 'x') => Sp::GridDimX,
                    ("gridDim", 'y') => Sp::GridDimY,
                    _ => return Err(LangError::new(pos, "unknown special")),
                };
                Ok((IrExpr::Special(special), SrcTy::Int))
            }
            Expr::Unary(op, a) => {
                let (ea, ta) = self.expr(a, pos)?;
                match *op {
                    "-" => {
                        if ta == SrcTy::Bool {
                            return Err(LangError::new(pos, "cannot negate a bool"));
                        }
                        Ok((-ea, ta))
                    }
                    "!" => {
                        if ta != SrcTy::Bool {
                            return Err(LangError::new(pos, "`!` needs a bool operand"));
                        }
                        Ok((!ea, ta))
                    }
                    "~" => {
                        if !matches!(ta, SrcTy::Int | SrcTy::Uint) {
                            return Err(LangError::new(pos, "`~` needs an integer operand"));
                        }
                        Ok((!ea, ta))
                    }
                    _ => unreachable!("parser produces only -, !, ~"),
                }
            }
            Expr::Binary(op, a, b) => {
                let ea = self.expr(a, pos)?;
                let eb = self.expr(b, pos)?;
                self.binary(op, ea, eb, pos)
            }
            Expr::Ternary(c, t, f) => {
                let (ec, tc) = self.expr(c, pos)?;
                if tc != SrcTy::Bool {
                    return Err(LangError::new(pos, "ternary condition must be bool"));
                }
                let et = self.expr(t, pos)?;
                let ef = self.expr(f, pos)?;
                let (et, ef, ty) = self.promote(et, ef, pos)?;
                Ok((ec.select(et, ef), ty))
            }
            Expr::Cast(ty, a) => {
                let (ea, _) = self.expr(a, pos)?;
                Ok((IrExpr::Cast(ir_ty(*ty), Box::new(ea)), *ty))
            }
            Expr::Index(base, idx) => {
                let (mem, elem_ty) = self.mem_ref(base, pos)?;
                let (ei, ti) = self.expr(idx, pos)?;
                let ei = match ti {
                    SrcTy::Int => ei,
                    SrcTy::Uint => IrExpr::Cast(ir::Ty::I32, Box::new(ei)),
                    _ => return Err(LangError::new(pos, "array index must be an integer")),
                };
                Ok((
                    IrExpr::Load {
                        mem,
                        index: Box::new(ei),
                    },
                    elem_ty,
                ))
            }
            Expr::Call(name, args) => self.call(name, args, pos),
        }
    }

    fn binary(
        &mut self,
        op: &str,
        a: (IrExpr, SrcTy),
        b: (IrExpr, SrcTy),
        pos: Pos,
    ) -> Result<(IrExpr, SrcTy), LangError> {
        use ir::BinOp;
        match op {
            "+" | "-" | "*" | "/" | "%" => {
                let (ea, eb, ty) = self.promote(a, b, pos)?;
                if ty == SrcTy::Bool {
                    return Err(LangError::new(pos, "arithmetic on bool"));
                }
                let bin = match op {
                    "+" => BinOp::Add,
                    "-" => BinOp::Sub,
                    "*" => BinOp::Mul,
                    "/" => BinOp::Div,
                    _ => BinOp::Rem,
                };
                Ok((IrExpr::Binary(bin, Box::new(ea), Box::new(eb)), ty))
            }
            "<" | "<=" | ">" | ">=" | "==" | "!=" => {
                let (ea, eb, _) = self.promote(a, b, pos)?;
                let e = match op {
                    "<" => ea.lt(eb),
                    "<=" => ea.le(eb),
                    ">" => ea.gt(eb),
                    ">=" => ea.ge(eb),
                    "==" => ea.eq_(eb),
                    _ => ea.ne_(eb),
                };
                Ok((e, SrcTy::Bool))
            }
            "&&" | "||" => {
                if a.1 != SrcTy::Bool || b.1 != SrcTy::Bool {
                    return Err(LangError::new(pos, "logical operators need bool operands"));
                }
                let e = if op == "&&" { a.0 & b.0 } else { a.0 | b.0 };
                Ok((e, SrcTy::Bool))
            }
            "&" | "|" | "^" => {
                let (ea, eb, ty) = self.promote(a, b, pos)?;
                if ty == SrcTy::Float {
                    return Err(LangError::new(
                        pos,
                        "bitwise operators need integer operands",
                    ));
                }
                let e = match op {
                    "&" => ea & eb,
                    "|" => ea | eb,
                    _ => ea ^ eb,
                };
                Ok((e, ty))
            }
            "<<" | ">>" => {
                let (ea, eb, ty) = self.promote(a, b, pos)?;
                if !matches!(ty, SrcTy::Int | SrcTy::Uint) {
                    return Err(LangError::new(pos, "shifts need integer operands"));
                }
                let e = if op == "<<" { ea << eb } else { ea >> eb };
                Ok((e, ty))
            }
            other => Err(LangError::new(
                pos,
                format!("unsupported operator `{other}`"),
            )),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], pos: Pos) -> Result<(IrExpr, SrcTy), LangError> {
        use ir::UnOp;
        // Unary float builtins.
        let unary = |op: UnOp| -> Option<UnOp> { Some(op) };
        let builtin_unary = match name {
            "expf" | "exp" => unary(UnOp::Exp),
            "logf" | "log" => unary(UnOp::Log),
            "sqrtf" | "sqrt" => unary(UnOp::Sqrt),
            "rsqrtf" | "rsqrt" => unary(UnOp::Rsqrt),
            "sinf" | "sin" => unary(UnOp::Sin),
            "cosf" | "cos" => unary(UnOp::Cos),
            "fabsf" | "fabs" | "abs" => unary(UnOp::Abs),
            "floorf" | "floor" => unary(UnOp::Floor),
            _ => None,
        };
        if let Some(op) = builtin_unary {
            if args.len() != 1 {
                return Err(LangError::new(pos, format!("`{name}` takes one argument")));
            }
            let (ea, ta) = self.expr(&args[0], pos)?;
            // `abs` keeps integer type; the float builtins require floats.
            if name == "abs" || (name.starts_with("fabs") && ta != SrcTy::Float) {
                if !matches!(ta, SrcTy::Int | SrcTy::Float) {
                    return Err(LangError::new(pos, "`abs` needs a numeric argument"));
                }
                return Ok((IrExpr::Unary(UnOp::Abs, Box::new(ea)), ta));
            }
            let ea = self.coerce(ea, ta, SrcTy::Float, pos)?;
            return Ok((IrExpr::Unary(op, Box::new(ea)), SrcTy::Float));
        }
        // Binary builtins.
        if matches!(name, "fminf" | "fmaxf" | "min" | "max" | "powf" | "pow") {
            if args.len() != 2 {
                return Err(LangError::new(pos, format!("`{name}` takes two arguments")));
            }
            let ea = self.expr(&args[0], pos)?;
            let eb = self.expr(&args[1], pos)?;
            let (ea, eb, mut ty) = self.promote(ea, eb, pos)?;
            let (mut ea, mut eb) = (ea, eb);
            if name.starts_with('f') || name.starts_with("pow") {
                ea = self.coerce(ea, ty, SrcTy::Float, pos)?;
                eb = self.coerce(eb, ty, SrcTy::Float, pos)?;
                ty = SrcTy::Float;
            }
            let e = match name {
                "fminf" | "min" => ea.min(eb),
                "fmaxf" | "max" => ea.max(eb),
                _ => ea.pow(eb),
            };
            return Ok((e, ty));
        }
        // User device function.
        let Some(&(func_id, decl_idx)) = self.func_ids.get(name) else {
            return Err(LangError::new(pos, format!("unknown function `{name}`")));
        };
        let decl = &self.unit.functions[decl_idx];
        if args.len() != decl.params.len() {
            return Err(LangError::new(
                pos,
                format!(
                    "`{name}` takes {} arguments, {} given",
                    decl.params.len(),
                    args.len()
                ),
            ));
        }
        let mut lowered = Vec::with_capacity(args.len());
        for (arg, param) in args.iter().zip(&decl.params) {
            let (ea, ta) = self.expr(arg, pos)?;
            lowered.push(self.coerce(ea, ta, param.ty, pos)?);
        }
        Ok((
            IrExpr::Call {
                func: func_id,
                args: lowered,
            },
            decl.ret,
        ))
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self, stmts: &[Stmt], out: &mut Vec<ir::Stmt>) -> Result<(), LangError> {
        let scope_mark = self.scope.len();
        for stmt in stmts {
            self.stmt(stmt, out)?;
        }
        self.scope.truncate(scope_mark);
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt, out: &mut Vec<ir::Stmt>) -> Result<(), LangError> {
        match stmt {
            Stmt::Decl { ty, name, init } => {
                let (e, te) = self.expr(&init.expr, init.pos)?;
                let e = self.coerce(e, te, *ty, init.pos)?;
                let var = self.declare_local(name, *ty);
                out.push(ir::Stmt::Let { var, init: e });
                Ok(())
            }
            Stmt::Assign { name, op, value } => {
                let (var, ty) = match self.lookup(name) {
                    Some(Sym::Local(v, t)) => (v, t),
                    Some(_) => {
                        return Err(LangError::new(
                            value.pos,
                            format!("cannot assign to `{name}` (not a local variable)"),
                        ))
                    }
                    None => {
                        return Err(LangError::new(
                            value.pos,
                            format!("unknown variable `{name}`"),
                        ))
                    }
                };
                let (e, te) = self.expr(&value.expr, value.pos)?;
                let rhs = if op.is_empty() {
                    self.coerce(e, te, ty, value.pos)?
                } else {
                    let (combined, tc) =
                        self.binary(op, (IrExpr::Var(var), ty), (e, te), value.pos)?;
                    self.coerce(combined, tc, ty, value.pos)?
                };
                out.push(ir::Stmt::Assign { var, value: rhs });
                Ok(())
            }
            Stmt::Store { base, index, value } => {
                let (mem, elem_ty) = self.mem_ref(base, index.pos)?;
                let (ei, ti) = self.expr(&index.expr, index.pos)?;
                let ei = match ti {
                    SrcTy::Int => ei,
                    SrcTy::Uint => IrExpr::Cast(ir::Ty::I32, Box::new(ei)),
                    _ => return Err(LangError::new(index.pos, "array index must be an integer")),
                };
                let (ev, tv) = self.expr(&value.expr, value.pos)?;
                let ev = self.coerce(ev, tv, elem_ty, value.pos)?;
                out.push(ir::Stmt::Store {
                    mem,
                    index: ei,
                    value: ev,
                });
                Ok(())
            }
            Stmt::Atomic {
                name,
                base,
                index,
                value,
                pos,
            } => {
                let op = match name.as_str() {
                    "atomicAdd" => ir::AtomicOp::Add,
                    "atomicMin" => ir::AtomicOp::Min,
                    "atomicMax" => ir::AtomicOp::Max,
                    "atomicInc" => ir::AtomicOp::Inc,
                    "atomicAnd" => ir::AtomicOp::And,
                    "atomicOr" => ir::AtomicOp::Or,
                    "atomicXor" => ir::AtomicOp::Xor,
                    other => return Err(LangError::new(*pos, format!("unknown atomic `{other}`"))),
                };
                let (mem, elem_ty) = self.mem_ref(base, *pos)?;
                let (ei, ti) = self.expr(&index.expr, index.pos)?;
                let ei = match ti {
                    SrcTy::Int => ei,
                    SrcTy::Uint => IrExpr::Cast(ir::Ty::I32, Box::new(ei)),
                    _ => return Err(LangError::new(index.pos, "array index must be an integer")),
                };
                let (ev, tv) = self.expr(&value.expr, value.pos)?;
                let ev = self.coerce(ev, tv, elem_ty, value.pos)?;
                out.push(ir::Stmt::Atomic {
                    op,
                    mem,
                    index: ei,
                    value: ev,
                });
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (ec, tc) = self.expr(&cond.expr, cond.pos)?;
                if tc != SrcTy::Bool {
                    return Err(LangError::new(cond.pos, "if condition must be bool"));
                }
                let mut then_ir = Vec::new();
                self.block(then_body, &mut then_ir)?;
                let mut else_ir = Vec::new();
                self.block(else_body, &mut else_ir)?;
                out.push(ir::Stmt::If {
                    cond: ec,
                    then_body: then_ir,
                    else_body: else_ir,
                });
                Ok(())
            }
            Stmt::For {
                var,
                init,
                cmp,
                bound,
                update,
                amount,
                body,
            } => {
                let (ei, ti) = self.expr(&init.expr, init.pos)?;
                let ei = self.coerce(ei, ti, SrcTy::Int, init.pos)?;
                let (eb, tb) = self.expr(&bound.expr, bound.pos)?;
                let eb = self.coerce(eb, tb, SrcTy::Int, bound.pos)?;
                let (ea, ta) = self.expr(&amount.expr, amount.pos)?;
                let ea = self.coerce(ea, ta, SrcTy::Int, amount.pos)?;
                let scope_mark = self.scope.len();
                let loop_var = self.declare_local(var, SrcTy::Int);
                let cond = match cmp.as_str() {
                    "<" => ir::LoopCond::Lt(eb),
                    "<=" => ir::LoopCond::Le(eb),
                    ">" => ir::LoopCond::Gt(eb),
                    _ => ir::LoopCond::Ge(eb),
                };
                let step = match update.as_str() {
                    "+=" => ir::LoopStep::Add(ea),
                    "-=" => ir::LoopStep::Sub(ea),
                    "*=" => ir::LoopStep::Mul(ea),
                    "<<=" => ir::LoopStep::Shl(ea),
                    _ => ir::LoopStep::Shr(ea),
                };
                let mut body_ir = Vec::new();
                self.block(body, &mut body_ir)?;
                self.scope.truncate(scope_mark);
                out.push(ir::Stmt::For {
                    var: loop_var,
                    init: ei,
                    cond,
                    step,
                    body: body_ir,
                });
                Ok(())
            }
            Stmt::Sync(pos) => {
                if !self.in_kernel {
                    return Err(LangError::new(
                        *pos,
                        "__syncthreads() is not allowed in __device__ functions",
                    ));
                }
                out.push(ir::Stmt::Sync);
                Ok(())
            }
            Stmt::Return(e) => {
                let (ee, _) = self.expr(&e.expr, e.pos)?;
                out.push(ir::Stmt::Return(ee));
                Ok(())
            }
        }
    }
}

fn lower_function(
    f: &DeviceFn,
    unit: &Unit,
    func_ids: &HashMap<String, (ir::FuncId, usize)>,
) -> Result<ir::Func, LangError> {
    let mut lowerer = Lowerer {
        unit,
        func_ids,
        scope: Vec::new(),
        locals: Vec::new(),
        in_kernel: false,
    };
    let mut params = Vec::new();
    for (i, p) in f.params.iter().enumerate() {
        if p.is_pointer {
            return Err(LangError::new(
                f.pos,
                "__device__ functions take scalar parameters only",
            ));
        }
        params.push(ir::Param::Scalar {
            name: p.name.clone(),
            ty: ir_ty(p.ty),
        });
        lowerer
            .scope
            .push((p.name.clone(), Sym::ScalarParam(i, p.ty)));
    }
    let mut body = Vec::new();
    lowerer.block(&f.body, &mut body)?;
    Ok(ir::Func {
        name: f.name.clone(),
        params,
        ret: ir_ty(f.ret),
        locals: lowerer.locals,
        body,
    })
}

fn lower_kernel(
    k: &KernelFn,
    unit: &Unit,
    func_ids: &HashMap<String, (ir::FuncId, usize)>,
) -> Result<ir::Kernel, LangError> {
    let mut lowerer = Lowerer {
        unit,
        func_ids,
        scope: Vec::new(),
        locals: Vec::new(),
        in_kernel: true,
    };
    let mut params = Vec::new();
    for (i, p) in k.params.iter().enumerate() {
        if p.is_pointer {
            params.push(ir::Param::Buffer {
                name: p.name.clone(),
                ty: ir_ty(p.ty),
                space: if p.is_constant {
                    ir::MemSpace::Constant
                } else {
                    ir::MemSpace::Global
                },
            });
            lowerer
                .scope
                .push((p.name.clone(), Sym::BufferParam(i, p.ty)));
        } else {
            params.push(ir::Param::Scalar {
                name: p.name.clone(),
                ty: ir_ty(p.ty),
            });
            lowerer
                .scope
                .push((p.name.clone(), Sym::ScalarParam(i, p.ty)));
        }
    }
    let mut shared = Vec::new();
    for (s_idx, s) in k.shared.iter().enumerate() {
        shared.push(ir::SharedDecl {
            name: s.name.clone(),
            ty: ir_ty(s.ty),
            len: s.len,
        });
        lowerer.scope.push((
            s.name.clone(),
            Sym::Shared(ir::SharedId(s_idx as u32), s.ty),
        ));
    }
    let mut body = Vec::new();
    lowerer.block(&k.body, &mut body)?;
    Ok(ir::Kernel {
        name: k.name.clone(),
        params,
        shared,
        locals: lowerer.locals,
        body,
    })
}
