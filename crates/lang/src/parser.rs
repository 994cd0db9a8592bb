//! Recursive-descent parser with precedence climbing.

use crate::ast::*;
use crate::error::{LangError, Pos};
use crate::lexer::{Tok, Token};

/// Parse `tokens`; `end` is where an unexpected end of input is reported.
pub(crate) fn parse(tokens: &[Token], end: Pos) -> Result<Unit, LangError> {
    let mut p = Parser {
        tokens,
        end,
        i: 0,
        depth: 0,
    };
    let mut unit = Unit::default();
    while !p.at_end() {
        let pos = p.pos();
        let qualifier = p.expect_any_ident()?;
        match qualifier.as_str() {
            "__device__" => unit.functions.push(p.device_fn(pos)?),
            "__global__" => unit.kernels.push(p.kernel_fn(pos)?),
            other => {
                return Err(LangError::new(
                    pos,
                    format!("expected `__device__` or `__global__`, found `{other}`"),
                ))
            }
        }
    }
    Ok(unit)
}

struct Parser<'t> {
    tokens: &'t [Token],
    /// Position just past the last character of the source.
    end: Pos,
    i: usize,
    /// Current expression-nesting depth (see [`MAX_EXPR_DEPTH`]).
    depth: u32,
}

/// Maximum expression nesting. Recursive descent uses stack frames
/// proportional to nesting; the cap turns pathological inputs into a clean
/// error instead of a stack overflow (debug builds have large frames).
const MAX_EXPR_DEPTH: u32 = 96;

impl Parser<'_> {
    fn at_end(&self) -> bool {
        self.i >= self.tokens.len()
    }

    fn pos(&self) -> Pos {
        self.tokens.get(self.i).map_or(self.end, |t| t.pos)
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.i).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.i + 1).map(|t| &t.tok)
    }

    /// Whether the token after the current one starts right where the
    /// current one-character token ends.
    fn next_is_adjacent(&self) -> bool {
        match (self.tokens.get(self.i), self.tokens.get(self.i + 1)) {
            (Some(a), Some(b)) => a.pos.line == b.pos.line && a.pos.col + 1 == b.pos.col,
            _ => false,
        }
    }

    fn bump(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.i);
        self.i += 1;
        t
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Punct(q)) if *q == p) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), LangError> {
        let pos = self.pos();
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(LangError::new(
                pos,
                format!("expected `{p}`, found {}", self.describe()),
            ))
        }
    }

    fn describe(&self) -> String {
        match self.peek() {
            Some(Tok::Ident(s)) => format!("`{s}`"),
            Some(Tok::Int(v)) => format!("`{v}`"),
            Some(Tok::Float(v)) => format!("`{v}`"),
            Some(Tok::Punct(p)) => format!("`{p}`"),
            None => "end of input".to_string(),
        }
    }

    fn expect_any_ident(&mut self) -> Result<String, LangError> {
        let pos = self.pos();
        match self.bump().map(|t| t.tok.clone()) {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(LangError::new(pos, "expected identifier")),
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == word) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn peek_ty(&self) -> Option<SrcTy> {
        match self.peek() {
            Some(Tok::Ident(s)) => ty_of(s),
            _ => None,
        }
    }

    fn expect_ty(&mut self) -> Result<SrcTy, LangError> {
        let pos = self.pos();
        let name = self.expect_any_ident()?;
        ty_of(&name).ok_or_else(|| LangError::new(pos, format!("expected a type, found `{name}`")))
    }

    // ---- declarations ---------------------------------------------------

    fn params(&mut self) -> Result<Vec<ParamDecl>, LangError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let is_constant = self.eat_ident("__constant__") || self.eat_ident("const");
                let ty = self.expect_ty()?;
                let is_pointer = self.eat_punct("*");
                let name = self.expect_any_ident()?;
                params.push(ParamDecl {
                    name,
                    ty,
                    is_pointer,
                    is_constant,
                });
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(params)
    }

    fn device_fn(&mut self, pos: Pos) -> Result<DeviceFn, LangError> {
        let ret = self.expect_ty()?;
        let name = self.expect_any_ident()?;
        let params = self.params()?;
        let body = self.block()?;
        Ok(DeviceFn {
            name,
            ret,
            params,
            body,
            pos,
        })
    }

    fn kernel_fn(&mut self, pos: Pos) -> Result<KernelFn, LangError> {
        let void_pos = self.pos();
        let kw = self.expect_any_ident()?;
        if kw != "void" {
            return Err(LangError::new(void_pos, "kernels must return `void`"));
        }
        let name = self.expect_any_ident()?;
        let params = self.params()?;
        self.expect_punct("{")?;
        let mut shared = Vec::new();
        let mut body = Vec::new();
        while !self.eat_punct("}") {
            if self.eat_ident("__shared__") {
                let ty = self.expect_ty()?;
                let sname = self.expect_any_ident()?;
                self.expect_punct("[")?;
                let len_pos = self.pos();
                let len = match self.bump().map(|t| t.tok.clone()) {
                    Some(Tok::Int(v)) if v > 0 => v as usize,
                    _ => {
                        return Err(LangError::new(
                            len_pos,
                            "shared array length must be a positive integer literal",
                        ))
                    }
                };
                self.expect_punct("]")?;
                self.expect_punct(";")?;
                shared.push(SharedDecl {
                    name: sname,
                    ty,
                    len,
                });
            } else {
                body.push(self.stmt()?);
            }
        }
        Ok(KernelFn {
            name,
            params,
            shared,
            body,
            pos,
        })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect_punct("{")?;
        let mut out = Vec::new();
        while !self.eat_punct("}") {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    // ---- statements ------------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let pos = self.pos();
        // Declarations.
        if self.peek_ty().is_some() && matches!(self.peek2(), Some(Tok::Ident(_))) {
            let ty = self.expect_ty()?;
            let name = self.expect_any_ident()?;
            self.expect_punct("=")?;
            let init = self.spanned_expr()?;
            self.expect_punct(";")?;
            return Ok(Stmt::Decl { ty, name, init });
        }
        match self.peek() {
            Some(Tok::Ident(word)) => match word.as_str() {
                "if" => self.if_stmt(),
                "for" => self.for_stmt(),
                "return" => {
                    self.i += 1;
                    let e = self.spanned_expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Return(e))
                }
                "__syncthreads" => {
                    self.i += 1;
                    self.expect_punct("(")?;
                    self.expect_punct(")")?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Sync(pos))
                }
                name if name.starts_with("atomic") => {
                    let name = name.to_string();
                    self.i += 1;
                    self.expect_punct("(")?;
                    self.expect_punct("&")?;
                    let base = self.expect_any_ident()?;
                    self.expect_punct("[")?;
                    let index = self.spanned_expr()?;
                    self.expect_punct("]")?;
                    self.expect_punct(",")?;
                    let value = self.spanned_expr()?;
                    self.expect_punct(")")?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Atomic {
                        name,
                        base,
                        index,
                        value,
                        pos,
                    })
                }
                _ => self.assign_or_store(),
            },
            _ => Err(LangError::new(
                pos,
                format!("expected a statement, found {}", self.describe()),
            )),
        }
    }

    fn assign_or_store(&mut self) -> Result<Stmt, LangError> {
        let name = self.expect_any_ident()?;
        if self.eat_punct("[") {
            let index = self.spanned_expr()?;
            self.expect_punct("]")?;
            // Compound array stores desugar to read-modify-write.
            let pos = self.pos();
            let op = self.assign_op()?;
            let value = self.spanned_expr()?;
            self.expect_punct(";")?;
            let value = if op.is_empty() {
                value
            } else {
                SpannedExpr {
                    pos: value.pos,
                    expr: Expr::Binary(
                        leak_op(&op),
                        Box::new(Expr::Index(name.clone(), Box::new(index.expr.clone()))),
                        Box::new(value.expr),
                    ),
                }
            };
            let _ = pos;
            return Ok(Stmt::Store {
                base: name,
                index,
                value,
            });
        }
        let op = self.assign_op()?;
        let value = self.spanned_expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Assign { name, op, value })
    }

    /// Consume `=`, or a compound-assignment operator returning its base op.
    fn assign_op(&mut self) -> Result<String, LangError> {
        for (tok, base) in [
            ("+=", "+"),
            ("-=", "-"),
            ("*=", "*"),
            ("/=", "/"),
            ("%=", "%"),
            ("|=", "|"),
            ("&=", "&"),
            ("^=", "^"),
            ("<<=", "<<"),
            (">>=", ">>"),
        ] {
            if self.eat_punct(tok) {
                return Ok(base.to_string());
            }
        }
        self.expect_punct("=")?;
        Ok(String::new())
    }

    fn if_stmt(&mut self) -> Result<Stmt, LangError> {
        self.i += 1; // `if`
        self.expect_punct("(")?;
        let cond = self.spanned_expr()?;
        self.expect_punct(")")?;
        let then_body = self.block()?;
        let else_body = if self.eat_ident("else") {
            if matches!(self.peek(), Some(Tok::Ident(s)) if s == "if") {
                vec![self.if_stmt()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If {
            cond,
            then_body,
            else_body,
        })
    }

    fn for_stmt(&mut self) -> Result<Stmt, LangError> {
        self.i += 1; // `for`
        self.expect_punct("(")?;
        let ty_pos = self.pos();
        let ty = self.expect_ty()?;
        if ty != SrcTy::Int {
            return Err(LangError::new(ty_pos, "loop variables must be `int`"));
        }
        let var = self.expect_any_ident()?;
        self.expect_punct("=")?;
        let init = self.spanned_expr()?;
        self.expect_punct(";")?;
        let var2_pos = self.pos();
        let var2 = self.expect_any_ident()?;
        if var2 != var {
            return Err(LangError::new(
                var2_pos,
                "loop condition must test the loop variable",
            ));
        }
        let cmp_pos = self.pos();
        let cmp = ["<", "<=", ">", ">="]
            .into_iter()
            .find(|c| self.eat_punct(c))
            .ok_or_else(|| LangError::new(cmp_pos, "expected `<`, `<=`, `>`, or `>=`"))?
            .to_string();
        let bound = self.spanned_expr()?;
        self.expect_punct(";")?;
        let var3_pos = self.pos();
        // Update clause: `i++`, `++i`, `i--`, or `i OP= amount`.
        let (update, amount) = if self.eat_punct("++") {
            let v = self.expect_any_ident()?;
            if v != var {
                return Err(LangError::new(
                    var3_pos,
                    "update must modify the loop variable",
                ));
            }
            (
                "+=".to_string(),
                SpannedExpr {
                    expr: Expr::Int(1),
                    pos: var3_pos,
                },
            )
        } else {
            let v = self.expect_any_ident()?;
            if v != var {
                return Err(LangError::new(
                    var3_pos,
                    "update must modify the loop variable",
                ));
            }
            if self.eat_punct("++") {
                (
                    "+=".to_string(),
                    SpannedExpr {
                        expr: Expr::Int(1),
                        pos: var3_pos,
                    },
                )
            } else if self.eat_punct("--") {
                (
                    "-=".to_string(),
                    SpannedExpr {
                        expr: Expr::Int(1),
                        pos: var3_pos,
                    },
                )
            } else {
                let op_pos = self.pos();
                let op = ["+=", "-=", "*=", "<<=", ">>="]
                    .into_iter()
                    .find(|c| self.eat_punct(c))
                    .ok_or_else(|| {
                        LangError::new(op_pos, "expected `+=`, `-=`, `*=`, `<<=`, or `>>=`")
                    })?
                    .to_string();
                (op, self.spanned_expr()?)
            }
        };
        self.expect_punct(")")?;
        let body = self.block()?;
        Ok(Stmt::For {
            var,
            init,
            cmp,
            bound,
            update,
            amount,
            body,
        })
    }

    // ---- expressions -----------------------------------------------------

    fn spanned_expr(&mut self) -> Result<SpannedExpr, LangError> {
        let pos = self.pos();
        let expr = self.ternary()?;
        Ok(SpannedExpr { expr, pos })
    }

    fn ternary(&mut self) -> Result<Expr, LangError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            self.depth -= 1;
            return Err(LangError::new(
                self.pos(),
                format!("expression nesting exceeds {MAX_EXPR_DEPTH} levels"),
            ));
        }
        let result = self.ternary_inner();
        self.depth -= 1;
        result
    }

    fn ternary_inner(&mut self) -> Result<Expr, LangError> {
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let t = self.ternary()?;
            self.expect_punct(":")?;
            let f = self.ternary()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)))
        } else {
            Ok(cond)
        }
    }

    /// Precedence climbing: a left-associative chain of operators at
    /// `min_level` or tighter.
    fn binary(&mut self, min_level: u8) -> Result<Expr, LangError> {
        let mut lhs = self.unary()?;
        while let Some((op, level)) = self.peek_binary_op() {
            if level < min_level {
                break;
            }
            self.i += 1;
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// The binary operator at the cursor and its precedence level,
    /// loosest (`||`) first.
    fn peek_binary_op(&self) -> Option<(&'static str, u8)> {
        let Some(Tok::Punct(op)) = self.peek() else {
            return None;
        };
        let level = match *op {
            "||" => 0,
            "&&" => 1,
            "|" => 2,
            "^" => 3,
            "&" => 4,
            "==" | "!=" => 5,
            "<" | "<=" | ">" | ">=" => 6,
            "<<" | ">>" => 7,
            "+" | "-" => 8,
            "*" | "/" | "%" => 9,
            _ => return None,
        };
        Some((op, level))
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        // A `-` directly before a numeric literal, with no space between,
        // is part of the literal: `-2.0f` is the constant -2.0, while
        // `- 2.0f` and `-(2.0f)` stay negations.
        if matches!(self.peek(), Some(Tok::Punct("-"))) && self.next_is_adjacent() {
            let literal = match self.peek2() {
                Some(Tok::Int(v)) => Some(Expr::Int(-v)),
                Some(Tok::Float(v)) => Some(Expr::Float(-v)),
                _ => None,
            };
            if let Some(literal) = literal {
                self.i += 2;
                return Ok(literal);
            }
        }
        for (tok, name) in [("-", "-"), ("!", "!"), ("~", "~")] {
            if self.eat_punct(tok) {
                return Ok(Expr::Unary(name, Box::new(self.unary()?)));
            }
        }
        // Cast: `(` type `)` unary.
        if matches!(self.peek(), Some(Tok::Punct("(")))
            && matches!(self.peek2(), Some(Tok::Ident(s)) if ty_of(s).is_some())
            && matches!(
                self.tokens.get(self.i + 2).map(|t| &t.tok),
                Some(Tok::Punct(")"))
            )
        {
            self.i += 1;
            let ty = self.expect_ty()?;
            self.expect_punct(")")?;
            return Ok(Expr::Cast(ty, Box::new(self.unary()?)));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, LangError> {
        let mut e = self.primary()?;
        loop {
            if self.eat_punct("[") {
                let idx = self.ternary()?;
                self.expect_punct("]")?;
                let base = match e {
                    Expr::Ident(name) => name,
                    _ => {
                        return Err(LangError::new(
                            self.pos(),
                            "only named arrays can be indexed",
                        ))
                    }
                };
                e = Expr::Index(base, Box::new(idx));
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, LangError> {
        let pos = self.pos();
        match self.bump().map(|t| t.tok.clone()) {
            Some(Tok::Int(v)) => Ok(Expr::Int(v)),
            Some(Tok::Float(v)) => Ok(Expr::Float(v)),
            Some(Tok::Punct("(")) => {
                let e = self.ternary()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => match name.as_str() {
                "true" => Ok(Expr::Bool(true)),
                "false" => Ok(Expr::Bool(false)),
                "threadIdx" | "blockIdx" | "blockDim" | "gridDim" => {
                    self.expect_punct(".")?;
                    let axis_pos = self.pos();
                    let axis = self.expect_any_ident()?;
                    let axis_char = match axis.as_str() {
                        "x" => 'x',
                        "y" => 'y',
                        _ => {
                            return Err(LangError::new(
                                axis_pos,
                                "only `.x` and `.y` axes are supported",
                            ))
                        }
                    };
                    Ok(Expr::Special(name, axis_char))
                }
                _ => {
                    if self.eat_punct("(") {
                        let mut args = Vec::new();
                        if !self.eat_punct(")") {
                            loop {
                                args.push(self.ternary()?);
                                if self.eat_punct(")") {
                                    break;
                                }
                                self.expect_punct(",")?;
                            }
                        }
                        Ok(Expr::Call(name, args))
                    } else {
                        Ok(Expr::Ident(name))
                    }
                }
            },
            _ => Err(LangError::new(pos, "expected an expression".to_string())),
        }
    }
}

fn ty_of(name: &str) -> Option<SrcTy> {
    match name {
        "float" => Some(SrcTy::Float),
        "int" => Some(SrcTy::Int),
        "uint" | "unsigned" => Some(SrcTy::Uint),
        "bool" => Some(SrcTy::Bool),
        _ => None,
    }
}

fn leak_op(op: &str) -> &'static str {
    // Compound-assignment base operators are a closed set.
    match op {
        "+" => "+",
        "-" => "-",
        "*" => "*",
        "/" => "/",
        "%" => "%",
        "|" => "|",
        "&" => "&",
        "^" => "^",
        "<<" => "<<",
        ">>" => ">>",
        _ => unreachable!("unknown compound operator"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_str(src: &str) -> Result<Unit, LangError> {
        let (tokens, end) = lex(src).unwrap();
        parse(&tokens, end)
    }

    fn parse_src(src: &str) -> Unit {
        parse_str(src).unwrap()
    }

    #[test]
    fn parses_device_function() {
        let unit = parse_src("__device__ float sq(float x) { return x * x; }");
        assert_eq!(unit.functions.len(), 1);
        let f = &unit.functions[0];
        assert_eq!(f.name, "sq");
        assert_eq!(f.ret, SrcTy::Float);
        assert_eq!(f.params.len(), 1);
        assert!(matches!(f.body[0], Stmt::Return(_)));
    }

    #[test]
    fn parses_kernel_with_params_and_shared() {
        let unit = parse_src(
            r#"__global__ void k(float* in, __constant__ float* coef, int n) {
                __shared__ float tile[64];
                int tid = threadIdx.x;
                tile[tid] = in[tid];
                __syncthreads();
            }"#,
        );
        let k = &unit.kernels[0];
        assert_eq!(k.params.len(), 3);
        assert!(k.params[0].is_pointer && !k.params[0].is_constant);
        assert!(k.params[1].is_pointer && k.params[1].is_constant);
        assert!(!k.params[2].is_pointer);
        assert_eq!(k.shared.len(), 1);
        assert_eq!(k.shared[0].len, 64);
        assert_eq!(k.body.len(), 3);
    }

    #[test]
    fn precedence_is_c_like() {
        let unit = parse_src("__device__ float f(float a, float b) { return a + b * 2.0f; }");
        let Stmt::Return(e) = &unit.functions[0].body[0] else {
            panic!()
        };
        // a + (b * 2)
        assert!(matches!(&e.expr, Expr::Binary("+", _, rhs)
            if matches!(**rhs, Expr::Binary("*", _, _))));
    }

    #[test]
    fn ternary_and_comparison() {
        let unit = parse_src("__device__ float f(float a) { return a >= 0.0f ? a : -a; }");
        let Stmt::Return(e) = &unit.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(e.expr, Expr::Ternary(..)));
    }

    #[test]
    fn for_loop_forms() {
        let unit = parse_src(
            r#"__global__ void k(float* a, int n) {
                for (int i = 0; i < n; i++) { a[i] = 0.0f; }
                for (int d = 1; d < 64; d <<= 1) { __syncthreads(); }
                for (int s = 32; s > 0; s >>= 1) { __syncthreads(); }
            }"#,
        );
        let k = &unit.kernels[0];
        assert_eq!(k.body.len(), 3);
        let Stmt::For { update, .. } = &k.body[0] else {
            panic!()
        };
        assert_eq!(update, "+=");
        let Stmt::For { update, cmp, .. } = &k.body[1] else {
            panic!()
        };
        assert_eq!(update, "<<=");
        assert_eq!(cmp, "<");
        let Stmt::For { update, cmp, .. } = &k.body[2] else {
            panic!()
        };
        assert_eq!(update, ">>=");
        assert_eq!(cmp, ">");
    }

    #[test]
    fn compound_assignment_desugars_on_stores() {
        let unit = parse_src("__global__ void k(float* a) { a[0] += 1.0f; }");
        let Stmt::Store { value, .. } = &unit.kernels[0].body[0] else {
            panic!()
        };
        assert!(matches!(&value.expr, Expr::Binary("+", lhs, _)
            if matches!(**lhs, Expr::Index(..))));
    }

    #[test]
    fn atomics_and_casts() {
        let unit = parse_src(
            r#"__global__ void k(int* counts, float* x) {
                int b = (int)(x[0] * 8.0f);
                atomicAdd(&counts[b], 1);
            }"#,
        );
        let k = &unit.kernels[0];
        assert!(matches!(&k.body[0], Stmt::Decl { init, .. }
            if matches!(init.expr, Expr::Cast(SrcTy::Int, _))));
        assert!(matches!(&k.body[1], Stmt::Atomic { name, .. } if name == "atomicAdd"));
    }

    #[test]
    fn else_if_chains() {
        let unit = parse_src(
            r#"__device__ float f(float x) {
                if (x < 0.0f) { return 0.0f; }
                else if (x > 1.0f) { return 1.0f; }
                else { return x; }
            }"#,
        );
        let Stmt::If { else_body, .. } = &unit.functions[0].body[0] else {
            panic!()
        };
        assert!(matches!(else_body[0], Stmt::If { .. }));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_str("__global__ void k() { int 3 = x; }").unwrap_err();
        assert_eq!(err.pos.line, 1);
        let err = parse_str("__device__ float f() { return 1.0f }").unwrap_err();
        assert!(err.message.contains("expected `;`"), "{}", err.message);
    }

    #[test]
    fn rejects_non_int_loop_variable() {
        let err = parse_str(
            "__global__ void k(float* a) { for (float i = 0.0f; i < 1.0f; i += 1.0f) { } }",
        )
        .unwrap_err();
        assert!(err.message.contains("loop variables"));
    }
}
