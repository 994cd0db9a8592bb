//! Register-machine bytecode backend for the SIMT interpreter.
//!
//! [`compile_kernel`] lowers a [`Kernel`] and every device function it
//! (transitively) calls into one flat instruction stream over numbered
//! virtual registers: control flow becomes resolved jumps, locals and
//! parameters become pre-resolved register/bank slots, constant
//! subexpressions are folded, and adjacent op pairs are fused into
//! superinstructions ([`fuse_pairs`]), all at compile time. The executor
//! ([`execute`]) runs the stream against a preallocated register file of
//! lane vectors that is reused across statements, blocks, and launches —
//! no `Box<Expr>` chasing and almost no per-expression allocation.
//!
//! # Oracle contract
//!
//! The bytecode engine must be **bit-identical** to the tree-walking
//! interpreter in `oracle.rs`: same buffer contents, same simulated cycle
//! counts, same cache statistics, and the same runtime error on invalid
//! programs. Every op therefore charges exactly what the corresponding
//! tree-walker step charges, in an order that preserves all observable
//! state:
//!
//! * memory ops delegate to the same `ExecCtx::do_*` routines, so the
//!   (stateful, order-sensitive) cache/LRU traffic is untouched;
//! * pure compute charges are order-insensitive sums per mask, which is
//!   what makes compile-time constant folding safe: a folded subtree's
//!   charges are re-charged in one [`Op::FoldedConst`] at its use site
//!   under the same mask ([`Op::FoldedConst::lat`]/`count` carry the sum);
//! * compile-time-detectable errors (e.g. `Return` in a kernel body, a
//!   load inside a pure function) become [`Op::Trap`]s placed at the exact
//!   point in evaluation order where the tree-walker would raise them.
//!
//! The single *documented deviation*: unbounded recursion through device
//! functions overflows the host stack in the tree-walker, while the
//! bytecode engine reports [`EvalError::IterationLimit`] at a fixed call
//! depth ([`CALL_DEPTH_LIMIT`]).
//!
//! # Register file layout
//!
//! Registers and masks live in per-frame *windows* of a single growable
//! arena. A kernel frame is `[locals | temps]`; a function frame is
//! `[locals | params | retval | temps]`. Mask windows reserve slot 0 for
//! the frame's base (all-true for kernels, the call mask for functions)
//! and, in function frames, slot 1 for the returned-lanes mask. Operand
//! encodings with the high bit set ([`BANK_FLAG`]) index the constant
//! bank: per-block read-only rows holding literals, scalar kernel
//! arguments, and thread-coordinate specials.

use paraprox_ir::{
    AtomicOp, BinOp, CmpOp, EvalError, Expr, Func, FuncId, Kernel, LoopCond, LoopStep, MemRef,
    Program, Scalar, Special, Stmt, Ty, UnOp,
};

use crate::exec::{ExecCtx, FILLER};
use crate::mask::LaneMask;
use crate::profile::DeviceProfile;
use crate::soa::{
    bin_fast_eligible, bin_needs_divisor_scan, bin_strip, cast_strip, cmp_refine, cmp_strip,
    has_active_zero, split_by, tag_of_ty, tag_ty, un_fast_eligible, un_strip, RegRow, TAG_BOOL,
    TAG_I32, TAG_MIXED,
};

/// Operand encodings at or above this value index the constant bank;
/// below it they are window-relative register numbers.
const BANK_FLAG: u16 = 0x8000;

/// Maximum device-function call depth. The tree-walking oracle recurses on
/// the host stack and would abort the process instead; this engine turns
/// runaway recursion into a reportable error.
const CALL_DEPTH_LIMIT: usize = 1024;

/// A constant-bank entry: a per-block read-only lane row, filled once per
/// block by the executor's prepare step (which charges nothing, exactly
/// like the tree-walker's leaf evaluations).
#[derive(Debug, Clone, Copy)]
enum BankEntry {
    /// A literal: every lane holds the value.
    Const(Scalar),
    /// A scalar kernel argument, resolved from the launch args.
    ScalarParam(usize),
    /// A thread/block coordinate, computed per lane.
    Special(Special),
}

/// Bit-pattern key for float-exact constant deduplication (`NaN` payloads
/// and signed zeroes stay distinct).
fn scalar_key(v: Scalar) -> (Ty, u32) {
    match v {
        Scalar::F32(x) => (Ty::F32, x.to_bits()),
        Scalar::I32(x) => (Ty::I32, x as u32),
        Scalar::U32(x) => (Ty::U32, x),
        Scalar::Bool(x) => (Ty::Bool, u32::from(x)),
    }
}

/// Per-frame register/mask window geometry.
#[derive(Debug, Clone, Copy, Default)]
struct FrameMeta {
    /// Number of local-variable slots (window-relative `0..n_locals`).
    n_locals: u16,
    /// Number of parameter slots (functions only; kernels read scalar
    /// params from the bank).
    n_params: u16,
    /// Total register-window size including temporaries.
    regs: u16,
    /// Total mask-window size including temporaries.
    masks: u16,
}

/// Compiled metadata for one device function.
#[derive(Debug, Clone)]
struct FuncMeta {
    name: String,
    /// Entry pc of the function's body in the shared op stream.
    entry: usize,
    frame: FrameMeta,
    /// Declared parameter types, for the call-site argument type check.
    param_tys: Box<[Ty]>,
}

/// One bytecode instruction.
///
/// `m`/`ml`/`t`/`f`/`base`/`live` are window-relative mask slots;
/// `dst`/`src`/`a`/`b`/`cond`/`idx`/`val`/`bound`/`amount` are operand
/// encodings (register or [`BANK_FLAG`]-tagged bank index); jump targets
/// (`skip*`/`exit`/`head`) are absolute pcs resolved at compile time.
///
/// The `Fused*` variants are superinstructions produced by
/// [`fuse_pairs`]: one dispatch executes both constituent ops
/// back to back with the exact charges, lane loops, and error order of
/// the unfused pair, then advances the pc by two (the second op stays in
/// the stream as unreachable padding so absolute jump targets survive).
#[derive(Debug, Clone)]
enum Op {
    /// Unary compute: charge `unop_lat`, then apply per active lane.
    Unary { m: u16, op: UnOp, dst: u16, a: u16 },
    /// Binary compute: float/int latency resolved from the first active
    /// lane of `a` (matching the tree-walker), then apply per lane.
    Binary {
        m: u16,
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Comparison: charge `alu_lat`, apply per lane.
    Cmp {
        m: u16,
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    /// Type conversion: charge `alu_lat`, cast per lane.
    Cast { m: u16, ty: Ty, dst: u16, a: u16 },
    /// Re-charge a constant-folded subtree (`lat` summed cycles, `count`
    /// folded instructions) and materialize its value at active lanes.
    FoldedConst {
        m: u16,
        dst: u16,
        value: Scalar,
        lat: u64,
        count: u64,
    },
    /// Fail with `UninitializedVar(var)` unless local `local` was written
    /// (by every block with a lane in `m`).
    GuardInit { m: u16, local: u16, var: u32 },
    /// Write `src` into local `local`: full copy on first write (the
    /// tree-walker stores the whole vector), masked copy afterwards.
    StoreLocal { m: u16, local: u16, src: u16 },
    /// `if`: charge branch `alu_lat`, split `m` by `cond` into `t`/`f`,
    /// and jump to `skip_t` (the matching [`Op::IfElse`]) if `t` is empty.
    IfSplit {
        m: u16,
        cond: u16,
        t: u16,
        f: u16,
        skip_t: u32,
    },
    /// End of a then-arm: jump past the else-arm if `f` is empty.
    IfElse { f: u16, skip: u32 },
    /// `select`: like [`Op::IfSplit`] but also clears `dst` to filler.
    SelSplit {
        m: u16,
        cond: u16,
        t: u16,
        f: u16,
        dst: u16,
        skip_t: u32,
    },
    /// Merge one select arm's value into `dst` at the arm's lanes.
    SelMerge { m: u16, dst: u16, src: u16 },
    /// End of a select true-arm: jump past the false-arm if `f` is empty.
    SelElse { f: u16, skip: u32 },
    /// Loop entry: derive the loop mask `ml` from `m` (minus returned
    /// lanes in function frames) and exit if empty.
    ForPrep {
        m: u16,
        ml: u16,
        func: bool,
        exit: u32,
    },
    /// Loop test: charge `alu_lat`, refine `ml` by `var COND bound`, exit
    /// if empty, else consume one launch-wide iteration-budget token.
    ForTest {
        ml: u16,
        local: u16,
        var: u32,
        cmp: CmpOp,
        bound: u16,
        exit: u32,
    },
    /// After a loop body in a function frame: drop returned lanes.
    ForPrune { ml: u16, exit: u32 },
    /// Loop update: charge `alu_lat`, apply `var = var OP amount`, jump
    /// back to the loop head (the bound evaluation).
    ForStep {
        ml: u16,
        local: u16,
        var: u32,
        op: BinOp,
        amount: u16,
        head: u32,
    },
    /// Function-frame statement prologue: `live = base ∧ ¬returned`; jump
    /// to the end of the statement list if no lane is live.
    Live { base: u16, live: u16, exit: u32 },
    /// Memory load via `ExecCtx::do_load_into` (same charging/caches).
    Load {
        m: u16,
        mem: MemRef,
        idx: u16,
        dst: u16,
    },
    /// Memory store via `ExecCtx::do_store`.
    Store {
        m: u16,
        mem: MemRef,
        idx: u16,
        val: u16,
    },
    /// Atomic read-modify-write via `ExecCtx::do_atomic`.
    AtomicStmt {
        m: u16,
        op: AtomicOp,
        mem: MemRef,
        idx: u16,
        val: u16,
    },
    /// Block-wide barrier: error unless the mask is fully converged.
    Sync { m: u16 },
    /// `Return` in a function: record value + returned flag per lane.
    RetWrite { m: u16, src: u16 },
    /// Device-function call: type-check args, charge call overhead, push
    /// a fresh register/mask window, and jump to the callee.
    Call {
        m: u16,
        func: u16,
        args: Box<[u16]>,
        dst: u16,
    },
    /// Function epilogue: `MissingReturn` check, copy the return vector
    /// to the caller's `dst`, pop the window, resume at the call site.
    FuncRet { func: u16 },
    /// Raise a compile-time-detected evaluation error at runtime, at the
    /// exact point in evaluation order the tree-walker would raise it.
    Trap(Box<EvalError>),
    /// End of the kernel body.
    Halt,
    /// Superinstruction: two dependent binaries (`dst2 <- (a1 OP1 b1) OP2
    /// ...`, the fmadd-like shape) under one dispatch.
    FusedBinBin {
        m: u16,
        op1: BinOp,
        dst1: u16,
        a1: u16,
        b1: u16,
        op2: BinOp,
        dst2: u16,
        a2: u16,
        b2: u16,
    },
    /// Superinstruction: a comparison feeding the branch split that
    /// consumes it (`if a OP b { .. }`).
    FusedCmpIf {
        m: u16,
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
        t: u16,
        f: u16,
        skip_t: u32,
    },
    /// Superinstruction: a load whose value is immediately converted.
    FusedLoadCast {
        m: u16,
        mem: MemRef,
        idx: u16,
        dst: u16,
        ty: Ty,
        dst2: u16,
    },
    /// Superinstruction: a binary whose result is immediately stored.
    FusedBinStore {
        m: u16,
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
        mem: MemRef,
        idx: u16,
    },
}

impl Op {
    fn is_fused(&self) -> bool {
        matches!(
            self,
            Op::FusedBinBin { .. }
                | Op::FusedCmpIf { .. }
                | Op::FusedLoadCast { .. }
                | Op::FusedBinStore { .. }
        )
    }
}

/// A kernel compiled to bytecode, shareable read-only across pool workers
/// (the device wraps it in an `Arc`). Independent of grid/block geometry:
/// one compilation serves every launch shape.
#[derive(Debug)]
pub struct CompiledKernel {
    ops: Vec<Op>,
    bank: Vec<BankEntry>,
    frame: FrameMeta,
    funcs: Vec<FuncMeta>,
    name: String,
    /// Which buffer parameters the kernel loads, stores and updates.
    pub(crate) access: ParamAccess,
}

/// The buffer parameters a kernel loads from, stores to, and targets with
/// atomics (parameter indices, ascending), summarized once when it
/// compiles. Device functions take scalar arguments only, so a walk over
/// the kernel body — loop bounds and branch conditions included — is
/// complete.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ParamAccess {
    pub loads: Vec<usize>,
    pub stores: Vec<usize>,
    pub atomics: Vec<usize>,
}

impl ParamAccess {
    fn of(kernel: &Kernel) -> ParamAccess {
        use paraprox_ir::{for_each_expr_in_stmts, for_each_stmt};
        let mut access = ParamAccess::default();
        for_each_expr_in_stmts(&kernel.body, &mut |e| {
            if let Expr::Load {
                mem: MemRef::Param(i),
                ..
            } = e
            {
                access.loads.push(*i);
            }
        });
        for_each_stmt(&kernel.body, &mut |st| match st {
            Stmt::Store {
                mem: MemRef::Param(i),
                ..
            } => access.stores.push(*i),
            Stmt::Atomic {
                mem: MemRef::Param(i),
                ..
            } => access.atomics.push(*i),
            _ => {}
        });
        for set in [&mut access.loads, &mut access.stores, &mut access.atomics] {
            set.sort_unstable();
            set.dedup();
        }
        access
    }

    /// Whether the kernel reads parameter `pi`: loads it, or updates it
    /// atomically (a read-modify-write).
    pub fn reads(&self, pi: usize) -> bool {
        self.loads.contains(&pi) || self.atomics.contains(&pi)
    }
}

impl CompiledKernel {
    /// Number of instructions in the compiled stream (kernel body plus all
    /// reachable device functions).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Human-readable disassembly of the stream the device executes: bank
    /// contents, then one line per op with opcode, registers, and resolved
    /// jump targets. A superinstruction's line shows both constituent
    /// ops; the padding op after it is marked `~`. Function entry points
    /// are marked inline.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "kernel `{}`: {} ops, regs={} masks={} locals={}",
            self.name,
            self.ops.len(),
            self.frame.regs,
            self.frame.masks,
            self.frame.n_locals
        );
        if !self.bank.is_empty() {
            let _ = writeln!(s, "bank:");
            for (i, e) in self.bank.iter().enumerate() {
                let desc = match e {
                    BankEntry::Const(v) => format!("const {v}"),
                    BankEntry::ScalarParam(p) => format!("scalar param p{p}"),
                    BankEntry::Special(sp) => format!("{sp}"),
                };
                let _ = writeln!(s, "  b{i:<4} = {desc}");
            }
        }
        let _ = writeln!(s, "ops:");
        for (pc, op) in self.ops.iter().enumerate() {
            for f in &self.funcs {
                if f.entry == pc {
                    let _ = writeln!(
                        s,
                        "fn `{}`: regs={} masks={} locals={} params={}",
                        f.name, f.frame.regs, f.frame.masks, f.frame.n_locals, f.frame.n_params
                    );
                }
            }
            let pad = pc > 0 && self.ops[pc - 1].is_fused();
            let mark = if pad { "~ " } else { "" };
            let _ = writeln!(s, "  {pc:>5}  {mark}{}", self.render_op(op));
        }
        s
    }

    fn render_op(&self, op: &Op) -> String {
        fn r(x: u16) -> String {
            if x & BANK_FLAG != 0 {
                format!("b{}", x & !BANK_FLAG)
            } else {
                format!("r{x}")
            }
        }
        match op {
            Op::Unary { m, op, dst, a } => {
                format!("{:<8} m{m} {} <- {}", op.name(), r(*dst), r(*a))
            }
            Op::Binary { m, op, dst, a, b } => {
                format!("{:<8} m{m} {} <- {} {}", op.name(), r(*dst), r(*a), r(*b))
            }
            Op::Cmp { m, op, dst, a, b } => {
                format!(
                    "cmp.{:<4} m{m} {} <- {} {}",
                    op.name(),
                    r(*dst),
                    r(*a),
                    r(*b)
                )
            }
            Op::Cast { m, ty, dst, a } => format!("cast.{ty:<3} m{m} {} <- {}", r(*dst), r(*a)),
            Op::FoldedConst {
                m,
                dst,
                value,
                lat,
                count,
            } => {
                format!(
                    "folded   m{m} {} <- {value} (lat {lat}, {count} ops)",
                    r(*dst)
                )
            }
            Op::GuardInit { m, local, var } => format!("guard    m{m} r{local} (v{var})"),
            Op::StoreLocal { m, local, src } => format!("stloc    m{m} r{local} <- {}", r(*src)),
            Op::IfSplit {
                m,
                cond,
                t,
                f,
                skip_t,
            } => {
                format!("if       m{m} {} -> t=m{t} f=m{f} else@{skip_t}", r(*cond))
            }
            Op::IfElse { f, skip } => format!("else     m{f} end@{skip}"),
            Op::SelSplit {
                m,
                cond,
                t,
                f,
                dst,
                skip_t,
            } => {
                format!(
                    "sel      m{m} {} -> t=m{t} f=m{f} dst={} else@{skip_t}",
                    r(*cond),
                    r(*dst)
                )
            }
            Op::SelMerge { m, dst, src } => format!("selmerge m{m} {} <- {}", r(*dst), r(*src)),
            Op::SelElse { f, skip } => format!("selelse  m{f} end@{skip}"),
            Op::ForPrep { m, ml, func, exit } => {
                format!(
                    "for      m{m} -> m{ml}{} exit@{exit}",
                    if *func { " (fn)" } else { "" }
                )
            }
            Op::ForTest {
                ml,
                local,
                cmp,
                bound,
                exit,
                ..
            } => {
                format!(
                    "fortest  m{ml} r{local} {} {} exit@{exit}",
                    cmp.name(),
                    r(*bound)
                )
            }
            Op::ForPrune { ml, exit } => format!("forprune m{ml} exit@{exit}"),
            Op::ForStep {
                ml,
                local,
                op,
                amount,
                head,
                ..
            } => {
                format!(
                    "forstep  m{ml} r{local} {}= {} head@{head}",
                    op.name(),
                    r(*amount)
                )
            }
            Op::Live { base, live, exit } => format!("live     m{live} <- m{base} end@{exit}"),
            Op::Load { m, mem, idx, dst } => {
                format!("load     m{m} {} <- {mem}[{}]", r(*dst), r(*idx))
            }
            Op::Store { m, mem, idx, val } => {
                format!("store    m{m} {mem}[{}] <- {}", r(*idx), r(*val))
            }
            Op::AtomicStmt {
                m,
                op,
                mem,
                idx,
                val,
            } => {
                format!("{:<8} m{m} {mem}[{}] <- {}", op.name(), r(*idx), r(*val))
            }
            Op::Sync { m } => format!("sync     m{m}"),
            Op::RetWrite { m, src } => format!("return   m{m} {}", r(*src)),
            Op::Call { m, func, args, dst } => {
                let f = &self.funcs[*func as usize];
                let args: Vec<String> = args.iter().map(|&a| r(a)).collect();
                format!(
                    "call     m{m} {} <- `{}`@{} ({})",
                    r(*dst),
                    f.name,
                    f.entry,
                    args.join(", ")
                )
            }
            Op::FuncRet { func } => format!("ret      `{}`", self.funcs[*func as usize].name),
            Op::Trap(e) => format!("trap     {e}"),
            Op::Halt => "halt".to_string(),
            Op::FusedBinBin {
                m,
                op1,
                dst1,
                a1,
                b1,
                op2,
                dst2,
                a2,
                b2,
            } => format!(
                "{:<8} m{m} {} <- {} {} ; {} <- {} {}",
                format!("{}+{}", op1.name(), op2.name()),
                r(*dst1),
                r(*a1),
                r(*b1),
                r(*dst2),
                r(*a2),
                r(*b2)
            ),
            Op::FusedCmpIf {
                m,
                op,
                dst,
                a,
                b,
                t,
                f,
                skip_t,
            } => format!(
                "{:<8} m{m} {} <- {} {} ; t=m{t} f=m{f} else@{skip_t}",
                format!("{}+if", op.name()),
                r(*dst),
                r(*a),
                r(*b)
            ),
            Op::FusedLoadCast {
                m,
                mem,
                idx,
                dst,
                ty,
                dst2,
            } => format!(
                "load+cast m{m} {} <- {mem}[{}] ; {} <- {ty}",
                r(*dst),
                r(*idx),
                r(*dst2)
            ),
            Op::FusedBinStore {
                m,
                op,
                dst,
                a,
                b,
                mem,
                idx,
            } => format!(
                "{:<8} m{m} {} <- {} {} ; {mem}[{}] <- {}",
                format!("{}+store", op.name()),
                r(*dst),
                r(*a),
                r(*b),
                r(*idx),
                r(*dst)
            ),
        }
    }

    /// Number of fused superinstructions in the stream.
    pub fn superinstruction_count(&self) -> usize {
        self.ops.iter().filter(|op| op.is_fused()).count()
    }
}

/// Statically fuse one adjacent pair, or `None` if the shapes don't line
/// up. A pair is fusable when both ops run under the same mask slot and
/// the second consumes the first's destination.
fn fuse_pair(op1: &Op, op2: &Op) -> Option<Op> {
    match (op1, op2) {
        (
            Op::Binary { m, op, dst, a, b },
            Op::Binary {
                m: m2,
                op: op2,
                dst: dst2,
                a: a2,
                b: b2,
            },
        ) if m2 == m && (a2 == dst || b2 == dst) => Some(Op::FusedBinBin {
            m: *m,
            op1: *op,
            dst1: *dst,
            a1: *a,
            b1: *b,
            op2: *op2,
            dst2: *dst2,
            a2: *a2,
            b2: *b2,
        }),
        (
            Op::Cmp { m, op, dst, a, b },
            Op::IfSplit {
                m: m2,
                cond,
                t,
                f,
                skip_t,
            },
        ) if m2 == m && cond == dst => Some(Op::FusedCmpIf {
            m: *m,
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
            t: *t,
            f: *f,
            skip_t: *skip_t,
        }),
        (
            Op::Load { m, mem, idx, dst },
            Op::Cast {
                m: m2,
                ty,
                dst: dst2,
                a,
            },
        ) if m2 == m && a == dst => Some(Op::FusedLoadCast {
            m: *m,
            mem: *mem,
            idx: *idx,
            dst: *dst,
            ty: *ty,
            dst2: *dst2,
        }),
        (
            Op::Binary { m, op, dst, a, b },
            Op::Store {
                m: m2,
                mem,
                idx,
                val,
            },
        ) if m2 == m && val == dst => Some(Op::FusedBinStore {
            m: *m,
            op: *op,
            dst: *dst,
            a: *a,
            b: *b,
            mem: *mem,
            idx: *idx,
        }),
        _ => None,
    }
}

/// Fuse every statically fusable pair of a freshly compiled stream, left
/// to right: `(ops[pc], ops[pc+1])` fuses when the shapes line up and pc+1
/// is not a jump target (nothing may enter the middle of a
/// superinstruction: branch/loop targets, call-return resume points, and
/// function entries all disqualify the pair). The fused op replaces the
/// first; the second stays in place as unreachable padding (the fused
/// handler advances the pc by two), so every absolute jump target holds.
///
/// Fusing a pair that never runs is safe: pc+1 is reachable only by
/// falling through from pc, and the fused handler performs both ops'
/// charges, lane loops and errors in their unfused order.
fn fuse_pairs(ops: &mut [Op], funcs: &[FuncMeta]) {
    let mut is_target = vec![false; ops.len() + 1];
    for f in funcs {
        is_target[f.entry] = true;
    }
    for (pc, op) in ops.iter().enumerate() {
        match op {
            Op::IfSplit { skip_t, .. } | Op::SelSplit { skip_t, .. } => {
                is_target[*skip_t as usize] = true;
            }
            Op::IfElse { skip, .. } | Op::SelElse { skip, .. } => {
                is_target[*skip as usize] = true;
            }
            Op::ForPrep { exit, .. }
            | Op::ForTest { exit, .. }
            | Op::ForPrune { exit, .. }
            | Op::Live { exit, .. } => is_target[*exit as usize] = true,
            Op::ForStep { head, .. } => is_target[*head as usize] = true,
            Op::Call { .. } => is_target[pc + 1] = true,
            _ => {}
        }
    }
    let mut pc = 0;
    while pc + 1 < ops.len() {
        match fuse_pair(&ops[pc], &ops[pc + 1]).filter(|_| !is_target[pc + 1]) {
            Some(fused) => {
                ops[pc] = fused;
                pc += 2;
            }
            None => pc += 1,
        }
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Result of compiling an expression: either a compile-time constant with
/// its pending (not yet charged) cost, or an operand holding the value.
enum Val {
    /// Constant-folded value; `lat`/`count` are the folded subtree's
    /// compute charges, re-charged on materialization.
    Folded { v: Scalar, lat: u64, count: u64 },
    /// Value lives in operand `r`; `temp` marks a freeable temporary.
    Reg { r: u16, temp: bool },
}

/// Per-frame compile state: temp allocation (free lists keep windows
/// small) and the definite-initialization facts used to elide
/// [`Op::GuardInit`]s.
struct FrameCtx {
    is_func: bool,
    n_locals: u16,
    n_params: u16,
    reg_top: u16,
    free_regs: Vec<u16>,
    mask_top: u16,
    free_masks: Vec<u16>,
    /// Locals proven initialized on every path reaching the current
    /// compile point (monotone per path; merged at joins).
    init: Vec<bool>,
}

impl FrameCtx {
    fn new_kernel(n_locals: usize) -> FrameCtx {
        FrameCtx {
            is_func: false,
            n_locals: n_locals as u16,
            n_params: 0,
            reg_top: n_locals as u16,
            free_regs: Vec::new(),
            mask_top: 1, // slot 0: all-true block mask
            free_masks: Vec::new(),
            init: vec![false; n_locals],
        }
    }

    fn new_func(n_locals: usize, n_params: usize) -> FrameCtx {
        FrameCtx {
            is_func: true,
            n_locals: n_locals as u16,
            n_params: n_params as u16,
            // locals | params | retval, then temps.
            reg_top: (n_locals + n_params + 1) as u16,
            free_regs: Vec::new(),
            mask_top: 2, // slot 0: call mask, slot 1: returned
            free_masks: Vec::new(),
            init: vec![false; n_locals],
        }
    }

    fn alloc_reg(&mut self) -> u16 {
        self.free_regs.pop().unwrap_or_else(|| {
            let r = self.reg_top;
            assert!(r < BANK_FLAG, "register window overflow");
            self.reg_top += 1;
            r
        })
    }

    fn free_reg(&mut self, r: u16) {
        debug_assert!(r & BANK_FLAG == 0);
        self.free_regs.push(r);
    }

    fn free_operand(&mut self, r: u16, temp: bool) {
        if temp {
            self.free_reg(r);
        }
    }

    fn alloc_mask(&mut self) -> u16 {
        self.free_masks.pop().unwrap_or_else(|| {
            let m = self.mask_top;
            self.mask_top += 1;
            m
        })
    }

    fn free_mask(&mut self, m: u16) {
        self.free_masks.push(m);
    }

    fn into_meta(self) -> FrameMeta {
        FrameMeta {
            n_locals: self.n_locals,
            n_params: self.n_params,
            regs: self.reg_top,
            masks: self.mask_top,
        }
    }
}

struct Compiler<'a> {
    program: &'a Program,
    kernel: &'a Kernel,
    profile: &'a DeviceProfile,
    ops: Vec<Op>,
    bank: Vec<BankEntry>,
    funcs: Vec<FuncMeta>,
    func_ids: Vec<FuncId>,
}

/// Compile `kernel` (of `program`) to bytecode. Infallible: errors the
/// tree-walker would raise at runtime (including on malformed IR) become
/// [`Op::Trap`]s at the corresponding evaluation position. `profile` is
/// only consulted for the latency sums attached to constant-folded
/// subtrees; the remaining latencies are read from the launching device's
/// profile at execution time.
pub fn compile_kernel(
    program: &Program,
    kernel: &Kernel,
    profile: &DeviceProfile,
) -> CompiledKernel {
    let mut c = Compiler {
        program,
        kernel,
        profile,
        ops: Vec::new(),
        bank: Vec::new(),
        funcs: Vec::new(),
        func_ids: Vec::new(),
    };
    let mut fr = FrameCtx::new_kernel(kernel.locals.len());
    c.compile_block(&kernel.body, 0, &mut fr);
    c.ops.push(Op::Halt);
    let frame = fr.into_meta();
    // Worklist: compile each referenced function exactly once; bodies may
    // discover further callees (appended to the list).
    let mut i = 0;
    while i < c.func_ids.len() {
        let f = program.func(c.func_ids[i]);
        let mut ffr = FrameCtx::new_func(f.locals.len(), f.params.len());
        c.funcs[i].entry = c.ops.len();
        c.compile_block(&f.body, 0, &mut ffr);
        c.ops.push(Op::FuncRet { func: i as u16 });
        c.funcs[i].frame = ffr.into_meta();
        i += 1;
    }
    fuse_pairs(&mut c.ops, &c.funcs);
    CompiledKernel {
        ops: c.ops,
        bank: c.bank,
        frame,
        funcs: c.funcs,
        name: kernel.name.clone(),
        access: ParamAccess::of(kernel),
    }
}

impl<'a> Compiler<'a> {
    // ---- constant bank -------------------------------------------------

    fn bank_slot(&mut self, e: BankEntry) -> u16 {
        let pos = self.bank.iter().position(|x| match (x, &e) {
            (BankEntry::Const(a), BankEntry::Const(b)) => scalar_key(*a) == scalar_key(*b),
            (BankEntry::ScalarParam(a), BankEntry::ScalarParam(b)) => a == b,
            (BankEntry::Special(a), BankEntry::Special(b)) => a == b,
            _ => false,
        });
        let idx = pos.unwrap_or_else(|| {
            self.bank.push(e);
            self.bank.len() - 1
        });
        assert!(idx < BANK_FLAG as usize, "constant bank overflow");
        idx as u16 | BANK_FLAG
    }

    // ---- helpers -------------------------------------------------------

    /// Emit a trap and return a placeholder value for the unreachable
    /// continuation.
    fn trap(&mut self, e: EvalError) -> Val {
        self.ops.push(Op::Trap(Box::new(e)));
        Val::Folded {
            v: FILLER,
            lat: 0,
            count: 0,
        }
    }

    /// Turn a [`Val`] into an operand. Pure constants go to the bank;
    /// folded subtrees with pending charges are re-charged here, at their
    /// use site, under the use-site mask (safe because pure compute
    /// charges are an order-insensitive sum per mask).
    fn materialize(&mut self, v: Val, m: u16, fr: &mut FrameCtx) -> (u16, bool) {
        match v {
            Val::Reg { r, temp } => (r, temp),
            Val::Folded {
                v,
                lat: 0,
                count: 0,
            } => (self.bank_slot(BankEntry::Const(v)), false),
            Val::Folded { v, lat, count } => {
                let dst = fr.alloc_reg();
                self.ops.push(Op::FoldedConst {
                    m,
                    dst,
                    value: v,
                    lat,
                    count,
                });
                (dst, true)
            }
        }
    }

    fn compile_operand(&mut self, e: &Expr, m: u16, fr: &mut FrameCtx) -> (u16, bool) {
        let v = self.compile_expr(e, m, fr);
        self.materialize(v, m, fr)
    }

    // ---- expressions ---------------------------------------------------

    fn compile_expr(&mut self, e: &Expr, m: u16, fr: &mut FrameCtx) -> Val {
        match e {
            Expr::Const(v) => Val::Folded {
                v: *v,
                lat: 0,
                count: 0,
            },
            Expr::Var(v) => {
                let idx = v.index();
                assert!(idx < fr.n_locals as usize, "local {v} out of range");
                if !fr.init[idx] {
                    self.ops.push(Op::GuardInit {
                        m,
                        local: idx as u16,
                        var: v.0,
                    });
                    fr.init[idx] = true;
                }
                Val::Reg {
                    r: idx as u16,
                    temp: false,
                }
            }
            Expr::Param(i) => {
                if fr.is_func {
                    if *i < fr.n_params as usize {
                        Val::Reg {
                            r: fr.n_locals + *i as u16,
                            temp: false,
                        }
                    } else {
                        // Arity was checked at the call site, so the frame
                        // holds exactly `n_params` argument vectors.
                        self.trap(EvalError::ArityMismatch {
                            expected: *i + 1,
                            found: 0,
                        })
                    }
                } else {
                    // Launch validation guarantees the runtime args match
                    // the declared params positionally, so the declaration
                    // decides which tree-walker error (if any) this read
                    // raises.
                    match self.kernel.params.get(*i) {
                        Some(paraprox_ir::Param::Scalar { .. }) => Val::Reg {
                            r: self.bank_slot(BankEntry::ScalarParam(*i)),
                            temp: false,
                        },
                        Some(paraprox_ir::Param::Buffer { .. }) => {
                            self.trap(EvalError::NotPure("buffer parameter read as a scalar"))
                        }
                        None => self.trap(EvalError::ArityMismatch {
                            expected: *i + 1,
                            found: self.kernel.params.len(),
                        }),
                    }
                }
            }
            Expr::Special(sp) => {
                if fr.is_func {
                    self.trap(EvalError::NotPure("thread special"))
                } else {
                    Val::Reg {
                        r: self.bank_slot(BankEntry::Special(*sp)),
                        temp: false,
                    }
                }
            }
            Expr::Unary(op, a) => {
                let va = self.compile_expr(a, m, fr);
                if let Val::Folded { v, lat, count } = va {
                    if let Ok(res) = op.apply(v) {
                        return Val::Folded {
                            v: res,
                            lat: lat + self.profile.unop_lat(*op),
                            count: count + 1,
                        };
                    }
                }
                let (ra, ta) = self.materialize(va, m, fr);
                let dst = fr.alloc_reg();
                self.ops.push(Op::Unary {
                    m,
                    op: *op,
                    dst,
                    a: ra,
                });
                fr.free_operand(ra, ta);
                Val::Reg { r: dst, temp: true }
            }
            Expr::Binary(op, a, b) => {
                let va = self.compile_expr(a, m, fr);
                let vb = self.compile_expr(b, m, fr);
                if let (
                    Val::Folded {
                        v: x,
                        lat: la,
                        count: ca,
                    },
                    Val::Folded {
                        v: y,
                        lat: lb,
                        count: cb,
                    },
                ) = (&va, &vb)
                {
                    if let Ok(res) = op.apply(*x, *y) {
                        return Val::Folded {
                            v: res,
                            lat: la + lb + self.profile.binop_lat(*op, x.ty() == Ty::F32),
                            count: ca + cb + 1,
                        };
                    }
                }
                let (ra, ta) = self.materialize(va, m, fr);
                let (rb, tb) = self.materialize(vb, m, fr);
                let dst = fr.alloc_reg();
                self.ops.push(Op::Binary {
                    m,
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
                fr.free_operand(ra, ta);
                fr.free_operand(rb, tb);
                Val::Reg { r: dst, temp: true }
            }
            Expr::Cmp(op, a, b) => {
                let va = self.compile_expr(a, m, fr);
                let vb = self.compile_expr(b, m, fr);
                if let (
                    Val::Folded {
                        v: x,
                        lat: la,
                        count: ca,
                    },
                    Val::Folded {
                        v: y,
                        lat: lb,
                        count: cb,
                    },
                ) = (&va, &vb)
                {
                    if let Ok(res) = op.apply(*x, *y) {
                        return Val::Folded {
                            v: res,
                            lat: la + lb + self.profile.alu_lat,
                            count: ca + cb + 1,
                        };
                    }
                }
                let (ra, ta) = self.materialize(va, m, fr);
                let (rb, tb) = self.materialize(vb, m, fr);
                let dst = fr.alloc_reg();
                self.ops.push(Op::Cmp {
                    m,
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
                fr.free_operand(ra, ta);
                fr.free_operand(rb, tb);
                Val::Reg { r: dst, temp: true }
            }
            Expr::Cast(ty, a) => {
                let va = self.compile_expr(a, m, fr);
                if let Val::Folded { v, lat, count } = va {
                    // Casts are infallible: always foldable.
                    return Val::Folded {
                        v: v.cast(*ty),
                        lat: lat + self.profile.alu_lat,
                        count: count + 1,
                    };
                }
                let (ra, ta) = self.materialize(va, m, fr);
                let dst = fr.alloc_reg();
                self.ops.push(Op::Cast {
                    m,
                    ty: *ty,
                    dst,
                    a: ra,
                });
                fr.free_operand(ra, ta);
                Val::Reg { r: dst, temp: true }
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                let (rc, tc) = self.compile_operand(cond, m, fr);
                let t = fr.alloc_mask();
                let f = fr.alloc_mask();
                let dst = fr.alloc_reg();
                let split_at = self.ops.len();
                self.ops.push(Op::SelSplit {
                    m,
                    cond: rc,
                    t,
                    f,
                    dst,
                    skip_t: 0,
                });
                fr.free_operand(rc, tc);
                let saved = fr.init.clone();
                let (rt, tt) = self.compile_operand(if_true, t, fr);
                self.ops.push(Op::SelMerge { m: t, dst, src: rt });
                fr.free_operand(rt, tt);
                let t_init = std::mem::replace(&mut fr.init, saved.clone());
                let else_at = self.ops.len() as u32;
                if let Op::SelSplit { skip_t, .. } = &mut self.ops[split_at] {
                    *skip_t = else_at;
                }
                let else_op = self.ops.len();
                self.ops.push(Op::SelElse { f, skip: 0 });
                let (rf, tf) = self.compile_operand(if_false, f, fr);
                self.ops.push(Op::SelMerge { m: f, dst, src: rf });
                fr.free_operand(rf, tf);
                let end = self.ops.len() as u32;
                if let Op::SelElse { skip, .. } = &mut self.ops[else_op] {
                    *skip = end;
                }
                for (i, flag) in fr.init.iter_mut().enumerate() {
                    *flag = saved[i] || (t_init[i] && *flag);
                }
                fr.free_mask(t);
                fr.free_mask(f);
                Val::Reg { r: dst, temp: true }
            }
            Expr::Load { mem, index } => {
                if fr.is_func {
                    // The tree-walker evaluates the index (with all its
                    // charges and possible errors) before rejecting the
                    // load itself.
                    let vi = self.compile_expr(index, m, fr);
                    let (ri, ti) = self.materialize(vi, m, fr);
                    fr.free_operand(ri, ti);
                    return self.trap(EvalError::NotPure("load"));
                }
                let (ri, ti) = self.compile_operand(index, m, fr);
                let dst = fr.alloc_reg();
                self.ops.push(Op::Load {
                    m,
                    mem: *mem,
                    idx: ri,
                    dst,
                });
                fr.free_operand(ri, ti);
                Val::Reg { r: dst, temp: true }
            }
            Expr::Call { func, args } => {
                // Callee resolution precedes argument evaluation.
                let program = self.program;
                let Some((_, callee)) = program.funcs().find(|(id, _)| id == func) else {
                    return self.trap(EvalError::UnknownFunc(func.0));
                };
                let fidx = self.register_func(*func, callee);
                let mut regs = Vec::with_capacity(args.len());
                for a in args {
                    regs.push(self.compile_operand(a, m, fr));
                }
                if args.len() != callee.params.len() {
                    for (r, t) in regs {
                        fr.free_operand(r, t);
                    }
                    return self.trap(EvalError::ArityMismatch {
                        expected: callee.params.len(),
                        found: args.len(),
                    });
                }
                let dst = fr.alloc_reg();
                self.ops.push(Op::Call {
                    m,
                    func: fidx,
                    args: regs.iter().map(|&(r, _)| r).collect(),
                    dst,
                });
                for (r, t) in regs {
                    fr.free_operand(r, t);
                }
                Val::Reg { r: dst, temp: true }
            }
        }
    }

    fn register_func(&mut self, fid: FuncId, f: &Func) -> u16 {
        if let Some(i) = self.func_ids.iter().position(|&x| x == fid) {
            return i as u16;
        }
        self.func_ids.push(fid);
        self.funcs.push(FuncMeta {
            name: f.name.clone(),
            entry: 0,
            frame: FrameMeta::default(),
            param_tys: f.params.iter().map(|p| p.ty()).collect(),
        });
        assert!(
            self.funcs.len() <= u16::MAX as usize,
            "function table overflow"
        );
        (self.func_ids.len() - 1) as u16
    }

    // ---- statements ----------------------------------------------------

    /// Compile a statement list. Kernel frames run statements directly
    /// under the block mask; function frames prefix every statement with a
    /// [`Op::Live`] recomputing `mask ∧ ¬returned` (the tree-walker's
    /// per-statement live mask), exiting the list when no lane survives.
    fn compile_block(&mut self, stmts: &[Stmt], m: u16, fr: &mut FrameCtx) {
        if !fr.is_func {
            for s in stmts {
                self.compile_stmt(s, m, fr);
            }
            return;
        }
        let live = fr.alloc_mask();
        let mut live_ops = Vec::with_capacity(stmts.len());
        for s in stmts {
            live_ops.push(self.ops.len());
            self.ops.push(Op::Live {
                base: m,
                live,
                exit: 0,
            });
            self.compile_stmt(s, live, fr);
        }
        let end = self.ops.len() as u32;
        for i in live_ops {
            if let Op::Live { exit, .. } = &mut self.ops[i] {
                *exit = end;
            }
        }
        fr.free_mask(live);
    }

    fn compile_stmt(&mut self, stmt: &Stmt, m: u16, fr: &mut FrameCtx) {
        match stmt {
            Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                let idx = var.index();
                assert!(idx < fr.n_locals as usize, "local {var} out of range");
                let (src, temp) = self.compile_operand(init, m, fr);
                self.ops.push(Op::StoreLocal {
                    m,
                    local: idx as u16,
                    src,
                });
                fr.free_operand(src, temp);
                fr.init[idx] = true;
            }
            Stmt::Store { mem, index, value } => {
                if fr.is_func {
                    // Rejected before operand evaluation, like the oracle.
                    self.trap(EvalError::NotPure("store"));
                    return;
                }
                let (ri, ti) = self.compile_operand(index, m, fr);
                let (rv, tv) = self.compile_operand(value, m, fr);
                self.ops.push(Op::Store {
                    m,
                    mem: *mem,
                    idx: ri,
                    val: rv,
                });
                fr.free_operand(ri, ti);
                fr.free_operand(rv, tv);
            }
            Stmt::Atomic {
                op,
                mem,
                index,
                value,
            } => {
                if fr.is_func {
                    self.trap(EvalError::NotPure("atomic"));
                    return;
                }
                let (ri, ti) = self.compile_operand(index, m, fr);
                let (rv, tv) = self.compile_operand(value, m, fr);
                self.ops.push(Op::AtomicStmt {
                    m,
                    op: *op,
                    mem: *mem,
                    idx: ri,
                    val: rv,
                });
                fr.free_operand(ri, ti);
                fr.free_operand(rv, tv);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (rc, tc) = self.compile_operand(cond, m, fr);
                let t = fr.alloc_mask();
                let f = fr.alloc_mask();
                let split_at = self.ops.len();
                self.ops.push(Op::IfSplit {
                    m,
                    cond: rc,
                    t,
                    f,
                    skip_t: 0,
                });
                fr.free_operand(rc, tc);
                let saved = fr.init.clone();
                self.compile_block(then_body, t, fr);
                let t_init = std::mem::replace(&mut fr.init, saved.clone());
                let else_at = self.ops.len() as u32;
                if let Op::IfSplit { skip_t, .. } = &mut self.ops[split_at] {
                    *skip_t = else_at;
                }
                let else_op = self.ops.len();
                self.ops.push(Op::IfElse { f, skip: 0 });
                self.compile_block(else_body, f, fr);
                let end = self.ops.len() as u32;
                if let Op::IfElse { skip, .. } = &mut self.ops[else_op] {
                    *skip = end;
                }
                // A local is proven after the `if` when it was proven
                // before, or proven by *both* arms (at least one arm runs).
                for (i, flag) in fr.init.iter_mut().enumerate() {
                    *flag = saved[i] || (t_init[i] && *flag);
                }
                fr.free_mask(t);
                fr.free_mask(f);
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                body,
            } => {
                let idx = var.index();
                assert!(idx < fr.n_locals as usize, "local {var} out of range");
                let (src, temp) = self.compile_operand(init, m, fr);
                self.ops.push(Op::StoreLocal {
                    m,
                    local: idx as u16,
                    src,
                });
                fr.free_operand(src, temp);
                fr.init[idx] = true;
                // Bound/body/step may never execute: their init proofs are
                // discarded below.
                let saved = fr.init.clone();
                let ml = fr.alloc_mask();
                let mut exits = vec![self.ops.len()];
                self.ops.push(Op::ForPrep {
                    m,
                    ml,
                    func: fr.is_func,
                    exit: 0,
                });
                let head = self.ops.len() as u32;
                let cmp = match cond {
                    LoopCond::Lt(_) => CmpOp::Lt,
                    LoopCond::Le(_) => CmpOp::Le,
                    LoopCond::Gt(_) => CmpOp::Gt,
                    LoopCond::Ge(_) => CmpOp::Ge,
                };
                let (rb, tb) = self.compile_operand(cond.bound(), ml, fr);
                exits.push(self.ops.len());
                self.ops.push(Op::ForTest {
                    ml,
                    local: idx as u16,
                    var: var.0,
                    cmp,
                    bound: rb,
                    exit: 0,
                });
                fr.free_operand(rb, tb);
                self.compile_block(body, ml, fr);
                if fr.is_func {
                    exits.push(self.ops.len());
                    self.ops.push(Op::ForPrune { ml, exit: 0 });
                }
                let step_op = match step {
                    LoopStep::Add(_) => BinOp::Add,
                    LoopStep::Sub(_) => BinOp::Sub,
                    LoopStep::Mul(_) => BinOp::Mul,
                    LoopStep::Shl(_) => BinOp::Shl,
                    LoopStep::Shr(_) => BinOp::Shr,
                };
                let (ra, ta) = self.compile_operand(step.amount(), ml, fr);
                self.ops.push(Op::ForStep {
                    ml,
                    local: idx as u16,
                    var: var.0,
                    op: step_op,
                    amount: ra,
                    head,
                });
                fr.free_operand(ra, ta);
                let end = self.ops.len() as u32;
                for at in exits {
                    match &mut self.ops[at] {
                        Op::ForPrep { exit, .. }
                        | Op::ForTest { exit, .. }
                        | Op::ForPrune { exit, .. } => *exit = end,
                        _ => unreachable!("patched op is a loop op"),
                    }
                }
                fr.free_mask(ml);
                fr.init = saved;
            }
            Stmt::Sync => {
                if fr.is_func {
                    self.trap(EvalError::NotPure("sync"));
                } else {
                    self.ops.push(Op::Sync { m });
                }
            }
            Stmt::Return(e) => {
                if !fr.is_func {
                    // Checked before the value is evaluated.
                    self.trap(EvalError::NotPure("return in kernel body"));
                    return;
                }
                let (src, temp) = self.compile_operand(e, m, fr);
                self.ops.push(Op::RetWrite { m, src });
                fr.free_operand(src, temp);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

/// Saved caller state for one in-flight device-function call.
#[derive(Debug, Clone, Copy)]
struct CallCtx {
    /// pc to resume at after the callee returns.
    ret_pc: usize,
    /// *Absolute* register index receiving the return vector.
    ret_dst: usize,
    prev_reg_base: usize,
    prev_mask_base: usize,
    prev_regs: usize,
    prev_masks: usize,
    prev_func: usize,
}

/// Per-worker executor scratch: the register-file arena, mask arena,
/// constant-bank rows, and call stack. Part of a worker's scratch, which
/// dispatches borrow from a process-wide pool (`exec.rs`), so it is reused
/// across statements, groups and launches: rows and masks are allocated
/// the first time a group touches them and only refilled afterwards, so
/// executing an op — memory ops included, see `exec.rs` — allocates
/// nothing once the first group of that shape has run. What a launch does
/// allocate is a constant plus one write log per block;
/// `tests/alloc_steady_state.rs` pins it. Registers are structure-of-arrays
/// [`RegRow`]s (contiguous lane-major `u32` strips) and masks are
/// [`LaneMask`] bitsets, so ops run as typed slice loops over raw bit
/// patterns, a mask word at a time.
#[derive(Debug, Default)]
pub(crate) struct BcScratch {
    /// Register rows, stacked per frame window.
    regs: Vec<RegRow>,
    /// Runtime definite-init flags per register row, one bit per block of
    /// the group (only local slots are consulted; mirrors the
    /// tree-walker's `Option<Lanes>` locals, which each block has alone).
    init: Vec<u64>,
    /// Mask rows, stacked per frame window.
    masks: Vec<LaneMask>,
    /// Materialized constant-bank rows, refilled per block.
    bank: Vec<RegRow>,
    /// In-flight call frames.
    calls: Vec<CallCtx>,
    /// Recycled `u32` strip the in-place loop step swaps its row's bits
    /// through.
    strip: Vec<u32>,
}

/// Resolve an operand to its lane row (bank or register-window slot).
fn row(s: &BcScratch, base: usize, r: u16) -> &RegRow {
    if r & BANK_FLAG != 0 {
        &s.bank[(r & !BANK_FLAG) as usize]
    } else {
        &s.regs[base + r as usize]
    }
}

// ---- row operations --------------------------------------------------
//
// Every ALU and control op has one typed strip path, which takes the lane
// mask as an argument (`soa.rs`), and the per-lane `Scalar` path below it.
// The strip path is taken whenever it cannot fail: each operand's *active*
// lanes carry one tag, the operands agree, and the op is infallible on that
// type. What is left for the per-lane path is the oracle's error cases (and
// rows whose active lanes really do differ in type), visited in ascending
// lane order so the first failing lane is the one the oracle reports. Each
// op that takes it bumps `fallback` (`LaunchStats::lane_fallback_ops`).

/// The per-lane path of a value-producing op: `value(lane)` on the lanes
/// of `mask` in ascending order, filler on the others.
fn per_lane(
    out: &mut RegRow,
    mask: &LaneMask,
    fallback: &mut u64,
    value: impl Fn(usize) -> Result<Scalar, EvalError>,
) -> Result<(), EvalError> {
    *fallback += 1;
    out.reset_filler(mask.lanes());
    for lane in mask.iter_set() {
        out.set(lane, value(lane)?);
    }
    out.normalize();
    Ok(())
}

/// Apply a unary op to the lanes of `mask`; the others read as filler.
fn apply_unary(
    op: UnOp,
    va: &RegRow,
    mask: &LaneMask,
    out: &mut RegRow,
    fallback: &mut u64,
) -> Result<(), EvalError> {
    if let Some(ta) = va.active_tag(mask).filter(|&t| un_fast_eligible(op, t)) {
        un_strip(op, ta, out.begin_strip(ta, mask), va.bits(), mask);
        return Ok(());
    }
    per_lane(out, mask, fallback, |lane| op.apply(va.get(lane)))
}

/// The tag both operands of a binary op carry on every active lane, when
/// `op` over it cannot fail: the typed tables, plus no active zero divisor
/// where integer division could trap.
fn bin_strip_tag(op: BinOp, va: &RegRow, vb: &RegRow, mask: &LaneMask) -> Option<u8> {
    let ta = va.active_tag(mask)?;
    (vb.active_tag(mask) == Some(ta)
        && bin_fast_eligible(op, ta)
        && !(bin_needs_divisor_scan(op, ta) && has_active_zero(vb.bits(), mask)))
    .then_some(ta)
}

/// Apply a binary op to the lanes of `mask`; the others read as filler.
fn apply_binary(
    op: BinOp,
    va: &RegRow,
    vb: &RegRow,
    mask: &LaneMask,
    out: &mut RegRow,
    fallback: &mut u64,
) -> Result<(), EvalError> {
    if let Some(ta) = bin_strip_tag(op, va, vb, mask) {
        bin_strip(
            op,
            ta,
            out.begin_strip(ta, mask),
            va.bits(),
            vb.bits(),
            mask,
        );
        return Ok(());
    }
    per_lane(out, mask, fallback, |lane| {
        op.apply(va.get(lane), vb.get(lane))
    })
}

/// Apply a comparison to the lanes of `mask` (infallible on equal types);
/// the others read as filler.
fn apply_cmp(
    op: CmpOp,
    va: &RegRow,
    vb: &RegRow,
    mask: &LaneMask,
    out: &mut RegRow,
    fallback: &mut u64,
) -> Result<(), EvalError> {
    if let Some(ta) = va
        .active_tag(mask)
        .filter(|&t| vb.active_tag(mask) == Some(t))
    {
        cmp_strip(
            op,
            ta,
            out.begin_strip(TAG_BOOL, mask),
            va.bits(),
            vb.bits(),
            mask,
        );
        return Ok(());
    }
    per_lane(out, mask, fallback, |lane| {
        op.apply(va.get(lane), vb.get(lane))
    })
}

/// Cast the lanes of `mask` (never an error; the `Result` is the shared
/// per-lane path's); the others read as filler.
fn apply_cast(
    ty: Ty,
    va: &RegRow,
    mask: &LaneMask,
    out: &mut RegRow,
    fallback: &mut u64,
) -> Result<(), EvalError> {
    if let Some(ta) = va.active_tag(mask) {
        cast_strip(
            ty,
            ta,
            out.begin_strip(tag_of_ty(ty), mask),
            va.bits(),
            mask,
        );
        return Ok(());
    }
    per_lane(out, mask, fallback, |lane| Ok(va.get(lane).cast(ty)))
}

/// Overwrite the lanes of `mask` in `dst` with `src`'s (`SelMerge`, masked
/// `StoreLocal`, `RetWrite`); the others keep their value.
fn merge_masked(dst: &mut RegRow, src: &RegRow, mask: &LaneMask, fallback: &mut u64) {
    if let Some(tag) = src.active_tag(mask) {
        dst.merge_strip(tag, src.bits(), mask);
        return;
    }
    *fallback += 1;
    for lane in mask.iter_set() {
        dst.set(lane, src.get(lane));
    }
    dst.normalize();
}

/// Split `m` by the boolean `cond` row into `t`/`f`. A non-bool active
/// lane is the oracle's `as_bool` type error, found in lane order.
fn split_mask(
    cond: &RegRow,
    m: &LaneMask,
    t: &mut LaneMask,
    f: &mut LaneMask,
    fallback: &mut u64,
) -> Result<(), EvalError> {
    if cond.active_tag(m) == Some(TAG_BOOL) {
        split_by(cond.bits(), m, t, f);
        return Ok(());
    }
    *fallback += 1;
    t.reset_empty(m.lanes());
    f.reset_empty(m.lanes());
    for lane in m.iter_set() {
        if cond.get(lane).as_bool()? {
            t.set(lane, true);
        } else {
            f.set(lane, true);
        }
    }
    Ok(())
}

// ---- shared op bodies ----------------------------------------------------
//
// Each `exec_*` helper is the complete body of one unfused opcode —
// charge, lane loop, and row bookkeeping. The fused superinstruction
// handlers call the same helpers back to back, which makes fusion
// bit-identical to the unfused sequence by construction.

#[allow(clippy::too_many_arguments)]
fn exec_unary(
    ctx: &mut ExecCtx<'_>,
    s: &mut BcScratch,
    rb: usize,
    mb: usize,
    m: u16,
    op: UnOp,
    dst: u16,
    a: u16,
) -> Result<(), EvalError> {
    ctx.charge_compute(ctx.profile.unop_lat(op), &s.masks[mb + m as usize]);
    let dst_abs = rb + dst as usize;
    let mut out = std::mem::take(&mut s.regs[dst_abs]);
    let r = apply_unary(
        op,
        row(s, rb, a),
        &s.masks[mb + m as usize],
        &mut out,
        &mut ctx.stats.lane_fallback_ops,
    );
    s.regs[dst_abs] = out;
    r
}

#[allow(clippy::too_many_arguments)]
fn exec_binary(
    ctx: &mut ExecCtx<'_>,
    s: &mut BcScratch,
    rb: usize,
    mb: usize,
    m: u16,
    op: BinOp,
    dst: u16,
    a: u16,
    b: u16,
) -> Result<(), EvalError> {
    // Latency class from the first active lane of the LHS, like the
    // tree-walker: one class for a uniform row, each block's own for a
    // mixed one.
    let (va, mask) = (row(s, rb, a), &s.masks[mb + m as usize]);
    if ctx.blocks == 1 || va.uniform_tag() != TAG_MIXED {
        let float = va.first_ty(mask) == Some(Ty::F32);
        ctx.charge_compute(ctx.profile.binop_lat(op, float), mask);
    } else {
        charge_binary_per_block(ctx, op, va, mask);
    }
    let dst_abs = rb + dst as usize;
    let mut out = std::mem::take(&mut s.regs[dst_abs]);
    let r = apply_binary(
        op,
        row(s, rb, a),
        row(s, rb, b),
        &s.masks[mb + m as usize],
        &mut out,
        &mut ctx.stats.lane_fallback_ops,
    );
    s.regs[dst_abs] = out;
    r
}

#[allow(clippy::too_many_arguments)]
fn exec_cmp(
    ctx: &mut ExecCtx<'_>,
    s: &mut BcScratch,
    rb: usize,
    mb: usize,
    m: u16,
    op: CmpOp,
    dst: u16,
    a: u16,
    b: u16,
) -> Result<(), EvalError> {
    ctx.charge_compute(ctx.profile.alu_lat, &s.masks[mb + m as usize]);
    let dst_abs = rb + dst as usize;
    let mut out = std::mem::take(&mut s.regs[dst_abs]);
    let r = apply_cmp(
        op,
        row(s, rb, a),
        row(s, rb, b),
        &s.masks[mb + m as usize],
        &mut out,
        &mut ctx.stats.lane_fallback_ops,
    );
    s.regs[dst_abs] = out;
    r
}

#[allow(clippy::too_many_arguments)]
fn exec_cast(
    ctx: &mut ExecCtx<'_>,
    s: &mut BcScratch,
    rb: usize,
    mb: usize,
    m: u16,
    ty: Ty,
    dst: u16,
    a: u16,
) -> Result<(), EvalError> {
    ctx.charge_compute(ctx.profile.alu_lat, &s.masks[mb + m as usize]);
    let dst_abs = rb + dst as usize;
    let mut out = std::mem::take(&mut s.regs[dst_abs]);
    let r = apply_cast(
        ty,
        row(s, rb, a),
        &s.masks[mb + m as usize],
        &mut out,
        &mut ctx.stats.lane_fallback_ops,
    );
    s.regs[dst_abs] = out;
    r
}

#[allow(clippy::too_many_arguments)]
fn exec_load(
    ctx: &mut ExecCtx<'_>,
    s: &mut BcScratch,
    rb: usize,
    mb: usize,
    m: u16,
    mem: MemRef,
    idx: u16,
    dst: u16,
) -> Result<(), EvalError> {
    let dst_abs = rb + dst as usize;
    let mut out = std::mem::take(&mut s.regs[dst_abs]);
    // The strip path leaves `out` in its final form; the per-lane gather
    // normalizes it.
    let r = ctx.do_load_into(mem, row(s, rb, idx), &s.masks[mb + m as usize], &mut out);
    s.regs[dst_abs] = out;
    r
}

#[allow(clippy::too_many_arguments)]
fn exec_store(
    ctx: &mut ExecCtx<'_>,
    s: &mut BcScratch,
    rb: usize,
    mb: usize,
    m: u16,
    mem: MemRef,
    idx: u16,
    val: u16,
) -> Result<(), EvalError> {
    ctx.do_store(
        mem,
        row(s, rb, idx),
        row(s, rb, val),
        &s.masks[mb + m as usize],
    )
}

/// [`exec_binary`]'s charge for a mixed left operand in a group of several
/// blocks: each block's latency class from its own first active lane.
#[cold]
#[inline(never)]
fn charge_binary_per_block(ctx: &mut ExecCtx<'_>, op: BinOp, va: &RegRow, mask: &LaneMask) {
    for b in 0..ctx.blocks {
        let lanes = ctx.block_range(b);
        let first = mask.first_set_from(lanes.start).filter(|&l| l < lanes.end);
        let float = first.map(|l| va.ty_at(l)) == Some(Ty::F32);
        ctx.charge_block(ctx.profile.binop_lat(op, float), mask, b);
    }
}

/// `StoreLocal` into register `dst` from operand `src` of the frame at
/// `base`, under mask `m` (absolute), when some blocks of the group write
/// the local for the first time: each of them takes the source's whole
/// row over its own lanes, the others merge their active lanes. (The lanes
/// of a block that never wrote it are dead, so when no block had, the
/// whole row is copied.)
#[cold]
#[inline(never)]
fn store_local_first_writes(
    ctx: &mut ExecCtx<'_>,
    s: &mut BcScratch,
    dst: usize,
    (base, src): (usize, u16),
    m: usize,
) {
    let have = s.init[dst];
    let first = ctx.active_blocks(&s.masks[m]) & !have;
    let mut out = std::mem::take(&mut s.regs[dst]);
    let src_row = row(s, base, src);
    if have == 0 {
        out.copy_from(src_row);
    } else {
        merge_masked(
            &mut out,
            src_row,
            &s.masks[m],
            &mut ctx.stats.lane_fallback_ops,
        );
        for b in crate::mask::set_bits(first) {
            out.copy_range(src_row, ctx.block_range(b));
        }
    }
    s.regs[dst] = out;
    s.init[dst] = have | first;
}

/// Split a branch mask and store the halves; returns whether the
/// then-half is empty. The caller owns the branch charge and the jump.
#[allow(clippy::too_many_arguments)]
fn do_if_split(
    ctx: &mut ExecCtx<'_>,
    s: &mut BcScratch,
    rb: usize,
    mb: usize,
    m: u16,
    cond: u16,
    t: u16,
    f: u16,
) -> Result<bool, EvalError> {
    let mut tm = std::mem::take(&mut s.masks[mb + t as usize]);
    let mut fm = std::mem::take(&mut s.masks[mb + f as usize]);
    let r = split_mask(
        row(s, rb, cond),
        &s.masks[mb + m as usize],
        &mut tm,
        &mut fm,
        &mut ctx.stats.lane_fallback_ops,
    );
    let t_empty = !tm.any();
    s.masks[mb + t as usize] = tm;
    s.masks[mb + f as usize] = fm;
    r?;
    Ok(t_empty)
}

/// The loop-variable update `i = i OP amount` on the lanes of `lm`, in
/// place; `amt` is `None` for the self-aliasing `i OP= i` form.
fn step_loop(
    op: BinOp,
    current: &mut RegRow,
    amt: Option<&RegRow>,
    lm: &LaneMask,
    scratch: &mut Vec<u32>,
    fallback: &mut u64,
) -> Result<(), EvalError> {
    if let Some(ct) = bin_strip_tag(op, current, amt.unwrap_or(current), lm) {
        // The active lanes keep their tag, so only their bits move.
        current.update_strip(scratch, |out, bits| {
            bin_strip(op, ct, out, bits, amt.map_or(bits, |a| a.bits()), lm)
        });
        return Ok(());
    }
    *fallback += 1;
    for lane in lm.iter_set() {
        let x = current.get(lane);
        let y = amt.map_or(x, |a| a.get(lane));
        current.set(lane, op.apply(x, y)?);
    }
    current.normalize();
    Ok(())
}

/// Fill the constant-bank rows for one group. Charge-free, exactly like
/// the tree-walker's leaf evaluations; every row is filled on all lanes
/// with one type (so bank operands always qualify for typed loops), and
/// all but the thread coordinates — and, in a group of several blocks,
/// the block coordinates — hold one value.
fn fill_bank(ctx: &ExecCtx<'_>, prog: &CompiledKernel, s: &mut BcScratch) -> Result<(), EvalError> {
    use crate::device::ArgValue;
    let lanes = ctx.lanes;
    if s.bank.len() < prog.bank.len() {
        s.bank.resize_with(prog.bank.len(), || RegRow::new(0));
    }
    for (i, e) in prog.bank.iter().enumerate() {
        let bank_row = &mut s.bank[i];
        match e {
            BankEntry::Const(v) => bank_row.fill(lanes, *v),
            // Launch validation guarantees declared scalar params resolve,
            // but keep the tree-walker's checks for defense in depth.
            BankEntry::ScalarParam(p) => match ctx.args.get(*p) {
                Some(ArgValue::Scalar(v)) => bank_row.fill(lanes, *v),
                Some(ArgValue::Buffer(_)) => {
                    return Err(EvalError::NotPure("buffer parameter read as a scalar"))
                }
                None => {
                    return Err(EvalError::ArityMismatch {
                        expected: *p + 1,
                        found: ctx.args.len(),
                    })
                }
            },
            // One value per block, except the thread coordinates: lanes
            // are numbered row-major over each block.
            BankEntry::Special(sp) => {
                // (32-bit: the division is per lane per group.) Blocks are
                // whole multiples of the block width, so thread x of a
                // lane is the lane modulo the width.
                let (bx, by) = (ctx.block.x as u32, ctx.block.y as u32);
                let threads = 0..lanes as u32;
                let blocks = (0..ctx.blocks).map(|b| ctx.block_coords(b));
                match sp {
                    Special::ThreadIdX => bank_row.fill_from(TAG_I32, threads.map(|l| l % bx)),
                    Special::ThreadIdY if ctx.blocks == 1 => {
                        bank_row.fill_from(TAG_I32, threads.map(|l| l / bx))
                    }
                    Special::ThreadIdY => bank_row.fill_from(TAG_I32, threads.map(|l| l / bx % by)),
                    Special::BlockIdX => {
                        bank_row.fill_blocks(TAG_I32, ctx.block_lanes, blocks.map(|c| c.0 as u32))
                    }
                    Special::BlockIdY => {
                        bank_row.fill_blocks(TAG_I32, ctx.block_lanes, blocks.map(|c| c.1 as u32))
                    }
                    Special::BlockDimX => bank_row.fill(lanes, Scalar::I32(ctx.block.x as i32)),
                    Special::BlockDimY => bank_row.fill(lanes, Scalar::I32(ctx.block.y as i32)),
                    Special::GridDimX => bank_row.fill(lanes, Scalar::I32(ctx.grid.x as i32)),
                    Special::GridDimY => bank_row.fill(lanes, Scalar::I32(ctx.grid.y as i32)),
                }
            }
        }
    }
    Ok(())
}

/// Whether a block with a lane in `mask` has not written the local whose
/// init bits are `init`.
#[inline]
fn uninit(ctx: &ExecCtx<'_>, init: u64, mask: &LaneMask) -> bool {
    init != ctx.all_blocks() && ctx.active_blocks(mask) & !init != 0
}

/// Execute one group of `prog` against `ctx`: its blocks as one lane row.
/// Charges and memory traffic are bit-identical to the tree-walking oracle
/// running each block alone over the original AST.
pub(crate) fn execute(
    ctx: &mut ExecCtx<'_>,
    prog: &CompiledKernel,
    s: &mut BcScratch,
) -> Result<(), EvalError> {
    let lanes = ctx.lanes;
    fill_bank(ctx, prog, s)?;

    // Kernel frame window at the bottom of both arenas.
    let mut reg_base = 0usize;
    let mut mask_base = 0usize;
    let mut cur_regs = prog.frame.regs as usize;
    let mut cur_masks = prog.frame.masks as usize;
    // Sentinel: RetWrite/FuncRet never execute in the kernel frame.
    let mut cur_func = usize::MAX;
    if s.regs.len() < cur_regs {
        s.regs.resize_with(cur_regs, || RegRow::new(0));
    }
    if s.init.len() < cur_regs {
        s.init.resize(cur_regs, 0);
    }
    if s.masks.len() < cur_masks.max(1) {
        s.masks.resize_with(cur_masks.max(1), LaneMask::default);
    }
    s.init[..prog.frame.n_locals as usize].fill(0);
    s.masks[0].reset_full(lanes);
    s.calls.clear();
    // The kernel frame runs its statements unconditionally (the all-true
    // mask is never empty), matching `run_block`'s single entry check.
    let mut pc = 0usize;

    loop {
        ctx.stats.ops_dispatched += 1;
        match &prog.ops[pc] {
            Op::Unary { m, op, dst, a } => {
                exec_unary(ctx, s, reg_base, mask_base, *m, *op, *dst, *a)?;
            }
            Op::Binary { m, op, dst, a, b } => {
                exec_binary(ctx, s, reg_base, mask_base, *m, *op, *dst, *a, *b)?;
            }
            Op::Cmp { m, op, dst, a, b } => {
                exec_cmp(ctx, s, reg_base, mask_base, *m, *op, *dst, *a, *b)?;
            }
            Op::Cast { m, ty, dst, a } => {
                exec_cast(ctx, s, reg_base, mask_base, *m, *ty, *dst, *a)?;
            }
            Op::FoldedConst {
                m,
                dst,
                value,
                lat,
                count,
            } => {
                // Re-charge the folded subtree's summed compute cost. Pure
                // compute charges are an order-insensitive per-mask sum, so
                // charging them here (rather than op by op) is
                // unobservable in the final stats.
                let mask = &s.masks[mask_base + *m as usize];
                let warps = ctx.warp_count(mask);
                ctx.stats.compute_cycles += lat * warps;
                ctx.stats.instructions += count * warps;
                s.regs[reg_base + *dst as usize].fill_masked(*value, mask);
            }
            Op::GuardInit { m, local, var } => {
                let mask = &s.masks[mask_base + *m as usize];
                if uninit(ctx, s.init[reg_base + *local as usize], mask) {
                    return Err(EvalError::UninitializedVar(*var));
                }
            }
            Op::StoreLocal { m, local, src } => {
                let dst_abs = reg_base + *local as usize;
                let mask = &s.masks[mask_base + *m as usize];
                let have = s.init[dst_abs];
                // Self-assignment (`x = x`) is a no-op value-wise.
                if *src & BANK_FLAG == 0 && *src == *local {
                    s.init[dst_abs] |= ctx.active_blocks(mask);
                } else if have == ctx.all_blocks() {
                    let mut out = std::mem::take(&mut s.regs[dst_abs]);
                    merge_masked(
                        &mut out,
                        row(s, reg_base, *src),
                        mask,
                        &mut ctx.stats.lane_fallback_ops,
                    );
                    s.regs[dst_abs] = out;
                } else if have == 0 && (ctx.blocks == 1 || mask.all()) {
                    // First write: store the whole row, like the
                    // tree-walker moving the evaluated vector into the
                    // `None` slot (inactive lanes keep the source's
                    // filler/leaf values).
                    let mut out = std::mem::take(&mut s.regs[dst_abs]);
                    out.copy_from(row(s, reg_base, *src));
                    s.regs[dst_abs] = out;
                    s.init[dst_abs] = ctx.all_blocks();
                } else {
                    let m = mask_base + *m as usize;
                    store_local_first_writes(ctx, s, dst_abs, (reg_base, *src), m);
                }
            }
            Op::IfSplit {
                m,
                cond,
                t,
                f,
                skip_t,
            } => {
                ctx.charge_compute(ctx.profile.alu_lat, &s.masks[mask_base + *m as usize]);
                if do_if_split(ctx, s, reg_base, mask_base, *m, *cond, *t, *f)? {
                    pc = *skip_t as usize;
                    continue;
                }
            }
            Op::IfElse { f, skip } => {
                if !s.masks[mask_base + *f as usize].any() {
                    pc = *skip as usize;
                    continue;
                }
            }
            Op::SelSplit {
                m,
                cond,
                t,
                f,
                dst,
                skip_t,
            } => {
                ctx.charge_compute(ctx.profile.alu_lat, &s.masks[mask_base + *m as usize]);
                let t_empty = do_if_split(ctx, s, reg_base, mask_base, *m, *cond, *t, *f)?;
                s.regs[reg_base + *dst as usize].reset_filler(lanes);
                if t_empty {
                    pc = *skip_t as usize;
                    continue;
                }
            }
            Op::SelMerge { m, dst, src } => {
                let dst_abs = reg_base + *dst as usize;
                let mut out = std::mem::take(&mut s.regs[dst_abs]);
                merge_masked(
                    &mut out,
                    row(s, reg_base, *src),
                    &s.masks[mask_base + *m as usize],
                    &mut ctx.stats.lane_fallback_ops,
                );
                s.regs[dst_abs] = out;
            }
            Op::SelElse { f, skip } => {
                if !s.masks[mask_base + *f as usize].any() {
                    pc = *skip as usize;
                    continue;
                }
            }
            Op::ForPrep { m, ml, func, exit } => {
                let mut lm = std::mem::take(&mut s.masks[mask_base + *ml as usize]);
                lm.copy_from(&s.masks[mask_base + *m as usize]);
                if *func {
                    lm.and_not_assign(&s.masks[mask_base + 1]);
                }
                let empty = !lm.any();
                s.masks[mask_base + *ml as usize] = lm;
                if empty {
                    pc = *exit as usize;
                    continue;
                }
            }
            Op::ForTest {
                ml,
                local,
                var,
                cmp,
                bound,
                exit,
            } => {
                ctx.charge_compute(ctx.profile.alu_lat, &s.masks[mask_base + *ml as usize]);
                let local_abs = reg_base + *local as usize;
                if uninit(ctx, s.init[local_abs], &s.masks[mask_base + *ml as usize]) {
                    return Err(EvalError::UninitializedVar(*var));
                }
                let mut lm = std::mem::take(&mut s.masks[mask_base + *ml as usize]);
                let current = &s.regs[local_abs];
                let bnd = row(s, reg_base, *bound);
                let mut err = None;
                if let Some(ct) = current
                    .active_tag(&lm)
                    .filter(|&t| bnd.active_tag(&lm) == Some(t))
                {
                    // Equal-tag comparisons are infallible: refine the mask
                    // with the typed comparator, a mask word at a time.
                    cmp_refine(*cmp, ct, &mut lm, current.bits(), bnd.bits());
                } else {
                    ctx.stats.lane_fallback_ops += 1;
                    for lane in 0..lanes {
                        if lm.get(lane) {
                            match cmp
                                .apply(current.get(lane), bnd.get(lane))
                                .and_then(|v| v.as_bool())
                            {
                                Ok(cont) => {
                                    if !cont {
                                        lm.set(lane, false);
                                    }
                                }
                                Err(e) => {
                                    err = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                }
                let empty = !lm.any();
                s.masks[mask_base + *ml as usize] = lm;
                if let Some(e) = err {
                    return Err(e);
                }
                if empty {
                    pc = *exit as usize;
                    continue;
                }
                // One token per block still looping.
                ctx.tick(&s.masks[mask_base + *ml as usize])?;
            }
            Op::ForPrune { ml, exit } => {
                let mut lm = std::mem::take(&mut s.masks[mask_base + *ml as usize]);
                lm.and_not_assign(&s.masks[mask_base + 1]);
                let empty = !lm.any();
                s.masks[mask_base + *ml as usize] = lm;
                if empty {
                    pc = *exit as usize;
                    continue;
                }
            }
            Op::ForStep {
                ml,
                local,
                var,
                op,
                amount,
                head,
            } => {
                ctx.charge_compute(ctx.profile.alu_lat, &s.masks[mask_base + *ml as usize]);
                let local_abs = reg_base + *local as usize;
                if uninit(ctx, s.init[local_abs], &s.masks[mask_base + *ml as usize]) {
                    return Err(EvalError::UninitializedVar(*var));
                }
                let alias = *amount & BANK_FLAG == 0 && *amount == *local;
                let mut current = std::mem::take(&mut s.regs[local_abs]);
                let mut strip = std::mem::take(&mut s.strip);
                let r = step_loop(
                    *op,
                    &mut current,
                    (!alias).then(|| row(s, reg_base, *amount)),
                    &s.masks[mask_base + *ml as usize],
                    &mut strip,
                    &mut ctx.stats.lane_fallback_ops,
                );
                s.strip = strip;
                s.regs[local_abs] = current;
                r?;
                pc = *head as usize;
                continue;
            }
            Op::Live { base, live, exit } => {
                let mut lv = std::mem::take(&mut s.masks[mask_base + *live as usize]);
                lv.copy_from(&s.masks[mask_base + *base as usize]);
                lv.and_not_assign(&s.masks[mask_base + 1]);
                let empty = !lv.any();
                s.masks[mask_base + *live as usize] = lv;
                if empty {
                    pc = *exit as usize;
                    continue;
                }
            }
            Op::Load { m, mem, idx, dst } => {
                exec_load(ctx, s, reg_base, mask_base, *m, *mem, *idx, *dst)?;
            }
            Op::Store { m, mem, idx, val } => {
                exec_store(ctx, s, reg_base, mask_base, *m, *mem, *idx, *val)?;
            }
            Op::AtomicStmt {
                m,
                op,
                mem,
                idx,
                val,
            } => {
                ctx.do_atomic(
                    *op,
                    *mem,
                    row(s, reg_base, *idx),
                    row(s, reg_base, *val),
                    &s.masks[mask_base + *m as usize],
                )?;
            }
            Op::Sync { m } => {
                if !ctx.converged(&s.masks[mask_base + *m as usize]) {
                    return Err(EvalError::DivergentBarrier);
                }
            }
            Op::RetWrite { m, src } => {
                let meta = &prog.funcs[cur_func];
                let ret_abs = reg_base + (meta.frame.n_locals + meta.frame.n_params) as usize;
                let mut retv = std::mem::take(&mut s.regs[ret_abs]);
                let mut returned = std::mem::take(&mut s.masks[mask_base + 1]);
                let mask = &s.masks[mask_base + *m as usize];
                returned.or_assign(mask);
                merge_masked(
                    &mut retv,
                    row(s, reg_base, *src),
                    mask,
                    &mut ctx.stats.lane_fallback_ops,
                );
                s.regs[ret_abs] = retv;
                s.masks[mask_base + 1] = returned;
            }
            Op::Call { m, func, args, dst } => {
                let meta = &prog.funcs[*func as usize];
                // Per-parameter type check over active lanes, then the
                // call-overhead charge — the tree-walker's exact order.
                // Uniform rows check once for the whole strip.
                {
                    let mask = &s.masks[mask_base + *m as usize];
                    for (a, ty) in args.iter().zip(meta.param_tys.iter()) {
                        let arg_row = row(s, reg_base, *a);
                        let ut = arg_row.uniform_tag();
                        if ut == tag_of_ty(*ty) {
                            continue;
                        }
                        if ut != TAG_MIXED {
                            if mask.any() {
                                return Err(EvalError::TypeMismatch {
                                    expected: *ty,
                                    found: tag_ty(ut),
                                });
                            }
                            continue;
                        }
                        for lane in mask.iter_set() {
                            if arg_row.ty_at(lane) != *ty {
                                return Err(EvalError::TypeMismatch {
                                    expected: *ty,
                                    found: arg_row.ty_at(lane),
                                });
                            }
                        }
                    }
                }
                ctx.charge_compute(ctx.profile.alu_lat, &s.masks[mask_base + *m as usize]);
                if s.calls.len() >= CALL_DEPTH_LIMIT {
                    return Err(EvalError::IterationLimit);
                }
                let new_rb = reg_base + cur_regs;
                let new_mb = mask_base + cur_masks;
                let callee_regs = meta.frame.regs as usize;
                let callee_masks = meta.frame.masks as usize;
                let callee_locals = meta.frame.n_locals as usize;
                let entry = meta.entry;
                if s.regs.len() < new_rb + callee_regs {
                    s.regs.resize_with(new_rb + callee_regs, || RegRow::new(0));
                }
                if s.init.len() < new_rb + callee_regs {
                    s.init.resize(new_rb + callee_regs, 0);
                }
                if s.masks.len() < new_mb + callee_masks.max(2) {
                    s.masks
                        .resize_with(new_mb + callee_masks.max(2), LaneMask::default);
                }
                s.init[new_rb..new_rb + callee_locals].fill(0);
                // Mask slot 0: the call mask; slot 1: returned lanes.
                let mut cm = std::mem::take(&mut s.masks[new_mb]);
                cm.copy_from(&s.masks[mask_base + *m as usize]);
                s.masks[new_mb] = cm;
                s.masks[new_mb + 1].reset_empty(lanes);
                // Copy argument rows whole-lane into the callee's param
                // slots (the tree-walker passes the full vectors too).
                for (i, a) in args.iter().enumerate() {
                    let slot = new_rb + callee_locals + i;
                    let mut p = std::mem::take(&mut s.regs[slot]);
                    p.copy_from(row(s, reg_base, *a));
                    s.regs[slot] = p;
                }
                // Return-value slot starts as filler on every lane.
                let ret_slot = new_rb + callee_locals + args.len();
                s.regs[ret_slot].reset_filler(lanes);
                s.calls.push(CallCtx {
                    ret_pc: pc + 1,
                    ret_dst: reg_base + *dst as usize,
                    prev_reg_base: reg_base,
                    prev_mask_base: mask_base,
                    prev_regs: cur_regs,
                    prev_masks: cur_masks,
                    prev_func: cur_func,
                });
                reg_base = new_rb;
                mask_base = new_mb;
                cur_regs = callee_regs;
                cur_masks = callee_masks;
                cur_func = *func as usize;
                pc = entry;
                continue;
            }
            Op::FuncRet { func } => {
                let meta = &prog.funcs[*func as usize];
                {
                    let cm = &s.masks[mask_base];
                    let returned = &s.masks[mask_base + 1];
                    for lane in cm.iter_set() {
                        if !returned.get(lane) {
                            return Err(EvalError::MissingReturn(meta.name.clone()));
                        }
                    }
                }
                let cc = s.calls.pop().expect("FuncRet outside a call");
                let ret_abs = reg_base + (meta.frame.n_locals + meta.frame.n_params) as usize;
                let mut out = std::mem::take(&mut s.regs[cc.ret_dst]);
                out.copy_from(&s.regs[ret_abs]);
                s.regs[cc.ret_dst] = out;
                reg_base = cc.prev_reg_base;
                mask_base = cc.prev_mask_base;
                cur_regs = cc.prev_regs;
                cur_masks = cc.prev_masks;
                cur_func = cc.prev_func;
                pc = cc.ret_pc;
                continue;
            }
            Op::Trap(e) => return Err((**e).clone()),
            Op::Halt => return Ok(()),
            Op::FusedBinBin {
                m,
                op1,
                dst1,
                a1,
                b1,
                op2,
                dst2,
                a2,
                b2,
            } => {
                ctx.stats.fusions_hit += 1;
                exec_binary(ctx, s, reg_base, mask_base, *m, *op1, *dst1, *a1, *b1)?;
                exec_binary(ctx, s, reg_base, mask_base, *m, *op2, *dst2, *a2, *b2)?;
                pc += 2;
                continue;
            }
            Op::FusedCmpIf {
                m,
                op,
                dst,
                a,
                b,
                t,
                f,
                skip_t,
            } => {
                ctx.stats.fusions_hit += 1;
                exec_cmp(ctx, s, reg_base, mask_base, *m, *op, *dst, *a, *b)?;
                ctx.charge_compute(ctx.profile.alu_lat, &s.masks[mask_base + *m as usize]);
                if do_if_split(ctx, s, reg_base, mask_base, *m, *dst, *t, *f)? {
                    pc = *skip_t as usize;
                } else {
                    pc += 2;
                }
                continue;
            }
            Op::FusedLoadCast {
                m,
                mem,
                idx,
                dst,
                ty,
                dst2,
            } => {
                ctx.stats.fusions_hit += 1;
                exec_load(ctx, s, reg_base, mask_base, *m, *mem, *idx, *dst)?;
                exec_cast(ctx, s, reg_base, mask_base, *m, *ty, *dst2, *dst)?;
                pc += 2;
                continue;
            }
            Op::FusedBinStore {
                m,
                op,
                dst,
                a,
                b,
                mem,
                idx,
            } => {
                ctx.stats.fusions_hit += 1;
                exec_binary(ctx, s, reg_base, mask_base, *m, *op, *dst, *a, *b)?;
                exec_store(ctx, s, reg_base, mask_base, *m, *mem, *idx, *dst)?;
                pc += 2;
                continue;
            }
        }
        pc += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{LocalDecl, Param, VarId};

    fn profile() -> DeviceProfile {
        DeviceProfile::gtx560()
    }

    /// `out[i] = (2 + 3) * in[i]` with a loop and a call-free body.
    fn simple_program() -> (Program, Kernel) {
        let mut p = Program::new();
        let k = Kernel {
            name: "saxpyish".into(),
            params: vec![
                Param::Buffer {
                    name: "in".into(),
                    ty: Ty::F32,
                    space: paraprox_ir::MemSpace::Global,
                },
                Param::Buffer {
                    name: "out".into(),
                    ty: Ty::F32,
                    space: paraprox_ir::MemSpace::Global,
                },
            ],
            shared: vec![],
            locals: vec![LocalDecl {
                name: "x".into(),
                ty: Ty::F32,
            }],
            body: vec![
                Stmt::Let {
                    var: VarId(0),
                    init: Expr::Load {
                        mem: MemRef::Param(0),
                        index: Box::new(Expr::Special(Special::ThreadIdX)),
                    },
                },
                Stmt::Store {
                    mem: MemRef::Param(1),
                    index: Expr::Special(Special::ThreadIdX),
                    value: Expr::Binary(
                        BinOp::Mul,
                        Box::new(Expr::Binary(
                            BinOp::Add,
                            Box::new(Expr::f32(2.0)),
                            Box::new(Expr::f32(3.0)),
                        )),
                        Box::new(Expr::Var(VarId(0))),
                    ),
                },
            ],
        };
        let kc = k.clone();
        p.add_kernel(k);
        (p, kc)
    }

    #[test]
    fn compiles_and_disassembles() {
        let (p, k) = simple_program();
        let compiled = compile_kernel(&p, &k, &profile());
        assert!(compiled.op_count() > 0);
        let dis = compiled.disassemble();
        assert!(dis.contains("saxpyish"), "missing kernel name:\n{dis}");
        assert!(dis.contains("load"), "missing load op:\n{dis}");
        assert!(dis.contains("store"), "missing store op:\n{dis}");
        assert!(dis.contains("halt"), "missing halt:\n{dis}");
    }

    #[test]
    fn folds_constant_subtrees() {
        let (p, k) = simple_program();
        let compiled = compile_kernel(&p, &k, &profile());
        // `2 + 3` must fold: no standalone Add op, one FoldedConst
        // carrying its latency and instruction count.
        assert!(
            !compiled
                .ops
                .iter()
                .any(|op| matches!(op, Op::Binary { op: BinOp::Add, .. })),
            "constant add not folded:\n{}",
            compiled.disassemble()
        );
        let folded = compiled
            .ops
            .iter()
            .find_map(|op| match op {
                Op::FoldedConst {
                    value, lat, count, ..
                } => Some((*value, *lat, *count)),
                _ => None,
            })
            .expect("no FoldedConst emitted");
        assert_eq!(folded.0, Scalar::F32(5.0));
        assert_eq!(folded.1, profile().alu_lat);
        assert_eq!(folded.2, 1);
    }

    #[test]
    fn pure_constant_operands_use_the_bank() {
        let (p, k) = simple_program();
        let compiled = compile_kernel(&p, &k, &profile());
        // threadIdx.x is used twice but banked once.
        let specials = compiled
            .bank
            .iter()
            .filter(|e| matches!(e, BankEntry::Special(Special::ThreadIdX)))
            .count();
        assert_eq!(specials, 1);
    }

    #[test]
    fn return_in_kernel_body_traps() {
        let mut p = Program::new();
        let k = Kernel {
            name: "bad".into(),
            params: vec![],
            shared: vec![],
            locals: vec![],
            body: vec![Stmt::Return(Expr::i32(0))],
        };
        let kc = k.clone();
        p.add_kernel(k);
        let compiled = compile_kernel(&p, &kc, &profile());
        assert!(
            compiled.ops.iter().any(
                |op| matches!(op, Op::Trap(e) if **e == EvalError::NotPure("return in kernel body"))
            ),
            "expected a trap:\n{}",
            compiled.disassemble()
        );
    }

    /// The four fusable shapes as `(first, second)` over registers from
    /// `r`, all under mask slot 0.
    fn shapes(r: u16) -> [(Op, Op); 4] {
        let (m, mem) = (0, MemRef::Param(0));
        #[rustfmt::skip]
        let shapes = [
            (Op::Binary { m, op: BinOp::Mul, dst: r, a: r + 1, b: r + 2 },
             Op::Binary { m, op: BinOp::Add, dst: r + 3, a: r, b: r + 1 }),
            (Op::Cmp { m, op: CmpOp::Lt, dst: r, a: r + 1, b: r + 2 },
             Op::IfSplit { m, cond: r, t: 1, f: 2, skip_t: 0 }),
            (Op::Load { m, mem, idx: r + 1, dst: r },
             Op::Cast { m, ty: Ty::F32, dst: r + 3, a: r }),
            (Op::Binary { m, op: BinOp::Add, dst: r, a: r + 1, b: r + 2 },
             Op::Store { m, mem, idx: r + 1, val: r }),
        ];
        shapes
    }

    #[test]
    fn fusion_never_spans_a_jump_target() {
        // Every op that jumps, by the pc it jumps to.
        #[rustfmt::skip]
        let jumps: [fn(u32) -> Op; 9] = [
            |p| Op::IfSplit { m: 0, cond: 0, t: 1, f: 2, skip_t: p },
            |p| Op::IfElse { f: 2, skip: p },
            |p| Op::SelSplit { m: 0, cond: 0, t: 1, f: 2, dst: 0, skip_t: p },
            |p| Op::SelElse { f: 2, skip: p },
            |p| Op::ForPrep { m: 0, ml: 3, func: false, exit: p },
            |p| Op::ForTest { ml: 3, local: 0, var: 0, cmp: CmpOp::Lt, bound: 0, exit: p },
            |p| Op::ForPrune { ml: 3, exit: p },
            |p| Op::ForStep { ml: 3, local: 0, var: 0, op: BinOp::Add, amount: 0, head: p },
            |p| Op::Live { base: 0, live: 3, exit: p },
        ];
        let mut ops = vec![Op::Halt];
        let (mut funcs, mut jumpers, mut want) = (Vec::new(), Vec::new(), Vec::new());
        for (first, second) in shapes(8) {
            // Each shape once per way in: free-standing, entered at its
            // first op from a call's resume point, and with its second op
            // entered by each jump and as a function entry.
            for target in 0..jumps.len() + 3 {
                if target == 1 {
                    let args = Box::new([]);
                    ops.push(Op::Call {
                        m: 0,
                        func: 0,
                        args,
                        dst: 4,
                    });
                }
                let pc = ops.len();
                ops.extend([first.clone(), second.clone(), Op::Halt]);
                let entry = pc as u32 + 1;
                match target {
                    0 | 1 => {}
                    2 => funcs.push(FuncMeta {
                        name: "f".into(),
                        entry: entry as usize,
                        frame: FrameMeta::default(),
                        param_tys: Box::new([]),
                    }),
                    j => jumpers.push(jumps[j - 3](entry)),
                }
                want.push((pc, target < 2));
            }
        }
        ops.extend(jumpers);
        let before = ops.clone();
        fuse_pairs(&mut ops, &funcs);
        for (pc, fuses) in want {
            assert_eq!(
                ops[pc].is_fused(),
                fuses,
                "pc {pc}: {:?} then {:?}",
                before[pc],
                before[pc + 1]
            );
            // The second op stays in place, fused or not.
            assert_eq!(
                format!("{:?}", ops[pc + 1]),
                format!("{:?}", before[pc + 1])
            );
        }
        assert_eq!(
            ops.iter().filter(|op| op.is_fused()).count(),
            4 * 2,
            "only the free-standing and call-resumed shapes fuse"
        );
    }

    /// `out[gid] = f(v) * 2 + v; out[gid] = v * 2` in a loop behind
    /// `if v < 3`, where `v = float(ints[gid])` and `f(x) = x * x + x`:
    /// each shape sits away from any jump target (the first multiply
    /// right at the call's resume point), and `compile_kernel` fuses all
    /// four.
    #[test]
    fn compile_kernel_fuses_each_shape() {
        use paraprox_ir::{FuncBuilder, KernelBuilder, MemSpace};
        let mut p = Program::new();
        let mut fb = FuncBuilder::new("f", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        fb.ret(x.clone() * x.clone() + x);
        let f = p.add_func(fb.finish());
        let mut kb = KernelBuilder::new("shapes");
        let ints = kb.buffer("ints", Ty::I32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(ints, gid.clone()).cast(Ty::F32));
        kb.if_(v.clone().lt(Expr::f32(3.0)), |kb| {
            kb.for_up("i", Expr::i32(0), Expr::i32(4), Expr::i32(1), |kb, _| {
                let call = Expr::Call {
                    func: f,
                    args: vec![v.clone()],
                };
                kb.store(out, gid.clone(), call * Expr::f32(2.0) + v.clone());
                kb.store(out, gid.clone(), v.clone() * Expr::f32(2.0));
            });
        });
        let kid = p.add_kernel(kb.finish());
        let compiled = compile_kernel(&p, p.kernel(kid), &profile());
        let has = |shape: fn(&Op) -> bool| compiled.ops.iter().any(shape);
        let dis = compiled.disassemble();
        assert!(has(|op| matches!(op, Op::FusedBinBin { .. })), "{dis}");
        assert!(has(|op| matches!(op, Op::FusedCmpIf { .. })), "{dis}");
        assert!(has(|op| matches!(op, Op::FusedLoadCast { .. })), "{dis}");
        assert!(has(|op| matches!(op, Op::FusedBinStore { .. })), "{dis}");
        // The disassembly marks each superinstruction's padding op.
        assert_eq!(
            dis.matches("  ~ ").count(),
            compiled.superinstruction_count()
        );
    }
}
