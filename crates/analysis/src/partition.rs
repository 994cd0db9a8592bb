//! Buffer-criticality partitioning: which buffers may live in
//! approximate memory.
//!
//! Approximate memory (cheaper, occasionally bit-flipping DRAM) is only
//! sound for *payload* data — pixels, samples, weights — whose corruption
//! degrades output quality gracefully. Data that *addresses* memory,
//! *steers* control flow, or *synchronizes* threads must stay exact: one
//! flipped index is an out-of-bounds access, one flipped predicate a
//! divergent barrier. Following Akiyama (arXiv 2004.01637), this pass
//! partitions every kernel parameter and shared allocation into
//! [`Criticality::Critical`] or [`Criticality::Tolerant`] so the runtime
//! can auto-place only tolerant buffers in `MemSpace::Approx`.
//!
//! # The lattice
//!
//! The analysis is a taint fixpoint over a two-point lattice per buffer
//! (`Tolerant ⊑ Critical`) with value-taint sets over memory *origins*
//! (buffer parameters and shared arrays) as the transfer medium:
//!
//! * **Seeds.** A loaded value's taint is the object it was loaded from.
//! * **Sinks.** Taint reaching an address computation (load/store/atomic
//!   index), a branch or select condition, a loop init/bound/step, or an
//!   atomic target promotes every origin in the taint set to Critical.
//!   Atomic targets themselves are Critical outright: a read-modify-write
//!   cycle must observe exact cell contents.
//! * **Copies.** Let/assign propagate taint through locals; a monotone
//!   fixpoint covers loop-carried taint.
//! * **Memory-mediated flow.** Storing a value tainted by `B` into `C`
//!   records a flow edge `B → C`; the backward closure then makes `B`
//!   Critical whenever `C` is — data that lands in an index store is
//!   index data at its source too.
//! * **Calls.** Device functions get interprocedural summaries: which
//!   scalar parameters flow to the return value, which reach a
//!   control/address sink inside, which objects the function loads,
//!   stores, or atomically updates (memory references inside functions
//!   resolve against the *kernel's* objects, so summaries speak the same
//!   origin language). A memory-effectful callee is handled
//!   conservatively: every argument taint and every loaded origin is
//!   assumed to reach every stored target.
//!
//! # Soundness argument
//!
//! The claim is one-directional: a buffer classified Tolerant never
//! influences an address, a control decision, or an atomic cell. Every
//! IR construct that consumes a value either (a) is a sink listed above,
//! (b) forwards taint (arithmetic, casts, copies, returns, stores), or
//! (c) ignores it. Sinks promote; forwarders propagate (through locals
//! by the fixpoint, through memory by the flow-edge closure, through
//! calls by the summaries, conservatively on cycles); so any path from a
//! load of `B` to a sink marks `B` Critical. The inverse direction is
//! deliberately not claimed — Critical is an over-approximation, and a
//! spurious Critical only costs speedup, never correctness. The
//! differential harness in `tests/approxmem_suite.rs` drives the
//! executor's fault injector at force-placed Critical buffers to witness
//! the divergence this pass statically predicts.
//!
//! Each Critical verdict carries a *witness chain*: the sink that
//! promoted it, prefixed by the flow edges that led there.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use paraprox_ir::{Expr, FuncId, Kernel, KernelId, MemRef, MemSpace, Param, Program, Stmt};

use crate::diag::{Diagnostic, Severity};

/// Verdict for one memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criticality {
    /// Bit errors in this buffer can corrupt addresses, control flow, or
    /// synchronization — it must stay in exact memory.
    Critical,
    /// Only payload values flow out of this buffer; bit errors degrade
    /// quality, not safety.
    Tolerant,
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Criticality::Critical => "critical",
            Criticality::Tolerant => "tolerant",
        })
    }
}

/// The partition verdict for one kernel parameter or shared allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferVerdict {
    /// The object (buffer parameter index or shared array).
    pub mem: MemRef,
    /// Debug name from the declaration.
    pub name: String,
    /// Declared memory space (`Shared` for shared allocations).
    pub declared: MemSpace,
    /// The verdict.
    pub criticality: Criticality,
    /// For Critical verdicts: the chain of flows ending at the sink that
    /// promoted this object (first entry is closest to the object).
    /// Empty for Tolerant verdicts.
    pub witness: Vec<String>,
}

impl BufferVerdict {
    /// The witness chain as one ` -> `-joined string (empty for
    /// Tolerant).
    pub fn witness_string(&self) -> String {
        self.witness.join(" -> ")
    }
}

/// The partition of one kernel's memory objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPartition {
    /// The kernel.
    pub kernel: KernelId,
    /// Its name.
    pub kernel_name: String,
    /// One verdict per buffer parameter and shared allocation, in
    /// declaration order (parameters first).
    pub verdicts: Vec<BufferVerdict>,
}

impl KernelPartition {
    /// The verdict for `mem`, if it is a buffer parameter or shared
    /// allocation of this kernel.
    pub fn verdict(&self, mem: MemRef) -> Option<&BufferVerdict> {
        self.verdicts.iter().find(|v| v.mem == mem)
    }
}

/// Interprocedural summary of one device function, in kernel-origin
/// terms (memory references inside functions resolve against the
/// enclosing kernel's parameter/shared tables).
#[derive(Debug, Clone, Default)]
struct FuncInfo {
    /// Scalar parameter indices whose values flow to the return value.
    ret_params: BTreeSet<usize>,
    /// Memory objects whose loaded values flow to the return value.
    ret_mems: BTreeSet<MemRef>,
    /// Parameter indices that reach a control or address sink inside.
    control_params: BTreeSet<usize>,
    /// Memory objects whose loaded values reach a sink inside.
    sink_mems: BTreeSet<MemRef>,
    /// Objects loaded anywhere inside (transitively).
    loads: BTreeSet<MemRef>,
    /// Objects stored to by plain stores inside (transitively).
    store_targets: BTreeSet<MemRef>,
    /// Objects atomically updated inside (transitively).
    atomic_targets: BTreeSet<MemRef>,
}

impl FuncInfo {
    fn has_memory_effects(&self) -> bool {
        !self.store_targets.is_empty() || !self.atomic_targets.is_empty()
    }
}

/// Taint of a value inside a device function: the function's own scalar
/// parameters plus kernel memory origins.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct FuncTaint {
    params: BTreeSet<usize>,
    mems: BTreeSet<MemRef>,
}

impl FuncTaint {
    fn union(&mut self, other: &FuncTaint) {
        self.params.extend(other.params.iter().copied());
        self.mems.extend(other.mems.iter().copied());
    }
}

/// Memoized per-function summaries with cycle protection.
struct FuncSummarizer<'a> {
    program: &'a Program,
    memo: Vec<Option<FuncInfo>>,
    visiting: Vec<bool>,
}

impl<'a> FuncSummarizer<'a> {
    fn new(program: &'a Program) -> FuncSummarizer<'a> {
        let n = program.func_count();
        FuncSummarizer {
            program,
            memo: vec![None; n],
            visiting: vec![false; n],
        }
    }

    fn info(&mut self, id: FuncId) -> FuncInfo {
        let idx = id.0;
        if idx >= self.memo.len() || self.visiting[idx] {
            // Unknown or cyclic callee: assume every parameter reaches a
            // sink (the executor cannot finish such a call anyway).
            let params = match self.program.funcs().nth(idx) {
                Some((_, f)) => (0..f.params.len()).collect(),
                None => BTreeSet::new(),
            };
            return FuncInfo {
                control_params: params,
                ..FuncInfo::default()
            };
        }
        if let Some(info) = &self.memo[idx] {
            return info.clone();
        }
        self.visiting[idx] = true;
        let f = self.program.func(id);
        let mut state = FuncState {
            var_taint: vec![FuncTaint::default(); f.locals.len()],
            info: FuncInfo::default(),
        };
        // Fixpoint over loop-carried locals: taints only grow.
        loop {
            let before = state.var_taint.clone();
            state.info = FuncInfo::default();
            self.func_stmts(&f.body, &mut state);
            if state.var_taint == before {
                break;
            }
        }
        self.visiting[idx] = false;
        self.memo[idx] = Some(state.info.clone());
        state.info
    }

    fn func_stmts(&mut self, stmts: &[Stmt], state: &mut FuncState) {
        for stmt in stmts {
            match stmt {
                Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                    let t = self.func_expr(init, state);
                    // Weak update: a strong update could oscillate under
                    // the fixpoint; union keeps it monotone.
                    state.var_taint[var.index()].union(&t);
                }
                Stmt::Store { mem, index, value } => {
                    let ti = self.func_expr(index, state);
                    state.sink(&ti);
                    let tv = self.func_expr(value, state);
                    // Conservative: stored values inside functions are
                    // folded into the blanket store summary.
                    state.info.store_targets.insert(*mem);
                    state.info.control_params.extend(tv.params);
                    state.info.sink_mems.extend(tv.mems);
                }
                Stmt::Atomic {
                    mem, index, value, ..
                } => {
                    let ti = self.func_expr(index, state);
                    state.sink(&ti);
                    let tv = self.func_expr(value, state);
                    state.info.atomic_targets.insert(*mem);
                    state.info.control_params.extend(tv.params);
                    state.info.sink_mems.extend(tv.mems);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let t = self.func_expr(cond, state);
                    state.sink(&t);
                    self.func_stmts(then_body, state);
                    self.func_stmts(else_body, state);
                }
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    var,
                } => {
                    for e in [init, cond.bound(), step.amount()] {
                        let t = self.func_expr(e, state);
                        state.sink(&t);
                    }
                    state.var_taint[var.index()] = FuncTaint::default();
                    self.func_stmts(body, state);
                }
                Stmt::Sync => {}
                Stmt::Return(e) => {
                    let t = self.func_expr(e, state);
                    state.info.ret_params.extend(t.params);
                    state.info.ret_mems.extend(t.mems);
                }
            }
        }
    }

    fn func_expr(&mut self, e: &Expr, state: &mut FuncState) -> FuncTaint {
        match e {
            Expr::Const(_) | Expr::Special(_) => FuncTaint::default(),
            Expr::Var(v) => state.var_taint[v.index()].clone(),
            Expr::Param(i) => FuncTaint {
                params: BTreeSet::from([*i]),
                mems: BTreeSet::new(),
            },
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.func_expr(a, state),
            Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) => {
                let mut t = self.func_expr(a, state);
                t.union(&self.func_expr(b, state));
                t
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                let tc = self.func_expr(cond, state);
                state.sink(&tc);
                let mut t = self.func_expr(if_true, state);
                t.union(&self.func_expr(if_false, state));
                t
            }
            Expr::Load { mem, index } => {
                let ti = self.func_expr(index, state);
                state.sink(&ti);
                state.info.loads.insert(*mem);
                FuncTaint {
                    params: BTreeSet::new(),
                    mems: BTreeSet::from([*mem]),
                }
            }
            Expr::Call { func, args } => {
                let callee = self.info(*func);
                let arg_taints: Vec<FuncTaint> =
                    args.iter().map(|a| self.func_expr(a, state)).collect();
                let mut out = FuncTaint::default();
                for (i, t) in arg_taints.iter().enumerate() {
                    if callee.control_params.contains(&i)
                        || (callee.has_memory_effects() && !callee.store_targets.is_empty())
                    {
                        state.sink(t);
                    }
                    if callee.ret_params.contains(&i) {
                        out.union(t);
                    }
                }
                out.mems.extend(callee.ret_mems.iter().copied());
                state.info.loads.extend(callee.loads.iter().copied());
                state
                    .info
                    .sink_mems
                    .extend(callee.sink_mems.iter().copied());
                state
                    .info
                    .store_targets
                    .extend(callee.store_targets.iter().copied());
                state
                    .info
                    .atomic_targets
                    .extend(callee.atomic_targets.iter().copied());
                out
            }
        }
    }
}

struct FuncState {
    var_taint: Vec<FuncTaint>,
    info: FuncInfo,
}

impl FuncState {
    fn sink(&mut self, t: &FuncTaint) {
        self.info.control_params.extend(t.params.iter().copied());
        self.info.sink_mems.extend(t.mems.iter().copied());
    }
}

type Taint = BTreeSet<MemRef>;

/// The kernel-level walker: taint fixpoint + sink collection.
struct KernelPass<'a> {
    program: &'a Program,
    kernel: &'a Kernel,
    funcs: FuncSummarizer<'a>,
    var_taint: Vec<Taint>,
    /// Origin → the sink reason that promoted it (first wins).
    critical: BTreeMap<MemRef, Vec<String>>,
    /// Memory-mediated flow: (source origin, destination object,
    /// description), collected in program order.
    edges: Vec<(MemRef, MemRef, String)>,
    path: Vec<usize>,
}

impl<'a> KernelPass<'a> {
    fn mem_name(&self, mem: MemRef) -> String {
        match mem {
            MemRef::Param(i) => self
                .kernel
                .params
                .get(i)
                .map(|p| p.name().to_string())
                .unwrap_or_else(|| format!("p{i}")),
            MemRef::Shared(s) => self
                .kernel
                .shared
                .get(s.index())
                .map(|d| d.name.clone())
                .unwrap_or_else(|| format!("s{}", s.0)),
        }
    }

    fn path_string(&self) -> String {
        if self.path.is_empty() {
            "<kernel>".to_string()
        } else {
            self.path
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(".")
        }
    }

    fn mark_critical(&mut self, taint: &Taint, reason: impl Fn(&Self) -> String) {
        if taint.is_empty() {
            return;
        }
        let msg = reason(self);
        for mem in taint {
            self.critical
                .entry(*mem)
                .or_insert_with(|| vec![msg.clone()]);
        }
    }

    fn stmts(&mut self, stmts: &[Stmt]) {
        for (i, stmt) in stmts.iter().enumerate() {
            self.path.push(i);
            self.stmt(stmt);
            self.path.pop();
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Let { var, init } | Stmt::Assign { var, value: init } => {
                let t = self.expr(init);
                // Weak update (union) keeps the fixpoint monotone.
                self.var_taint[var.index()].extend(t);
            }
            Stmt::Store { mem, index, value } => {
                let ti = self.expr(index);
                let dst = self.mem_name(*mem);
                self.mark_critical(&ti, |s| {
                    format!(
                        "forms the index of a store to `{dst}` at stmt {}",
                        s.path_string()
                    )
                });
                let tv = self.expr(value);
                for src in tv {
                    let desc = format!(
                        "its value is stored into `{dst}` at stmt {}",
                        self.path_string()
                    );
                    self.edges.push((src, *mem, desc));
                }
            }
            Stmt::Atomic {
                mem, index, value, ..
            } => {
                let ti = self.expr(index);
                let dst = self.mem_name(*mem);
                self.mark_critical(&ti, |s| {
                    format!(
                        "forms the index of an atomic update of `{dst}` at stmt {}",
                        s.path_string()
                    )
                });
                // The target itself must read exactly for its RMW cycle.
                self.mark_critical(&BTreeSet::from([*mem]), |s| {
                    format!(
                        "is the target of an atomic update at stmt {}",
                        s.path_string()
                    )
                });
                let tv = self.expr(value);
                for src in tv {
                    let desc = format!(
                        "its value feeds an atomic update of `{dst}` at stmt {}",
                        self.path_string()
                    );
                    self.edges.push((src, *mem, desc));
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let t = self.expr(cond);
                self.mark_critical(&t, |s| {
                    format!("guards the branch at stmt {}", s.path_string())
                });
                self.stmts(then_body);
                self.stmts(else_body);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                var,
            } => {
                for (e, what) in [
                    (init, "initializes"),
                    (cond.bound(), "bounds"),
                    (step.amount(), "steps"),
                ] {
                    let t = self.expr(e);
                    self.mark_critical(&t, |s| {
                        format!("{what} the loop at stmt {}", s.path_string())
                    });
                }
                // The induction variable is launch-derived, not
                // buffer-tainted (its feeding expressions were just
                // sunk above).
                self.var_taint[var.index()].clear();
                self.stmts(body);
            }
            Stmt::Sync => {}
            Stmt::Return(e) => {
                let _ = self.expr(e);
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Taint {
        match e {
            Expr::Const(_) | Expr::Special(_) | Expr::Param(_) => Taint::new(),
            Expr::Var(v) => self.var_taint[v.index()].clone(),
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.expr(a),
            Expr::Binary(_, a, b) | Expr::Cmp(_, a, b) => {
                let mut t = self.expr(a);
                t.extend(self.expr(b));
                t
            }
            Expr::Select {
                cond,
                if_true,
                if_false,
            } => {
                let tc = self.expr(cond);
                self.mark_critical(&tc, |s| {
                    format!("decides the select at stmt {}", s.path_string())
                });
                let mut t = self.expr(if_true);
                t.extend(self.expr(if_false));
                t
            }
            Expr::Load { mem, index } => {
                let ti = self.expr(index);
                let src = self.mem_name(*mem);
                self.mark_critical(&ti, |s| {
                    format!(
                        "forms the index of a load from `{src}` at stmt {}",
                        s.path_string()
                    )
                });
                Taint::from([*mem])
            }
            Expr::Call { func, args } => {
                let callee = self.funcs.info(*func);
                let fname = self
                    .program
                    .funcs()
                    .nth(func.0)
                    .map(|(_, f)| f.name.clone())
                    .unwrap_or_else(|| format!("fn#{}", func.0));
                let arg_taints: Vec<Taint> = args.iter().map(|a| self.expr(a)).collect();
                let mut out = Taint::new();
                for (i, t) in arg_taints.iter().enumerate() {
                    if callee.control_params.contains(&i) {
                        self.mark_critical(t, |s| {
                            format!(
                                "reaches a control or address use inside `{fname}` called at stmt {}",
                                s.path_string()
                            )
                        });
                    }
                    if callee.ret_params.contains(&i) {
                        out.extend(t.iter().copied());
                    }
                }
                // Objects whose loads reach sinks inside the callee are
                // Critical regardless of the call context.
                let sink_mems: Taint = callee.sink_mems.iter().copied().collect();
                self.mark_critical(&sink_mems, |s| {
                    format!(
                        "its loaded value reaches a control or address use inside `{fname}` called at stmt {}",
                        s.path_string()
                    )
                });
                // Atomic targets inside the callee are Critical.
                let atomics: Taint = callee.atomic_targets.iter().copied().collect();
                self.mark_critical(&atomics, |s| {
                    format!(
                        "is atomically updated inside `{fname}` called at stmt {}",
                        s.path_string()
                    )
                });
                // A memory-effectful callee conservatively routes every
                // argument taint and every loaded origin into every
                // stored target.
                if callee.has_memory_effects() {
                    let mut sources: Taint = callee.loads.iter().copied().collect();
                    for t in &arg_taints {
                        sources.extend(t.iter().copied());
                    }
                    for dst in &callee.store_targets {
                        for src in &sources {
                            let desc = format!(
                                "its value may be stored into `{}` inside `{fname}` called at stmt {}",
                                self.mem_name(*dst),
                                self.path_string()
                            );
                            self.edges.push((*src, *dst, desc));
                        }
                    }
                }
                out.extend(callee.ret_mems.iter().copied());
                out
            }
        }
    }
}

/// Maximum witness-chain length kept per buffer — long memory-mediated
/// chains are truncated with an ellipsis entry.
const MAX_WITNESS: usize = 8;

/// Partition one kernel's buffer parameters and shared allocations.
pub fn partition_kernel(program: &Program, kernel: KernelId) -> KernelPartition {
    let k = program.kernel(kernel);
    let mut pass = KernelPass {
        program,
        kernel: k,
        funcs: FuncSummarizer::new(program),
        var_taint: vec![Taint::new(); k.locals.len()],
        critical: BTreeMap::new(),
        edges: Vec::new(),
        path: Vec::new(),
    };
    // Taint fixpoint: rerun the walk until loop-carried taints stabilize;
    // the last iteration's sink/edge collection sees the full taints.
    loop {
        let before = pass.var_taint.clone();
        pass.critical.clear();
        pass.edges.clear();
        pass.stmts(&k.body);
        if pass.var_taint == before {
            break;
        }
    }
    // Backward closure over memory-mediated flow: if `dst` is Critical
    // and `src`'s data flows into it, `src` is Critical with the edge
    // prepended to `dst`'s witness chain.
    loop {
        let mut changed = false;
        for (src, dst, desc) in &pass.edges {
            if pass.critical.contains_key(dst) && !pass.critical.contains_key(src) {
                let mut chain = vec![desc.clone()];
                let tail = &pass.critical[dst];
                if chain.len() + tail.len() > MAX_WITNESS {
                    chain.extend(tail.iter().take(MAX_WITNESS - 1).cloned());
                    chain.push("…".to_string());
                } else {
                    chain.extend(tail.iter().cloned());
                }
                pass.critical.insert(*src, chain);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let critical = pass.critical;
    let mut verdicts = Vec::new();
    for (i, p) in k.params.iter().enumerate() {
        if let Param::Buffer { name, space, .. } = p {
            let mem = MemRef::Param(i);
            let witness = critical.get(&mem).cloned();
            verdicts.push(BufferVerdict {
                mem,
                name: name.clone(),
                declared: *space,
                criticality: if witness.is_some() {
                    Criticality::Critical
                } else {
                    Criticality::Tolerant
                },
                witness: witness.unwrap_or_default(),
            });
        }
    }
    for (si, decl) in k.shared.iter().enumerate() {
        let mem = MemRef::Shared(paraprox_ir::SharedId(si as u32));
        let witness = critical.get(&mem).cloned();
        verdicts.push(BufferVerdict {
            mem,
            name: decl.name.clone(),
            declared: MemSpace::Shared,
            criticality: if witness.is_some() {
                Criticality::Critical
            } else {
                Criticality::Tolerant
            },
            witness: witness.unwrap_or_default(),
        });
    }
    KernelPartition {
        kernel,
        kernel_name: k.name.clone(),
        verdicts,
    }
}

/// Partition every kernel of a program, in kernel order.
pub fn partition_program(program: &Program) -> Vec<KernelPartition> {
    program
        .kernels()
        .map(|(id, _)| partition_kernel(program, id))
        .collect()
}

/// Statically refuse approximate placements of Critical (or structurally
/// unplaceable) buffers. `placements` lists `(kernel, buffer parameter
/// index)` pairs a plan wants to serve from approximate memory; every
/// unsound pair yields an [`Severity::Error`] diagnostic with code
/// `approx-placement` carrying the witness chain.
pub fn check_placements(
    program: &Program,
    placements: &[(KernelId, usize)],
    out: &mut Vec<Diagnostic>,
) {
    let mut partitions: BTreeMap<usize, KernelPartition> = BTreeMap::new();
    for (kid, pi) in placements {
        let k = program.kernel(*kid);
        let part = partitions
            .entry(kid.0)
            .or_insert_with(|| partition_kernel(program, *kid));
        let Some(param) = k.params.get(*pi) else {
            crate::diag::push_unique(
                out,
                Diagnostic::new(
                    Severity::Error,
                    *kid,
                    &k.name,
                    &[],
                    "approx-placement",
                    format!("parameter index {pi} out of range for approximate placement"),
                ),
            );
            continue;
        };
        match param {
            Param::Scalar { name, .. } => {
                crate::diag::push_unique(
                    out,
                    Diagnostic::new(
                        Severity::Error,
                        *kid,
                        &k.name,
                        &[],
                        "approx-placement",
                        format!("scalar parameter `{name}` cannot be placed in approximate memory"),
                    ),
                );
            }
            Param::Buffer { name, space, .. } => {
                if *space != MemSpace::Global {
                    crate::diag::push_unique(
                        out,
                        Diagnostic::new(
                            Severity::Error,
                            *kid,
                            &k.name,
                            &[],
                            "approx-placement",
                            format!(
                                "buffer `{name}` is declared {space}; only global buffers can move to approximate memory"
                            ),
                        ),
                    );
                    continue;
                }
                let verdict = part
                    .verdict(MemRef::Param(*pi))
                    .expect("buffer param has a verdict");
                if verdict.criticality == Criticality::Critical {
                    crate::diag::push_unique(
                        out,
                        Diagnostic::new(
                            Severity::Error,
                            *kid,
                            &k.name,
                            &[],
                            "approx-placement",
                            format!(
                                "buffer `{name}` is Critical and must stay in exact memory: {}",
                                verdict.witness_string()
                            ),
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{Expr, FuncBuilder, KernelBuilder, LoopStep, Ty};

    fn verdict_of(part: &KernelPartition, name: &str) -> Criticality {
        part.verdicts
            .iter()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("no verdict for {name}"))
            .criticality
    }

    #[test]
    fn payload_buffer_is_tolerant() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("copy");
        let src = kb.buffer("src", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(src, gid.clone()));
        kb.store(dst, gid, v * Expr::f32(2.0));
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "src"), Criticality::Tolerant);
        assert_eq!(verdict_of(&part, "dst"), Criticality::Tolerant);
    }

    #[test]
    fn index_buffer_is_critical_with_witness() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("gather");
        let idx = kb.buffer("idx", Ty::I32, MemSpace::Global);
        let src = kb.buffer("src", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let i = kb.let_("i", kb.load(idx, gid.clone()));
        let v = kb.let_("v", kb.load(src, i));
        kb.store(dst, gid, v);
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "idx"), Criticality::Critical);
        assert_eq!(verdict_of(&part, "src"), Criticality::Tolerant);
        assert_eq!(verdict_of(&part, "dst"), Criticality::Tolerant);
        let w = part.verdict(MemRef::Param(0)).unwrap();
        assert!(
            w.witness_string().contains("index of a load from `src`"),
            "witness: {}",
            w.witness_string()
        );
    }

    #[test]
    fn predicate_buffer_is_critical() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("mask");
        let pred = kb.buffer("pred", Ty::Bool, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let c = kb.let_("c", kb.load(pred, gid.clone()));
        kb.if_(c, |kb| {
            kb.store(dst, gid.clone(), Expr::f32(1.0));
        });
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "pred"), Criticality::Critical);
        assert_eq!(verdict_of(&part, "dst"), Criticality::Tolerant);
    }

    #[test]
    fn loop_bound_buffer_is_critical() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("bounded");
        let counts = kb.buffer("counts", Ty::I32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let n = kb.let_("n", kb.load(counts, gid.clone()));
        kb.for_up("j", Expr::i32(0), n, Expr::i32(1), |kb, _j| {
            kb.store(dst, gid.clone(), Expr::f32(1.0));
        });
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "counts"), Criticality::Critical);
        assert_eq!(verdict_of(&part, "dst"), Criticality::Tolerant);
    }

    #[test]
    fn atomic_target_is_critical() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("hist");
        let data = kb.buffer("data", Ty::F32, MemSpace::Global);
        let hist = kb.buffer("hist", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let _v = kb.let_("v", kb.load(data, gid));
        kb.atomic(
            paraprox_ir::AtomicOp::Add,
            hist,
            Expr::i32(0),
            Expr::f32(1.0),
        );
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "hist"), Criticality::Critical);
        assert_eq!(verdict_of(&part, "data"), Criticality::Tolerant);
    }

    #[test]
    fn memory_mediated_flow_closes_backward() {
        // src's values land in `stage`, and `stage`'s values index `lut`:
        // both stage AND src must be Critical.
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("staged");
        let src = kb.buffer("src", Ty::I32, MemSpace::Global);
        let stage = kb.buffer("stage", Ty::I32, MemSpace::Global);
        let lut = kb.buffer("lut", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(src, gid.clone()));
        kb.store(stage, gid.clone(), v);
        let i = kb.let_("i", kb.load(stage, gid.clone()));
        let w = kb.let_("w", kb.load(lut, i));
        kb.store(dst, gid, w);
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "stage"), Criticality::Critical);
        assert_eq!(verdict_of(&part, "src"), Criticality::Critical);
        assert_eq!(verdict_of(&part, "lut"), Criticality::Tolerant);
        assert_eq!(verdict_of(&part, "dst"), Criticality::Tolerant);
        // src's chain goes through the store into stage.
        let w = part.verdict(MemRef::Param(0)).unwrap();
        assert!(w.witness.len() >= 2, "chain: {:?}", w.witness);
        assert!(w.witness[0].contains("stored into `stage`"));
    }

    #[test]
    fn taint_propagates_through_called_function() {
        let mut p = Program::new();
        let mut fb = FuncBuilder::new("clampi", Ty::I32);
        let x = fb.scalar("x", Ty::I32);
        let hi = fb.scalar("hi", Ty::I32);
        fb.ret(x.clone().lt(hi.clone()).select(x, hi));
        let clampi = p.add_func(fb.finish());
        let mut kb = KernelBuilder::new("gather_clamped");
        let idx = kb.buffer("idx", Ty::I32, MemSpace::Global);
        let src = kb.buffer("src", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let raw = kb.let_("raw", kb.load(idx, gid.clone()));
        let i = kb.let_(
            "i",
            Expr::Call {
                func: clampi,
                args: vec![raw, Expr::i32(31)],
            },
        );
        let v = kb.let_("v", kb.load(src, i));
        kb.store(dst, gid, v);
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        // idx flows through clampi's select *and* return into the load
        // index — Critical either way.
        assert_eq!(verdict_of(&part, "idx"), Criticality::Critical);
        assert_eq!(verdict_of(&part, "src"), Criticality::Tolerant);
    }

    #[test]
    fn loop_carried_taint_reaches_fixpoint() {
        // acc starts untainted, picks up taint from `src` inside the
        // loop, and is stored to `stage` whose values index `lut`; the
        // fixpoint must see the loop-carried taint.
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("carried");
        let src = kb.buffer("src", Ty::I32, MemSpace::Global);
        let stage = kb.buffer("stage", Ty::I32, MemSpace::Global);
        let lut = kb.buffer("lut", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let acc = kb.let_mut("acc", Ty::I32, Expr::i32(0));
        kb.for_up("j", Expr::i32(0), Expr::i32(4), Expr::i32(1), |kb, j| {
            let v = kb.let_("v", kb.load(src, j));
            kb.assign(acc, Expr::Var(acc) + v);
        });
        kb.store(stage, gid.clone(), Expr::Var(acc));
        let i = kb.let_("i", kb.load(stage, gid.clone()));
        let w = kb.let_("w", kb.load(lut, i));
        kb.store(dst, gid, w);
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "src"), Criticality::Critical);
        assert_eq!(verdict_of(&part, "stage"), Criticality::Critical);
    }

    #[test]
    fn shared_allocations_get_verdicts() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("tile");
        let src = kb.buffer("src", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let tile = kb.shared_array("tile", Ty::F32, 32);
        let tx = kb.let_("tx", KernelBuilder::thread_id_x());
        kb.store(tile, tx.clone(), kb.load(src, tx.clone()));
        kb.sync();
        kb.store(dst, tx.clone(), kb.load(tile, tx));
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "tile"), Criticality::Tolerant);
    }

    #[test]
    fn check_placements_refuses_critical_and_allows_tolerant() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("gather");
        let idx = kb.buffer("idx", Ty::I32, MemSpace::Global);
        let src = kb.buffer("src", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let i = kb.let_("i", kb.load(idx, gid.clone()));
        let v = kb.let_("v", kb.load(src, i));
        kb.store(dst, gid, v);
        let _n = kb.scalar("n", Ty::I32);
        let kid = p.add_kernel(kb.finish());

        let mut out = Vec::new();
        check_placements(&p, &[(kid, 1), (kid, 2)], &mut out);
        assert!(out.is_empty(), "tolerant placements refused: {out:?}");

        check_placements(&p, &[(kid, 0)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].code, "approx-placement");
        assert_eq!(out[0].severity, Severity::Error);
        assert!(out[0].message.contains("Critical"));

        let mut out2 = Vec::new();
        check_placements(&p, &[(kid, 3)], &mut out2); // scalar param
        assert_eq!(out2.len(), 1);
        check_placements(&p, &[(kid, 9)], &mut out2); // out of range
        assert_eq!(out2.len(), 2);
    }

    #[test]
    fn constant_declared_buffer_cannot_be_placed() {
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("k");
        let c = kb.buffer("lut", Ty::F32, MemSpace::Constant);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.store(dst, gid.clone(), kb.load(c, gid));
        let kid = p.add_kernel(kb.finish());
        let mut out = Vec::new();
        check_placements(&p, &[(kid, 0)], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("declared constant"));
    }

    #[test]
    fn unused_loop_step_of_shr_kind_still_walks() {
        // Exercise LoopStep variants through the partition walker.
        let mut p = Program::new();
        let mut kb = KernelBuilder::new("k");
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.for_loop(
            "s",
            Expr::i32(16),
            paraprox_ir::LoopCond::Gt(Expr::i32(0)),
            LoopStep::Shr(Expr::i32(1)),
            |kb, _s| {
                kb.store(dst, gid.clone(), Expr::f32(0.0));
            },
        );
        let kid = p.add_kernel(kb.finish());
        let part = partition_kernel(&p, kid);
        assert_eq!(verdict_of(&part, "dst"), Criticality::Tolerant);
    }
}
