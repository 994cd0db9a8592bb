//! Top-level pattern detection over a whole program.

use paraprox_ir::{for_each_expr_in_stmts, Expr, FuncId, Kernel, KernelId, Program};

use crate::cost::{estimate_func_cycles, worth_memoizing, LatencyTable};
use crate::purity::purity_of;
use crate::reduction::{find_reduction_loops, ReductionLoop};
use crate::scan::{match_scan, ScanMatch};
use crate::stencil::{find_stencils, StencilCandidate};

/// Whether a memoizable kernel is a plain map or a scatter/gather.
///
/// Following McCool's definitions (paper §2): a gather reads from
/// data-dependent locations, a scatter writes to them; a map's accesses are
/// a pure function of the thread index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Regular accesses.
    Map,
    /// Data-dependent (indirect) reads or writes.
    ScatterGather,
}

/// A pure, compute-heavy function call eligible for approximate
/// memoization (paper §3.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapCandidate {
    /// The callee to memoize.
    pub func: FuncId,
    /// Map vs scatter/gather classification of the enclosing kernel.
    pub kind: MapKind,
    /// Eq. (1) estimate for the callee.
    pub cycles_needed: u64,
}

/// One detected pattern instance inside a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternInstance {
    /// Map / scatter-gather: a memoizable function call.
    Map(MapCandidate),
    /// Stencil or partition tile access group.
    Stencil(StencilCandidate),
    /// Reduction loop.
    Reduction(ReductionLoop),
    /// Scan phase-I template match.
    Scan(ScanMatch),
}

impl PatternInstance {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PatternInstance::Map(c) => match c.kind {
                MapKind::Map => "map",
                MapKind::ScatterGather => "scatter/gather",
            },
            PatternInstance::Stencil(s) => match s.kind {
                crate::stencil::StencilKind::Stencil => "stencil",
                crate::stencil::StencilKind::Partition => "partition",
            },
            PatternInstance::Reduction(_) => "reduction",
            PatternInstance::Scan(_) => "scan",
        }
    }
}

/// Detection results for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPatterns {
    /// The kernel the instances belong to.
    pub kernel: KernelId,
    /// Every pattern instance found.
    pub instances: Vec<PatternInstance>,
}

impl KernelPatterns {
    /// Iterate the instances of one variant.
    pub fn maps(&self) -> impl Iterator<Item = &MapCandidate> {
        self.instances.iter().filter_map(|i| match i {
            PatternInstance::Map(c) => Some(c),
            _ => None,
        })
    }

    /// Iterate detected stencil candidates.
    pub fn stencils(&self) -> impl Iterator<Item = &StencilCandidate> {
        self.instances.iter().filter_map(|i| match i {
            PatternInstance::Stencil(s) => Some(s),
            _ => None,
        })
    }

    /// Iterate detected reduction loops.
    pub fn reductions(&self) -> impl Iterator<Item = &ReductionLoop> {
        self.instances.iter().filter_map(|i| match i {
            PatternInstance::Reduction(r) => Some(r),
            _ => None,
        })
    }

    /// The scan match, if any.
    pub fn scan(&self) -> Option<&ScanMatch> {
        self.instances.iter().find_map(|i| match i {
            PatternInstance::Scan(s) => Some(s),
            _ => None,
        })
    }
}

/// Options steering detection. Detection has none today: every kernel is
/// template-matched the same way. The type stays so callers
/// (`paraprox::compile`, the benchmark's compile sweep) keep one stable
/// signature should an option arrive.
#[derive(Debug, Clone, Default)]
pub struct DetectOptions {}

/// Does the kernel perform any data-dependent (indirect) memory access?
///
/// Loaded values are tracked through local variables ("taint"), so
/// `let idx = indices[gid]; ... input[idx]` is recognized as a gather.
fn has_indirect_access(kernel: &Kernel) -> bool {
    use paraprox_ir::{Stmt, VarId};
    // Fixpoint taint: a variable is tainted when its definition contains a
    // load or reads a tainted variable.
    let mut tainted: Vec<VarId> = Vec::new();
    let expr_tainted = |e: &Expr, tainted: &[VarId]| -> bool {
        let mut hit = false;
        paraprox_ir::for_each_expr(e, &mut |n| match n {
            Expr::Load { .. } => hit = true,
            Expr::Var(v) if tainted.contains(v) => hit = true,
            _ => {}
        });
        hit
    };
    loop {
        let before = tainted.len();
        paraprox_ir::for_each_stmt(&kernel.body, &mut |stmt| match stmt {
            Stmt::Let { var, init } | Stmt::Assign { var, value: init }
                if !tainted.contains(var) && expr_tainted(init, &tainted) =>
            {
                tainted.push(*var);
            }
            _ => {}
        });
        if tainted.len() == before {
            break;
        }
    }
    // An access is indirect when its index is tainted.
    let mut indirect = false;
    let check_index = |index: &Expr, tainted: &[VarId], indirect: &mut bool| {
        let mut hit = false;
        paraprox_ir::for_each_expr(index, &mut |n| match n {
            Expr::Load { .. } => hit = true,
            Expr::Var(v) if tainted.contains(v) => hit = true,
            _ => {}
        });
        if hit {
            *indirect = true;
        }
    };
    for_each_expr_in_stmts(&kernel.body, &mut |e| {
        if let Expr::Load { index, .. } = e {
            check_index(index, &tainted, &mut indirect);
        }
    });
    paraprox_ir::for_each_stmt(&kernel.body, &mut |stmt| {
        if let paraprox_ir::Stmt::Store { index, .. } = stmt {
            check_index(index, &tainted, &mut indirect);
        }
    });
    indirect
}

fn map_candidates(program: &Program, kernel: &Kernel, table: &LatencyTable) -> Vec<MapCandidate> {
    // Collect distinct called functions.
    let mut called: Vec<FuncId> = Vec::new();
    for_each_expr_in_stmts(&kernel.body, &mut |e| {
        if let Expr::Call { func, .. } = e {
            if !called.contains(func) {
                called.push(*func);
            }
        }
    });
    let kind = if has_indirect_access(kernel) {
        MapKind::ScatterGather
    } else {
        MapKind::Map
    };
    let mut out = Vec::new();
    for func in called {
        if !purity_of(program, func).is_pure() {
            continue;
        }
        let cycles = estimate_func_cycles(table, program, program.func(func));
        if worth_memoizing(table, cycles) {
            out.push(MapCandidate {
                func,
                kind,
                cycles_needed: cycles,
            });
        }
    }
    out
}

/// Detect every pattern in every kernel of `program`.
pub fn detect(
    program: &Program,
    table: &LatencyTable,
    _options: &DetectOptions,
) -> Vec<KernelPatterns> {
    program
        .kernels()
        .map(|(id, kernel)| {
            let mut instances = Vec::new();
            // Scan first: a matched scan kernel's butterfly should not be
            // re-reported piecemeal by the other detectors.
            let scan = match_scan(kernel);
            let is_scan = scan.is_some();
            if let Some(m) = scan {
                instances.push(PatternInstance::Scan(m));
            }
            if !is_scan {
                for c in map_candidates(program, kernel, table) {
                    instances.push(PatternInstance::Map(c));
                }
                for s in find_stencils(kernel) {
                    instances.push(PatternInstance::Stencil(s));
                }
                for r in find_reduction_loops(kernel) {
                    instances.push(PatternInstance::Reduction(r));
                }
            }
            KernelPatterns {
                kernel: id,
                instances,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{FuncBuilder, KernelBuilder, MemSpace, Ty};

    fn heavy_func(p: &mut Program) -> FuncId {
        let mut fb = FuncBuilder::new("heavy", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        fb.ret((x.clone().log() / x.clone().sqrt()).exp() / x.clone().sin());
        p.add_func(fb.finish())
    }

    #[test]
    fn map_kernel_with_heavy_pure_call_detected() {
        let mut p = Program::new();
        let f = heavy_func(&mut p);
        let mut kb = KernelBuilder::new("map");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let x = kb.let_("x", kb.load(input, gid.clone()));
        kb.store(
            out,
            gid,
            Expr::Call {
                func: f,
                args: vec![x],
            },
        );
        let kid = p.add_kernel(kb.finish());
        let results = detect(&p, &LatencyTable::gpu_defaults(), &DetectOptions::default());
        let kp = results.iter().find(|r| r.kernel == kid).unwrap();
        let maps: Vec<_> = kp.maps().collect();
        assert_eq!(maps.len(), 1);
        assert_eq!(maps[0].func, f);
        assert_eq!(maps[0].kind, MapKind::Map);
        assert!(maps[0].cycles_needed >= 180);
    }

    #[test]
    fn gather_kernel_classified_as_scatter_gather() {
        let mut p = Program::new();
        let f = heavy_func(&mut p);
        let mut kb = KernelBuilder::new("gather");
        let indices = kb.buffer("idx", Ty::I32, MemSpace::Global);
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let j = kb.load(indices, gid.clone());
        let x = kb.let_("x", kb.load(input, j));
        kb.store(
            out,
            gid,
            Expr::Call {
                func: f,
                args: vec![x],
            },
        );
        p.add_kernel(kb.finish());
        let results = detect(&p, &LatencyTable::gpu_defaults(), &DetectOptions::default());
        let maps: Vec<_> = results[0].maps().collect();
        assert_eq!(maps[0].kind, MapKind::ScatterGather);
    }

    #[test]
    fn cheap_function_not_memoized() {
        let mut p = Program::new();
        let mut fb = FuncBuilder::new("cheap", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        fb.ret(x.clone() + x);
        let f = p.add_func(fb.finish());
        let mut kb = KernelBuilder::new("map");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let x = kb.let_("x", kb.load(input, gid.clone()));
        kb.store(
            out,
            gid,
            Expr::Call {
                func: f,
                args: vec![x],
            },
        );
        p.add_kernel(kb.finish());
        let results = detect(&p, &LatencyTable::gpu_defaults(), &DetectOptions::default());
        assert!(results[0].maps().next().is_none());
    }

    #[test]
    fn pattern_names_for_reporting() {
        let c = MapCandidate {
            func: FuncId(0),
            kind: MapKind::Map,
            cycles_needed: 500,
        };
        assert_eq!(PatternInstance::Map(c).name(), "map");
    }
}
