//! Reduction approximation: sampling plus adjustment (paper §3.3).
//!
//! The loop step of a detected reduction loop is multiplied by the
//! *skipping rate* `N`, so only every `N`-th iteration executes. For
//! additive reductions the partial result is scaled back up by `N` — using
//! the paper's exact recipe: the reduction variable is replaced inside the
//! loop by a temporary initialized to zero, and after the loop the scaled
//! temporary is added back to the original variable, so a nonzero initial
//! value is not erroneously multiplied.
//!
//! Loops reducing through atomic add/inc instead scale the atomic operand.

use paraprox_ir::{AtomicOp, BinOp, Expr, KernelId, LocalDecl, MemRef, Program, Stmt, Ty, VarId};
use paraprox_patterns::path::{container_mut, stmt_at};
use paraprox_patterns::{ReductionKind, ReductionLoop};

use crate::error::ApproxError;

fn typed_const(ty: Ty, v: u32) -> Expr {
    match ty {
        Ty::F32 => Expr::f32(v as f32),
        Ty::I32 => Expr::i32(v as i32),
        Ty::U32 => Expr::u32(v),
        Ty::Bool => Expr::bool(v != 0),
    }
}

/// Replace reads and writes of `from` with `to` in a statement list.
fn rename_var(stmts: &mut Vec<Stmt>, from: VarId, to: VarId) {
    fn fix_expr(e: Expr, from: VarId, to: VarId) -> Expr {
        paraprox_ir::rewrite_expr(e, &mut |node| match node {
            Expr::Var(v) if v == from => Expr::Var(to),
            other => other,
        })
    }
    let body = std::mem::take(stmts);
    *stmts = body
        .into_iter()
        .map(|stmt| match stmt {
            Stmt::Let { var, init } => Stmt::Let {
                var: if var == from { to } else { var },
                init: fix_expr(init, from, to),
            },
            Stmt::Assign { var, value } => Stmt::Assign {
                var: if var == from { to } else { var },
                value: fix_expr(value, from, to),
            },
            Stmt::Store { mem, index, value } => Stmt::Store {
                mem,
                index: fix_expr(index, from, to),
                value: fix_expr(value, from, to),
            },
            Stmt::Atomic {
                op,
                mem,
                index,
                value,
            } => Stmt::Atomic {
                op,
                mem,
                index: fix_expr(index, from, to),
                value: fix_expr(value, from, to),
            },
            Stmt::If {
                cond,
                mut then_body,
                mut else_body,
            } => {
                rename_var(&mut then_body, from, to);
                rename_var(&mut else_body, from, to);
                Stmt::If {
                    cond: fix_expr(cond, from, to),
                    then_body,
                    else_body,
                }
            }
            Stmt::For {
                var,
                init,
                cond,
                step,
                mut body,
            } => {
                rename_var(&mut body, from, to);
                Stmt::For {
                    var,
                    init: fix_expr(init, from, to),
                    cond: cond.map_bound(|e| fix_expr(e, from, to)),
                    step: step.map_amount(|e| fix_expr(e, from, to)),
                    body,
                }
            }
            Stmt::Sync => Stmt::Sync,
            Stmt::Return(e) => Stmt::Return(fix_expr(e, from, to)),
        })
        .collect();
}

/// Scale the operand of every additive atomic in a statement list by
/// `skip` (typed by the destination's element type).
fn scale_atomics(stmts: &mut [Stmt], skip: u32, param_ty: &dyn Fn(MemRef) -> Ty) {
    for stmt in stmts.iter_mut() {
        match stmt {
            Stmt::Atomic {
                op: AtomicOp::Add | AtomicOp::Inc,
                mem,
                value,
                ..
            } => {
                let ty = param_ty(*mem);
                let old = std::mem::replace(value, Expr::i32(0));
                *value = old * typed_const(ty, skip);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                scale_atomics(then_body, skip, param_ty);
                scale_atomics(else_body, skip, param_ty);
            }
            Stmt::For { body, .. } => scale_atomics(body, skip, param_ty),
            _ => {}
        }
    }
}

/// Apply the reduction approximation with skipping rate `skip` to the
/// detected `red` loop of `kernel`.
///
/// # Errors
///
/// Fails when `skip < 2` (no approximation) or the loop path no longer
/// resolves (stale detection).
pub fn approximate_reduction(
    program: &Program,
    kernel: KernelId,
    red: &ReductionLoop,
    skip: u32,
) -> Result<Program, ApproxError> {
    approximate_reduction_group(program, kernel, std::slice::from_ref(red), skip)
}

/// Apply the reduction approximation to a *group* of detected reductions
/// sharing one loop (a loop can accumulate several variables — e.g. a
/// weighted average sums both values and weights). The loop step is
/// multiplied once; each additive variable gets its own adjustment.
///
/// # Errors
///
/// Fails when `skip < 2`, the group is empty or spans different loops, or
/// the loop path no longer resolves.
pub fn approximate_reduction_group(
    program: &Program,
    kernel: KernelId,
    reds: &[ReductionLoop],
    skip: u32,
) -> Result<Program, ApproxError> {
    if skip < 2 {
        return Err(ApproxError::NotApplicable(
            "skipping rate must be at least 2".to_string(),
        ));
    }
    let first = reds
        .first()
        .ok_or_else(|| ApproxError::NotApplicable("empty reduction group".to_string()))?;
    if reds.iter().any(|r| r.path != first.path) {
        return Err(ApproxError::NotApplicable(
            "reduction group spans different loops".to_string(),
        ));
    }
    // Safety gate (analysis-backed): perforating a loop skips whole
    // iterations, so the body must not carry per-iteration obligations the
    // surviving iterations cannot make up for.
    if let Some(Stmt::For { body, .. }) = stmt_at(&program.kernel(kernel).body, &first.path) {
        let fx = paraprox_analysis::summarize_stmts(program, body);
        // A barrier inside the loop pairs with the other threads' copies of
        // the *same* iteration; skipping iterations on a per-thread schedule
        // would desynchronize the block (and the adjustment math says
        // nothing about control flow).
        if fx.barriers > 0 {
            return Err(ApproxError::NotApplicable(
                "reduction loop body contains a barrier; sampling iterations would                  desynchronize the block"
                    .to_string(),
            ));
        }
        // Atomic accumulation is compensated by scaling the operand — but
        // only if the atomic is the sole access to that memory. A plain
        // load/store of the same buffer in the body is a read-modify-write
        // protocol the scaler does not understand.
        if fx
            .atomic_targets
            .iter()
            .any(|m| fx.reads.contains(m) || fx.writes.contains(m))
        {
            return Err(ApproxError::NotApplicable(
                "reduction loop mixes atomic and plain accesses to the same buffer;                  scaling the atomic operand would not preserve the protocol"
                    .to_string(),
            ));
        }
    }
    let mut out = program.clone();
    let k = out.kernel_mut(kernel);

    // Pre-compute type information and allocate temporaries before taking
    // mutable borrows into the body.
    let shared_tys: Vec<Ty> = k.shared.iter().map(|s| s.ty).collect();
    let param_tys: Vec<Ty> = k.params.iter().map(|p| p.ty()).collect();
    let mut acc_infos: Vec<(VarId, BinOp, Ty, VarId)> = Vec::new();
    let mut any_atomic = false;
    for red in reds {
        match red.kind {
            ReductionKind::Accumulation { var, op } => {
                let ty = k.locals[var.index()].ty;
                let temp = VarId(k.locals.len() as u32);
                k.locals.push(LocalDecl {
                    name: format!("red_tmp{}", acc_infos.len()),
                    ty,
                });
                acc_infos.push((var, op, ty, temp));
            }
            ReductionKind::Atomic { .. } => any_atomic = true,
        }
    }

    let (container, idx) = container_mut(&mut k.body, &first.path).ok_or_else(|| {
        ApproxError::NotApplicable("reduction loop path does not resolve".to_string())
    })?;
    let Stmt::For { step, body, .. } = &mut container[idx] else {
        return Err(ApproxError::NotApplicable(
            "reduction path does not address a for loop".to_string(),
        ));
    };

    // Multiply the loop step by the skipping rate (once for the group).
    let old_step = std::mem::replace(step, paraprox_ir::LoopStep::Add(Expr::i32(0)));
    *step = old_step.map_amount(|e| e * Expr::i32(skip as i32));

    for &(var, op, _, temp) in &acc_infos {
        if op == BinOp::Add {
            // Accumulate into a zeroed temporary, scale, add back.
            rename_var(body, var, temp);
        }
        // Non-additive reductions (min/max/and/or/xor/mul) are sampled
        // without adjustment — scaling has no meaning for them.
    }
    if any_atomic {
        let resolve = |mem: MemRef| -> Ty {
            match mem {
                MemRef::Param(i) => param_tys.get(i).copied().unwrap_or(Ty::F32),
                MemRef::Shared(s) => shared_tys.get(s.index()).copied().unwrap_or(Ty::F32),
            }
        };
        scale_atomics(body, skip, &resolve);
    }
    // Splice the temp initializations before the loop and the scaled
    // add-backs after it.
    let mut insert_at = idx;
    for &(_, op, ty, temp) in &acc_infos {
        if op == BinOp::Add {
            container.insert(
                insert_at,
                Stmt::Let {
                    var: temp,
                    init: typed_const(ty, 0),
                },
            );
            insert_at += 1;
        }
    }
    let mut after_at = insert_at + 1; // just past the loop
    for &(var, op, ty, temp) in &acc_infos {
        if op == BinOp::Add {
            container.insert(
                after_at,
                Stmt::Assign {
                    var,
                    value: Expr::Var(var) + Expr::Var(temp) * typed_const(ty, skip),
                },
            );
            after_at += 1;
        }
    }
    k.name = format!("{}__reduce_skip{}", k.name, skip);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{KernelBuilder, MemSpace};
    use paraprox_patterns::reduction::find_reduction_loops;
    use paraprox_quality::Metric;
    use paraprox_vgpu::{Device, DeviceProfile, Dim2};

    /// Per-thread serial sum over a chunk of the input.
    fn chunk_sum_kernel(program: &mut Program, chunk: i32) -> paraprox_ir::KernelId {
        let mut kb = KernelBuilder::new("chunk_sum");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let start = kb.let_("start", gid.clone() * Expr::i32(chunk));
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        kb.for_up(
            "i",
            start.clone(),
            start.clone() + Expr::i32(chunk),
            Expr::i32(1),
            |kb, i| {
                let v = kb.let_("v", kb.load(input, i));
                kb.assign(acc, Expr::Var(acc) + v);
            },
        );
        kb.store(out, gid, Expr::Var(acc));
        program.add_kernel(kb.finish())
    }

    fn run_sum(
        program: &Program,
        kid: paraprox_ir::KernelId,
        data: &[f32],
        threads: usize,
    ) -> (Vec<f32>, u64) {
        let mut device = Device::new(DeviceProfile::gtx560());
        let input = device.alloc_f32(MemSpace::Global, data);
        let out = device.alloc_f32(MemSpace::Global, &vec![0.0; threads]);
        let stats = device
            .launch(
                program,
                kid,
                Dim2::linear(threads / 32),
                Dim2::linear(32),
                &[input.into(), out.into()],
            )
            .unwrap();
        (device.read_f32(out).unwrap(), stats.total_cycles())
    }

    #[test]
    fn additive_reduction_skips_and_adjusts() {
        let threads = 64;
        let chunk = 64;
        let data: Vec<f32> = (0..threads * chunk).map(|i| 1.0 + (i % 7) as f32).collect();
        let mut program = Program::new();
        let kid = chunk_sum_kernel(&mut program, chunk as i32);
        let red = find_reduction_loops(program.kernel(kid));
        assert_eq!(red.len(), 1);
        let approx = approximate_reduction(&program, kid, &red[0], 4).unwrap();

        let (exact, exact_cycles) = run_sum(&program, kid, &data, threads);
        let (sampled, approx_cycles) = run_sum(&approx, kid, &data, threads);
        let quality = Metric::MeanRelative.quality_f32(&exact, &sampled);
        assert!(quality > 90.0, "quality = {quality}");
        let speedup = exact_cycles as f64 / approx_cycles as f64;
        assert!(speedup > 2.0, "speedup = {speedup}");
        // The adjustment keeps magnitudes right: sums must be ~4x a naive
        // unadjusted quarter-sum.
        let naive_quarter: f32 = exact[0] / 4.0;
        assert!(sampled[0] > naive_quarter * 2.0);
    }

    #[test]
    fn adjustment_preserves_nonzero_initial_values() {
        // acc starts at 100; the paper's temp-variable recipe must not
        // multiply the initial value by the skipping rate.
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("offset_sum");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(100.0));
        kb.for_up("i", Expr::i32(0), Expr::i32(32), Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i));
            kb.assign(acc, Expr::Var(acc) + v);
        });
        kb.store(out, gid, Expr::Var(acc));
        let kid = program.add_kernel(kb.finish());
        let red = find_reduction_loops(program.kernel(kid));
        let approx = approximate_reduction(&program, kid, &red[0], 2).unwrap();

        let data = vec![1.0f32; 32];
        let (exact, _) = run_sum(&program, kid, &data, 32);
        let (sampled, _) = run_sum(&approx, kid, &data, 32);
        assert_eq!(exact[0], 132.0);
        // Perfect adjustment for uniform data: 100 + 2*(16*1) = 132.
        assert!((sampled[0] - 132.0).abs() < 1e-3, "got {}", sampled[0]);
    }

    #[test]
    fn min_reduction_is_sampled_without_adjustment() {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("minimum");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(f32::MAX));
        kb.for_up("i", Expr::i32(0), Expr::i32(64), Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i));
            kb.assign(acc, Expr::Var(acc).min(v));
        });
        kb.store(out, gid, Expr::Var(acc));
        let kid = program.add_kernel(kb.finish());
        let red = find_reduction_loops(program.kernel(kid));
        let approx = approximate_reduction(&program, kid, &red[0], 2).unwrap();
        let data: Vec<f32> = (0..64).map(|i| 100.0 - i as f32).collect();
        let (sampled, _) = run_sum(&approx, kid, &data, 32);
        // True min is at index 63 (odd) — skipped with rate 2; the sampled
        // min is the min over even indices = 100-62 = 38.
        assert_eq!(sampled[0], 38.0);
    }

    #[test]
    fn atomic_reduction_scales_operand() {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("atomic_sum");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        kb.for_up("i", Expr::i32(0), Expr::i32(64), Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i));
            kb.atomic(AtomicOp::Add, out, Expr::i32(0), v);
        });
        let kid = program.add_kernel(kb.finish());
        let red = find_reduction_loops(program.kernel(kid));
        assert_eq!(red.len(), 1);
        let approx = approximate_reduction(&program, kid, &red[0], 4).unwrap();

        let data = vec![1.0f32; 64];
        let mut device = Device::new(DeviceProfile::gtx560());
        let input_b = device.alloc_f32(MemSpace::Global, &data);
        let out_b = device.alloc_f32(MemSpace::Global, &[0.0]);
        let s_exact = device
            .launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(1),
                &[input_b.into(), out_b.into()],
            )
            .unwrap();
        let exact = device.read_f32(out_b).unwrap()[0];
        device.write_f32(out_b, &[0.0]).unwrap();
        let s_approx = device
            .launch(
                &approx,
                kid,
                Dim2::linear(1),
                Dim2::linear(1),
                &[input_b.into(), out_b.into()],
            )
            .unwrap();
        let approx_v = device.read_f32(out_b).unwrap()[0];
        assert_eq!(exact, 64.0);
        assert_eq!(approx_v, 64.0, "uniform data: perfectly adjusted");
        assert!(s_approx.atomics < s_exact.atomics);
    }

    #[test]
    fn skip_below_two_rejected() {
        let mut program = Program::new();
        let kid = chunk_sum_kernel(&mut program, 8);
        let red = find_reduction_loops(program.kernel(kid));
        assert!(approximate_reduction(&program, kid, &red[0], 1).is_err());
    }

    #[test]
    fn grouped_accumulators_share_one_perforation() {
        // Weighted average: one loop, two accumulators.
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("wavg");
        let values = kb.buffer("values", Ty::F32, MemSpace::Global);
        let weights = kb.buffer("weights", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let vsum = kb.let_mut("vsum", Ty::F32, Expr::f32(0.0));
        let wsum = kb.let_mut("wsum", Ty::F32, Expr::f32(0.0));
        kb.for_up("i", Expr::i32(0), Expr::i32(64), Expr::i32(1), |kb, i| {
            let w = kb.let_("w", kb.load(weights, i.clone()));
            let v = kb.let_("v", kb.load(values, i));
            kb.assign(vsum, Expr::Var(vsum) + v * w.clone());
            kb.assign(wsum, Expr::Var(wsum) + w);
        });
        kb.store(out, gid, Expr::Var(vsum) / Expr::Var(wsum));
        let kid = program.add_kernel(kb.finish());

        let reds = find_reduction_loops(program.kernel(kid));
        assert_eq!(reds.len(), 2, "both accumulators detected");
        assert_eq!(reds[0].path, reds[1].path, "same loop");
        let approx = approximate_reduction_group(&program, kid, &reds, 4).unwrap();

        // Uniform weights: the ratio is invariant under proportional
        // sampling, so the result must be near-exact.
        let values_data = vec![3.0f32; 64];
        let weights_data = vec![0.5f32; 64];
        let mut device = Device::new(DeviceProfile::gtx560());
        let vb = device.alloc_f32(MemSpace::Global, &values_data);
        let wb = device.alloc_f32(MemSpace::Global, &weights_data);
        let ob = device.alloc_f32(MemSpace::Global, &[0.0; 32]);
        let s_exact = device
            .launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(32),
                &[vb.into(), wb.into(), ob.into()],
            )
            .unwrap();
        let exact = device.read_f32(ob).unwrap();
        let s_approx = device
            .launch(
                &approx,
                kid,
                Dim2::linear(1),
                Dim2::linear(32),
                &[vb.into(), wb.into(), ob.into()],
            )
            .unwrap();
        let sampled = device.read_f32(ob).unwrap();
        assert!((exact[0] - 3.0).abs() < 1e-5);
        assert!((sampled[0] - 3.0).abs() < 1e-5, "got {}", sampled[0]);
        // Exactly one perforation: cycles drop ~4x, not ~16x.
        let ratio = s_exact.total_cycles() as f64 / s_approx.total_cycles() as f64;
        assert!(ratio > 2.0 && ratio < 6.0, "ratio = {ratio}");
    }

    #[test]
    fn group_spanning_different_loops_rejected() {
        let mut program = Program::new();
        let kid = chunk_sum_kernel(&mut program, 8);
        let mut kb = KernelBuilder::new("other");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        kb.for_up("i", Expr::i32(0), Expr::i32(8), Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i.clone()));
            kb.assign(acc, Expr::Var(acc) + v);
        });
        kb.for_up("j", Expr::i32(0), Expr::i32(8), Expr::i32(1), |kb, j| {
            let v = kb.let_("v2", kb.load(input, j));
            kb.assign(acc, Expr::Var(acc) + v);
        });
        kb.store(out, Expr::i32(0), Expr::Var(acc));
        let kid2 = program.add_kernel(kb.finish());
        let reds = find_reduction_loops(program.kernel(kid2));
        assert_eq!(reds.len(), 2);
        assert_ne!(reds[0].path, reds[1].path);
        assert!(approximate_reduction_group(&program, kid2, &reds, 2).is_err());
        let _ = kid;
    }

    #[test]
    fn sync_in_loop_body_refuses_sampling() {
        use paraprox_patterns::path::StmtPath;
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("sync_red");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let out = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x()); // stmt 0
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0)); // stmt 1
        kb.for_up("i", Expr::i32(0), Expr::i32(64), Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i));
            kb.assign(acc, Expr::Var(acc) + v);
            kb.sync();
        }); // stmt 2
        kb.store(out, gid, Expr::Var(acc));
        let kid = program.add_kernel(kb.finish());
        let red = ReductionLoop {
            path: StmtPath::root().child(2),
            kind: ReductionKind::Accumulation {
                var: acc,
                op: BinOp::Add,
            },
        };
        let err = approximate_reduction(&program, kid, &red, 4).unwrap_err();
        let ApproxError::NotApplicable(msg) = err else {
            panic!("expected NotApplicable");
        };
        assert!(msg.contains("barrier"), "unexpected message: {msg}");
    }

    #[test]
    fn atomic_mixed_with_plain_access_refuses_sampling() {
        use paraprox_patterns::path::StmtPath;
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("mixed");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let hist = kb.buffer("hist", Ty::F32, MemSpace::Global);
        kb.for_up("i", Expr::i32(0), Expr::i32(16), Expr::i32(1), |kb, i| {
            let v = kb.let_("v", kb.load(input, i));
            // A plain read of the atomically-accumulated buffer: the
            // operand scaler cannot preserve this protocol.
            let peek = kb.let_("peek", kb.load(hist, Expr::i32(0)));
            kb.atomic(AtomicOp::Add, hist, Expr::i32(0), v + peek);
        }); // stmt 0
        let kid = program.add_kernel(kb.finish());
        let red = ReductionLoop {
            path: StmtPath::root().child(0),
            kind: ReductionKind::Atomic { op: AtomicOp::Add },
        };
        let err = approximate_reduction(&program, kid, &red, 4).unwrap_err();
        let ApproxError::NotApplicable(msg) = err else {
            panic!("expected NotApplicable");
        };
        assert!(
            msg.contains("atomic and plain"),
            "unexpected message: {msg}"
        );
    }
}
