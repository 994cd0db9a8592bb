//! Static safety gate for approximation schedules.
//!
//! A schedule is only admitted as a tuner rung after the model's program
//! passes the workspace's safety analyses under the loop's actual launch
//! contexts. The gate covers the parts of the loop a single-launch lint
//! would miss:
//!
//! - **Both parities of the loop-carried swap.** The ping-pong alternates
//!   which buffer is `cur` and which is `next`; the effect summary must
//!   show the stencil never reads param 1 or writes param 0, otherwise
//!   the swap (and the input-overwritten refresh skip it enables) is
//!   unsound.
//! - **Full and sampled residual launches**: the residual kernel is
//!   checked under the full-grid context and under a representative
//!   sampled context (fewer blocks, affine permutation scalars).

use paraprox_analysis::{analyze_program, summarize_kernel, LaunchContext, Severity};
use paraprox_ir::{KernelId, MemRef, Scalar};

use crate::model::{sample_params, IterModel, RESIDUAL_BLOCK};
use crate::schedule::IterSchedule;
use crate::IterError;

/// The launch contexts one iteration of the loop produces: the stencil
/// launch (buffer lengths cover both swap parities — the two field
/// params always have identical extents) plus the full residual check
/// and, when `sample_log2 > 0`, a representative sampled check.
pub fn iter_launch_contexts(
    model: &IterModel,
    schedule: &IterSchedule,
) -> Vec<(KernelId, LaunchContext)> {
    let n = model.elems();
    let mut stencil_ctx = LaunchContext::with_dims(
        (model.grid.x as u32, model.grid.y as u32),
        (model.block.x as u32, model.block.y as u32),
    );
    stencil_ctx.buffer_len = vec![Some(n), Some(n)];
    stencil_ctx.scalar = vec![None, None];
    for s in &model.stencil_scalars {
        stencil_ctx.buffer_len.push(None);
        stencil_ctx.scalar.push(Some(*s));
    }
    let mut out = vec![(model.stencil, stencil_ctx)];
    out.push((model.residual, residual_context(model, n, 1, 0)));
    if schedule.sample_log2 > 0 {
        let count = sampled_count(n, schedule.sample_log2);
        let (mul, off) = sample_params(schedule.seed, 0, n);
        out.push((model.residual, residual_context(model, count, mul, off)));
    }
    out
}

fn residual_context(model: &IterModel, count: usize, mul: i32, off: i32) -> LaunchContext {
    let n = model.elems();
    let mut ctx = LaunchContext::with_dims(
        ((count / RESIDUAL_BLOCK) as u32, 1),
        (RESIDUAL_BLOCK as u32, 1),
    );
    ctx.buffer_len = vec![
        Some(n),
        Some(n),
        Some(model.partials_len()),
        None,
        None,
        None,
        None,
    ];
    ctx.scalar = vec![
        None,
        None,
        None,
        Some(Scalar::I32(mul)),
        Some(Scalar::I32(off)),
        Some(Scalar::I32(n as i32 - 1)),
        Some(Scalar::I32(count as i32)),
    ];
    ctx
}

/// Residual lane count for a sampled check: `n >> sample_log2`, clamped
/// so at least one full reduction block runs.
pub(crate) fn sampled_count(n: usize, sample_log2: u32) -> usize {
    (n >> sample_log2.min(32)).max(RESIDUAL_BLOCK)
}

/// Vet one schedule against the model.
///
/// Checks the ping-pong effect contract on the model's program and runs
/// the full analysis suite under the loop's launch contexts for this
/// schedule.
///
/// # Errors
///
/// [`IterError::Refused`] listing every violated contract and every
/// [`Severity::Error`] diagnostic.
pub fn gate_schedule(model: &IterModel, schedule: &IterSchedule) -> Result<(), IterError> {
    let mut reasons = Vec::new();
    let program = &model.program;
    let eff = summarize_kernel(program, model.stencil);
    let touches = |set: &[MemRef], p: usize| set.contains(&MemRef::Param(p));
    if !touches(&eff.writes, 1) {
        reasons.push("stencil never writes the next field".to_string());
    }
    if touches(&eff.reads, 1) || touches(&eff.atomic_targets, 1) {
        reasons.push(
            "stencil reads the next field — the loop-carried swap and the refresh skip \
             would be unsound"
                .to_string(),
        );
    }
    if touches(&eff.writes, 0) || touches(&eff.atomic_targets, 0) {
        reasons.push("stencil writes the current field in place".to_string());
    }
    // Residual must never write either field.
    let reff = summarize_kernel(program, model.residual);
    for p in [0usize, 1] {
        if touches(&reff.writes, p) || touches(&reff.atomic_targets, p) {
            reasons.push(format!("residual writes field param {p}"));
        }
    }
    // Full lint suite under the loop's launch contexts.
    for d in analyze_program(program, &iter_launch_contexts(model, schedule)) {
        if d.severity == Severity::Error {
            reasons.push(format!("[{}] {}", d.kernel_name, d.message));
        }
    }

    if reasons.is_empty() {
        Ok(())
    } else {
        Err(IterError::Refused {
            label: schedule.label.clone(),
            reasons,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::diffusion_model;
    use paraprox_ir::{Expr, KernelBuilder, MemSpace, Ty};

    #[test]
    fn exact_and_preset_schedules_pass_the_gate() {
        let model = diffusion_model();
        for schedule in IterSchedule::presets(20) {
            gate_schedule(&model, &schedule)
                .unwrap_or_else(|e| panic!("schedule {} refused: {e}", schedule.label));
        }
    }

    #[test]
    fn contexts_cover_stencil_and_residual() {
        let model = diffusion_model();
        let exact = iter_launch_contexts(&model, &IterSchedule::exact());
        assert_eq!(exact.len(), 2);
        let sampled =
            iter_launch_contexts(&model, &IterSchedule::named("sampled-check", 20).unwrap());
        assert_eq!(sampled.len(), 3);
        // The sampled residual context launches fewer blocks.
        assert!(sampled[2].1.grid.0 < sampled[1].1.grid.0);
    }

    #[test]
    fn in_place_stencil_is_refused() {
        // Violate the ping-pong contract: write the *current* field.
        let mut model = diffusion_model();
        let mut kb = KernelBuilder::new("in_place");
        let cur = kb.buffer("cur", Ty::F32, MemSpace::Global);
        let next = kb.buffer("next", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.load(cur, gid.clone());
        kb.store(cur, gid.clone(), v.clone() * Expr::f32(0.5));
        kb.store(next, gid, v);
        model.stencil = model.program.add_kernel(kb.finish());
        let err = gate_schedule(&model, &IterSchedule::exact()).unwrap_err();
        match err {
            IterError::Refused { reasons, .. } => {
                assert!(
                    reasons.iter().any(|r| r.contains("in place")),
                    "{reasons:?}"
                );
            }
            other => panic!("expected refusal, got {other}"),
        }
    }

    #[test]
    fn racy_residual_is_refused() {
        // Swap in a residual kernel whose block fold drops the barriers:
        // lanes read shared slots other lanes are writing in the same
        // phase. The race lint must produce an error-severity witness.
        let mut model = diffusion_model();
        let mut kb = KernelBuilder::new("racy_residual");
        let cur = kb.buffer("cur", Ty::F32, MemSpace::Global);
        let next = kb.buffer("next", Ty::F32, MemSpace::Global);
        let partials = kb.buffer("partials", Ty::F32, MemSpace::Global);
        let _mul = kb.scalar("mul", Ty::I32);
        let _off = kb.scalar("off", Ty::I32);
        let _mask = kb.scalar("mask", Ty::I32);
        let _count = kb.scalar("count", Ty::I32);
        let sdata = kb.shared_array("sdata", Ty::F32, RESIDUAL_BLOCK);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let t = kb.let_("t", KernelBuilder::global_id_x());
        let a = kb.load(cur, t.clone());
        let b = kb.load(next, t.clone());
        kb.store(sdata, tid.clone(), (b - a).abs());
        // No sync: immediately read the neighbour lane's slot.
        let half = Expr::i32((RESIDUAL_BLOCK / 2) as i32);
        kb.if_(tid.clone().lt(half.clone()), |kb| {
            let lo = kb.load(sdata, tid.clone());
            let hi = kb.load(sdata, tid.clone() + half);
            kb.store(partials, KernelBuilder::block_id_x(), lo + hi);
        });
        model.residual = model.program.add_kernel(kb.finish());
        let err = gate_schedule(&model, &IterSchedule::exact()).unwrap_err();
        assert!(matches!(err, IterError::Refused { .. }), "{err}");
    }
}
