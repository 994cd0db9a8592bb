//! Static safety gate for approximation schedules.
//!
//! A schedule is only admitted as a tuner rung after every stage program
//! it can run passes the workspace's safety analyses under the loop's
//! actual launch contexts. The gate covers the parts of the loop a
//! single-launch lint would miss:
//!
//! - **Both parities of the loop-carried swap.** The ping-pong alternates
//!   which buffer is `cur` and which is `next`; the effect summary must
//!   show the stencil never reads param 1 or writes param 0, otherwise
//!   the swap (and the input-overwritten refresh skip it enables) is
//!   unsound.
//! - **Every distinct stage program**, not just the base kernel — a
//!   reach rewrite that introduced a race or an out-of-bounds index is a
//!   concrete witness and refuses the whole schedule.
//! - **Full and sampled residual launches**: the residual kernel is
//!   checked under the full-grid context and under a representative
//!   sampled context (fewer blocks, affine permutation scalars).

use paraprox_analysis::{
    analyze_program, propagate, summarize_kernel, ErrMag, Injection, LaunchContext, LaunchModel,
    Severity, SlotState, VRange,
};
use paraprox_ir::{KernelId, MemRef, Program, Scalar};

use crate::model::{sample_params, IterModel, RESIDUAL_BLOCK};
use crate::schedule::IterSchedule;
use crate::IterError;

/// The launch contexts one iteration of the loop produces for a stage
/// program: the stencil launch (buffer lengths cover both swap parities —
/// the two field params always have identical extents) plus the full
/// residual check and, when `sample_log2 > 0`, a representative sampled
/// check.
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
/// Builds every distinct stage program the schedule can run, checks the
/// ping-pong effect contract on each, and runs the full analysis suite
/// under the loop's launch contexts. Returns the stage programs in
/// [`IterSchedule::distinct_approxes`] order on success (callers cache
/// them keyed by the approx pair).
///
/// # Errors
///
/// [`IterError::Refused`] listing every violated contract and every
/// [`Severity::Error`] diagnostic; [`IterError::Model`] /
/// [`IterError::Approx`] when a stage program cannot be built at all.
pub fn gate_schedule(
    model: &IterModel,
    schedule: &IterSchedule,
) -> Result<Vec<Program>, IterError> {
    let mut reasons = Vec::new();
    let contexts = iter_launch_contexts(model, schedule);

    let mut stages: Vec<(String, Program, Option<u32>)> =
        vec![("exact".to_string(), model.program.clone(), None)];
    for (scheme, reach) in schedule.distinct_approxes() {
        let program = model.variant(scheme, reach)?;
        stages.push((
            format!("{}:r{}", scheme.label(), reach),
            program,
            Some(reach),
        ));
    }

    for (stage_label, program, reach) in &stages {
        // Ping-pong effect contract on the (possibly rewritten) stencil.
        let eff = summarize_kernel(program, model.stencil);
        let touches = |set: &[MemRef], p: usize| set.contains(&MemRef::Param(p));
        if !touches(&eff.writes, 1) {
            reasons.push(format!(
                "stage {stage_label}: stencil never writes the next field"
            ));
        }
        if touches(&eff.reads, 1) || touches(&eff.atomic_targets, 1) {
            reasons.push(format!(
                "stage {stage_label}: stencil reads the next field — the loop-carried swap \
                 and the refresh skip would be unsound"
            ));
        }
        if touches(&eff.writes, 0) || touches(&eff.atomic_targets, 0) {
            reasons.push(format!(
                "stage {stage_label}: stencil writes the current field in place"
            ));
        }
        // Residual must never write either field.
        let reff = summarize_kernel(program, model.residual);
        for p in [0usize, 1] {
            if touches(&reff.writes, p) || touches(&reff.atomic_targets, p) {
                reasons.push(format!(
                    "stage {stage_label}: residual writes field param {p}"
                ));
            }
        }
        // Full lint suite under the loop's launch contexts.
        for d in analyze_program(program, &contexts) {
            if d.severity == Severity::Error {
                reasons.push(format!(
                    "stage {stage_label}: [{}] {}",
                    d.kernel_name, d.message
                ));
            }
        }
        // Error-propagation verdict, per launch context: inject the
        // stage's tile-replication error at the stencil's field load and
        // propagate it through the stencil launch and both residual
        // checks. A refusal (injected error reaching an address, branch,
        // loop bound, or Critical buffer) refuses the schedule exactly
        // like any other error-severity lint; the exact stage carries no
        // injection and cannot refuse here.
        if let Some(reach) = reach {
            let frac = f64::from(*reach) / (f64::from(*reach) + 1.0);
            let injections = [Injection::Load {
                kernel: model.stencil,
                mem: MemRef::Param(0),
                mag: ErrMag::RangeFrac(frac),
            }];
            // Pipeline slots [cur, next, partials]; a nominal unit value
            // range — the verdict is about *where* the error flows, not
            // its magnitude.
            let mut slots: Vec<SlotState> = (0..3)
                .map(|_| SlotState::exact(VRange::new(0.0, 1.0)))
                .collect();
            let launches: Vec<LaunchModel> = contexts
                .iter()
                .map(|(kernel, ctx)| LaunchModel {
                    kernel: *kernel,
                    ctx: ctx.clone(),
                    args: ctx
                        .buffer_len
                        .iter()
                        .enumerate()
                        .map(|(slot, len)| len.map(|_| slot))
                        .collect(),
                })
                .collect();
            for d in propagate(program, &launches, &mut slots, &injections) {
                if d.severity == Severity::Error {
                    reasons.push(format!(
                        "stage {stage_label}: [{}] {}",
                        d.kernel_name, d.message
                    ));
                }
            }
        }
    }

    if reasons.is_empty() {
        Ok(stages.into_iter().map(|(_, p, _)| p).collect())
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
    use crate::testutil::{diffusion_model, reach_ramp};
    use paraprox_ir::{Expr, KernelBuilder, MemSpace, Ty};

    #[test]
    fn exact_and_preset_schedules_pass_the_gate() {
        let model = diffusion_model();
        for schedule in IterSchedule::presets(20)
            .into_iter()
            .chain([reach_ramp(20)])
        {
            let stages = gate_schedule(&model, &schedule)
                .unwrap_or_else(|e| panic!("schedule {} refused: {e}", schedule.label));
            assert_eq!(stages.len(), 1 + schedule.distinct_approxes().len());
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
    fn value_dependent_branch_refuses_approx_stages_only() {
        // A residual whose control flow depends on the *field value*
        // (flush tiny diffs to zero before accumulating): every lint is
        // clean and the exact schedule passes, but once an approximate
        // stage injects replication error at the stencil's field load,
        // the propagated error reaches the branch condition and the
        // error-propagation verdict must refuse the schedule.
        let mut model = diffusion_model();
        let mut kb = KernelBuilder::new("gated_residual");
        let cur = kb.buffer("cur", Ty::F32, MemSpace::Global);
        let next = kb.buffer("next", Ty::F32, MemSpace::Global);
        let partials = kb.buffer("partials", Ty::F32, MemSpace::Global);
        let mul = kb.scalar("mul", Ty::I32);
        let off = kb.scalar("off", Ty::I32);
        let mask = kb.scalar("mask", Ty::I32);
        let count = kb.scalar("count", Ty::I32);
        let s_a = kb.shared_array("s_a", Ty::F32, RESIDUAL_BLOCK);
        let s_b = kb.shared_array("s_b", Ty::F32, RESIDUAL_BLOCK);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let t = kb.let_("t", KernelBuilder::global_id_x());
        let d = kb.let_mut("d", Ty::F32, Expr::f32(0.0));
        kb.if_(t.clone().lt(count), |kb| {
            let idx = kb.let_(
                "idx",
                (mul.clone() * t.clone() + off.clone()) & mask.clone(),
            );
            let a = kb.load(cur, idx.clone());
            let b = kb.load(next, idx);
            let diff = kb.let_("diff", (b - a).abs());
            // The data-dependent branch: only accumulate diffs above a
            // noise floor.
            kb.if_(diff.clone().gt(Expr::f32(1e-6)), |kb| {
                kb.assign(d, diff.clone());
            });
        });
        kb.store(s_a, tid.clone(), Expr::Var(d));
        kb.sync();
        let mut stride = RESIDUAL_BLOCK / 2;
        while stride >= 1 {
            let s = Expr::i32(stride as i32);
            kb.if_else(
                tid.clone().lt(s.clone()),
                |kb| {
                    let lo = kb.load(s_a, tid.clone());
                    let hi = kb.load(s_a, tid.clone() + s.clone());
                    kb.store(s_b, tid.clone(), lo + hi);
                },
                |kb| {
                    let v = kb.load(s_a, tid.clone());
                    kb.store(s_b, tid.clone(), v);
                },
            );
            kb.sync();
            let v = kb.load(s_b, tid.clone());
            kb.store(s_a, tid.clone(), v);
            kb.sync();
            stride /= 2;
        }
        kb.if_(tid.eq_(Expr::i32(0)), |kb| {
            let total = kb.load(s_a, Expr::i32(0));
            kb.store(partials, KernelBuilder::block_id_x(), total);
        });
        model.residual = model.program.add_kernel(kb.finish());

        gate_schedule(&model, &IterSchedule::exact())
            .expect("exact schedule carries no injected error and must pass");
        let err = gate_schedule(&model, &reach_ramp(20)).unwrap_err();
        match err {
            IterError::Refused { reasons, .. } => {
                assert!(
                    reasons.iter().any(|r| r.contains("branch")),
                    "expected an error-propagation branch-sink refusal, got {reasons:?}"
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
