//! Scan approximation: subarray prediction (paper §3.4).
//!
//! Skipping arbitrary iterations of a scan would cascade error into every
//! later output (the paper's Figure 18 experiment), so Paraprox instead
//! skips the *last* `S` subarrays: phases I and II run on the first `G−S`
//! subarrays only, and a rewritten phase III predicts the skipped tail by
//! replicating the first subarrays' results shifted by the running total
//! (the last element of phase II's output).

use paraprox_ir::{Expr, KernelBuilder, KernelId, Program, Scalar, Ty};
use paraprox_patterns::ScanMatch;
use paraprox_vgpu::{Pipeline, PlanArg};

use crate::error::ApproxError;

/// The roles of the canonical three-phase scan pipeline's launches and
/// buffers, inferred from a phase-I template match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanRoles {
    /// Index of the phase-I launch in the pipeline.
    pub phase1_launch: usize,
    /// Index of the phase-II launch.
    pub phase2_launch: usize,
    /// Index of the phase-III launch.
    pub phase3_launch: usize,
    /// Buffer slot of the per-element partial scan.
    pub partial_slot: usize,
    /// Buffer slot of the per-subarray totals (`sumSub`).
    pub sums_slot: usize,
    /// Buffer slot of the scanned totals (phase II's output).
    pub sums_scan_slot: usize,
    /// Buffer slot of the final output.
    pub output_slot: usize,
    /// Position of phase II's element-count scalar argument, if present.
    pub phase2_count_arg: Option<usize>,
}

/// Infer [`ScanRoles`] from the pipeline structure.
///
/// Assumes the canonical shape: phase I is the matched kernel; phase II is
/// the next launch reading the `sumSub` buffer; phase III is a later launch
/// reading both the partial scan and phase II's output.
pub fn infer_scan_roles(
    pipeline: &Pipeline,
    phase1_kernel: KernelId,
    m: &ScanMatch,
) -> Option<ScanRoles> {
    let phase1_launch = pipeline
        .launches
        .iter()
        .position(|l| l.kernel == phase1_kernel)?;
    let p1 = &pipeline.launches[phase1_launch];
    let slot_of = |arg: &PlanArg| match arg {
        PlanArg::Buffer(s) => Some(*s),
        PlanArg::Scalar(_) => None,
    };
    let partial_slot = slot_of(p1.args.get(m.partial_param)?)?;
    let sums_slot = slot_of(p1.args.get(m.sums_param)?)?;

    // Phase II: the next launch reading sums_slot.
    let phase2_launch = (phase1_launch + 1..pipeline.launches.len()).find(|&i| {
        pipeline.launches[i]
            .args
            .iter()
            .any(|a| slot_of(a) == Some(sums_slot))
    })?;
    let p2 = &pipeline.launches[phase2_launch];
    let sums_scan_slot = p2
        .args
        .iter()
        .filter_map(slot_of)
        .find(|&s| s != sums_slot)?;
    let subarray_count = p1.grid.count() as i32;
    let phase2_count_arg = p2
        .args
        .iter()
        .position(|a| matches!(a, PlanArg::Scalar(Scalar::I32(v)) if *v == subarray_count));

    // Phase III: a later launch reading both partial and sums_scan.
    let phase3_launch = (phase2_launch + 1..pipeline.launches.len()).find(|&i| {
        let args = &pipeline.launches[i].args;
        args.iter().any(|a| slot_of(a) == Some(partial_slot))
            && args.iter().any(|a| slot_of(a) == Some(sums_scan_slot))
    })?;
    let output_slot = pipeline.launches[phase3_launch]
        .args
        .iter()
        .filter_map(slot_of)
        .find(|&s| s != partial_slot && s != sums_scan_slot)?;

    Some(ScanRoles {
        phase1_launch,
        phase2_launch,
        phase3_launch,
        partial_slot,
        sums_slot,
        sums_scan_slot,
        output_slot,
        phase2_count_arg,
    })
}

/// Generate the approximate phase-III kernel: kept blocks add their phase-II
/// offset as usual; skipped blocks replicate an early subarray's final
/// result shifted by the running total.
fn build_fixup_kernel(subarray_len: usize) -> paraprox_ir::Kernel {
    let mut kb = KernelBuilder::new("scan_phase3_approx");
    let partial = kb.buffer("partial", Ty::F32, paraprox_ir::MemSpace::Global);
    let sums_scan = kb.buffer("sums_scan", Ty::F32, paraprox_ir::MemSpace::Global);
    let output = kb.buffer("output", Ty::F32, paraprox_ir::MemSpace::Global);
    let kept = kb.scalar("kept", Ty::I32);
    let bid = kb.let_("bid", KernelBuilder::block_id_x());
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let gid = kb.let_(
        "gid",
        bid.clone() * Expr::i32(subarray_len as i32) + tid.clone(),
    );
    kb.if_else(
        bid.clone().lt(kept.clone()),
        |kb| {
            // Exact path for the kept subarrays.
            let p = kb.let_("p", kb.load(partial, gid.clone()));
            kb.if_else(
                bid.clone().gt(Expr::i32(0)),
                |kb| {
                    let off = kb.let_("off", kb.load(sums_scan, bid.clone() - Expr::i32(1)));
                    kb.store(output, gid.clone(), p.clone() + off);
                },
                |kb| {
                    kb.store(output, gid.clone(), p.clone());
                },
            );
        },
        |kb| {
            // Predicted path: replicate subarray (bid - kept)'s final
            // result, shifted by the running total (paper Figure 8).
            let src = kb.let_("src", bid.clone() - kept.clone());
            let src_gid = kb.let_(
                "src_gid",
                src.clone() * Expr::i32(subarray_len as i32) + tid.clone(),
            );
            let p = kb.let_("p", kb.load(partial, src_gid));
            let total = kb.let_("total", kb.load(sums_scan, kept.clone() - Expr::i32(1)));
            let src_off = kb.let_(
                "src_off",
                src.clone().gt(Expr::i32(0)).select(
                    kb.load(sums_scan, src.clone() - Expr::i32(1)),
                    Expr::f32(0.0),
                ),
            );
            kb.store(output, gid.clone(), p + src_off + total);
        },
    );
    kb.finish()
}

/// Apply the scan approximation, skipping the last `skip` subarrays.
///
/// # Errors
///
/// Fails when `skip` is zero or ≥ half the subarray count (the prediction
/// replicates early subarrays, so at most half can be skipped), or when the
/// pipeline does not have the canonical three-phase shape.
pub fn approximate_scan(
    program: &Program,
    pipeline: &Pipeline,
    phase1_kernel: KernelId,
    m: &ScanMatch,
    skip: usize,
) -> Result<(Program, Pipeline), ApproxError> {
    let roles = infer_scan_roles(pipeline, phase1_kernel, m).ok_or_else(|| {
        ApproxError::NotApplicable(
            "pipeline does not match the canonical three-phase scan".to_string(),
        )
    })?;
    let subarrays = pipeline.launches[roles.phase1_launch].grid.count();
    if skip == 0 || skip * 2 > subarrays {
        return Err(ApproxError::NotApplicable(format!(
            "skip must be in 1..={} (half of {} subarrays)",
            subarrays / 2,
            subarrays
        )));
    }
    let kept = subarrays - skip;

    let mut out_program = program.clone();
    let fixup = out_program.add_kernel(build_fixup_kernel(m.subarray_len));

    let mut out_pipeline = pipeline.clone();
    // Phase I: launch fewer blocks.
    out_pipeline.launches[roles.phase1_launch].grid.x = kept;
    out_pipeline.launches[roles.phase1_launch].grid.y = 1;
    // Phase II: scan only the kept totals.
    if let Some(arg) = roles.phase2_count_arg {
        out_pipeline.launches[roles.phase2_launch].args[arg] =
            PlanArg::Scalar(Scalar::I32(kept as i32));
    }
    // Phase III: the predicting fix-up over ALL subarrays.
    let p3 = &mut out_pipeline.launches[roles.phase3_launch];
    p3.kernel = fixup;
    p3.grid = paraprox_vgpu::Dim2::linear(subarrays);
    p3.block = paraprox_vgpu::Dim2::linear(m.subarray_len);
    p3.args = vec![
        PlanArg::Buffer(roles.partial_slot),
        PlanArg::Buffer(roles.sums_scan_slot),
        PlanArg::Buffer(roles.output_slot),
        PlanArg::Scalar(Scalar::I32(kept as i32)),
    ];
    Ok((out_program, out_pipeline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_vgpu::{BufferInit, BufferSpec, Device, DeviceProfile, Dim2, LaunchPlan};

    /// Build the canonical three-phase scan pipeline over `n` elements in
    /// subarrays of `b`. Returns (program, pipeline, phase1 kernel id).
    pub fn canonical_pipeline(
        data: Vec<f32>,
        b: usize,
    ) -> (Program, Pipeline, KernelId, ScanMatch) {
        let n = data.len();
        let g = n / b;
        let mut program = Program::new();

        // Phase 1: per-block inclusive scan (doubling butterfly).
        let mut kb = KernelBuilder::new("scan_phase1");
        let input = kb.buffer("input", Ty::F32, paraprox_ir::MemSpace::Global);
        let partial = kb.buffer("partial", Ty::F32, paraprox_ir::MemSpace::Global);
        let sums = kb.buffer("sums", Ty::F32, paraprox_ir::MemSpace::Global);
        let s_a = kb.shared_array("s_a", Ty::F32, b);
        let s_b = kb.shared_array("s_b", Ty::F32, b);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.store(s_a, tid.clone(), kb.load(input, gid.clone()));
        kb.sync();
        kb.for_loop(
            "d",
            Expr::i32(1),
            paraprox_ir::LoopCond::Lt(Expr::i32(b as i32)),
            paraprox_ir::LoopStep::Shl(Expr::i32(1)),
            |kb, d| {
                kb.if_else(
                    tid.clone().ge(d.clone()),
                    |kb| {
                        let a = kb.load(s_a, tid.clone());
                        let c = kb.load(s_a, tid.clone() - d.clone());
                        kb.store(s_b, tid.clone(), a + c);
                    },
                    |kb| {
                        let a = kb.load(s_a, tid.clone());
                        kb.store(s_b, tid.clone(), a);
                    },
                );
                kb.sync();
                kb.store(s_a, tid.clone(), kb.load(s_b, tid.clone()));
                kb.sync();
            },
        );
        kb.store(partial, gid.clone(), kb.load(s_a, tid.clone()));
        kb.if_(tid.clone().eq_(Expr::i32(b as i32 - 1)), |kb| {
            kb.store(sums, KernelBuilder::block_id_x(), kb.load(s_a, tid.clone()));
        });
        let phase1 = program.add_kernel(kb.finish());

        // Phase 2: single-block exclusive-ish scan of the sums (serial per
        // thread 0 for simplicity — it is tiny).
        let mut kb = KernelBuilder::new("scan_phase2");
        let sums_in = kb.buffer("sums", Ty::F32, paraprox_ir::MemSpace::Global);
        let sums_scan = kb.buffer("sums_scan", Ty::F32, paraprox_ir::MemSpace::Global);
        let count = kb.scalar("count", Ty::I32);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        kb.if_(tid.clone().eq_(Expr::i32(0)), |kb| {
            let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
            kb.for_up("i", Expr::i32(0), count.clone(), Expr::i32(1), |kb, i| {
                let v = kb.let_("v", kb.load(sums_in, i.clone()));
                kb.assign(acc, Expr::Var(acc) + v);
                kb.store(sums_scan, i, Expr::Var(acc));
            });
        });
        let phase2 = program.add_kernel(kb.finish());

        // Phase 3: add the scanned block totals.
        let mut kb = KernelBuilder::new("scan_phase3");
        let partial_in = kb.buffer("partial", Ty::F32, paraprox_ir::MemSpace::Global);
        let sums_scan_in = kb.buffer("sums_scan", Ty::F32, paraprox_ir::MemSpace::Global);
        let output = kb.buffer("output", Ty::F32, paraprox_ir::MemSpace::Global);
        let bid = kb.let_("bid", KernelBuilder::block_id_x());
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let p = kb.let_("p", kb.load(partial_in, gid.clone()));
        kb.if_else(
            bid.clone().gt(Expr::i32(0)),
            |kb| {
                let off = kb.let_("off", kb.load(sums_scan_in, bid.clone() - Expr::i32(1)));
                kb.store(output, gid.clone(), p.clone() + off);
            },
            |kb| {
                kb.store(output, gid.clone(), p.clone());
            },
        );
        let phase3 = program.add_kernel(kb.finish());

        let m = paraprox_patterns::scan::match_scan(program.kernel(phase1))
            .expect("canonical scan matches");

        let mut pipeline = Pipeline::default();
        let input_b = pipeline.add_buffer(BufferSpec::global("input", BufferInit::F32(data)));
        let partial_b = pipeline.add_buffer(BufferSpec::zeroed_f32("partial", n));
        let sums_b = pipeline.add_buffer(BufferSpec::zeroed_f32("sums", g));
        let sums_scan_b = pipeline.add_buffer(BufferSpec::zeroed_f32("sums_scan", g));
        let output_b = pipeline.add_buffer(BufferSpec::zeroed_f32("output", n));
        pipeline.launches.push(LaunchPlan {
            kernel: phase1,
            grid: Dim2::linear(g),
            block: Dim2::linear(b),
            args: vec![
                PlanArg::Buffer(input_b),
                PlanArg::Buffer(partial_b),
                PlanArg::Buffer(sums_b),
            ],
        });
        pipeline.launches.push(LaunchPlan {
            kernel: phase2,
            grid: Dim2::linear(1),
            block: Dim2::linear(b),
            args: vec![
                PlanArg::Buffer(sums_b),
                PlanArg::Buffer(sums_scan_b),
                PlanArg::Scalar(Scalar::I32(g as i32)),
            ],
        });
        pipeline.launches.push(LaunchPlan {
            kernel: phase3,
            grid: Dim2::linear(g),
            block: Dim2::linear(b),
            args: vec![
                PlanArg::Buffer(partial_b),
                PlanArg::Buffer(sums_scan_b),
                PlanArg::Buffer(output_b),
            ],
        });
        pipeline.outputs.push(output_b);
        (program, pipeline, phase1, m)
    }

    #[test]
    fn exact_pipeline_computes_prefix_sums() {
        let n = 256;
        let b = 32;
        let data: Vec<f32> = vec![1.0; n];
        let (program, pipeline, _, _) = canonical_pipeline(data, b);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = pipeline.execute(&mut device, &program).unwrap();
        let out = &run.outputs[0];
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i + 1) as f64, "prefix sum at {i}");
        }
    }

    #[test]
    fn roles_inferred_from_canonical_pipeline() {
        let (_, pipeline, phase1, m) = canonical_pipeline(vec![1.0; 256], 32);
        let roles = infer_scan_roles(&pipeline, phase1, &m).unwrap();
        assert_eq!(roles.phase1_launch, 0);
        assert_eq!(roles.phase2_launch, 1);
        assert_eq!(roles.phase3_launch, 2);
        assert_eq!(roles.partial_slot, 1);
        assert_eq!(roles.sums_slot, 2);
        assert_eq!(roles.sums_scan_slot, 3);
        assert_eq!(roles.output_slot, 4);
        assert_eq!(roles.phase2_count_arg, Some(2));
    }

    #[test]
    fn approximate_scan_is_fast_and_accurate_on_uniform_data() {
        let n = 1024;
        let b = 32;
        // "Uniformly distributed" data (the paper's assumption): noisy ones.
        let data: Vec<f32> = (0..n)
            .map(|i| 1.0 + 0.1 * ((i * 7 % 13) as f32 / 13.0))
            .collect();
        let (program, pipeline, phase1, m) = canonical_pipeline(data, b);
        let (ap, app) = approximate_scan(&program, &pipeline, phase1, &m, 8).unwrap();

        let mut device = Device::new(DeviceProfile::gtx560());
        let exact = pipeline.execute(&mut device, &program).unwrap();
        let approx = app.execute(&mut device, &ap).unwrap();
        let q =
            paraprox_quality::Metric::MeanRelative.quality(&exact.outputs[0], &approx.outputs[0]);
        assert!(q > 97.0, "quality = {q}");
        assert!(
            approx.stats.total_cycles() < exact.stats.total_cycles(),
            "{} vs {}",
            approx.stats.total_cycles(),
            exact.stats.total_cycles()
        );
    }

    #[test]
    fn kept_prefix_stays_exact() {
        let n = 512;
        let b = 32;
        let skip = 4;
        let data: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
        let (program, pipeline, phase1, m) = canonical_pipeline(data, b);
        let (ap, app) = approximate_scan(&program, &pipeline, phase1, &m, skip).unwrap();
        let mut device = Device::new(DeviceProfile::gtx560());
        let exact = pipeline.execute(&mut device, &program).unwrap();
        let approx = app.execute(&mut device, &ap).unwrap();
        let kept_elems = (n / b - skip) * b;
        for i in 0..kept_elems {
            assert_eq!(
                exact.outputs[0][i], approx.outputs[0][i],
                "kept element {i} must be exact"
            );
        }
    }

    #[test]
    fn invalid_skip_rejected() {
        let (program, pipeline, phase1, m) = canonical_pipeline(vec![1.0; 256], 32);
        assert!(approximate_scan(&program, &pipeline, phase1, &m, 0).is_err());
        assert!(approximate_scan(&program, &pipeline, phase1, &m, 5).is_err()); // > half of 8
    }
}
