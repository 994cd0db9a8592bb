//! Integration tests for the approximate-memory space and the
//! buffer-criticality partition that gates it (tier-2).
//!
//! Mirrors the differential structure of `analysis_suite.rs`, from both
//! directions:
//!
//! * **The gate refuses what it must**: force-placing a Critical buffer
//!   into `MemSpace::Approx` is a compile-time refusal
//!   (`CompileError::Analysis` with an `approx-placement` finding) — and
//!   the refusal is justified, because injecting flips into that buffer
//!   really does corrupt addresses or control flow.
//! * **The gate permits what it may**: the auto-placement (every
//!   partition-Tolerant slot re-spaced) passes the lint on all 13 paper
//!   applications, and at rate 0 is bit-identical to the all-exact run
//!   at every worker count.

use paraprox::{
    analyze_workload, compile, latency_table_for, partition_program, tolerant_buffer_slots,
    CompileError, CompileOptions, Criticality, DeviceApp, DeviceProfile, Workload,
};
use paraprox_apps::{registry, Scale};
use paraprox_ir::{KernelBuilder, MemSpace, Program, Ty};
use paraprox_quality::Metric;
use paraprox_vgpu::{
    BufferInit, BufferSpec, Device, Dim2, ExecEngine, LaunchPlan, Pipeline, PipelineRun, PlanArg,
};

const N: usize = 64;

/// A gather workload: `out[gid] = data[idx[gid]]`. The index buffer is
/// Critical (it forms addresses); `data` and `out` are Tolerant.
fn gather_workload() -> Workload {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("gather");
    let idx = kb.buffer("idx", Ty::I32, MemSpace::Global);
    let data = kb.buffer("data", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let j = kb.let_("j", kb.load(idx, gid.clone()));
    kb.store(out, gid, kb.load(data, j));
    let kernel = program.add_kernel(kb.finish());

    let mut pipeline = Pipeline::default();
    // A permutation of 0..N so every fetch lands in-bounds when exact.
    let indices: Vec<i32> = (0..N as i32).map(|i| (i * 7) % N as i32).collect();
    let data_init: Vec<f32> = (0..N).map(|i| i as f32 * 1.5).collect();
    let idx_b = pipeline.add_buffer(BufferSpec::global("idx", BufferInit::I32(indices)));
    let data_b = pipeline.add_buffer(BufferSpec::global("data", BufferInit::F32(data_init)));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("out", N));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(N / 32),
        block: Dim2::linear(32),
        args: vec![
            PlanArg::Buffer(idx_b),
            PlanArg::Buffer(data_b),
            PlanArg::Buffer(out_b),
        ],
    });
    pipeline.outputs.push(out_b);
    Workload::new("gather", program, pipeline, Metric::MeanRelative)
}

fn run_at(workload: &Workload, rate: f64, workers: usize) -> PipelineRun {
    let mut device = Device::new(DeviceProfile::gtx560().with_parallelism(workers));
    device.set_approx_rate(rate);
    device.set_approx_seed(99);
    workload
        .pipeline
        .execute(&mut device, &workload.program)
        .expect("pipeline must execute")
}

fn bits(run: &PipelineRun) -> Vec<Vec<u64>> {
    run.outputs
        .iter()
        .map(|o| o.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// The partition classifies the gather fixture exactly as intended.
#[test]
fn gather_partition_is_as_expected() {
    let w = gather_workload();
    let parts = partition_program(&w.program);
    let verdicts = &parts[0].verdicts;
    assert_eq!(verdicts[0].criticality, Criticality::Critical, "idx");
    assert_eq!(verdicts[1].criticality, Criticality::Tolerant, "data");
    assert_eq!(verdicts[2].criticality, Criticality::Tolerant, "out");
    assert!(
        !verdicts[0].witness.is_empty(),
        "Critical verdicts carry a witness chain"
    );
    assert_eq!(tolerant_buffer_slots(&w, &parts), vec![1, 2]);
}

/// Force-placing the Critical index buffer is statically refused, with
/// the witness chain in the diagnostic.
#[test]
fn critical_placement_is_statically_refused() {
    let mut w = gather_workload();
    w.pipeline.buffers[0] = w.pipeline.buffers[0].clone().with_space(MemSpace::Approx);
    let table = latency_table_for(&DeviceProfile::gtx560());
    match compile(&w, &table, &CompileOptions::minimal()) {
        Err(CompileError::Analysis(diags)) => {
            assert!(
                diags.iter().any(|d| d.code == "approx-placement"),
                "refusal must cite the placement lint: {diags:?}"
            );
        }
        other => panic!("Critical placement must be refused, got {other:?}"),
    }
}

/// ...and the refusal is not paranoia: if the device were allowed to
/// serve the index buffer from approximate memory, injected flips would
/// corrupt addresses — the run either faults out-of-bounds or gathers
/// the wrong elements. This is the dynamic half of the differential
/// argument: the lint refuses exactly the placements that demonstrably
/// break under injection.
#[test]
fn critical_placement_demonstrably_diverges_under_injection() {
    let mut w = gather_workload();
    w.pipeline.buffers[0] = w.pipeline.buffers[0].clone().with_space(MemSpace::Approx);
    let exact = run_at(&gather_workload(), 0.0, 1);
    let mut device = Device::new(DeviceProfile::gtx560());
    device.set_approx_rate(0.25);
    device.set_approx_seed(99);
    let diverged = match w.pipeline.execute(&mut device, &w.program) {
        Err(_) => true, // a flipped index walked out of bounds
        Ok(run) => bits(&run) != bits(&exact),
    };
    assert!(
        diverged,
        "flips in the index buffer must corrupt the gather"
    );
}

/// Tolerant placement at rate 0 is bit-identical to exact, at every
/// worker count and under both engines.
#[test]
fn tolerant_placement_at_rate_zero_is_bit_identical() {
    let exact = bits(&run_at(&gather_workload(), 0.0, 1));
    let mut w = gather_workload();
    for slot in [1usize, 2] {
        w.pipeline.buffers[slot] = w.pipeline.buffers[slot]
            .clone()
            .with_space(MemSpace::Approx);
    }
    for workers in [1usize, 2, 4] {
        for engine in [ExecEngine::TreeWalk, ExecEngine::Bytecode] {
            let mut device = Device::new(
                DeviceProfile::gtx560()
                    .with_parallelism(workers)
                    .with_engine(engine),
            );
            device.set_approx_rate(0.0);
            let run = w.pipeline.execute(&mut device, &w.program).unwrap();
            assert_eq!(
                bits(&run),
                exact,
                "rate-0 tolerant placement diverged ({engine:?}, {workers} workers)"
            );
        }
    }
}

/// Tolerant placement under injection perturbs values but never
/// addresses: the run must complete (no out-of-bounds faults) no matter
/// the rate, because flips are confined to payload data.
#[test]
fn tolerant_placement_never_faults() {
    let mut w = gather_workload();
    for slot in [1usize, 2] {
        w.pipeline.buffers[slot] = w.pipeline.buffers[slot]
            .clone()
            .with_space(MemSpace::Approx);
    }
    for rate in [0.01, 0.25, 1.0] {
        let run = run_at(&w, rate, 1);
        assert_eq!(run.outputs[0].len(), N);
    }
}

/// All 13 paper applications pass the partition lint under the tolerant
/// auto-placement, and that placement is bit-identical to exact at rate 0
/// across worker counts.
#[test]
fn apps_auto_placement_is_clean_and_rate_zero_identical() {
    for app in registry() {
        let mut workload = (app.build)(Scale::Test, 0);
        let exact = bits(&run_at(&workload, 0.0, 1));
        let partition = partition_program(&workload.program);
        let slots = tolerant_buffer_slots(&workload, &partition);
        for &slot in &slots {
            workload.pipeline.buffers[slot] = workload.pipeline.buffers[slot]
                .clone()
                .with_space(MemSpace::Approx);
        }
        let placements: Vec<_> = analyze_workload(&workload)
            .into_iter()
            .filter(|d| d.code == "approx-placement")
            .collect();
        assert!(
            placements.is_empty(),
            "{}: auto-placement tripped the lint: {placements:?}",
            app.spec.name
        );
        for workers in [1usize, 2, 4] {
            let run = run_at(&workload, 0.0, workers);
            assert_eq!(
                bits(&run),
                exact,
                "{}: rate-0 auto-placement diverged at {workers} workers",
                app.spec.name
            );
        }
    }
}

/// Hand-placing a Critical buffer in any app is refused. Uses the first
/// app with a Critical global-buffer launch argument (Naive Bayes'
/// class-count histogram, among others, qualifies).
#[test]
fn apps_critical_placement_is_refused() {
    let mut refused = 0usize;
    for app in registry() {
        let mut workload = (app.build)(Scale::Test, 0);
        let partition = partition_program(&workload.program);
        // Find a pipeline slot feeding a Critical global param.
        let mut target = None;
        'outer: for launch in &workload.pipeline.launches {
            let part = partition.iter().find(|p| p.kernel == launch.kernel);
            for (pi, arg) in launch.args.iter().enumerate() {
                if let PlanArg::Buffer(slot) = arg {
                    let critical = part.is_some_and(|p| {
                        p.verdict(paraprox_ir::MemRef::Param(pi))
                            .is_some_and(|v| v.criticality == Criticality::Critical)
                    });
                    if critical && workload.pipeline.buffers[*slot].space == MemSpace::Global {
                        target = Some(*slot);
                        break 'outer;
                    }
                }
            }
        }
        let Some(slot) = target else { continue };
        workload.pipeline.buffers[slot] = workload.pipeline.buffers[slot]
            .clone()
            .with_space(MemSpace::Approx);
        let table = latency_table_for(&DeviceProfile::gtx560());
        assert!(
            matches!(
                compile(&workload, &table, &CompileOptions::minimal()),
                Err(CompileError::Analysis(_))
            ),
            "{}: Critical placement must be refused",
            app.spec.name
        );
        refused += 1;
    }
    assert!(
        refused >= 3,
        "the refusal check should not be vacuous (got {refused} apps)"
    );
}

/// The error rate rides the tuner's existing ladder: `with_approx_memory`
/// exposes one rung per rate after the rewrite variants, the tuner
/// profiles them like any other candidate, and running an approx rung
/// resets the device's rate afterwards.
#[test]
fn approx_rates_are_tuner_rungs() {
    use paraprox_runtime::{Approximable, Toq, Tuner};
    let app = paraprox_apps::find("mean filter").expect("registered app");
    let workload = (app.build)(Scale::Test, 0);
    let profile = DeviceProfile::gtx560();
    let table = latency_table_for(&profile);
    let compiled = compile(&workload, &table, &CompileOptions::default()).unwrap();

    let base = DeviceApp::new(
        Device::new(profile.clone()),
        &compiled,
        app.input_gen(Scale::Test),
    );
    let base_count = base.variant_count();
    let mut with_mem = DeviceApp::new(Device::new(profile), &compiled, app.input_gen(Scale::Test))
        .with_approx_memory(&compiled, &[1e-4, 1e-2]);
    assert_eq!(with_mem.variant_count(), base_count + 2);
    assert!(with_mem
        .variant_label(base_count)
        .starts_with("approx-mem@"));
    assert!(with_mem
        .variant_label(base_count + 1)
        .starts_with("approx-mem@"));

    let tuner = Tuner {
        toq: Toq::paper_default(),
        training_seeds: vec![0, 1],
    };
    let report = tuner.tune(&mut with_mem).expect("tuning succeeds");
    assert_eq!(
        report.profiles.len(),
        base_count + 2,
        "every rung, including the approx-memory ones, is profiled"
    );
    let mem_rungs: Vec<_> = report
        .profiles
        .iter()
        .filter(|p| p.label.starts_with("approx-mem@"))
        .collect();
    assert_eq!(mem_rungs.len(), 2);
    for p in &mem_rungs {
        assert!(
            p.speedup > 1.0,
            "approx memory must be modeled cheaper ({}: {}x)",
            p.label,
            p.speedup
        );
        assert!(p.mean_quality <= 100.0);
    }
    // The low rate perturbs quality no more than the high rate does.
    assert!(mem_rungs[0].mean_quality >= mem_rungs[1].mean_quality);
}
