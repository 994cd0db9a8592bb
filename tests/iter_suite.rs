//! Integration tests for the iterative loop-of-stencil-reduce subsystem
//! (tier-2): determinism of convergence loops across worker counts and
//! execution engines, and the safety gate's refusals — shown to be
//! justified by a dynamic race witness, not just a static lint.

use paraprox_approx::StencilScheme;
use paraprox_apps::{iter_registry, IterApp, Scale};
use paraprox_ir::{Expr, KernelBuilder, MemSpace, Program, Ty};
use paraprox_iter::{gate_schedule, IterError, IterModel, IterSchedule, ModelParts, ReachStage};
use paraprox_quality::Metric;
use paraprox_runtime::Approximable;
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2, ExecEngine};

/// Run one convergence loop and return the converged field as raw bits.
fn run_bits(
    app: &IterApp,
    schedule: &IterSchedule,
    workers: usize,
    engine: ExecEngine,
    seed: u64,
) -> Vec<u64> {
    let device = Device::new(
        DeviceProfile::gtx560()
            .with_parallelism(workers)
            .with_engine(engine),
    );
    let mut job = app
        .instantiate(Scale::Test, device)
        .unwrap_or_else(|e| panic!("{}: {e}", app.name));
    if !schedule.is_exact() && !job.schedules().contains(schedule) {
        job.add_schedule(schedule.clone())
            .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, schedule.label));
    }
    let out = job
        .run_schedule(schedule, seed)
        .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, schedule.label));
    out.output.iter().map(|v| v.to_bits()).collect()
}

/// The exact loop is bit-identical at 1, 2, and 4 workers under both
/// execution engines, on every registered iterative app. The loop's
/// convergence decisions feed back into control flow (how many launches
/// run), so any worker-dependent residual would diverge the whole
/// trajectory — this pins the full pipeline, not just one launch.
#[test]
fn exact_loop_bit_identical_across_workers_and_engines() {
    for app in iter_registry() {
        let exact = IterSchedule::exact();
        let baseline = run_bits(&app, &exact, 1, ExecEngine::TreeWalk, 42);
        for engine in [ExecEngine::TreeWalk, ExecEngine::Bytecode] {
            for workers in [1usize, 2, 4] {
                let got = run_bits(&app, &exact, workers, engine, 42);
                assert_eq!(
                    baseline, got,
                    "{}: exact loop diverged at {workers} worker(s) on {engine:?}",
                    app.name
                );
            }
        }
    }
}

/// A staged stencil ramp, which no preset carries: the row-snapped
/// reach-1 stencil for the first half of the budget, exact after.
fn reach_ramp(max_iters: u32) -> IterSchedule {
    IterSchedule {
        label: "reach-ramp".to_string(),
        stages: vec![
            ReachStage {
                from_iter: 0,
                approx: Some((StencilScheme::Row, 1)),
            },
            ReachStage {
                from_iter: (max_iters / 2).max(1),
                approx: None,
            },
        ],
        check_every: 2,
        sample_log2: 1,
        predictor: None,
        seed: 0x17E4,
    }
}

/// Approximate schedules — the presets and a staged stencil ramp — are
/// bit-identical for a fixed `(seed, schedule)` at any worker count and
/// engine: the sampled residual checks draw their permutation host-side
/// from the schedule seed, never from execution order.
#[test]
fn approx_schedules_worker_invariant_for_fixed_seed_and_schedule() {
    for app in iter_registry() {
        let cap = (app.spec)(Scale::Test).max_iters;
        for schedule in IterSchedule::presets(cap)
            .into_iter()
            .chain([reach_ramp(cap)])
        {
            if schedule.is_exact() {
                continue;
            }
            let a = run_bits(&app, &schedule, 1, ExecEngine::TreeWalk, 7);
            let b = run_bits(&app, &schedule, 4, ExecEngine::Bytecode, 7);
            assert_eq!(
                a, b,
                "{}/{}: fixed (seed, schedule) must be worker- and engine-invariant",
                app.name, schedule.label
            );
        }
    }
}

/// Different schedule seeds really do sample different residual subsets:
/// the loop may check different residual values and stop at different
/// iterations, but both runs still converge to tolerance.
#[test]
fn schedule_seed_is_part_of_the_schedule_identity() {
    let app = iter_registry().remove(0);
    let cap = (app.spec)(Scale::Test).max_iters;
    let mut schedule = IterSchedule::named("sampled-check", cap).expect("preset exists");
    let device = Device::new(DeviceProfile::gtx560());
    let mut job = app.instantiate(Scale::Test, device).unwrap();
    job.run_schedule(&schedule, 3).unwrap();
    let first = job.last_run().unwrap().clone();
    schedule.seed ^= 0xBEEF;
    job.add_schedule(schedule.clone()).unwrap();
    job.run_schedule(&schedule, 3).unwrap();
    let second = job.last_run().unwrap().clone();
    assert!(first.converged && second.converged);
    assert_ne!(
        first.residual.to_bits(),
        second.residual.to_bits(),
        "different sampling seeds must observe different residual estimates"
    );
}

/// On the deployment seed, warm job and all: the exact loop converges
/// before the iteration cap, a second run of it on the same job returns
/// the same bits (pooled images and cached programs carry no state into
/// the next loop), and some preset holds 90 % converged-field quality at
/// 1.3x fewer simulated cycles or better. Cycles are simulated, so the
/// floor is an exact threshold, not a timing.
#[test]
fn exact_converges_replays_and_a_preset_clears_the_speedup_floor() {
    const SEED: u64 = 1000;
    for app in iter_registry() {
        let mut job = app
            .instantiate(Scale::Test, Device::new(DeviceProfile::gtx560()))
            .unwrap_or_else(|e| panic!("{}: {e}", app.name));
        let exact = job.run_schedule(&IterSchedule::exact(), SEED).unwrap();
        assert!(
            job.last_run().unwrap().converged,
            "{}: exact loop hit the iteration cap",
            app.name
        );
        let replay = job.run_schedule(&IterSchedule::exact(), SEED).unwrap();
        let bits = |out: &[f64]| out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(
            bits(&exact.output),
            bits(&replay.output),
            "{}: exact replay on the same job diverged",
            app.name
        );

        let mut best = 0.0f64;
        for schedule in job.schedules().to_vec() {
            let out = job.run_schedule(&schedule, SEED).unwrap();
            if job.quality(&exact.output, &out.output) >= 90.0 {
                best = best.max(exact.cycles as f64 / out.cycles.max(1) as f64);
            }
        }
        assert!(
            best >= 1.3,
            "{}: no preset reached 1.3x within 90% TOQ (best {best:.2}x)",
            app.name
        );
    }
}

/// A stencil whose block communicates through one shared slot with no
/// disjoint phases: every lane stores its own field value to `s[0]` in
/// the same statement, then every lane reads it back after the barrier.
/// The winner of the write-write race decides the whole block's output.
fn racy_model() -> IterModel {
    let (w, h) = (64i32, 8i32);
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("racy_step");
    let cur = kb.buffer("cur", Ty::F32, MemSpace::Global);
    let next = kb.buffer("next", Ty::F32, MemSpace::Global);
    let s = kb.shared_array("s", Ty::F32, 1);
    let x = kb.let_("x", KernelBuilder::global_id_x());
    let y = kb.let_("y", KernelBuilder::global_id_y());
    let i = kb.let_("i", y * Expr::i32(w) + x);
    let v = kb.load(cur, i.clone());
    kb.store(s, Expr::i32(0), v);
    kb.sync();
    let winner = kb.load(s, Expr::i32(0));
    kb.store(next, i, winner);
    let stencil = program.add_kernel(kb.finish());
    IterModel::new(ModelParts {
        name: "racy".to_string(),
        program,
        stencil,
        width: w as usize,
        height: h as usize,
        grid: Dim2::new(4, 1),
        block: Dim2::new(16, 8),
        stencil_scalars: Vec::new(),
        metric: Metric::MeanRelative,
    })
    .unwrap()
}

/// The gate statically refuses the racy model — and the refusal is
/// *justified*: replaying the same launch under permuted intra-block
/// store schedules (the dynamic race witness the vGPU exposes) produces
/// divergent outputs, so no approximation schedule may be built on it.
#[test]
fn refused_schedule_is_statically_rejected_and_dynamically_diverges() {
    let model = racy_model();

    // Static: every schedule (even the exact one) is refused with a
    // race diagnostic on the shared slot.
    let err = gate_schedule(&model, &IterSchedule::exact()).unwrap_err();
    match &err {
        IterError::Refused { label, reasons } => {
            assert_eq!(label, "exact");
            assert!(
                reasons.iter().any(|r| r.contains("race")),
                "refusal must cite the race: {reasons:?}"
            );
        }
        other => panic!("expected refusal, got {other}"),
    }

    // Dynamic: the same launch under different store-application
    // schedules lands different winners in `s[0]`.
    let n = model.elems();
    let field: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let mut outputs: Vec<Vec<u32>> = Vec::new();
    for seed in 1..=4u64 {
        let mut device = Device::new(DeviceProfile::gtx560());
        device.set_schedule_seed(Some(seed));
        let cur = device.alloc_f32(MemSpace::Global, &field);
        let next = device.alloc_f32(MemSpace::Global, &vec![0.0f32; n]);
        device
            .launch(
                &model.program,
                model.stencil,
                model.grid,
                model.block,
                &[ArgValue::Buffer(cur), ArgValue::Buffer(next)],
            )
            .unwrap();
        outputs.push(
            device
                .read_f32(next)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
        );
    }
    assert!(
        outputs.iter().any(|o| *o != outputs[0]),
        "a statically-refused schedule must show a dynamic divergence witness"
    );
}

/// The preset ladder passes the gate on every registered app — what the
/// gate admits, the tuner may safely profile.
#[test]
fn preset_ladder_admitted_on_every_registered_app() {
    for app in iter_registry() {
        let model = (app.build)(Scale::Test);
        let cap = (app.spec)(Scale::Test).max_iters;
        for schedule in IterSchedule::presets(cap) {
            gate_schedule(&model, &schedule)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", app.name, schedule.label));
        }
    }
}
