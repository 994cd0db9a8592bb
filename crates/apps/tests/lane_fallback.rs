//! Guard for the bytecode engine's masked typed strips: no application
//! ever leaves them.
//!
//! Every ALU and control op of the bytecode engine runs as a typed strip
//! loop that takes the lane mask as an argument, and every load and store
//! moves raw words over the mask's spans; the per-lane `Scalar` path behind
//! them is the error path. `LaunchStats::lane_fallback_ops` counts the ops
//! that took it and `LaunchStats::mem_fallback_ops` the loads and stores,
//! so both must read zero on every pipeline the applications can produce —
//! exact and every compiled variant, one-shot and iterative, on both
//! profiles — however their lanes diverge, and non-zero on a kernel whose
//! active lanes really do differ in type. An op that reintroduces a
//! per-lane fallback on well-typed rows fails here, not in a timing.

use paraprox::{compile, latency_table_for, CompileOptions};
use paraprox_apps::{iter_registry, registry, Scale};
use paraprox_ir::{Expr, KernelBuilder, MemSpace, Program, Ty};
use paraprox_runtime::Approximable;
use paraprox_vgpu::{Device, DeviceProfile, Dim2, ExecEngine, LaunchError};

fn profiles() -> [DeviceProfile; 2] {
    [DeviceProfile::gtx560(), DeviceProfile::core_i7_965()]
}

#[test]
fn no_app_leaves_the_typed_strips_and_a_mixed_tag_kernel_does() {
    for profile in profiles() {
        for app in registry() {
            let workload = (app.build)(Scale::Test, 7);
            let compiled = compile(
                &workload,
                &latency_table_for(&profile),
                &CompileOptions::default(),
            )
            .expect("compile must succeed");
            let exact = (&workload.program, &workload.pipeline, "exact");
            let variants = compiled
                .variants
                .iter()
                .map(|v| (&v.program, &v.pipeline, v.label.as_str()));
            let mut ran = 0;
            for (program, pipeline, label) in std::iter::once(exact).chain(variants) {
                let mut device = Device::new(profile.clone());
                match pipeline.execute(&mut device, program) {
                    Ok(run) => {
                        assert!(run.stats.ops_dispatched > 0);
                        assert_eq!(
                            (run.stats.lane_fallback_ops, run.stats.mem_fallback_ops),
                            (0, 0),
                            "{} `{label}` on {}: an op or access took the per-lane path",
                            app.spec.name,
                            profile.name
                        );
                        ran += 1;
                    }
                    // Some candidate tables legitimately do not fit the
                    // device; the tuner never deploys those.
                    Err(LaunchError::SharedMemoryExceeded { .. }) => {}
                    Err(e) => panic!("{} `{label}` on {}: {e}", app.spec.name, profile.name),
                }
            }
            assert!(ran > 1, "{}: no variant ran", app.spec.name);
        }

        for app in iter_registry() {
            let device = Device::new(profile.clone());
            let mut job = app
                .instantiate(Scale::Test, device)
                .expect("every preset schedule is admitted");
            job.run_exact(7).expect("exact loop runs");
            for rung in 0..job.variant_count() {
                job.run_variant(rung, 7).expect("preset schedule runs");
            }
            let stats = job.total_stats();
            assert!(stats.ops_dispatched > 0);
            assert_eq!(
                (stats.lane_fallback_ops, stats.mem_fallback_ops),
                (0, 0),
                "{} on {}: an op or access took the per-lane path",
                app.name,
                profile.name
            );
        }

        // The mixed-tag fixture of `vgpu/tests/bytecode_equivalence.rs`: an
        // index row whose lanes are `i32` and `u32`, here also cast, so an
        // ALU op, the load and the store meet active lanes of two types and
        // must go lane by lane.
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("mixed_index");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let i = kb.let_mut("i", Ty::I32, gid.clone());
        kb.if_(KernelBuilder::thread_id_x().lt(Expr::i32(16)), |kb| {
            kb.assign(i, gid.clone().cast(Ty::U32));
        });
        let v = kb.let_("v", kb.load(input, Expr::Var(i)));
        kb.store(output, Expr::Var(i), v * Expr::Var(i).cast(Ty::F32));
        let kid = program.add_kernel(kb.finish());
        for (engine, falls_back) in [(ExecEngine::Bytecode, true), (ExecEngine::TreeWalk, false)] {
            let mut device = Device::new(profile.clone().with_engine(engine));
            let data: Vec<f32> = (0..64).map(|i| i as f32 + 0.5).collect();
            let input = device.alloc_f32(MemSpace::Global, &data);
            let out = device.alloc_f32(MemSpace::Global, &[0.0; 64]);
            let stats = device
                .launch(
                    &program,
                    kid,
                    Dim2::linear(2),
                    Dim2::linear(32),
                    &[input.into(), out.into()],
                )
                .expect("mixed lanes are not an error");
            assert_eq!(stats.lane_fallback_ops > 0, falls_back, "{engine:?}");
            // One load and one store, dispatched once for the two blocks:
            // they run as one block group.
            assert_eq!(stats.groups, u64::from(falls_back), "{engine:?}");
            let per_lane_accesses = if falls_back { 2 } else { 0 };
            assert_eq!(stats.mem_fallback_ops, per_lane_accesses, "{engine:?}");
            let want: Vec<f32> = data.iter().enumerate().map(|(i, v)| v * i as f32).collect();
            assert_eq!(device.read_f32(out).unwrap(), want);
        }
    }
}
