//! Whole-application differential test: every benchmark pipeline must
//! produce bit-identical outputs, simulated cycles, and cache statistics
//! under the bytecode engine (superinstructions included) and the
//! tree-walking oracle, on both device profiles, serial and block-parallel.
//!
//! This is the broad-coverage counterpart to the targeted kernels in
//! `paraprox-vgpu`'s `bytecode_equivalence` suite: the 13 applications
//! exercise every pattern (map, stencil, reduction with atomics, scan,
//! scatter/gather) at realistic kernel sizes, so a charging or masking
//! discrepancy anywhere in the bytecode compiler shows up here.

use paraprox_apps::{registry, Scale};
use paraprox_vgpu::{Device, DeviceProfile, ExecEngine, PipelineRun};

fn run(profile: DeviceProfile, workload: &paraprox::Workload) -> PipelineRun {
    let mut device = Device::new(profile);
    workload
        .pipeline
        .execute(&mut device, &workload.program)
        .expect("pipeline must execute")
}

fn assert_bit_identical(app: &str, setting: &str, reference: &PipelineRun, got: &PipelineRun) {
    // Every simulated counter (cycles, instructions, cache hits/misses,
    // transactions) — host wall-clock fields are excluded from equality.
    assert_eq!(
        got.stats, reference.stats,
        "{app}: stats diverged ({setting})"
    );
    assert_eq!(
        got.outputs.len(),
        reference.outputs.len(),
        "{app}: output arity diverged ({setting})"
    );
    for (b, (r, g)) in reference.outputs.iter().zip(&got.outputs).enumerate() {
        assert_eq!(r.len(), g.len(), "{app}: output {b} length ({setting})");
        for (i, (x, y)) in r.iter().zip(g).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{app}: output {b}[{i}] bits diverged ({setting})"
            );
        }
    }
}

fn check_profile(base: DeviceProfile) {
    let (mut apps, mut fused) = (0, 0);
    for app in registry() {
        let workload = (app.build)(Scale::Test, 7);
        let reference = run(
            base.clone()
                .with_engine(ExecEngine::TreeWalk)
                .with_parallelism(1),
            &workload,
        );
        for (engine, workers) in [
            (ExecEngine::Bytecode, 1),
            (ExecEngine::Bytecode, 2),
            (ExecEngine::Bytecode, 4),
            (ExecEngine::TreeWalk, 4),
        ] {
            let got = run(
                base.clone().with_engine(engine).with_parallelism(workers),
                &workload,
            );
            let setting = format!("{engine:?} x{workers} on {}", base.name);
            assert_bit_identical(app.spec.name, &setting, &reference, &got);
            if (engine, workers) == (ExecEngine::Bytecode, 1) {
                fused += usize::from(got.stats.fusions_hit > 0);
            }
        }
        apps += 1;
    }
    // Fusable pairs (mul+add, load+cast, cmp+branch, bin+store) are
    // ubiquitous in these kernels, and a program is fused when compiled:
    // a device's first pass over an app already dispatches
    // superinstructions, on most apps and not only a lucky one.
    assert!(
        fused * 2 >= apps,
        "fusion engaged on only {fused}/{apps} apps on {}",
        base.name
    );
}

#[test]
fn all_apps_bit_identical_across_engines_gpu() {
    check_profile(DeviceProfile::gtx560());
}

#[test]
fn all_apps_bit_identical_across_engines_cpu() {
    check_profile(DeviceProfile::core_i7_965());
}
