//! Shared harness utilities for regenerating the paper's tables and
//! figures. Each `src/bin/*.rs` binary reproduces one experiment; see
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use paraprox::{
    compile, latency_table_for, CompileOptions, Compiled, Device, DeviceApp, DeviceProfile,
};
use paraprox_apps::{App, Scale};
use paraprox_runtime::{Toq, TuneReport, Tuner};

/// Profiles evaluated in the paper: the GTX 560 and the Core i7 965.
pub fn both_devices() -> [(&'static str, DeviceProfile); 2] {
    [
        ("GPU", DeviceProfile::gtx560()),
        ("CPU", DeviceProfile::core_i7_965()),
    ]
}

/// Compile an application for a device profile.
///
/// # Panics
///
/// Panics on compile errors — harnesses want loud failures.
pub fn compile_app(
    app: &App,
    scale: Scale,
    profile: &DeviceProfile,
    options: &CompileOptions,
) -> Compiled {
    let workload = (app.build)(scale, 0);
    let table = latency_table_for(profile);
    compile(&workload, &table, options).expect("compile must succeed")
}

/// Compile + tune an application on a device; returns the tune report and
/// the bound device app (for further deployment experiments).
///
/// # Panics
///
/// Panics on compile or execution errors.
pub fn tune_app(
    app: &App,
    scale: Scale,
    profile: &DeviceProfile,
    options: &CompileOptions,
    toq: Toq,
    seeds: usize,
) -> (TuneReport, DeviceApp) {
    let compiled = compile_app(app, scale, profile, options);
    let mut device_app = DeviceApp::new(
        Device::new(profile.clone()),
        &compiled,
        app.input_gen(scale),
    );
    let tuner = Tuner {
        toq,
        training_seeds: (0..seeds as u64).collect(),
    };
    let report = tuner.tune(&mut device_app).expect("tuning must succeed");
    (report, device_app)
}

/// Force-memoize the (single) trained function of a workload at a given
/// configuration, regardless of the Eq. (1) candidacy test — the paper's
/// §4.4.2 case studies apply memoization to all four functions directly.
///
/// Returns the rewritten program and pipeline, ready to execute.
///
/// # Panics
///
/// Panics when the workload has no training data or the rewrite fails.
pub fn force_memo(
    workload: &paraprox::Workload,
    bits: u32,
    mode: paraprox_approx::LookupMode,
    placement: paraprox_approx::TablePlacement,
) -> (paraprox_ir::Program, paraprox_vgpu::Pipeline) {
    use paraprox_approx::{bit_tune, input_ranges, memoize_kernel, MemoConfig};
    let (func, samples) = workload
        .memo_training
        .first()
        .expect("workload has training data");
    let ranges = input_ranges(samples).expect("nonempty training");
    let tuned = bit_tune(&workload.program, *func, samples, &ranges, bits).expect("bit tuning");
    let config = MemoConfig {
        func: *func,
        split: tuned.split,
        mode,
        placement,
        ranges,
    };
    // Memoize in every kernel that calls the function.
    let mut program = workload.program.clone();
    let mut pipeline = workload.pipeline.clone();
    for (kid, _) in workload.program.kernels() {
        let mut calls = false;
        paraprox_ir::for_each_expr_in_stmts(&workload.program.kernel(kid).body, &mut |e| {
            if matches!(e, paraprox_ir::Expr::Call { func: f2, .. } if f2 == func) {
                calls = true;
            }
        });
        if !calls {
            continue;
        }
        let variant = memoize_kernel(&program, kid, &config).expect("memoize");
        program = variant.program;
        let slot = pipeline.add_buffer(paraprox_vgpu::BufferSpec {
            name: "lut".to_string(),
            ty: paraprox_ir::Ty::F32,
            space: variant.lut_space,
            init: paraprox_vgpu::BufferInit::F32(variant.table),
        });
        for launch in &mut pipeline.launches {
            if launch.kernel == kid {
                launch.args.push(paraprox_vgpu::PlanArg::Buffer(slot));
            }
        }
    }
    (program, pipeline)
}

/// Execute a (program, pipeline) pair on a fresh device with the given
/// profile; returns (flat output, total cycles, stats).
///
/// # Panics
///
/// Panics on execution errors.
pub fn run_once(
    program: &paraprox_ir::Program,
    pipeline: &paraprox_vgpu::Pipeline,
    profile: &DeviceProfile,
) -> (Vec<f64>, u64, paraprox_vgpu::LaunchStats) {
    let mut device = Device::new(profile.clone());
    let run = pipeline.execute(&mut device, program).expect("execute");
    (run.flat_output(), run.stats.total_cycles(), run.stats)
}

/// Geometric mean (for averaging speedups).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Render one line of an ASCII bar chart.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = ((value / max).clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn bars_are_clamped() {
        assert_eq!(bar(2.0, 1.0, 4), "####");
        assert_eq!(bar(0.0, 1.0, 4), "....");
        assert_eq!(bar(0.5, 1.0, 4), "##..");
    }
}
