//! Gamma Correction (Image Processing, Map, mean relative error).
//!
//! Applies `out = 255 · (in/255)^(1/γ)` per pixel. `powf` is a slow
//! subroutine pair on the GPU, and the curve is smooth and monotone —
//! which is why the paper finds this benchmark extremely resilient (99%
//! quality until the table gets too small, then a sudden drop).

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

/// The gamma value applied.
pub const GAMMA: f32 = 2.2;

/// This application is built from *kernel source* through the
/// `paraprox-lang` frontend — the same path the original system takes
/// through Clang. (1/255 = 0.003921569; 1/2.2 = 0.45454547.)
pub const SOURCE: &str = r#"
__device__ float gamma_correct(float x) {
    float norm = fmaxf(x * 0.003921569f, 1e-6f);
    return 255.0f * powf(norm, 0.45454547f);
}

__global__ void gamma(float* img, float* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    out[gid] = gamma_correct(img[gid]);
}
"#;

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 32),
        Scale::Paper => (128, 128),
    }
}

/// Host reference.
pub fn reference(x: f32) -> f32 {
    255.0 * (x / 255.0).max(1e-6).powf(1.0 / GAMMA)
}

/// Generate the image input.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (w, h) = dims(scale);
    let mut r = inputs::rng(seed ^ 0x6A);
    vec![BufferInit::F32(inputs::smooth_image(&mut r, w, h))]
}

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let (w, h) = dims(scale);
    let n = w * h;
    let program = crate::lower(SOURCE);
    let func = program.func_by_name("gamma_correct").expect("declared");
    let kernel = program.kernel_by_name("gamma").expect("declared");

    let mut pipeline = Pipeline::default();
    let img_b = pipeline.add_buffer(BufferSpec::global("img", gen_inputs(scale, seed).remove(0)));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("out", n));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(n / 64),
        block: Dim2::linear(64),
        args: vec![PlanArg::Buffer(img_b), PlanArg::Buffer(out_b)],
    });
    pipeline.outputs = vec![out_b];

    let mut trng = inputs::rng(0x6A77A);
    let samples: Vec<Vec<Scalar>> = (0..128)
        .map(|_| vec![Scalar::F32(trng.random_range(0.0f32..255.0))])
        .collect();

    Workload::new("Gamma Correction", program, pipeline, Metric::MeanRelative)
        .with_training(func, samples)
        .with_input_slots(vec![img_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Gamma Correction",
            domain: "Image Processing",
            input_desc: "128x128 image (paper: 2048x2048)",
            patterns: "Map",
            metric: Metric::MeanRelative,
        },
        build,
        gen_inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_vgpu::{Device, DeviceProfile};

    #[test]
    fn exact_pipeline_matches_host_reference() {
        let w = build(Scale::Test, 9);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let BufferInit::F32(img) = &gen_inputs(Scale::Test, 9)[0] else {
            panic!()
        };
        for (i, &px) in img.iter().enumerate() {
            let expected = reference(px);
            assert!(
                (run.outputs[0][i] as f32 - expected).abs() < 1e-3,
                "pixel {i}"
            );
        }
    }

    #[test]
    fn gamma_curve_is_monotone() {
        let mut prev = reference(0.0);
        for step in 1..=64 {
            let cur = reference(step as f32 * 4.0);
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn memoization_candidate_detected() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        assert!(compiled.pattern_names().contains(&"map"));
        assert!(!compiled.variants.is_empty());
    }
}
