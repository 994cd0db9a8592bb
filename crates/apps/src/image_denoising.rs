//! Image Denoising — bilateral-style 5×5 weighted average (Image
//! Processing, Reduction, mean relative error). One loop, two accumulators
//! (value·weight and weight), exercising the grouped reduction rewrite.

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (32, 32),
        Scale::Paper => (64, 64),
    }
}

/// Range-kernel sharpness (1/(2σ²) with σ ≈ 20 gray levels).
const INV2SIGMA2: f32 = 1.0 / (2.0 * 20.0 * 20.0);

/// Host reference.
pub fn reference(img: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = img.to_vec();
    for y in 2..h - 2 {
        for x in 2..w - 2 {
            let center = img[y * w + x];
            let mut vsum = 0.0f32;
            let mut wsum = 0.0f32;
            for i in 0..5 {
                for j in 0..5 {
                    let v = img[(y + i - 2) * w + (x + j - 2)];
                    let d = v - center;
                    let wgt = (-d * d * INV2SIGMA2).exp();
                    vsum += v * wgt;
                    wsum += wgt;
                }
            }
            out[y * w + x] = vsum / wsum;
        }
    }
    out
}

/// Generate the noisy image input.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (w, h) = dims(scale);
    let mut r = inputs::rng(seed ^ 0xDE0);
    vec![BufferInit::F32(inputs::smooth_image(&mut r, w, h))]
}

/// The application's kernel source; 0.00125 is [`INV2SIGMA2`].
pub const SOURCE: &str = r#"
__global__ void denoise5x5(float* img, float* out, int w, int h) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int center_idx = y * w + x;
    if (x > 1 && x < w - 2 && y > 1 && y < h - 2) {
        float center = img[center_idx];
        float vsum = 0.0f;
        float wsum = 0.0f;
        for (int i = 0; i < 5; i++) {
            for (int j = 0; j < 5; j++) {
                float v = img[(y + i - 2) * w + x + j - 2];
                float d = v - center;
                float wgt = expf(-(d * d) * 0.00125f);
                vsum += v * wgt;
                wsum += wgt;
            }
        }
        out[center_idx] = vsum / wsum;
    } else {
        float vb = img[center_idx];
        out[center_idx] = vb;
    }
}
"#;

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let (w, h) = dims(scale);
    let program = crate::lower(SOURCE);
    let kernel = program.kernel_by_name("denoise5x5").expect("declared");

    let mut pipeline = Pipeline::default();
    let img_b = pipeline.add_buffer(BufferSpec::global("img", gen_inputs(scale, seed).remove(0)));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("out", w * h));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::new(w / 16, h / 8),
        block: Dim2::new(16, 8),
        args: vec![
            PlanArg::Buffer(img_b),
            PlanArg::Buffer(out_b),
            PlanArg::Scalar(Scalar::I32(w as i32)),
            PlanArg::Scalar(Scalar::I32(h as i32)),
        ],
    });
    pipeline.outputs = vec![out_b];

    Workload::new("Image Denoising", program, pipeline, Metric::MeanRelative)
        .with_input_slots(vec![img_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Image Denoising",
            domain: "Image Processing",
            input_desc: "64x64 image, 5x5 window (paper: 2048x2048)",
            patterns: "Reduction",
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
        let w = build(Scale::Test, 13);
        let (wd, ht) = dims(Scale::Test);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let BufferInit::F32(img) = &gen_inputs(Scale::Test, 13)[0] else {
            panic!()
        };
        let expected = reference(img, wd, ht);
        for (i, e) in expected.iter().enumerate() {
            assert!(
                (run.outputs[0][i] as f32 - e).abs() < 1e-2,
                "pixel {i}: {} vs {e}",
                run.outputs[0][i]
            );
        }
    }

    #[test]
    fn two_accumulators_in_one_reduction_loop() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        assert!(compiled.pattern_names().contains(&"reduction"));
        // The innermost (j) loop carries both vsum and wsum.
        let reds: Vec<_> = compiled
            .patterns
            .iter()
            .flat_map(|kp| kp.reductions())
            .collect();
        assert!(reds.len() >= 2, "found {}", reds.len());
        assert!(compiled
            .variants
            .iter()
            .any(|v| matches!(v.knob, paraprox::Knob::Reduction { .. })));
    }
}
