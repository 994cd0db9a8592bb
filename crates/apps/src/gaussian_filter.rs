//! Gaussian Filter — 3×3 smoothing (Image Processing, Stencil, mean
//! relative error). Loop-based tile with weights in constant memory.

use paraprox::{Metric, Workload};
use paraprox_ir::{MemSpace, Scalar};
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 32),
        Scale::Paper => (96, 96),
    }
}

/// The 3×3 Gaussian weights.
pub const WEIGHTS: [f32; 9] = [
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    4.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
    2.0 / 16.0,
    1.0 / 16.0,
];

/// Host reference.
pub fn reference(img: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = img.to_vec();
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let mut acc = 0.0f32;
            for i in 0..3 {
                for j in 0..3 {
                    acc += img[(y + i - 1) * w + (x + j - 1)] * WEIGHTS[i * 3 + j];
                }
            }
            out[y * w + x] = acc;
        }
    }
    out
}

/// Generate the image input.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (w, h) = dims(scale);
    let mut r = inputs::rng(seed ^ 0x6A5);
    vec![BufferInit::F32(inputs::smooth_image(&mut r, w, h))]
}

/// The application's kernel source: a looped 3×3 tile whose weights
/// ([`WEIGHTS`]) sit in constant memory.
pub const SOURCE: &str = r#"
__global__ void gaussian3x3(float* img, __constant__ float* coef, float* out, int w, int h) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int center = y * w + x;
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        float acc = 0.0f;
        for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 3; j++) {
                acc += img[(y + i - 1) * w + x + j - 1] * coef[i * 3 + j];
            }
        }
        out[center] = acc;
    } else {
        float vb = img[center];
        out[center] = vb;
    }
}
"#;

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let (w, h) = dims(scale);
    let program = crate::lower(SOURCE);
    let kernel = program.kernel_by_name("gaussian3x3").expect("declared");

    let mut pipeline = Pipeline::default();
    let img_b = pipeline.add_buffer(BufferSpec::global("img", gen_inputs(scale, seed).remove(0)));
    let coef_b = pipeline.add_buffer(
        BufferSpec::global("coef", BufferInit::F32(WEIGHTS.to_vec()))
            .with_space(MemSpace::Constant),
    );
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("out", w * h));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::new(w / 16, h / 8),
        block: Dim2::new(16, 8),
        args: vec![
            PlanArg::Buffer(img_b),
            PlanArg::Buffer(coef_b),
            PlanArg::Buffer(out_b),
            PlanArg::Scalar(Scalar::I32(w as i32)),
            PlanArg::Scalar(Scalar::I32(h as i32)),
        ],
    });
    pipeline.outputs = vec![out_b];

    Workload::new("Gaussian Filter", program, pipeline, Metric::MeanRelative)
        .with_input_slots(vec![img_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Gaussian Filter",
            domain: "Image Processing",
            input_desc: "96x96 image (paper: 512x512)",
            patterns: "Stencil",
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
        let w = build(Scale::Test, 21);
        let (wd, ht) = dims(Scale::Test);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let BufferInit::F32(img) = &gen_inputs(Scale::Test, 21)[0] else {
            panic!()
        };
        let expected = reference(img, wd, ht);
        for (i, e) in expected.iter().enumerate() {
            assert!(
                (run.outputs[0][i] as f32 - e).abs() < 1e-3,
                "pixel {i}: {} vs {e}",
                run.outputs[0][i]
            );
        }
    }

    #[test]
    fn detected_as_looped_3x3_stencil_with_reduction() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        let names = compiled.pattern_names();
        assert!(names.contains(&"stencil"), "{names:?}");
        let cand = compiled
            .patterns
            .iter()
            .flat_map(|kp| kp.stencils())
            .next()
            .unwrap();
        assert_eq!((cand.tile_h, cand.tile_w), (3, 3));
        assert_eq!(cand.row_loops.len(), 1);
        assert_eq!(cand.col_loops.len(), 1);
    }
}
