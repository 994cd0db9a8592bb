//! Mean Filter — 3×3 box blur (Image Processing, Stencil, mean relative
//! error). The tile is *manually unrolled* by the programmer (paper §4.3),
//! so there is no reduction loop: only the stencil optimization applies.

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 32),
        Scale::Paper => (128, 128),
    }
}

/// Kernel source (parsed through the `paraprox-lang` frontend). The 3×3
/// neighborhood is manually unrolled, exactly as the paper describes this
/// benchmark — so there is no reduction loop to perforate.
pub const SOURCE: &str = r#"
__global__ void mean3x3(float* img, float* out, int w, int h) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int center = y * w + x;
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        float sum = img[(y - 1) * w + x - 1] + img[(y - 1) * w + x]
                  + img[(y - 1) * w + x + 1] + img[y * w + x - 1]
                  + img[y * w + x] + img[y * w + x + 1]
                  + img[(y + 1) * w + x - 1] + img[(y + 1) * w + x]
                  + img[(y + 1) * w + x + 1];
        out[center] = sum * 0.11111111f;
    } else {
        out[center] = img[center];
    }
}
"#;

/// Host reference.
pub fn reference(img: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = img.to_vec();
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let mut acc = 0.0f32;
            for dy in 0..3 {
                for dx in 0..3 {
                    acc += img[(y + dy - 1) * w + (x + dx - 1)];
                }
            }
            out[y * w + x] = acc / 9.0;
        }
    }
    out
}

/// Generate the image input.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (w, h) = dims(scale);
    let mut r = inputs::rng(seed ^ 0x3EA);
    vec![BufferInit::F32(inputs::smooth_image(&mut r, w, h))]
}

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let (w, h) = dims(scale);
    let program = crate::lower(SOURCE);
    let kernel = program.kernel_by_name("mean3x3").expect("declared");

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

    Workload::new("Mean Filter", program, pipeline, Metric::MeanRelative)
        .with_input_slots(vec![img_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Mean Filter",
            domain: "Image Processing",
            input_desc: "128x128 image (paper: 512x512)",
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
        let w = build(Scale::Test, 17);
        let (wd, ht) = dims(Scale::Test);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let BufferInit::F32(img) = &gen_inputs(Scale::Test, 17)[0] else {
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
    fn unrolled_stencil_detected_no_reduction() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        let names = compiled.pattern_names();
        assert!(names.contains(&"stencil"), "{names:?}");
        assert!(
            !names.contains(&"reduction"),
            "manually unrolled filter has no reduction loop: {names:?}"
        );
        let cand = compiled
            .patterns
            .iter()
            .flat_map(|kp| kp.stencils())
            .next()
            .unwrap();
        assert_eq!(cand.offsets.len(), 9);
        assert!(cand.row_loops.is_empty() && cand.col_loops.is_empty());
    }
}
