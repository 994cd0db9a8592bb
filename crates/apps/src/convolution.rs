//! Convolution Separable — row + column passes (Image Processing,
//! Stencil-Reduction, L2-norm).
//!
//! Two kernels with 1×9 / 9×1 tiles and a tap loop that is *also* a
//! reduction — the app where the paper's runtime picks the stencil
//! optimization on the GPU but the reduction optimization on the CPU
//! (paper §4.3).

use paraprox::{Metric, Workload};
use paraprox_ir::{MemSpace, Scalar};
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

/// Filter radius (9 taps; the paper uses 17 on a 2048² image).
pub const RADIUS: usize = 4;
const TAPS: usize = 2 * RADIUS + 1;

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 32),
        Scale::Paper => (96, 96),
    }
}

/// Normalized triangular filter weights.
pub fn weights() -> Vec<f32> {
    let raw: Vec<f32> = (0..TAPS)
        .map(|i| 1.0 + RADIUS as f32 - (i as f32 - RADIUS as f32).abs())
        .collect();
    let total: f32 = raw.iter().sum();
    raw.into_iter().map(|v| v / total).collect()
}

/// Host reference (row pass then column pass, borders copied).
pub fn reference(img: &[f32], w: usize, h: usize) -> Vec<f32> {
    let wg = weights();
    let mut mid = img.to_vec();
    for y in 0..h {
        for x in RADIUS..w - RADIUS {
            let mut acc = 0.0f32;
            for (j, wj) in wg.iter().enumerate() {
                acc += img[y * w + x + j - RADIUS] * wj;
            }
            mid[y * w + x] = acc;
        }
    }
    let mut out = mid.clone();
    for y in RADIUS..h - RADIUS {
        for x in 0..w {
            let mut acc = 0.0f32;
            for (j, wj) in wg.iter().enumerate() {
                acc += mid[(y + j - RADIUS) * w + x] * wj;
            }
            out[y * w + x] = acc;
        }
    }
    out
}

/// The application's kernel source: the row pass and the column pass,
/// each 9 taps (`RADIUS` = 4) read from constant memory.
pub const SOURCE: &str = r#"
__global__ void conv_row(float* src, __constant__ float* coef, float* dst, int w, int h) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int center = y * w + x;
    if (x >= 4 && x < w - 4) {
        float acc = 0.0f;
        for (int j = 0; j < 9; j++) {
            acc += src[y * w + x + j - 4] * coef[j];
        }
        dst[center] = acc;
    } else {
        float vb = src[center];
        dst[center] = vb;
    }
}

__global__ void conv_col(float* src, __constant__ float* coef, float* dst, int w, int h) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int center = y * w + x;
    if (y >= 4 && y < h - 4) {
        float acc = 0.0f;
        for (int j = 0; j < 9; j++) {
            acc += src[(y + j - 4) * w + x] * coef[j];
        }
        dst[center] = acc;
    } else {
        float vb = src[center];
        dst[center] = vb;
    }
}
"#;

/// Generate the image input.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (w, h) = dims(scale);
    let mut r = inputs::rng(seed ^ 0xC03);
    vec![BufferInit::F32(inputs::smooth_image(&mut r, w, h))]
}

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let (w, h) = dims(scale);
    let n = w * h;
    let program = crate::lower(SOURCE);
    let row_kernel = program.kernel_by_name("conv_row").expect("declared");
    let col_kernel = program.kernel_by_name("conv_col").expect("declared");

    let mut pipeline = Pipeline::default();
    let img_b = pipeline.add_buffer(BufferSpec::global("img", gen_inputs(scale, seed).remove(0)));
    let coef_b = pipeline.add_buffer(
        BufferSpec::global("coef", BufferInit::F32(weights())).with_space(MemSpace::Constant),
    );
    let mid_b = pipeline.add_buffer(BufferSpec::zeroed_f32("mid", n));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("out", n));
    let grid = Dim2::new(w / 16, h / 8);
    let block = Dim2::new(16, 8);
    pipeline.launches.push(LaunchPlan {
        kernel: row_kernel,
        grid,
        block,
        args: vec![
            PlanArg::Buffer(img_b),
            PlanArg::Buffer(coef_b),
            PlanArg::Buffer(mid_b),
            PlanArg::Scalar(Scalar::I32(w as i32)),
            PlanArg::Scalar(Scalar::I32(h as i32)),
        ],
    });
    pipeline.launches.push(LaunchPlan {
        kernel: col_kernel,
        grid,
        block,
        args: vec![
            PlanArg::Buffer(mid_b),
            PlanArg::Buffer(coef_b),
            PlanArg::Buffer(out_b),
            PlanArg::Scalar(Scalar::I32(w as i32)),
            PlanArg::Scalar(Scalar::I32(h as i32)),
        ],
    });
    pipeline.outputs = vec![out_b];

    Workload::new("Convolution Separable", program, pipeline, Metric::L2Norm)
        .with_input_slots(vec![img_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Convolution Separable",
            domain: "Image Processing",
            input_desc: "96x96 image, 9 taps (paper: 2048x2048, 17 taps)",
            patterns: "Stencil-Reduction",
            metric: Metric::L2Norm,
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
    fn source_spells_the_reference_radius() {
        let (r, taps) = (RADIUS as f32, TAPS as f32);
        crate::tests::assert_literals_in_order(SOURCE, &[r, r, taps, r, r, r, taps, r]);
    }

    #[test]
    fn exact_pipeline_matches_host_reference() {
        let w = build(Scale::Test, 77);
        let (wd, ht) = dims(Scale::Test);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let BufferInit::F32(img) = &gen_inputs(Scale::Test, 77)[0] else {
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
    fn both_stencil_and_reduction_detected() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        let names = compiled.pattern_names();
        assert!(names.contains(&"stencil"), "{names:?}");
        assert!(names.contains(&"reduction"), "{names:?}");
        // One 1x9 tile (row pass) and one 9x1 tile (column pass).
        let tiles: Vec<(usize, usize)> = compiled
            .patterns
            .iter()
            .flat_map(|kp| kp.stencils())
            .map(|c| (c.tile_h, c.tile_w))
            .collect();
        assert!(tiles.contains(&(1, TAPS)), "{tiles:?}");
        assert!(tiles.contains(&(TAPS, 1)), "{tiles:?}");
    }

    #[test]
    fn weights_are_normalized() {
        let sum: f32 = weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }
}
