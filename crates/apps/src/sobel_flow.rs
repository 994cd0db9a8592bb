//! Sobel Flow — edge-stopping image diffusion iterated to convergence
//! (Image Processing, Stencil + loop-of-stencil-reduce, mean relative
//! error). Each step measures the local Sobel gradient and diffuses the
//! pixel toward its 4-neighbor average, attenuated where the gradient is
//! strong — flat regions smooth out, edges survive — until the field
//! stops moving. A Perona–Malik-style anisotropic diffusion with the
//! rational edge-stopping function.

use paraprox::Metric;
use paraprox_ir::Scalar;
use paraprox_iter::{ConvergenceSpec, IterModel, ModelParts};
use paraprox_vgpu::Dim2;

use crate::inputs;
use crate::{IterApp, Scale};

/// Field dimensions per scale (power-of-two element counts).
pub fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (32, 16),
        Scale::Paper => (64, 64),
    }
}

/// Diffusion rate toward the 4-neighbor average.
const LAMBDA: f32 = 0.8;
/// Edge sensitivity: the stopping function is `1 / (1 + K*(|gx|+|gy|))`.
const K: f32 = 0.02;

/// Host reference for one exact step (boundary cells copy through).
pub fn step_reference(field: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = field.to_vec();
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let i = y * w + x;
            let (nw, n, ne) = (field[i - w - 1], field[i - w], field[i - w + 1]);
            let (wv, c, ev) = (field[i - 1], field[i], field[i + 1]);
            let (sw, s, se) = (field[i + w - 1], field[i + w], field[i + w + 1]);
            let gx = (ne + 2.0 * ev + se) - (nw + 2.0 * wv + sw);
            let gy = (sw + 2.0 * s + se) - (nw + 2.0 * n + ne);
            let stop = 1.0 / (1.0 + K * (gx.abs() + gy.abs()));
            let avg = 0.25 * (n + s + ev + wv);
            out[i] = c + LAMBDA * (avg - c) * stop;
        }
    }
    out
}

/// Generate the initial image: a smooth grayscale field offset away from
/// zero (the mean-relative metric needs a nonzero floor) with per-pixel
/// sensor noise for the diffusion to scrub.
pub fn gen_field(scale: Scale, seed: u64) -> Vec<f32> {
    let (w, h) = dims(scale);
    let mut r = inputs::rng(seed ^ 0x50BE);
    inputs::smooth_image(&mut r, w, h)
        .into_iter()
        .map(|v| 32.0 + v * 0.75 + r.random_range(-2.0f32..2.0))
        .collect()
}

/// The stencil kernel source: diffusion rate 0.8 (`LAMBDA`) and edge
/// sensitivity 0.02 (`K`).
pub const SOURCE: &str = r#"
__global__ void sobel_flow(float* cur, float* next, int w, int h) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int i = y * w + x;
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        float gx = (cur[i - w + 1] + 2.0f * cur[i + 1] + cur[i + w + 1])
            - (cur[i - w - 1] + 2.0f * cur[i - 1] + cur[i + w - 1]);
        float gy = (cur[i + w - 1] + 2.0f * cur[i + w] + cur[i + w + 1])
            - (cur[i - w - 1] + 2.0f * cur[i - w] + cur[i - w + 1]);
        float stop = 1.0f / (1.0f + 0.02f * (fabsf(gx) + fabsf(gy)));
        float avg = (cur[i - w] + cur[i + w] + cur[i + 1] + cur[i - 1]) * 0.25f;
        next[i] = cur[i] + (avg - cur[i]) * 0.8f * stop;
    } else {
        next[i] = cur[i];
    }
}
"#;

/// Build the iterative model: a full 3x3 tile (Sobel gradients plus the
/// 4-neighbor average) with a scalar row pitch so the stencil detector
/// sees the 2-D shape.
pub fn build(scale: Scale) -> IterModel {
    let (w, h) = dims(scale);
    let program = crate::lower(SOURCE);
    let stencil = program.kernel_by_name("sobel_flow").expect("declared");
    IterModel::new(ModelParts {
        name: "sobel_flow".to_string(),
        program,
        stencil,
        width: w,
        height: h,
        grid: Dim2::new(w / 16, h / 8),
        block: Dim2::new(16, 8),
        stencil_scalars: vec![Scalar::I32(w as i32), Scalar::I32(h as i32)],
        metric: Metric::MeanRelative,
    })
    .expect("sobel_flow geometry is valid by construction")
}

/// Convergence criteria per scale.
pub fn spec(scale: Scale) -> ConvergenceSpec {
    ConvergenceSpec {
        tol_abs: 1e-7,
        tol_rel: 0.025,
        max_iters: match scale {
            Scale::Test => 60,
            Scale::Paper => 96,
        },
    }
}

/// Registry entry.
pub fn app() -> IterApp {
    IterApp {
        name: "Sobel Flow",
        domain: "Image Processing",
        input_desc: "64x64 grayscale image (test: 32x16)",
        metric: Metric::MeanRelative,
        build,
        spec,
        gen_field,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::MemSpace;
    use paraprox_patterns::stencil::find_stencils;
    use paraprox_vgpu::{ArgValue, Device, DeviceProfile};

    #[test]
    fn source_spells_the_reference_coefficients() {
        crate::tests::assert_literals_in_order(SOURCE, &[K, 0.25, LAMBDA]);
    }

    #[test]
    fn one_step_matches_host_reference() {
        let model = build(Scale::Test);
        let (w, h) = dims(Scale::Test);
        let field = gen_field(Scale::Test, 9);
        let mut device = Device::new(DeviceProfile::gtx560());
        let cur = device.alloc_f32(MemSpace::Global, &field);
        let next = device.alloc_f32(MemSpace::Global, &vec![0.0f32; w * h]);
        let mut args = vec![ArgValue::Buffer(cur), ArgValue::Buffer(next)];
        args.extend(model.stencil_scalars.iter().map(|&s| ArgValue::Scalar(s)));
        device
            .launch(
                &model.program,
                model.stencil,
                model.grid,
                model.block,
                &args,
            )
            .unwrap();
        let got = device.read_f32(next).unwrap();
        let expected = step_reference(&field, w, h);
        for (i, e) in expected.iter().enumerate() {
            assert!((got[i] - e).abs() < 1e-3, "cell {i}: {} vs {e}", got[i]);
        }
    }

    #[test]
    fn full_3x3_tile_detected_on_image_buffer() {
        let model = build(Scale::Test);
        let cands = find_stencils(model.program.kernel(model.stencil));
        let cand = cands
            .iter()
            .find(|c| c.buffer == paraprox_ir::MemRef::Param(0))
            .expect("stencil candidate on the image");
        assert_eq!((cand.tile_h, cand.tile_w), (3, 3));
        assert!(cand.offsets.len() >= 9, "all nine taps tile");
    }

    #[test]
    fn edges_diffuse_slower_than_flat_regions() {
        // A step edge should move less in one iteration than a noisy
        // flat region of the same amplitude.
        let (w, h) = dims(Scale::Test);
        let mut field = vec![64.0f32; w * h];
        for y in 0..h {
            for x in w / 2..w {
                field[y * w + x] = 192.0;
            }
        }
        // Perturb one flat-region pixel by the same 128 jump.
        field[3 * w + 3] = 192.0;
        let out = step_reference(&field, w, h);
        let edge_i = 3 * w + w / 2; // on the step edge
        let flat_i = 3 * w + 3;
        let edge_move = (out[edge_i] - field[edge_i]).abs();
        let flat_move = (out[flat_i] - field[flat_i]).abs();
        assert!(
            flat_move > edge_move,
            "flat {flat_move} vs edge {edge_move}"
        );
    }
}
