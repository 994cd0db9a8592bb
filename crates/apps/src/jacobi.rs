//! Jacobi — damped Jacobi heat diffusion iterated to convergence
//! (Physics, Stencil + loop-of-stencil-reduce, mean relative error).
//! The iterative counterpart of the single-step HotSpot workload: the
//! 5-point relaxation step repeats until the mean residual |next - cur|
//! falls under tolerance.

use paraprox::Metric;
use paraprox_ir::Scalar;
use paraprox_iter::{ConvergenceSpec, IterModel, ModelParts};
use paraprox_vgpu::Dim2;

use crate::inputs;
use crate::{IterApp, Scale};

/// Field dimensions per scale (power-of-two element counts, as the
/// residual sampling permutation requires).
pub fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 16),
        Scale::Paper => (128, 64),
    }
}

/// Relaxation factor of the damped Jacobi step.
const OMEGA: f32 = 0.8;

/// Host reference for one exact step (boundary cells copy through).
pub fn step_reference(field: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = field.to_vec();
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let i = y * w + x;
            let avg = 0.25 * (field[i - w] + field[i + w] + field[i + 1] + field[i - 1]);
            out[i] = field[i] + OMEGA * (avg - field[i]);
        }
    }
    out
}

/// Generate the initial temperature field: a smooth 60..111-degree
/// profile with per-cell sensor noise. The noise is the high-frequency
/// content the first residual anchors to; it decays fast under the
/// damped step, the smooth profile slowly.
pub fn gen_field(scale: Scale, seed: u64) -> Vec<f32> {
    let (w, h) = dims(scale);
    let mut r = inputs::rng(seed ^ 0x14C0);
    inputs::smooth_image(&mut r, w, h)
        .into_iter()
        .map(|v| 60.0 + v * 0.2 + r.random_range(-0.5f32..0.5))
        .collect()
}

/// The stencil kernel source: one damped step with relaxation factor
/// 0.8 (`OMEGA`).
pub const SOURCE: &str = r#"
__global__ void jacobi(float* cur, float* next, int w, int h) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int i = y * w + x;
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        float avg = (cur[i - w] + cur[i + w] + cur[i + 1] + cur[i - 1]) * 0.25f;
        next[i] = cur[i] + (avg - cur[i]) * 0.8f;
    } else {
        next[i] = cur[i];
    }
}
"#;

/// Build the iterative model. The row pitch is a scalar parameter — the
/// stencil detector needs the symbolic width term to recognize the
/// 2-D tile, so approximation schedules can rewrite the reach.
pub fn build(scale: Scale) -> IterModel {
    let (w, h) = dims(scale);
    let program = crate::lower(SOURCE);
    let stencil = program.kernel_by_name("jacobi").expect("declared");
    IterModel::new(ModelParts {
        name: "jacobi".to_string(),
        program,
        stencil,
        width: w,
        height: h,
        grid: Dim2::new(w / 16, h / 8),
        block: Dim2::new(16, 8),
        stencil_scalars: vec![Scalar::I32(w as i32), Scalar::I32(h as i32)],
        metric: Metric::MeanRelative,
    })
    .expect("jacobi geometry is valid by construction")
}

/// Convergence criteria per scale.
pub fn spec(scale: Scale) -> ConvergenceSpec {
    ConvergenceSpec {
        tol_abs: 1e-7,
        tol_rel: 0.02,
        max_iters: match scale {
            Scale::Test => 60,
            Scale::Paper => 96,
        },
    }
}

/// Registry entry.
pub fn app() -> IterApp {
    IterApp {
        name: "Jacobi",
        domain: "Physics",
        input_desc: "128x64 temperature grid (test: 64x16)",
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
    fn source_spells_the_reference_relaxation() {
        crate::tests::assert_literals_in_order(SOURCE, &[0.25, OMEGA]);
    }

    #[test]
    fn one_step_matches_host_reference() {
        let model = build(Scale::Test);
        let (w, h) = dims(Scale::Test);
        let field = gen_field(Scale::Test, 7);
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
    fn stencil_tile_detected_on_field_buffer() {
        let model = build(Scale::Test);
        let cands = find_stencils(model.program.kernel(model.stencil));
        let cand = cands
            .iter()
            .find(|c| c.buffer == paraprox_ir::MemRef::Param(0))
            .expect("stencil candidate on the field");
        assert_eq!((cand.tile_h, cand.tile_w), (3, 3));
    }
}
