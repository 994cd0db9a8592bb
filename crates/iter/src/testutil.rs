//! Shared fixtures for the crate's unit tests.

use paraprox_ir::{Expr, KernelBuilder, MemSpace, Program, Scalar, Ty};
use paraprox_prng::Rng;
use paraprox_quality::Metric;
use paraprox_vgpu::Dim2;

use crate::model::{IterModel, ModelParts};
use crate::schedule::ConvergenceSpec;

/// A 5-point damped Jacobi step on a 64x8 field: enough structure for
/// stencil detection, the full lint suite, and a converging loop. The
/// row pitch is a scalar parameter — the stencil detector needs the
/// symbolic `w`-term to recognize the 2-D tile.
pub(crate) fn diffusion_model() -> IterModel {
    let (w, h) = (64i32, 8i32);
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("diffuse");
    let cur = kb.buffer("cur", Ty::F32, MemSpace::Global);
    let next = kb.buffer("next", Ty::F32, MemSpace::Global);
    let width = kb.scalar("w", Ty::I32);
    let height = kb.scalar("h", Ty::I32);
    let x = kb.let_("x", KernelBuilder::global_id_x());
    let y = kb.let_("y", KernelBuilder::global_id_y());
    let i = kb.let_("i", y.clone() * width.clone() + x.clone());
    let interior = x.clone().gt(Expr::i32(0))
        & x.clone().lt(width.clone() - Expr::i32(1))
        & y.clone().gt(Expr::i32(0))
        & y.clone().lt(height.clone() - Expr::i32(1));
    let c = kb.load(cur, i.clone());
    kb.if_else(
        interior,
        |kb| {
            let nb = kb.load(cur, i.clone() - width.clone());
            let sb = kb.load(cur, i.clone() + width.clone());
            let eb = kb.load(cur, i.clone() + Expr::i32(1));
            let wb = kb.load(cur, i.clone() - Expr::i32(1));
            let avg = kb.let_("avg", (nb + sb + eb + wb) * Expr::f32(0.25));
            let stepped = c.clone() + (avg - c.clone()) * Expr::f32(0.8);
            kb.store(next, i.clone(), stepped);
        },
        |kb| {
            kb.store(next, i.clone(), c.clone());
        },
    );
    let stencil = program.add_kernel(kb.finish());
    IterModel::new(ModelParts {
        name: "diffuse".to_string(),
        program,
        stencil,
        width: w as usize,
        height: h as usize,
        grid: Dim2::new(w as usize / 16, h as usize / 8),
        block: Dim2::new(16, 8),
        stencil_scalars: vec![Scalar::I32(w), Scalar::I32(h)],
        metric: Metric::MeanRelative,
    })
    .unwrap()
}

/// Convergence criteria matched to the fixture model.
pub(crate) fn diffusion_spec() -> ConvergenceSpec {
    ConvergenceSpec {
        tol_abs: 1e-7,
        tol_rel: 0.02,
        max_iters: 60,
    }
}

/// A smooth positive field in `[1, 2)`, deterministic in the seed.
pub(crate) fn diffusion_field(seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xD1FF);
    let n = 64 * 8;
    let mut field = vec![0.0f32; n];
    let mut v = 1.5f32;
    for cell in field.iter_mut() {
        v = 0.9 * v + 0.1 * (1.0 + rng.next_f32());
        *cell = v;
    }
    field
}
