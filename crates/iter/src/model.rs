//! The iterative job model: stencil kernel + residual reduction + launch
//! geometry.

use paraprox_ir::{Expr, KernelBuilder, KernelId, MemSpace, Program, Scalar, Ty};
use paraprox_prng::splitmix64;
use paraprox_quality::Metric;
use paraprox_vgpu::Dim2;

use crate::IterError;

/// Threads per block of the residual reduction kernel (one shared-memory
/// tree per block). A power of two so the halving tree is exact.
pub const RESIDUAL_BLOCK: usize = 64;

/// One iterative loop-of-stencil-reduce job, device-independent.
///
/// Conventions the job runner and the gate rely on:
///
/// - The stencil kernel's parameters are `[cur, next, scalars...]`:
///   it reads the `cur` field (param 0), writes the stepped field into
///   `next` (param 1), and never does the reverse. The loop ping-pongs
///   the two buffers.
/// - The residual kernel (built by [`IterModel::new`]) has parameters
///   `[cur, next, partials, mul, off, mask, count]` and writes one
///   partial sum of `|next - cur|` per block; the host folds the partials
///   in ascending block order, so the residual is bit-stable at any
///   worker count.
/// - `width * height` is a power of two, so the sampling permutation
///   `t -> (mul*t + off) & (n-1)` with odd `mul` is a bijection.
pub struct IterModel {
    /// Job name (used in reports and bench output).
    pub name: String,
    /// Program holding both kernels.
    pub program: Program,
    /// The stencil step kernel.
    pub stencil: KernelId,
    /// The residual reduction kernel.
    pub residual: KernelId,
    /// Field width in elements.
    pub width: usize,
    /// Field height in elements.
    pub height: usize,
    /// Stencil launch grid.
    pub grid: Dim2,
    /// Stencil launch block.
    pub block: Dim2,
    /// Scalar arguments appended after `[cur, next]` on every stencil
    /// launch.
    pub stencil_scalars: Vec<Scalar>,
    /// Quality metric comparing converged fields.
    pub metric: Metric,
}

impl std::fmt::Debug for IterModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterModel")
            .field("name", &self.name)
            .field("width", &self.width)
            .field("height", &self.height)
            .finish_non_exhaustive()
    }
}

/// Arguments for building an [`IterModel`]; see [`IterModel::new`].
pub struct ModelParts {
    /// Job name.
    pub name: String,
    /// Program already holding the stencil kernel (the residual kernel is
    /// appended by [`IterModel::new`]).
    pub program: Program,
    /// The stencil kernel inside `program`.
    pub stencil: KernelId,
    /// Field width (elements).
    pub width: usize,
    /// Field height (elements).
    pub height: usize,
    /// Stencil launch grid.
    pub grid: Dim2,
    /// Stencil launch block.
    pub block: Dim2,
    /// Scalar arguments for the stencil kernel.
    pub stencil_scalars: Vec<Scalar>,
    /// Quality metric.
    pub metric: Metric,
}

impl IterModel {
    /// Assemble a model: validates the geometry and appends the shared
    /// residual reduction kernel to the program.
    ///
    /// # Errors
    ///
    /// [`IterError::Model`] when `width * height` is not a power of two,
    /// is smaller than [`RESIDUAL_BLOCK`], or exceeds `2^14` (the bound
    /// under which the sampling permutation's `mul * t` product cannot
    /// overflow `i32`), or when the stencil grid does not cover the
    /// field.
    pub fn new(parts: ModelParts) -> Result<IterModel, IterError> {
        let ModelParts {
            name,
            mut program,
            stencil,
            width,
            height,
            grid,
            block,
            stencil_scalars,
            metric,
        } = parts;
        let n = width * height;
        if !n.is_power_of_two() || n < RESIDUAL_BLOCK {
            return Err(IterError::Model(format!(
                "field size {n} must be a power of two and at least {RESIDUAL_BLOCK}"
            )));
        }
        if n > (1 << 14) {
            return Err(IterError::Model(format!(
                "field size {n} exceeds 2^14; the i32 sampling permutation would overflow"
            )));
        }
        if grid.count() * block.count() < n {
            return Err(IterError::Model(format!(
                "stencil launch covers {} threads for {n} elements",
                grid.count() * block.count()
            )));
        }
        let residual = add_residual_kernel(&mut program, &format!("{name}_residual"));
        Ok(IterModel {
            name,
            program,
            stencil,
            residual,
            width,
            height,
            grid,
            block,
            stencil_scalars,
            metric,
        })
    }

    /// Total field elements.
    pub fn elems(&self) -> usize {
        self.width * self.height
    }

    /// Length of the partial-sums buffer: one slot per full-grid residual
    /// block. Sampled launches use fewer blocks and leave the tail
    /// untouched (the host only folds the launched prefix).
    pub fn partials_len(&self) -> usize {
        self.elems() / RESIDUAL_BLOCK
    }
}

/// Deterministic residual sampling parameters for one check.
///
/// Returns `(mul, off)` for the affine permutation
/// `t -> (mul*t + off) & (n-1)`: `mul` is odd and below `n`, so the map
/// is a bijection on `0..n` and a `count`-element prefix of lanes reads
/// `count` *distinct* field elements. Both values are derived host-side
/// from `(seed, iter)` with [`paraprox_prng::splitmix64`], which is what
/// makes sampled schedules bit-identical at any worker count.
pub fn sample_params(seed: u64, iter: u32, n: usize) -> (i32, i32) {
    debug_assert!(n.is_power_of_two());
    let mut state = seed ^ (u64::from(iter).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let r1 = splitmix64(&mut state);
    let r2 = splitmix64(&mut state);
    let mul = ((r1 as usize % (n / 2)) * 2 + 1) as i32;
    let off = (r2 as usize % n) as i32;
    (mul, off)
}

/// Append the shared residual reduction kernel to `program`.
///
/// Parameters: `[cur, next, partials, mul, off, mask, count]`. Lane `t`
/// (for `t < count`) reads field index `(mul*t + off) & mask` from both
/// fields and contributes `|next - cur|`; each block folds its
/// [`RESIDUAL_BLOCK`] lanes through a barrier-separated halving tree and
/// stores one partial per block. Launched 1-D with
/// `count / RESIDUAL_BLOCK` blocks.
///
/// The tree is *double-buffered* (each level reads one shared array and
/// writes the other, with a copy-back phase between levels) — the same
/// idiom as the workspace's three-phase scan. The race lint deliberately
/// ignores `if` guards, so the classic single-array guarded tree is
/// flagged as a potential read-write collision; splitting the read and
/// write arrays keeps every barrier phase's access sets disjoint without
/// relying on guards.
fn add_residual_kernel(program: &mut Program, name: &str) -> KernelId {
    let mut kb = KernelBuilder::new(name);
    let cur = kb.buffer("cur", Ty::F32, MemSpace::Global);
    let next = kb.buffer("next", Ty::F32, MemSpace::Global);
    let partials = kb.buffer("partials", Ty::F32, MemSpace::Global);
    let mul = kb.scalar("mul", Ty::I32);
    let off = kb.scalar("off", Ty::I32);
    let mask = kb.scalar("mask", Ty::I32);
    let count = kb.scalar("count", Ty::I32);
    let s_a = kb.shared_array("s_a", Ty::F32, RESIDUAL_BLOCK);
    let s_b = kb.shared_array("s_b", Ty::F32, RESIDUAL_BLOCK);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let t = kb.let_("t", KernelBuilder::global_id_x());
    let d = kb.let_mut("d", Ty::F32, Expr::f32(0.0));
    kb.if_(t.clone().lt(count), |kb| {
        let idx = kb.let_(
            "idx",
            (mul.clone() * t.clone() + off.clone()) & mask.clone(),
        );
        let a = kb.load(cur, idx.clone());
        let b = kb.load(next, idx);
        kb.assign(d, (b - a).abs());
    });
    kb.store(s_a, tid.clone(), Expr::Var(d));
    kb.sync();
    let mut stride = RESIDUAL_BLOCK / 2;
    while stride >= 1 {
        let s = Expr::i32(stride as i32);
        kb.if_else(
            tid.clone().lt(s.clone()),
            |kb| {
                let lo = kb.load(s_a, tid.clone());
                let hi = kb.load(s_a, tid.clone() + s.clone());
                kb.store(s_b, tid.clone(), lo + hi);
            },
            |kb| {
                let v = kb.load(s_a, tid.clone());
                kb.store(s_b, tid.clone(), v);
            },
        );
        kb.sync();
        let v = kb.load(s_b, tid.clone());
        kb.store(s_a, tid.clone(), v);
        kb.sync();
        stride /= 2;
    }
    kb.if_(tid.eq_(Expr::i32(0)), |kb| {
        let total = kb.load(s_a, Expr::i32(0));
        kb.store(partials, KernelBuilder::block_id_x(), total);
    });
    program.add_kernel(kb.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn copy_model(width: usize, height: usize) -> Result<IterModel, IterError> {
        // Minimal valid stencil kernel: next[i] = cur[i].
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("copy");
        let cur = kb.buffer("cur", Ty::F32, MemSpace::Global);
        let next = kb.buffer("next", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.load(cur, gid.clone());
        kb.store(next, gid, v);
        let stencil = program.add_kernel(kb.finish());
        IterModel::new(ModelParts {
            name: "copy".to_string(),
            program,
            stencil,
            width,
            height,
            grid: Dim2::linear(width * height / 64),
            block: Dim2::linear(64),
            stencil_scalars: Vec::new(),
            metric: Metric::MeanRelative,
        })
    }

    #[test]
    fn new_validates_geometry() {
        assert!(copy_model(64, 2).is_ok());
        // Not a power of two.
        assert!(matches!(copy_model(96, 1), Err(IterError::Model(_))));
        // Too small.
        assert!(matches!(copy_model(32, 1), Err(IterError::Model(_))));
        // Too large for the i32 permutation.
        assert!(matches!(copy_model(256, 256), Err(IterError::Model(_))));
    }

    #[test]
    fn residual_kernel_is_appended() {
        let m = copy_model(64, 4).unwrap();
        assert_eq!(m.elems(), 256);
        assert_eq!(m.partials_len(), 4);
        let k = m.program.kernel(m.residual);
        assert_eq!(k.name, "copy_residual");
        assert_eq!(k.params.len(), 7);
    }

    #[test]
    fn sample_params_form_a_bijection() {
        let n = 256;
        for iter in 0..8 {
            let (mul, off) = sample_params(0x17E4, iter, n);
            assert!(mul > 0 && (mul as usize) < n && mul % 2 == 1);
            assert!(off >= 0 && (off as usize) < n);
            let mut seen = vec![false; n];
            for t in 0..n as i64 {
                let idx = ((mul as i64 * t + off as i64) & (n as i64 - 1)) as usize;
                assert!(!seen[idx], "collision at t={t}");
                seen[idx] = true;
            }
        }
        // Deterministic in (seed, iter); different iters differ.
        assert_eq!(sample_params(7, 3, n), sample_params(7, 3, n));
        assert_ne!(sample_params(7, 3, n), sample_params(7, 4, n));
        assert_ne!(sample_params(7, 3, n), sample_params(8, 3, n));
    }
}
