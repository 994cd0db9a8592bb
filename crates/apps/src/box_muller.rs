//! BoxMuller — uniform-to-normal transformation (Statistics,
//! Scatter/Gather, L1-norm).
//!
//! The kernel gathers uniform variates through an index buffer (making the
//! accesses data-dependent — McCool's *gather*) and maps each through a
//! normal-inverse-CDF transform. We implement the transform with Acklam's
//! rational approximation: its central branch costs one division-heavy
//! rational evaluation and its tail branch adds `log`/`sqrt` plus another
//! division, comfortably clearing the paper's Eq. (1) memoization
//! threshold on both device profiles. (The CUDA SDK's BoxMuller plays the
//! same role — turning uniforms into normals with subroutine-class math —
//! so the substitution preserves the benchmark's character.)

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

fn sizes(scale: Scale) -> usize {
    match scale {
        Scale::Test => 512,
        Scale::Paper => 4096,
    }
}

const BLOCK: usize = 64;
const P_LOW: f32 = 0.02425;

/// Acklam's inverse-normal-CDF coefficients.
const A: [f32; 6] = [
    -39.696_83,
    220.946_1,
    -275.928_5,
    138.357_75,
    -30.664_48,
    2.506_628_2,
];
const B: [f32; 5] = [-54.476_098, 161.585_83, -155.698_98, 66.801_31, -13.280_68];
const C: [f32; 6] = [
    -0.007_784_894_9,
    -0.322_396_46,
    -2.400_758_3,
    -2.549_732_5,
    4.374_664_1,
    2.938_163_6,
];
const D: [f32; 4] = [0.007_784_696, 0.322_467_2, 2.445_134_1, 3.754_408_7];

/// The application's kernel source: Acklam's rational approximation
/// with the coefficients of [`A`]–[`D`] as `f32` literals; 0.97574997 is
/// `1 - P_LOW` in `f32`.
pub const SOURCE: &str = r#"
__device__ float norminv(float u) {
    float p = fminf(fmaxf(u, 1e-6f), 0.999999f);
    float q = p - 0.5f;
    float r = q * q;
    float num = ((((-39.69683f * r + 220.9461f) * r + -275.9285f) * r + 138.35776f) * r
        + -30.66448f) * r + 2.5066283f;
    float den = ((((-54.476097f * r + 161.58583f) * r + -155.69897f) * r + 66.80131f) * r
        + -13.28068f) * r + 1.0f;
    float central = q * num / den;
    float s_lo = sqrtf(-2.0f * logf(p));
    float lower = (((((-0.0077848947f * s_lo + -0.32239646f) * s_lo + -2.4007583f) * s_lo
        + -2.5497324f) * s_lo + 4.3746643f) * s_lo + 2.9381635f)
        / ((((0.007784696f * s_lo + 0.3224672f) * s_lo + 2.4451342f) * s_lo + 3.7544086f)
        * s_lo + 1.0f);
    float s_hi = sqrtf(-2.0f * logf(1.0f - p));
    float upper_raw = (((((-0.0077848947f * s_hi + -0.32239646f) * s_hi + -2.4007583f) * s_hi
        + -2.5497324f) * s_hi + 4.3746643f) * s_hi + 2.9381635f)
        / ((((0.007784696f * s_hi + 0.3224672f) * s_hi + 2.4451342f) * s_hi + 3.7544086f)
        * s_hi + 1.0f);
    float upper = -upper_raw;
    if (p < 0.02425f) {
        return lower;
    } else if (p > 0.97574997f) {
        return upper;
    } else {
        return central;
    }
}

__global__ void box_muller(int* indices, float* uniforms, float* normals) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int idx = indices[gid];
    float u = uniforms[idx];
    normals[gid] = norminv(u);
}
"#;

/// Host reference.
pub fn reference(u: f32) -> f32 {
    let p = u.clamp(1e-6, 1.0 - 1e-6);
    let q = p - 0.5;
    let r = q * q;
    let central = {
        let num = ((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5];
        let den = ((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0;
        q * num / den
    };
    let tail = |s: f32| {
        let num = ((((C[0] * s + C[1]) * s + C[2]) * s + C[3]) * s + C[4]) * s + C[5];
        let den = (((D[0] * s + D[1]) * s + D[2]) * s + D[3]) * s + 1.0;
        num / den
    };
    if p < P_LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - P_LOW {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        central
    }
}

/// Generate the gather indices and uniform variates.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let n = sizes(scale);
    let mut r = inputs::rng(seed ^ 0xB0);
    vec![
        BufferInit::I32(inputs::permutation(&mut r, n)),
        BufferInit::F32(inputs::uniform_open01(&mut r, n)),
    ]
}

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let n = sizes(scale);
    let program = crate::lower(SOURCE);
    let func = program.func_by_name("norminv").expect("declared");
    let kernel = program.kernel_by_name("box_muller").expect("declared");

    let mut data = gen_inputs(scale, seed);
    let mut pipeline = Pipeline::default();
    let idx_b = pipeline.add_buffer(BufferSpec::global("indices", data.remove(0)));
    let uni_b = pipeline.add_buffer(BufferSpec::global("uniforms", data.remove(0)));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("normals", n));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(n / BLOCK),
        block: Dim2::linear(BLOCK),
        args: vec![
            PlanArg::Buffer(idx_b),
            PlanArg::Buffer(uni_b),
            PlanArg::Buffer(out_b),
        ],
    });
    pipeline.outputs = vec![out_b];

    let mut trng = inputs::rng(0xB0771);
    let samples: Vec<Vec<Scalar>> = (0..192)
        .map(|_| vec![Scalar::F32(trng.random_range(1e-6f32..1.0 - 1e-6))])
        .collect();

    Workload::new("BoxMuller", program, pipeline, Metric::L1Norm)
        .with_training(func, samples)
        .with_input_slots(vec![idx_b, uni_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "BoxMuller",
            domain: "Statistics",
            input_desc: "4K variates (paper: 24M)",
            patterns: "Scatter/Gather",
            metric: Metric::L1Norm,
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
    fn source_spells_the_reference_coefficients() {
        let ordered: Vec<f32> = [&A[..], &B[..], &C[..], &D[..], &[P_LOW, 1.0 - P_LOW]].concat();
        crate::tests::assert_literals_in_order(SOURCE, &ordered);
    }

    #[test]
    fn exact_pipeline_matches_host_reference() {
        let w = build(Scale::Test, 5);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let data = gen_inputs(Scale::Test, 5);
        let (BufferInit::I32(idx), BufferInit::F32(uni)) = (&data[0], &data[1]) else {
            panic!()
        };
        for g in 0..idx.len() {
            let expected = reference(uni[idx[g] as usize]);
            let got = run.outputs[0][g] as f32;
            assert!(
                (got - expected).abs() < 1e-4 * expected.abs().max(1.0),
                "lane {g}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn inverse_cdf_shape_is_sane() {
        assert!(reference(0.5).abs() < 1e-3);
        assert!(reference(0.975) > 1.9 && reference(0.975) < 2.0);
        assert!(reference(0.025) < -1.9 && reference(0.025) > -2.0);
        assert!(reference(0.001) < -3.0);
        assert!(reference(0.999) > 3.0);
    }

    #[test]
    fn classified_as_scatter_gather() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        assert!(compiled.pattern_names().contains(&"scatter/gather"));
    }
}
