//! Quasirandom Generator — low-discrepancy sequences (Statistics, Map,
//! L1-norm).
//!
//! Computes the base-3 radical inverse (a Halton/van-der-Corput sequence
//! coordinate) of integer indices. The digit-extraction loop is dominated
//! by integer division — a high-latency subroutine on the GPU — making the
//! function an ideal memoization candidate: because the input domain is a
//! bounded integer range, a large enough lookup table is *lossless*, while
//! small tables degrade sharply (the knob behavior the paper reports).

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

/// Exclusive upper bound of the index domain (8 base-3 digits cover it).
/// Chosen so an 11-bit (2048-entry, 8 KB) lookup table is *lossless* and
/// fits comfortably in the GPU L1 next to the streaming data.
pub const INDEX_BOUND: i32 = 2048;
const DIGITS: i32 = 8;
const BLOCK: usize = 64;

fn sizes(scale: Scale) -> usize {
    match scale {
        Scale::Test => 512,
        Scale::Paper => 4096,
    }
}

/// The application's kernel source. The digit loop runs `DIGITS` times
/// over base-3 digits; 0.33333334 is 1/3 in `f32`.
pub const SOURCE: &str = r#"
__device__ float radical_inverse3(int i) {
    float acc = 0.0f;
    float base = 0.33333334f;
    int rest = i;
    for (int k = 0; k < 8; k++) {
        int digit = rest % 3;
        acc += (float)digit * base;
        base *= 0.33333334f;
        rest /= 3;
    }
    return acc;
}

__global__ void quasirandom(int* indices, float* out) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int i = indices[gid];
    out[gid] = radical_inverse3(i);
}
"#;

/// Host reference.
pub fn reference(mut i: i32) -> f32 {
    let mut acc = 0.0f32;
    let mut base = 1.0f32 / 3.0;
    for _ in 0..DIGITS {
        acc += (i % 3) as f32 * base;
        base *= 1.0 / 3.0;
        i /= 3;
    }
    acc
}

/// Generate the index input buffer.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let n = sizes(scale);
    let mut r = inputs::rng(seed ^ 0x9A);
    vec![BufferInit::I32(inputs::uniform_i32(
        &mut r,
        n,
        0,
        INDEX_BOUND,
    ))]
}

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let n = sizes(scale);
    let program = crate::lower(SOURCE);
    let func = program.func_by_name("radical_inverse3").expect("declared");
    let kernel = program.kernel_by_name("quasirandom").expect("declared");

    let mut pipeline = Pipeline::default();
    let idx_b = pipeline.add_buffer(BufferSpec::global(
        "indices",
        gen_inputs(scale, seed).remove(0),
    ));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("out", n));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(n / BLOCK),
        block: Dim2::linear(BLOCK),
        args: vec![PlanArg::Buffer(idx_b), PlanArg::Buffer(out_b)],
    });
    pipeline.outputs = vec![out_b];

    let mut trng = inputs::rng(0x5EED_0001);
    let samples: Vec<Vec<Scalar>> = (0..128)
        .map(|_| vec![Scalar::I32(trng.random_range(0..INDEX_BOUND))])
        .collect();

    Workload::new("Quasirandom Generator", program, pipeline, Metric::L1Norm)
        .with_training(func, samples)
        .with_input_slots(vec![idx_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Quasirandom Generator",
            domain: "Statistics",
            input_desc: "4K indices (paper: 1M)",
            patterns: "Map",
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
    fn source_spells_the_reference_digits() {
        let third = 1.0f32 / 3.0;
        crate::tests::assert_literals_in_order(SOURCE, &[third, DIGITS as f32, third]);
    }

    #[test]
    fn exact_pipeline_matches_host_reference() {
        let w = build(Scale::Test, 11);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let BufferInit::I32(idx) = &gen_inputs(Scale::Test, 11)[0] else {
            panic!()
        };
        for (k, &i) in idx.iter().enumerate() {
            let expected = reference(i);
            assert!(
                (run.outputs[0][k] as f32 - expected).abs() < 1e-6,
                "index {i}: {} vs {expected}",
                run.outputs[0][k]
            );
        }
    }

    #[test]
    fn outputs_are_low_discrepancy_like() {
        // Radical inverse of 0..n covers [0,1) roughly uniformly.
        let vals: Vec<f32> = (0..729).map(reference).collect();
        let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
        assert!((mean - 0.5).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn detected_as_map_with_heavy_function() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        let cand = compiled
            .patterns
            .iter()
            .flat_map(|kp| kp.maps())
            .next()
            .expect("map candidate");
        // 8 iterations x 2 integer divisions dominate.
        assert!(cand.cycles_needed > 8 * 2 * 70, "{}", cand.cycles_needed);
    }
}
