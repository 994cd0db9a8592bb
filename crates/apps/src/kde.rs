//! Kernel Density Estimation (Machine Learning, Reduction, mean relative
//! error). Each query point sums Gaussian kernels over the sample set —
//! an `exp`-dominated reduction. Because `exp` runs on the GPU's special
//! function unit but is a software routine on the CPU, skipping samples
//! buys more on the CPU (the paper's §4.3 observation).

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

/// (queries, samples)
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 128),
        Scale::Paper => (256, 512),
    }
}

/// Kernel bandwidth.
pub const BANDWIDTH: f32 = 0.1;

/// Host reference.
pub fn reference(queries: &[f32], samples: &[f32]) -> Vec<f32> {
    let inv2h2 = 1.0 / (2.0 * BANDWIDTH * BANDWIDTH);
    queries
        .iter()
        .map(|&q| {
            let total: f32 = samples
                .iter()
                .map(|&s| (-(q - s) * (q - s) * inv2h2).exp())
                .sum();
            total / samples.len() as f32
        })
        .collect()
}

/// Generate query points (uniform) and samples (a clustered three-mode
/// mixture — skipping samples must actually cost density accuracy, or the
/// tuner would crank the skipping rate arbitrarily high).
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (m, n) = sizes(scale);
    let mut r = inputs::rng(seed ^ 0x4D5);
    let queries = inputs::uniform_f32(&mut r, m, 0.0, 1.0);
    let modes = [0.2f32, 0.55, 0.85];
    let samples: Vec<f32> = (0..n)
        .map(|_| {
            let mode = modes[r.random_range(0..modes.len())];
            // Box-Muller-free bounded jitter around the mode.
            let jitter: f32 = r.random_range(-0.06f32..0.06) + r.random_range(-0.06f32..0.06);
            (mode + jitter).clamp(0.0, 1.0)
        })
        .collect();
    vec![BufferInit::F32(queries), BufferInit::F32(samples)]
}

/// Kernel source template: `$INV_N` is `1/n` for the per-scale sample
/// count `n` (see [`source`]); 49.999996 is `1/(2h²)` in `f32` for the
/// bandwidth `h` = [`BANDWIDTH`].
const TEMPLATE: &str = r#"
__global__ void kde(float* queries, float* samples, float* density, int count) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float q = queries[gid];
    float acc = 0.0f;
    for (int i = 0; i < count; i++) {
        float s = samples[i];
        float d = q - s;
        acc += expf(-(d * d) * 49.999996f);
    }
    density[gid] = acc * $INV_N;
}
"#;

/// The application's kernel source at `scale`.
pub fn source(scale: Scale) -> String {
    let (_, n) = sizes(scale);
    crate::instantiate(TEMPLATE, &[("INV_N", format!("{:?}f", 1.0 / n as f32))])
}

/// Build the workload (lowering [`source`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let (m, n) = sizes(scale);
    let program = crate::lower(&source(scale));
    let kernel = program.kernel_by_name("kde").expect("declared");

    let mut data = gen_inputs(scale, seed);
    let mut pipeline = Pipeline::default();
    let q_b = pipeline.add_buffer(BufferSpec::global("queries", data.remove(0)));
    let s_b = pipeline.add_buffer(BufferSpec::global("samples", data.remove(0)));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("density", m));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(m / 32),
        block: Dim2::linear(32),
        args: vec![
            PlanArg::Buffer(q_b),
            PlanArg::Buffer(s_b),
            PlanArg::Buffer(out_b),
            PlanArg::Scalar(Scalar::I32(n as i32)),
        ],
    });
    pipeline.outputs = vec![out_b];

    Workload::new(
        "Kernel Density Estimation",
        program,
        pipeline,
        Metric::MeanRelative,
    )
    .with_input_slots(vec![q_b, s_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Kernel Density Estimation",
            domain: "Machine Learning",
            input_desc: "256 queries x 512 samples (paper: 256K x 32)",
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
    fn source_spells_the_reference_bandwidth() {
        let inv2h2 = 1.0 / (2.0 * BANDWIDTH * BANDWIDTH);
        crate::tests::assert_literals_in_order(TEMPLATE, &[inv2h2]);
    }

    #[test]
    fn exact_pipeline_matches_host_reference() {
        let w = build(Scale::Test, 29);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let data = gen_inputs(Scale::Test, 29);
        let (BufferInit::F32(q), BufferInit::F32(s)) = (&data[0], &data[1]) else {
            panic!()
        };
        let expected = reference(q, s);
        for (i, e) in expected.iter().enumerate() {
            assert!(
                (run.outputs[0][i] as f32 - e).abs() < 1e-4,
                "query {i}: {} vs {e}",
                run.outputs[0][i]
            );
        }
    }

    #[test]
    fn reduction_detected() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        assert_eq!(compiled.pattern_names(), vec!["reduction"]);
    }
}
