//! Cumulative Frequency Histogram (Signal Processing, Scan, mean relative
//! error). The canonical three-phase data-parallel scan over per-bin
//! frequencies — the app the paper's scan optimization (and its Figure 18
//! cascading-error study) targets.

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

/// Elements per subarray (the per-block scan width).
pub const SUBARRAY: usize = 64;

fn bin_count(scale: Scale) -> usize {
    match scale {
        Scale::Test => 512,
        Scale::Paper => 2048,
    }
}

/// The three-phase scan pipeline's kernel source (parsed through the
/// `paraprox-lang` frontend).
pub const SOURCE: &str = r#"
__global__ void scan_phase1(float* input, float* partial, float* sums) {
    __shared__ float s_a[64];
    __shared__ float s_b[64];
    int tid = threadIdx.x;
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    s_a[tid] = input[gid];
    __syncthreads();
    for (int d = 1; d < 64; d <<= 1) {
        if (tid >= d) {
            s_b[tid] = s_a[tid] + s_a[tid - d];
        } else {
            s_b[tid] = s_a[tid];
        }
        __syncthreads();
        s_a[tid] = s_b[tid];
        __syncthreads();
    }
    partial[gid] = s_a[tid];
    if (tid == 63) {
        sums[blockIdx.x] = s_a[tid];
    }
}

__global__ void scan_phase2(float* sums, float* sums_scan, int count) {
    int tid = threadIdx.x;
    if (tid == 0) {
        float acc = 0.0f;
        for (int i = 0; i < count; i++) {
            acc += sums[i];
            sums_scan[i] = acc;
        }
    }
}

__global__ void scan_phase3(float* partial, float* sums_scan, float* output) {
    int bid = blockIdx.x;
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float p = partial[gid];
    if (bid > 0) {
        output[gid] = p + sums_scan[bid - 1];
    } else {
        output[gid] = p;
    }
}
"#;

/// Host reference: inclusive prefix sums.
pub fn reference(freqs: &[f32]) -> Vec<f32> {
    let mut acc = 0.0f32;
    freqs
        .iter()
        .map(|&f| {
            acc += f;
            acc
        })
        .collect()
}

/// Generate per-bin frequencies: roughly uniform counts with mild trend —
/// the "uniformly distributed data" whose subarrays resemble each other,
/// the assumption behind the scan approximation (paper §3.4.1).
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let n = bin_count(scale);
    let mut r = inputs::rng(seed ^ 0xC4);
    let freqs: Vec<f32> = (0..n)
        .map(|i| {
            let trend = 1.0 + 0.1 * (i as f32 / n as f32);
            r.random_range(50.0f32..150.0) * trend
        })
        .collect();
    vec![BufferInit::F32(freqs)]
}

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let n = bin_count(scale);
    let g = n / SUBARRAY;
    let program = crate::lower(SOURCE);
    let phase1 = program.kernel_by_name("scan_phase1").expect("declared");
    let phase2 = program.kernel_by_name("scan_phase2").expect("declared");
    let phase3 = program.kernel_by_name("scan_phase3").expect("declared");

    let mut pipeline = Pipeline::default();
    let input_b = pipeline.add_buffer(BufferSpec::global(
        "freqs",
        gen_inputs(scale, seed).remove(0),
    ));
    let partial_b = pipeline.add_buffer(BufferSpec::zeroed_f32("partial", n));
    let sums_b = pipeline.add_buffer(BufferSpec::zeroed_f32("sums", g));
    let sums_scan_b = pipeline.add_buffer(BufferSpec::zeroed_f32("sums_scan", g));
    let output_b = pipeline.add_buffer(BufferSpec::zeroed_f32("cumulative", n));
    pipeline.launches.push(LaunchPlan {
        kernel: phase1,
        grid: Dim2::linear(g),
        block: Dim2::linear(SUBARRAY),
        args: vec![
            PlanArg::Buffer(input_b),
            PlanArg::Buffer(partial_b),
            PlanArg::Buffer(sums_b),
        ],
    });
    pipeline.launches.push(LaunchPlan {
        kernel: phase2,
        grid: Dim2::linear(1),
        block: Dim2::linear(SUBARRAY),
        args: vec![
            PlanArg::Buffer(sums_b),
            PlanArg::Buffer(sums_scan_b),
            PlanArg::Scalar(Scalar::I32(g as i32)),
        ],
    });
    pipeline.launches.push(LaunchPlan {
        kernel: phase3,
        grid: Dim2::linear(g),
        block: Dim2::linear(SUBARRAY),
        args: vec![
            PlanArg::Buffer(partial_b),
            PlanArg::Buffer(sums_scan_b),
            PlanArg::Buffer(output_b),
        ],
    });
    pipeline.outputs = vec![output_b];

    Workload::new(
        "Cumulative Frequency Histogram",
        program,
        pipeline,
        Metric::MeanRelative,
    )
    .with_input_slots(vec![input_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Cumulative Frequency Histogram",
            domain: "Signal Processing",
            input_desc: "2K bins (paper: 1M elements)",
            patterns: "Scan",
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
    fn exact_pipeline_matches_host_prefix_sums() {
        let w = build(Scale::Test, 41);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let BufferInit::F32(freqs) = &gen_inputs(Scale::Test, 41)[0] else {
            panic!()
        };
        let expected = reference(freqs);
        for (i, e) in expected.iter().enumerate() {
            assert!(
                (run.outputs[0][i] as f32 - e).abs() < 0.5, // f32 summation order
                "bin {i}: {} vs {e}",
                run.outputs[0][i]
            );
        }
    }

    #[test]
    fn scan_template_matches_and_variants_generated() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        assert!(compiled.pattern_names().contains(&"scan"));
        assert!(compiled
            .variants
            .iter()
            .any(|v| matches!(v.knob, paraprox::Knob::Scan { .. })));
    }
}
