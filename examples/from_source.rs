//! The full paper pipeline from *source code*: parse a CUDA-flavored
//! kernel string, detect its pattern, generate approximate variants, and
//! tune — no builder API in sight. This mirrors how Paraprox sits on
//! Clang's AST in the original system.
//!
//! Run with:
//! ```sh
//! cargo run --release --example from_source
//! ```

use paraprox::{compile, latency_table_for, CompileOptions, Device, DeviceApp, DeviceProfile};
use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_runtime::{Toq, Tuner};
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

const SOURCE: &str = r#"
// Sigmoid-bump scoring function: division + exponentials make it a
// memoization candidate under Eq. (1).
__device__ float score(float x, float sharpness) {
    float e = expf(-sharpness * x);
    float sig = 1.0f / (1.0f + e);
    float bump = sig * sig * (3.0f - 2.0f * sig);
    return bump / (1.0f + 0.1f * x * x);
}

__global__ void score_all(float* values, float* out, int n) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    if (gid < n) {
        out[gid] = score(values[gid], 4.0f);
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the kernel source.
    let program = paraprox_lang::parse_program(SOURCE)?;
    println!(
        "parsed {} function(s), {} kernel(s):\n",
        program.func_count(),
        program.kernel_count()
    );
    println!("{program}");

    // 2. Wrap it into a workload: pipeline, metric, training data.
    const N: usize = 4096;
    let n = N;
    fn gen_values(seed: u64) -> Vec<f32> {
        let mut rng = paraprox_prng::Rng::seed_from_u64(seed);
        (0..N).map(|_| rng.random_range(-2.0f32..2.0)).collect()
    }
    let kernel = program.kernel_by_name("score_all")?;
    let func = program.func_by_name("score")?;
    let mut pipeline = Pipeline::default();
    let values = pipeline.add_buffer(BufferSpec::global("values", BufferInit::F32(gen_values(0))));
    let out = pipeline.add_buffer(BufferSpec::zeroed_f32("out", n));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(n / 64),
        block: Dim2::linear(64),
        args: vec![
            PlanArg::Buffer(values),
            PlanArg::Buffer(out),
            PlanArg::Scalar(Scalar::I32(n as i32)),
        ],
    });
    pipeline.outputs = vec![out];
    let mut trng = paraprox_prng::Rng::seed_from_u64(0x5C0);
    let training: Vec<Vec<Scalar>> = (0..128)
        .map(|_| {
            vec![
                Scalar::F32(trng.random_range(-2.0f32..2.0)),
                Scalar::F32(4.0),
            ]
        })
        .collect();
    let workload = Workload::new("score_all", program, pipeline, Metric::MeanRelative)
        .with_training(func, training)
        .with_input_slots(vec![values]);

    // 3. Compile + tune on the simulated GPU.
    let profile = DeviceProfile::gtx560();
    let compiled = compile(
        &workload,
        &latency_table_for(&profile),
        &CompileOptions::default(),
    )?;
    println!(
        "patterns: {:?}; variants: {}",
        compiled.pattern_names(),
        compiled.variants.len()
    );
    let mut app = DeviceApp::new(
        Device::new(profile),
        &compiled,
        Box::new(move |seed| vec![BufferInit::F32(gen_values(seed))]),
    );
    let report = Tuner {
        toq: Toq::paper_default(),
        training_seeds: (0..4).collect(),
    }
    .tune(&mut app)?;
    for p in &report.profiles {
        println!(
            "  {:<28} quality {:6.2}%  speedup {:5.2}x",
            p.label, p.mean_quality, p.speedup
        );
    }
    match report.chosen {
        Some(i) => println!(
            "\nchosen: {} — a kernel written as source text, approximated automatically",
            report.profiles[i].label
        ),
        None => println!("\nno qualifying variant"),
    }
    Ok(())
}
