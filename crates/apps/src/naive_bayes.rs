//! Naive Bayes trainer — per-class feature histograms (Machine Learning,
//! Reduction via atomics, mean relative error).
//!
//! Counting is implemented with `atomicAdd`, which serializes across a
//! warp on the GPU — exactly why the paper sees >3.5x on the GPU but only
//! ~1.5x on the CPU when the skipping rate prunes atomic traffic (§4.3).

use paraprox::{Metric, Workload};
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

/// Number of classes.
pub const CLASSES: usize = 2;
/// Features per sample.
pub const FEATURES: usize = 8;
/// Histogram buckets per feature.
/// Few cells + many samples keep the per-cell sampling error of the
/// skipping rate small (the paper's 256K-sample inputs have the same
/// property at much larger scale).
pub const BUCKETS: usize = 4;

fn sample_count(scale: Scale) -> usize {
    match scale {
        Scale::Test => 1024,
        Scale::Paper => 4096,
    }
}

const THREADS: usize = 64;

/// Host reference: the count tensor `[class][feature][bucket]`.
pub fn reference(features: &[f32], labels: &[i32]) -> Vec<i32> {
    let n = labels.len();
    let mut counts = vec![0i32; CLASSES * FEATURES * BUCKETS];
    for s in 0..n {
        let class = labels[s] as usize;
        for f in 0..FEATURES {
            let bucket = ((features[s * FEATURES + f] * BUCKETS as f32) as usize).min(BUCKETS - 1);
            counts[class * FEATURES * BUCKETS + f * BUCKETS + bucket] += 1;
        }
    }
    counts
}

/// Generate feature matrix and labels.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let n = sample_count(scale);
    let mut r = inputs::rng(seed ^ 0x4B);
    vec![
        BufferInit::F32(inputs::uniform_f32(&mut r, n * FEATURES, 0.0, 1.0)),
        BufferInit::I32(inputs::uniform_i32(&mut r, n, 0, CLASSES as i32)),
    ]
}

/// Kernel source template: each thread counts `$CHUNK` samples, a
/// per-scale literal (see [`source`]); `$FEATURES` and `$BUCKETS` are
/// [`FEATURES`] and [`BUCKETS`], `$BUCKETS_F` the latter as a float,
/// `$LAST_BUCKET` is `BUCKETS - 1` and `$CELLS` is `FEATURES * BUCKETS`.
const TEMPLATE: &str = r#"
__global__ void naive_bayes_train(float* features, int* labels, int* counts) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    int start = gid * $CHUNK;
    for (int f = 0; f < $FEATURES; f++) {
        for (int s = start; s < start + $CHUNK; s++) {
            int label = labels[s];
            float x = features[s * $FEATURES + f];
            int bucket = min((int)(x * $BUCKETS_F), $LAST_BUCKET);
            atomicAdd(&counts[label * $CELLS + f * $BUCKETS + bucket], 1);
        }
    }
}
"#;

/// The application's kernel source at `scale`.
pub fn source(scale: Scale) -> String {
    let chunk = sample_count(scale) / THREADS;
    crate::instantiate(
        TEMPLATE,
        &[
            ("CHUNK", chunk.to_string()),
            ("FEATURES", FEATURES.to_string()),
            ("BUCKETS", BUCKETS.to_string()),
            ("BUCKETS_F", format!("{:?}f", BUCKETS as f32)),
            ("LAST_BUCKET", (BUCKETS - 1).to_string()),
            ("CELLS", (FEATURES * BUCKETS).to_string()),
        ],
    )
}

/// Build the workload (lowering [`source`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let program = crate::lower(&source(scale));
    let kernel = program
        .kernel_by_name("naive_bayes_train")
        .expect("declared");

    let mut data = gen_inputs(scale, seed);
    let mut pipeline = Pipeline::default();
    let feat_b = pipeline.add_buffer(BufferSpec::global("features", data.remove(0)));
    let label_b = pipeline.add_buffer(BufferSpec::global("labels", data.remove(0)));
    let counts_b = pipeline.add_buffer(BufferSpec::global(
        "counts",
        BufferInit::I32(vec![0; CLASSES * FEATURES * BUCKETS]),
    ));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(THREADS / 32),
        block: Dim2::linear(32),
        args: vec![
            PlanArg::Buffer(feat_b),
            PlanArg::Buffer(label_b),
            PlanArg::Buffer(counts_b),
        ],
    });
    pipeline.outputs = vec![counts_b];

    Workload::new("Naive Bayes", program, pipeline, Metric::MeanRelative)
        .with_input_slots(vec![feat_b, label_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Naive Bayes",
            domain: "Machine Learning",
            input_desc: "2K samples x 8 features (paper: 256K x 32)",
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
    use paraprox_ir::AtomicOp;
    use paraprox_patterns::ReductionKind;
    use paraprox_vgpu::{Device, DeviceProfile};

    #[test]
    fn exact_pipeline_matches_host_reference() {
        let w = build(Scale::Test, 23);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let data = gen_inputs(Scale::Test, 23);
        let (BufferInit::F32(features), BufferInit::I32(labels)) = (&data[0], &data[1]) else {
            panic!()
        };
        let expected = reference(features, labels);
        let total: f64 = run.outputs[0].iter().sum();
        assert_eq!(
            total as i64,
            (labels.len() * FEATURES) as i64,
            "every sample-feature pair counted once"
        );
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(run.outputs[0][i] as i32, e, "bucket {i}");
        }
    }

    #[test]
    fn atomic_reduction_detected_on_inner_loop() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        let reds: Vec<_> = compiled
            .patterns
            .iter()
            .flat_map(|kp| kp.reductions())
            .collect();
        assert_eq!(reds.len(), 1, "only the inner sample loop");
        assert!(matches!(
            reds[0].kind,
            ReductionKind::Atomic { op: AtomicOp::Add }
        ));
        assert_eq!(reds[0].path.depth(), 2, "the nested loop");
    }
}
