//! Matrix Multiply — tiled GEMM (Signal Processing, Reduction-Partition,
//! mean relative error). Shared-memory tiles (the partition pattern) with
//! an inner dot-product loop (the reduction the optimization perforates).

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

/// Tile edge (block is TILE×TILE threads).
pub const TILE: usize = 8;

/// (M, K, N): A is M×K, B is K×N, C is M×N.
fn dims(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Test => (16, 32, 16),
        Scale::Paper => (32, 64, 32),
    }
}

/// Host reference.
pub fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Generate the two factor matrices (positive values keep the relative
/// error of sampling small, as with the paper's well-conditioned inputs).
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (m, k, n) = dims(scale);
    let mut r = inputs::rng(seed ^ 0x3A7);
    vec![
        BufferInit::F32(inputs::uniform_f32(&mut r, m * k, 0.5, 1.5)),
        BufferInit::F32(inputs::uniform_f32(&mut r, k * n, 0.5, 1.5)),
    ]
}

/// Kernel source template: `$TILE` is [`TILE`], `$TILE2` the tile's
/// element count and `$TILES` the number of tiles along the shared
/// dimension, a per-scale literal (see [`source`]).
const TEMPLATE: &str = r#"
__global__ void matmul_tiled(float* a, float* b, float* c, int k, int n) {
    __shared__ float a_s[$TILE2];
    __shared__ float b_s[$TILE2];
    int tx = threadIdx.x;
    int ty = threadIdx.y;
    int row = blockIdx.y * blockDim.y + threadIdx.y;
    int col = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0f;
    for (int t = 0; t < $TILES; t++) {
        a_s[ty * $TILE + tx] = a[row * k + t * $TILE + tx];
        b_s[ty * $TILE + tx] = b[(t * $TILE + ty) * n + col];
        __syncthreads();
        for (int kk = 0; kk < $TILE; kk++) {
            acc += a_s[ty * $TILE + kk] * b_s[kk * $TILE + tx];
        }
        __syncthreads();
    }
    c[row * n + col] = acc;
}
"#;

/// The application's kernel source at `scale`.
pub fn source(scale: Scale) -> String {
    let (_, k, _) = dims(scale);
    crate::instantiate(
        TEMPLATE,
        &[
            ("TILE", TILE.to_string()),
            ("TILE2", (TILE * TILE).to_string()),
            ("TILES", (k / TILE).to_string()),
        ],
    )
}

/// Build the workload (lowering [`source`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let (m, k, n) = dims(scale);
    let program = crate::lower(&source(scale));
    let kernel = program.kernel_by_name("matmul_tiled").expect("declared");

    let mut data = gen_inputs(scale, seed);
    let mut pipeline = Pipeline::default();
    let a_b = pipeline.add_buffer(BufferSpec::global("a", data.remove(0)));
    let b_b = pipeline.add_buffer(BufferSpec::global("b", data.remove(0)));
    let c_b = pipeline.add_buffer(BufferSpec::zeroed_f32("c", m * n));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::new(n / TILE, m / TILE),
        block: Dim2::new(TILE, TILE),
        args: vec![
            PlanArg::Buffer(a_b),
            PlanArg::Buffer(b_b),
            PlanArg::Buffer(c_b),
            PlanArg::Scalar(Scalar::I32(k as i32)),
            PlanArg::Scalar(Scalar::I32(n as i32)),
        ],
    });
    pipeline.outputs = vec![c_b];

    Workload::new("Matrix Multiply", program, pipeline, Metric::MeanRelative)
        .with_input_slots(vec![a_b, b_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "Matrix Multiply",
            domain: "Signal Processing",
            input_desc: "32x64 x 64x32, 8x8 tiles (paper: 2560x2560)",
            patterns: "Reduction-Partition",
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
    fn exact_pipeline_matches_host_reference() {
        let w = build(Scale::Test, 31);
        let (m, k, n) = dims(Scale::Test);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let data = gen_inputs(Scale::Test, 31);
        let (BufferInit::F32(a), BufferInit::F32(b)) = (&data[0], &data[1]) else {
            panic!()
        };
        let expected = reference(a, b, m, k, n);
        for (i, e) in expected.iter().enumerate() {
            assert!(
                (run.outputs[0][i] as f32 - e).abs() < 1e-3 * e.abs().max(1.0),
                "entry {i}: {} vs {e}",
                run.outputs[0][i]
            );
        }
    }

    #[test]
    fn reduction_and_partition_detected() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        let names = compiled.pattern_names();
        assert!(names.contains(&"reduction"), "{names:?}");
        assert!(names.contains(&"partition"), "{names:?}");
        // The reduction variant must perforate only the innermost loop
        // (perforating both nested loops would square the sampling rate).
        assert!(compiled
            .variants
            .iter()
            .any(|v| matches!(v.knob, paraprox::Knob::Reduction { .. })));
    }
}
