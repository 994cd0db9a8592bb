//! HotSpot — thermal simulation step (Physics, Stencil-Partition, mean
//! relative error). Modeled on the Rodinia kernel: each cell's next
//! temperature combines its 4-neighborhood and the local power density.

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::{App, AppSpec, Scale};

fn dims(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 32),
        Scale::Paper => (128, 128),
    }
}

/// Conduction and power coefficients (dimensionless, Rodinia-flavored).
const KY: f32 = 0.12;
const KX: f32 = 0.12;
const KZ: f32 = 0.04;
const KP: f32 = 0.8;
/// Ambient temperature.
const AMBIENT: f32 = 80.0;

/// Host reference for one interior cell.
fn step_cell(c: f32, n: f32, s: f32, e: f32, w: f32, p: f32) -> f32 {
    c + KY * (n + s - 2.0 * c) + KX * (e + w - 2.0 * c) + KZ * (AMBIENT - c) + KP * p
}

/// Host reference over the whole grid.
pub fn reference(temp: &[f32], power: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = temp.to_vec();
    for y in 1..h - 1 {
        for x in 1..w - 1 {
            let i = y * w + x;
            out[i] = step_cell(
                temp[i],
                temp[i - w],
                temp[i + w],
                temp[i + 1],
                temp[i - 1],
                power[i],
            );
        }
    }
    out
}

/// Generate the temperature and power grids.
pub fn gen_inputs(scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (w, h) = dims(scale);
    let mut r = inputs::rng(seed ^ 0x407);
    let temp: Vec<f32> = inputs::smooth_image(&mut r, w, h)
        .into_iter()
        .map(|v| 60.0 + v * 0.2) // 60..111 degrees
        .collect();
    let power: Vec<f32> = inputs::smooth_image(&mut r, w, h)
        .into_iter()
        .map(|v| v * 0.004) // 0..~1 W
        .collect();
    vec![BufferInit::F32(temp), BufferInit::F32(power)]
}

/// The application's kernel source: one explicit-Euler step of the
/// 5-point thermal stencil (constants are the `K*` coefficients and the
/// ambient temperature above).
pub const SOURCE: &str = r#"
__global__ void hotspot(float* temp, float* power, float* out, int w, int h) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    int center_idx = y * w + x;
    if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
        float c = temp[y * w + x];
        float n = temp[(y - 1) * w + x];
        float s = temp[(y + 1) * w + x];
        float e = temp[y * w + x + 1];
        float wv = temp[y * w + x - 1];
        float p = power[center_idx];
        out[center_idx] = c + 0.12f * (n + s - 2.0f * c) + 0.12f * (e + wv - 2.0f * c)
            + 0.04f * (80.0f - c) + 0.8f * p;
    } else {
        float cb = temp[center_idx];
        out[center_idx] = cb;
    }
}
"#;

/// Build the workload (lowering [`SOURCE`] through the language frontend).
pub fn build(scale: Scale, seed: u64) -> Workload {
    let (w, h) = dims(scale);
    let program = crate::lower(SOURCE);
    let kernel = program.kernel_by_name("hotspot").expect("declared");

    let mut data = gen_inputs(scale, seed);
    let mut pipeline = Pipeline::default();
    let temp_b = pipeline.add_buffer(BufferSpec::global("temp", data.remove(0)));
    let power_b = pipeline.add_buffer(BufferSpec::global("power", data.remove(0)));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("out", w * h));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::new(w / 16, h / 8),
        block: Dim2::new(16, 8),
        args: vec![
            PlanArg::Buffer(temp_b),
            PlanArg::Buffer(power_b),
            PlanArg::Buffer(out_b),
            PlanArg::Scalar(Scalar::I32(w as i32)),
            PlanArg::Scalar(Scalar::I32(h as i32)),
        ],
    });
    pipeline.outputs = vec![out_b];

    Workload::new("HotSpot", program, pipeline, Metric::MeanRelative)
        .with_input_slots(vec![temp_b, power_b])
}

/// Registry entry.
pub fn app() -> App {
    App {
        spec: AppSpec {
            name: "HotSpot",
            domain: "Physics",
            input_desc: "128x128 grid (paper: 1024x1024)",
            patterns: "Stencil-Partition",
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
    fn source_spells_the_reference_coefficients() {
        crate::tests::assert_literals_in_order(SOURCE, &[KY, 2.0, KX, 2.0, KZ, AMBIENT, KP]);
    }

    #[test]
    fn exact_pipeline_matches_host_reference() {
        let w = build(Scale::Test, 3);
        let (wd, ht) = dims(Scale::Test);
        let mut device = Device::new(DeviceProfile::gtx560());
        let run = w.pipeline.execute(&mut device, &w.program).unwrap();
        let data = gen_inputs(Scale::Test, 3);
        let (BufferInit::F32(temp), BufferInit::F32(power)) = (&data[0], &data[1]) else {
            panic!()
        };
        let expected = reference(temp, power, wd, ht);
        for (i, e) in expected.iter().enumerate() {
            assert!(
                (run.outputs[0][i] as f32 - e).abs() < 1e-3,
                "cell {i}: {} vs {e}",
                run.outputs[0][i]
            );
        }
    }

    #[test]
    fn stencil_pattern_detected_on_temperature_grid() {
        let w = build(Scale::Test, 1);
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        let compiled = paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
        assert!(compiled.pattern_names().contains(&"stencil"));
        let cand = compiled
            .patterns
            .iter()
            .flat_map(|kp| kp.stencils())
            .next()
            .expect("stencil candidate");
        assert_eq!((cand.tile_h, cand.tile_w), (3, 3));
        // Only the 5-point temperature neighborhood tiles; power is a
        // single access.
        let stencil_count: usize = compiled
            .patterns
            .iter()
            .map(|kp| kp.stencils().count())
            .sum();
        assert_eq!(stencil_count, 1);
    }
}
