//! The four closed-form functions of the paper's §4.4.2 map-optimization
//! case study (Figures 15–17): the credit-card payoff equation, the shifted
//! Gompertz distribution, log-gamma, and the Bass diffusion model. Each is
//! a single-variable map workload, so both the *nearest* and *linear*
//! lookup schemes apply.

use paraprox::{Metric, Workload};
use paraprox_ir::Scalar;
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

use crate::inputs;
use crate::Scale;

/// Which of the four case-study functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseStudy {
    /// Credit-card payoff months `N(i)` (Eq. 2): `log` + two divisions.
    Credit,
    /// Shifted Gompertz CDF (Eq. 3): exponentials only — SFU-cheap on the
    /// GPU, hence the paper's lowest speedup.
    Gompertz,
    /// `log Γ(z)` via the Stirling series (Eq. 4): `log` + divisions.
    LogGamma,
    /// Bass diffusion model (Eq. 5): exponential + division.
    Bass,
}

impl CaseStudy {
    /// All four, in the paper's order.
    pub fn all() -> [CaseStudy; 4] {
        [
            CaseStudy::Credit,
            CaseStudy::Gompertz,
            CaseStudy::LogGamma,
            CaseStudy::Bass,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CaseStudy::Credit => "Credit",
            CaseStudy::Gompertz => "Gompertz",
            CaseStudy::LogGamma => "lgamma",
            CaseStudy::Bass => "Bass",
        }
    }

    /// The input domain `[lo, hi)`.
    pub fn domain(self) -> (f32, f32) {
        match self {
            CaseStudy::Credit => (1e-4, 7e-4), // daily interest rate
            CaseStudy::Gompertz => (0.0, 10.0),
            CaseStudy::LogGamma => (1.0, 10.0),
            CaseStudy::Bass => (0.0, 20.0),
        }
    }

    /// Host reference.
    pub fn reference(self, x: f32) -> f32 {
        match self {
            CaseStudy::Credit => {
                // N(i) = -(1/30) ln(1 + (b0/p)(1-(1+i)^30)) / ln(1+i)
                let ratio = 25.0; // b0/p
                let growth = (1.0 + x).powf(30.0);
                -(1.0 / 30.0) * (1.0 + ratio * (1.0 - growth)).ln() / (1.0 + x).ln()
            }
            CaseStudy::Gompertz => {
                // F(x) = (1 - e^{-bx}) e^{-η e^{-bx}}
                let (b, eta) = (0.4, 2.0);
                let e = (-b * x).exp();
                (1.0 - e) * (-eta * e).exp()
            }
            CaseStudy::LogGamma => {
                // Stirling: (z-1/2)ln z - z + ln(2π)/2 + 1/(12z) - 1/(360z³)
                let z = x;
                (z - 0.5) * z.ln() - z + 0.918_938_5 + 1.0 / (12.0 * z) - 1.0 / (360.0 * z * z * z)
            }
            CaseStudy::Bass => {
                // S(t) = m (p+q)²/p · e^{-(p+q)t} / (1 + (q/p) e^{-(p+q)t})²
                let (p, q, m) = (0.03f32, 0.38, 100.0);
                let e = (-(p + q) * x).exp();
                let denom = 1.0 + (q / p) * e;
                m * (p + q) * (p + q) / p * e / (denom * denom)
            }
        }
    }

    /// The case study's kernel source: the function, then the map kernel
    /// `map_<name>` that applies it to every input element.
    pub fn source(self) -> String {
        let function = match self {
            CaseStudy::Credit => CREDIT,
            CaseStudy::Gompertz => GOMPERTZ,
            CaseStudy::LogGamma => LOG_GAMMA,
            CaseStudy::Bass => BASS,
        };
        function.to_string() + &crate::instantiate(MAP_KERNEL, &[("NAME", self.name().to_string())])
    }
}

/// Eq. (2) with `b0/p` = 25; -0.033333335 is -1/30 in `f32`.
const CREDIT: &str = r#"
__device__ float Credit(float x) {
    float growth = powf(1.0f + x, 30.0f);
    float inner = 1.0f + 25.0f * (1.0f - growth);
    return -0.033333335f * logf(inner) / logf(1.0f + x);
}
"#;

/// Eq. (3) with b = 0.4 and η = 2.
const GOMPERTZ: &str = r#"
__device__ float Gompertz(float x) {
    float e = expf(-0.4f * x);
    return (1.0f - e) * expf(-2.0f * e);
}
"#;

/// Eq. (4); 0.9189385 is ln(2π)/2.
const LOG_GAMMA: &str = r#"
__device__ float lgamma(float x) {
    float z3 = x * x * x;
    return (x - 0.5f) * logf(x) - x + 0.9189385f + 1.0f / (12.0f * x) - 1.0f / (360.0f * z3);
}
"#;

/// Eq. (5) with p = 0.03, q = 0.38 and m = 100, written exactly as the
/// equation: the coefficient is computed in-body, so its division is part
/// of the function's cost (0.41 is p + q, 12.666667 is q/p in `f32`).
const BASS: &str = r#"
__device__ float Bass(float x) {
    float e = expf(-0.41f * x);
    float coef = 100.0f * (0.41f * 0.41f) / 0.03f;
    float denom = 1.0f + 12.666667f * e;
    return coef * e / (denom * denom);
}
"#;

/// The map kernel around a case-study function `$NAME`.
const MAP_KERNEL: &str = r#"
__global__ void map_$NAME(float* input, float* output) {
    int gid = blockIdx.x * blockDim.x + threadIdx.x;
    float x = input[gid];
    output[gid] = $NAME(x);
}
"#;

fn sizes(scale: Scale) -> usize {
    match scale {
        Scale::Test => 512,
        Scale::Paper => 4096,
    }
}

/// Generate the input buffer for a case study.
pub fn gen_inputs(which: CaseStudy, scale: Scale, seed: u64) -> Vec<BufferInit> {
    let (lo, hi) = which.domain();
    let n = sizes(scale);
    let mut r = inputs::rng(seed ^ which as u64 ^ 0xF4);
    vec![BufferInit::F32(inputs::uniform_f32(&mut r, n, lo, hi))]
}

/// Build a map workload for one case study.
pub fn build(which: CaseStudy, scale: Scale, seed: u64) -> Workload {
    let n = sizes(scale);
    let program = crate::lower(&which.source());
    let func = program.func_by_name(which.name()).expect("declared");
    let kernel = program
        .kernel_by_name(&format!("map_{}", which.name()))
        .expect("declared");

    let mut pipeline = Pipeline::default();
    let in_b = pipeline.add_buffer(BufferSpec::global(
        "input",
        gen_inputs(which, scale, seed).remove(0),
    ));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("output", n));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(n / 64),
        block: Dim2::linear(64),
        args: vec![PlanArg::Buffer(in_b), PlanArg::Buffer(out_b)],
    });
    pipeline.outputs = vec![out_b];

    let (lo, hi) = which.domain();
    let mut trng = inputs::rng(0xF4A1 ^ which as u64);
    let samples: Vec<Vec<Scalar>> = (0..160)
        .map(|_| vec![Scalar::F32(trng.random_range(lo..hi))])
        .collect();

    Workload::new(which.name(), program, pipeline, Metric::MeanRelative)
        .with_training(func, samples)
        .with_input_slots(vec![in_b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_vgpu::{Device, DeviceProfile};

    #[test]
    fn all_four_match_their_references() {
        for which in CaseStudy::all() {
            let w = build(which, Scale::Test, 2);
            let mut device = Device::new(DeviceProfile::gtx560());
            let run = w.pipeline.execute(&mut device, &w.program).unwrap();
            let BufferInit::F32(xs) = &gen_inputs(which, Scale::Test, 2)[0] else {
                panic!()
            };
            for (i, &x) in xs.iter().enumerate() {
                let expected = which.reference(x);
                let got = run.outputs[0][i] as f32;
                assert!(
                    (got - expected).abs() < 1e-3 * expected.abs().max(1.0),
                    "{} at x={x}: {got} vs {expected}",
                    which.name()
                );
            }
        }
    }

    #[test]
    fn reference_values_are_plausible() {
        // Credit: paying off takes years for high rates.
        assert!(CaseStudy::Credit.reference(5e-4) > 20.0);
        // Gompertz CDF within [0, 1].
        for x in [0.5f32, 2.0, 8.0] {
            let v = CaseStudy::Gompertz.reference(x);
            assert!((0.0..=1.0).contains(&v));
        }
        // lgamma(1) = 0 (Stirling is approximate: loose bound).
        assert!(CaseStudy::LogGamma.reference(1.0).abs() < 0.01);
        // Bass sales positive with a peak.
        assert!(CaseStudy::Bass.reference(5.0) > 0.0);
    }

    #[test]
    fn eq1_filters_the_cheap_function() {
        // Credit, lgamma, and Bass are division-heavy and clear the Eq. (1)
        // threshold on the GPU; Gompertz is all SFU exponentials and does
        // not — the paper's case study applies memoization to it anyway
        // (the fig15 harness does the same via the direct memo API).
        let table = paraprox::latency_table_for(&DeviceProfile::gtx560());
        for which in CaseStudy::all() {
            let w = build(which, Scale::Test, 1);
            let compiled =
                paraprox::compile(&w, &table, &paraprox::CompileOptions::minimal()).unwrap();
            let is_candidate = compiled.pattern_names().contains(&"map");
            if which == CaseStudy::Gompertz {
                assert!(!is_candidate, "Gompertz is too cheap for Eq. (1)");
            } else {
                assert!(is_candidate, "{} must be a map candidate", which.name());
            }
        }
    }
}
