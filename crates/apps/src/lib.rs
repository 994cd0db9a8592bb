//! The 13 soft data-parallel benchmark applications of the Paraprox
//! evaluation (paper Table 1), implemented as kernel-IR workloads.
//!
//! Every kernel is CUDA-flavored source lowered by `paraprox-lang`, as the
//! paper's input is CUDA/OpenCL source: each module holds its `SOURCE`
//! (or, where a constant depends on the [`Scale`], a `source(scale)` that
//! writes the constant into a template), and [`kernel_sources`] lists
//! them all.
//!
//! | Application | Domain | Patterns | Error metric |
//! |---|---|---|---|
//! | BlackScholes | Financial | Map | L1-norm |
//! | Quasirandom Generator | Statistics | Map | L1-norm |
//! | Gamma Correction | Image Processing | Map | Mean relative |
//! | BoxMuller | Statistics | Scatter/Gather | L1-norm |
//! | HotSpot | Physics | Stencil | Mean relative |
//! | Convolution Separable | Image Processing | Stencil + Reduction | L2-norm |
//! | Gaussian Filter | Image Processing | Stencil | Mean relative |
//! | Mean Filter | Image Processing | Stencil | Mean relative |
//! | Matrix Multiply | Signal Processing | Reduction + Partition | Mean relative |
//! | Image Denoising | Image Processing | Reduction | Mean relative |
//! | Naive Bayes | Machine Learning | Reduction (atomics) | Mean relative |
//! | Kernel Density Estimation | Machine Learning | Reduction | Mean relative |
//! | Cumulative Frequency Histogram | Signal Processing | Scan | Mean relative |
//!
//! Input sizes are scaled down from the paper's (e.g. 2048² images → 128²)
//! because the kernels execute under an interpreted SIMT simulator; exact
//! and approximate versions scale identically, so speedup ratios are
//! preserved. Every application regenerates its inputs deterministically
//! from a seed, enabling the train-then-deploy protocol of the paper
//! (10 training runs, then measurement runs on fresh inputs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod black_scholes;
pub mod box_muller;
pub mod convolution;
pub mod cumulative_histogram;
pub mod functions;
pub mod gamma_correction;
pub mod gaussian_filter;
pub mod hotspot;
pub mod image_denoising;
pub mod inputs;
pub mod jacobi;
pub mod kde;
pub mod matmul;
pub mod mean_filter;
pub mod naive_bayes;
pub mod quasirandom;
pub mod sobel_flow;

use paraprox::Workload;
use paraprox_ir::Program;
use paraprox_iter::{ConvergenceSpec, IterError, IterModel, IterativeApp};
use paraprox_quality::Metric;
use paraprox_vgpu::{BufferInit, Device};

/// Lower kernel source through the `paraprox-lang` front end.
///
/// # Panics
///
/// If the source does not lower: every source is part of this crate.
fn lower(source: &str) -> Program {
    paraprox_lang::parse_program(source).unwrap_or_else(|e| panic!("embedded kernel source: {e}"))
}

/// Write literals into a kernel source template: each `$NAME` becomes the
/// text of `NAME`'s value in `literals`.
///
/// # Panics
///
/// If the template names a literal `literals` does not give.
fn instantiate(template: &str, literals: &[(&str, String)]) -> String {
    let mut source = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(at) = rest.find('$') {
        source.push_str(&rest[..at]);
        rest = &rest[at + 1..];
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let (name, tail) = rest.split_at(len);
        let (_, value) = literals
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("kernel template names ${name}, which has no value"));
        source.push_str(value);
        rest = tail;
    }
    source.push_str(rest);
    source
}

/// Every kernel source this crate lowers at `scale`, by name: the 13
/// registry applications in Table 1 order, the iterative applications,
/// then the four case-study functions.
pub fn kernel_sources(scale: Scale) -> Vec<(&'static str, String)> {
    let mut sources = vec![
        ("BlackScholes", black_scholes::SOURCE.to_string()),
        ("Quasirandom Generator", quasirandom::SOURCE.to_string()),
        ("Gamma Correction", gamma_correction::SOURCE.to_string()),
        ("BoxMuller", box_muller::SOURCE.to_string()),
        ("HotSpot", hotspot::SOURCE.to_string()),
        ("Convolution Separable", convolution::SOURCE.to_string()),
        ("Gaussian Filter", gaussian_filter::SOURCE.to_string()),
        ("Mean Filter", mean_filter::SOURCE.to_string()),
        ("Matrix Multiply", matmul::source(scale)),
        ("Image Denoising", image_denoising::SOURCE.to_string()),
        ("Naive Bayes", naive_bayes::source(scale)),
        ("Kernel Density Estimation", kde::source(scale)),
        (
            "Cumulative Frequency Histogram",
            cumulative_histogram::SOURCE.to_string(),
        ),
        ("Jacobi", jacobi::SOURCE.to_string()),
        ("Sobel Flow", sobel_flow::SOURCE.to_string()),
    ];
    sources.extend(
        functions::CaseStudy::all()
            .into_iter()
            .map(|which| (which.name(), which.source())),
    );
    sources
}

/// Problem-size scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs for fast unit/integration tests.
    Test,
    /// The default experiment size (scaled-down analogue of the paper's).
    Paper,
}

/// Static description of an application (paper Table 1's row).
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name as in the paper.
    pub name: &'static str,
    /// Domain column of Table 1.
    pub domain: &'static str,
    /// Input-size description (at [`Scale::Paper`]).
    pub input_desc: &'static str,
    /// Patterns column of Table 1.
    pub patterns: &'static str,
    /// Error metric.
    pub metric: Metric,
}

/// A registered benchmark application.
#[derive(Clone)]
pub struct App {
    /// Table-1 row.
    pub spec: AppSpec,
    /// Build the full workload (program + pipeline + training data) for a
    /// scale and input seed.
    pub build: fn(Scale, u64) -> Workload,
    /// Regenerate just the input buffers for a seed (same order as the
    /// workload's `input_slots`).
    pub gen_inputs: fn(Scale, u64) -> Vec<BufferInit>,
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("App").field("spec", &self.spec).finish()
    }
}

impl App {
    /// An input generator closure suitable for
    /// [`paraprox::DeviceApp::new`].
    pub fn input_gen(&self, scale: Scale) -> Box<dyn FnMut(u64) -> Vec<BufferInit> + Send> {
        let f = self.gen_inputs;
        Box::new(move |seed| f(scale, seed))
    }
}

/// All 13 applications, in the paper's Table 1 order.
pub fn registry() -> Vec<App> {
    vec![
        black_scholes::app(),
        quasirandom::app(),
        gamma_correction::app(),
        box_muller::app(),
        hotspot::app(),
        convolution::app(),
        gaussian_filter::app(),
        mean_filter::app(),
        matmul::app(),
        image_denoising::app(),
        naive_bayes::app(),
        kde::app(),
        cumulative_histogram::app(),
    ]
}

/// Find a registered application by (case-insensitive) name prefix, or
/// by the initials of a multi-word name (`kde` → Kernel Density
/// Estimation, `cfh` → Cumulative Frequency Histogram).
pub fn find(name: &str) -> Option<App> {
    let lower = name.to_lowercase();
    registry().into_iter().find(|a| {
        let full = a.spec.name.to_lowercase();
        if full.starts_with(&lower) {
            return true;
        }
        let initials: String = full
            .split_whitespace()
            .filter_map(|w| w.chars().next())
            .collect();
        initials.len() > 1 && initials == lower
    })
}

/// A registered *iterative* application: a loop-of-stencil-reduce job
/// ([`paraprox_iter::IterativeApp`]) rather than a one-shot pipeline.
/// These are the convergence-driven counterparts of the Table-1 stencil
/// workloads; their knob is the approximation *schedule*, not a single
/// kernel rewrite.
#[derive(Clone)]
pub struct IterApp {
    /// Application name.
    pub name: &'static str,
    /// Domain, in Table-1 style.
    pub domain: &'static str,
    /// Input-size description (at [`Scale::Paper`]).
    pub input_desc: &'static str,
    /// Error metric comparing converged fields.
    pub metric: Metric,
    /// Build the device-independent iterative model for a scale.
    pub build: fn(Scale) -> IterModel,
    /// Convergence criteria for a scale.
    pub spec: fn(Scale) -> ConvergenceSpec,
    /// Regenerate the initial field for a scale and seed.
    pub gen_field: fn(Scale, u64) -> Vec<f32>,
}

impl std::fmt::Debug for IterApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IterApp")
            .field("name", &self.name)
            .field("domain", &self.domain)
            .finish_non_exhaustive()
    }
}

impl IterApp {
    /// Bind the app to a device with the full preset schedule ladder
    /// admitted (every rung gated through the analysis suite).
    ///
    /// # Errors
    ///
    /// Propagates [`IterError`] when the model or any preset schedule
    /// fails the safety gate.
    pub fn instantiate(&self, scale: Scale, device: Device) -> Result<IterativeApp, IterError> {
        let gen = self.field_gen(scale);
        IterativeApp::new(device, (self.build)(scale), (self.spec)(scale), gen)?.with_presets()
    }

    /// A boxed field generator for [`paraprox_iter::IterativeApp::new`].
    pub fn field_gen(&self, scale: Scale) -> paraprox_iter::FieldGen {
        let f = self.gen_field;
        Box::new(move |seed| f(scale, seed))
    }
}

/// The iterative applications, in registry order.
pub fn iter_registry() -> Vec<IterApp> {
    vec![jacobi::app(), sobel_flow::app()]
}

/// Find an iterative application by (case-insensitive) name prefix.
pub fn find_iter(name: &str) -> Option<IterApp> {
    let lower = name.to_lowercase();
    iter_registry()
        .into_iter()
        .find(|a| a.name.to_lowercase().starts_with(&lower))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert that `expected` occurs, in order, among the numeric literals
    /// of a kernel source: the check that a source spells the constants
    /// its host reference uses. A `-` directly before a literal is its
    /// sign, as in the front end.
    pub(crate) fn assert_literals_in_order(source: &str, expected: &[f32]) {
        let bytes = source.as_bytes();
        let in_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'.';
        let mut literals = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            if !bytes[i].is_ascii_digit() || (i > 0 && in_word(bytes[i - 1])) {
                i += 1;
                continue;
            }
            let negative = i > 0 && bytes[i - 1] == b'-';
            let start = i;
            while i < bytes.len()
                && (in_word(bytes[i])
                    || (matches!(bytes[i], b'-' | b'+') && matches!(bytes[i - 1], b'e' | b'E')))
            {
                i += 1;
            }
            if let Ok(v) = source[start..i].trim_end_matches('f').parse::<f32>() {
                literals.push(if negative { -v } else { v });
            }
        }
        let mut rest = literals.iter();
        for want in expected {
            assert!(
                rest.any(|got| got == want),
                "{want:?} is not among the source's remaining literals {literals:?}"
            );
        }
    }

    #[test]
    fn instantiate_writes_whole_names() {
        let source = instantiate(
            "a[$N2] = $N + $NX;",
            &[
                ("N", "8".to_string()),
                ("N2", "64".to_string()),
                ("NX", "1.5f".to_string()),
            ],
        );
        assert_eq!(source, "a[64] = 8 + 1.5f;");
    }

    #[test]
    #[should_panic(expected = "$M")]
    fn instantiate_rejects_a_name_without_a_value() {
        instantiate("$N + $M", &[("N", "1".to_string())]);
    }

    #[test]
    fn literal_scan_reads_signs_exponents_and_suffixes() {
        let source = "x = -2.5f * y - 3 + 1e-6f; a_s[ty * 8] = v1;";
        assert_literals_in_order(source, &[-2.5, 3.0, 1e-6, 8.0]);
    }

    #[test]
    #[should_panic(expected = "not among")]
    fn literal_scan_holds_the_order() {
        assert_literals_in_order("a = 1.0f + 2.0f;", &[2.0, 1.0]);
    }

    #[test]
    fn registry_has_thirteen_apps_in_table1_order() {
        let apps = registry();
        assert_eq!(apps.len(), 13);
        assert_eq!(apps[0].spec.name, "BlackScholes");
        assert_eq!(apps[12].spec.name, "Cumulative Frequency Histogram");
        // Names unique.
        let mut names: Vec<&str> = apps.iter().map(|a| a.spec.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn kernel_sources_are_what_the_apps_lower() {
        for scale in [Scale::Test, Scale::Paper] {
            let sources: std::collections::HashMap<_, _> =
                kernel_sources(scale).into_iter().collect();
            assert_eq!(sources.len(), 19, "every source is listed once");
            for app in registry() {
                let program = (app.build)(scale, 1).program;
                assert_eq!(lower(&sources[app.spec.name]), program, "{}", app.spec.name);
            }
            for app in iter_registry() {
                let model = (app.build)(scale);
                let lowered = lower(&sources[app.name]);
                assert_eq!(lowered.kernel_count(), 1, "{}", app.name);
                let (_, kernel) = lowered.kernels().next().expect("one kernel");
                assert_eq!(kernel, model.program.kernel(model.stencil), "{}", app.name);
            }
            for which in functions::CaseStudy::all() {
                let program = functions::build(which, scale, 1).program;
                assert_eq!(lower(&sources[which.name()]), program, "{}", which.name());
            }
        }
    }

    #[test]
    fn find_by_prefix() {
        assert!(find("black").is_some());
        assert!(find("HotSpot").is_some());
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn find_by_initials() {
        assert_eq!(find("kde").unwrap().spec.name, "Kernel Density Estimation");
        assert_eq!(
            find("cfh").unwrap().spec.name,
            "Cumulative Frequency Histogram"
        );
        // Single letters are prefixes only, never initials.
        assert_eq!(find("b").unwrap().spec.name, "BlackScholes");
    }

    #[test]
    fn every_app_builds_and_regenerates_inputs() {
        for app in registry() {
            let w = (app.build)(Scale::Test, 1);
            assert!(!w.pipeline.launches.is_empty(), "{}", app.spec.name);
            assert!(!w.pipeline.outputs.is_empty(), "{}", app.spec.name);
            let inputs = (app.gen_inputs)(Scale::Test, 1);
            assert_eq!(
                inputs.len(),
                w.input_slots.len(),
                "{}: input generator arity",
                app.spec.name
            );
            // Shapes must match the declared slots.
            for (init, &slot) in inputs.iter().zip(&w.input_slots) {
                assert_eq!(
                    init.len(),
                    w.pipeline.buffers[slot].init.len(),
                    "{}: input shape for slot {slot}",
                    app.spec.name
                );
            }
        }
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        for app in registry() {
            let a = (app.gen_inputs)(Scale::Test, 7);
            let b = (app.gen_inputs)(Scale::Test, 7);
            let c = (app.gen_inputs)(Scale::Test, 8);
            assert_eq!(a, b, "{}: same seed must reproduce", app.spec.name);
            assert_ne!(a, c, "{}: different seed must differ", app.spec.name);
        }
    }

    #[test]
    fn iter_registry_lists_both_apps_and_finds_by_prefix() {
        let apps = iter_registry();
        assert_eq!(apps.len(), 2);
        assert_eq!(find_iter("jac").unwrap().name, "Jacobi");
        assert_eq!(find_iter("sobel").unwrap().name, "Sobel Flow");
        assert!(find_iter("nonexistent").is_none());
    }

    #[test]
    fn every_iter_app_instantiates_and_converges_exactly() {
        use paraprox_iter::IterSchedule;
        use paraprox_vgpu::DeviceProfile;
        for app in iter_registry() {
            let mut job = app
                .instantiate(Scale::Test, Device::new(DeviceProfile::gtx560()))
                .unwrap_or_else(|e| panic!("{}: {e}", app.name));
            // The presets minus the exact rung were admitted.
            assert_eq!(job.schedules().len(), 2, "{}", app.name);
            let out = job.run_schedule(&IterSchedule::exact(), 5).unwrap();
            let run = job.last_run().unwrap();
            assert!(run.converged, "{}: {run:?}", app.name);
            assert!(
                run.iterations < (app.spec)(Scale::Test).max_iters,
                "{run:?}"
            );
            assert_eq!(out.output.len(), job.model().elems());
        }
    }

    #[test]
    fn iter_fields_are_deterministic_per_seed() {
        for app in iter_registry() {
            let a = (app.gen_field)(Scale::Test, 7);
            let b = (app.gen_field)(Scale::Test, 7);
            let c = (app.gen_field)(Scale::Test, 8);
            assert_eq!(a, b, "{}: same seed must reproduce", app.name);
            assert_ne!(a, c, "{}: different seed must differ", app.name);
        }
    }
}
