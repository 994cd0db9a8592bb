//! Convergence criteria and approximation schedules for iterative jobs.

/// When an iterative job is considered converged.
///
/// The loop stops at iteration `t` when the measured mean-absolute
/// residual `r_t` satisfies `r_t <= max(tol_abs, tol_rel * r_first)`,
/// where `r_first` is the first residual the schedule measured, or when
/// `max_iters` iterations have run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceSpec {
    /// Absolute residual tolerance.
    pub tol_abs: f64,
    /// Tolerance relative to the first measured residual.
    pub tol_rel: f64,
    /// Hard cap on iterations (the loop always terminates).
    pub max_iters: u32,
}

impl ConvergenceSpec {
    /// The effective tolerance given the first measured residual.
    pub fn tolerance(&self, first_residual: f64) -> f64 {
        self.tol_abs.max(self.tol_rel * first_residual)
    }
}

/// Residual-trend early-exit predictor.
///
/// Consecutive residual checks yield decay ratios `r_t / r_{t-1}`; an
/// EWMA (smoothing factor `alpha`, via
/// [`paraprox_quality::QualityStream`]) tracks the trend. Once at least
/// `min_checks` ratios have been observed and the trend is contracting,
/// the loop exits early if the extrapolation
/// `r_t * ewma^horizon` already lands under tolerance — predicting that
/// the next `horizon` checks would only confirm convergence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorSpec {
    /// EWMA smoothing factor in `(0, 1]` (weight of the newest ratio).
    pub alpha: f64,
    /// How many future checks the trend is extrapolated over.
    pub horizon: u32,
    /// Minimum observed decay ratios before the predictor may fire.
    pub min_checks: u64,
}

/// A convergence-aware approximation schedule: one rung in the iterative
/// job's tuner ladder. Every schedule runs the exact stencil; the knobs
/// are the loop's own — check cadence, residual sampling and early exit.
#[derive(Debug, Clone, PartialEq)]
pub struct IterSchedule {
    /// Rung label (shown by the tuner and the CLI).
    pub label: String,
    /// Evaluate the residual after every `check_every`-th iteration
    /// (1 = every iteration). Two checks are unconditional regardless of
    /// this stride: after iteration 0 (the baseline the relative
    /// tolerance anchors to, so sparse-check schedules chase the same
    /// target as the exact loop) and after the final iteration (so a
    /// capped run still reports a residual).
    pub check_every: u32,
    /// Residual sample density: check `n >> sample_log2` elements chosen
    /// by a host-side deterministic affine permutation (0 = the full
    /// grid). Clamped so at least one reduction block runs.
    pub sample_log2: u32,
    /// Optional residual-trend early exit.
    pub predictor: Option<PredictorSpec>,
    /// Seed for the sampling permutation. Part of the schedule identity:
    /// fixed `(seed, schedule)` means bit-identical runs at any worker
    /// count.
    pub seed: u64,
}

impl IterSchedule {
    /// The exact schedule: full residual every iteration, no predictor. This is the reference the tuner
    /// measures every other rung against.
    pub fn exact() -> IterSchedule {
        IterSchedule {
            label: "exact".to_string(),
            check_every: 1,
            sample_log2: 0,
            predictor: None,
            seed: 0,
        }
    }

    /// True when the schedule is semantically the exact reference: full
    /// checks every iteration, no predictor.
    pub fn is_exact(&self) -> bool {
        self.check_every <= 1 && self.sample_log2 == 0 && self.predictor.is_none()
    }

    /// True when the residual is evaluated after iteration `iter`.
    pub fn checks_after(&self, iter: u32) -> bool {
        (iter + 1).is_multiple_of(self.check_every.max(1))
    }

    /// The preset schedule ladder for a loop capped at `max_iters`,
    /// exact rung first. These are the rungs `tests/iter_suite.rs` and
    /// the `iter_converge` workload run, and the CLI exposes by name:
    ///
    /// - `exact` — the reference.
    /// - `sampled-check` — exact stencil; residual every 4 iterations on
    ///   a 1/8 sample.
    /// - `trend-exit` — exact stencil, sampled checks, EWMA early exit.
    ///
    /// No preset depends on the cap: `max_iters` is kept so callers that
    /// pass the loop's cap keep compiling.
    pub fn presets(_max_iters: u32) -> Vec<IterSchedule> {
        vec![
            IterSchedule::exact(),
            IterSchedule {
                label: "sampled-check".to_string(),
                check_every: 4,
                sample_log2: 3,
                predictor: None,
                seed: 0x17E4,
            },
            IterSchedule {
                label: "trend-exit".to_string(),
                check_every: 2,
                sample_log2: 2,
                predictor: Some(PredictorSpec {
                    alpha: 0.4,
                    horizon: 6,
                    min_checks: 3,
                }),
                seed: 0x17E4,
            },
        ]
    }

    /// Look up a preset by label.
    pub fn named(name: &str, max_iters: u32) -> Option<IterSchedule> {
        IterSchedule::presets(max_iters)
            .into_iter()
            .find(|s| s.label == name)
    }

    /// A human-readable plan of the schedule over `max_iters` iterations
    /// (one line per fact), for `inspect --schedule`.
    pub fn describe(&self, max_iters: u32) -> String {
        let mut lines = Vec::new();
        lines.push(format!(
            "schedule `{}` over {} iterations:",
            self.label, max_iters
        ));
        lines.push(format!("  iters 0..{max_iters}: stencil exact"));
        let sample = if self.sample_log2 == 0 {
            "the full grid".to_string()
        } else {
            format!("a 1/{} sample", 1u64 << self.sample_log2)
        };
        lines.push(format!(
            "  residual: every {} iteration(s) on {} (seed {:#x})",
            self.check_every.max(1),
            sample,
            self.seed
        ));
        match &self.predictor {
            Some(p) => lines.push(format!(
                "  predictor: EWMA(alpha={}) early exit, horizon {}, after {} checks",
                p.alpha, p.horizon, p.min_checks
            )),
            None => lines.push("  predictor: off".to_string()),
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_exact() {
        let e = IterSchedule::exact();
        assert!(e.is_exact());
        assert!(e.checks_after(0) && e.checks_after(7));
    }

    #[test]
    fn presets_start_exact_and_have_unique_labels() {
        let presets = IterSchedule::presets(40);
        assert!(presets[0].is_exact());
        assert_eq!(presets.len(), 3);
        for (i, a) in presets.iter().enumerate() {
            assert!(!a.is_exact() || i == 0, "only rung 0 may be exact");
            for b in &presets[i + 1..] {
                assert_ne!(a.label, b.label);
            }
        }
        for p in &presets {
            assert_eq!(IterSchedule::named(&p.label, 40).as_ref(), Some(p));
        }
        assert!(IterSchedule::named("no-such", 40).is_none());
    }

    #[test]
    fn describe_states_the_loop_knobs() {
        let s = IterSchedule::named("trend-exit", 8).unwrap();
        // check_every = 2: checks after odd iterations.
        assert!(!s.checks_after(0));
        assert!(s.checks_after(1));
        assert!(!s.checks_after(2));
        let d = s.describe(8);
        assert!(d.contains("iters 0..8: stencil exact"), "{d}");
        assert!(d.contains("residual: every 2"), "{d}");
        assert!(d.contains("predictor: EWMA"), "{d}");
        let e = IterSchedule::exact().describe(4);
        assert!(e.contains("iters 0..4: stencil exact"), "{e}");
        assert!(e.contains("the full grid"), "{e}");
        assert!(e.contains("predictor: off"), "{e}");
    }

    #[test]
    fn tolerance_takes_the_larger_bound() {
        let spec = ConvergenceSpec {
            tol_abs: 1e-6,
            tol_rel: 0.05,
            max_iters: 10,
        };
        assert!((spec.tolerance(1.0) - 0.05).abs() < 1e-12);
        assert!((spec.tolerance(0.0) - 1e-6).abs() < 1e-18);
    }
}
