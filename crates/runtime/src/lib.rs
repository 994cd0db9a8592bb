//! The tuning runtime: choose and monitor approximate kernels.
//!
//! Paraprox generates approximate kernels and tuning knobs; a Green/SAGE
//! style runtime (paper §2, Figure 2) then:
//!
//! 1. **profiles** every candidate on training inputs,
//! 2. **selects** the fastest candidate whose measured output quality meets
//!    the user's target output quality (TOQ),
//! 3. in deployment, **checks** quality every N-th served request (the
//!    paper cites 40–50 as keeping overhead under 5%, §5) and **backs
//!    off** to a less aggressive candidate — ultimately exact execution —
//!    whenever the TOQ is violated; with re-promotion enabled
//!    ([`DeploymentConfig::promote_after`]) a configurable streak of clean
//!    checks climbs back up the ladder, so a long-running deployment
//!    recovers once a quality drift passes.
//!
//! The runtime is deliberately independent of the simulator: anything that
//! implements [`Approximable`] can be tuned, which also makes the policy
//! directly testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

pub use paraprox_quality::Toq;

/// Error type for runtime operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError(pub String);

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.0)
    }
}

impl Error for RuntimeError {}

/// The observable result of one execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Flattened output values.
    pub output: Vec<f64>,
    /// Simulated cost in device cycles.
    pub cycles: u64,
}

/// One execution a batched invocation needs: which rung to run (`None` =
/// exact) on the input derived from `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRun {
    /// Variant to run (`None` = exact execution).
    pub variant: Option<usize>,
    /// Input seed.
    pub seed: u64,
}

/// Host-side executor diagnostics an [`Approximable`] may expose:
/// cumulative bytecode ops dispatched, superinstruction fusions hit, and
/// approximate-memory traffic (zero for backends that do not track them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineDiagnostics {
    /// Bytecode operations dispatched across all runs so far.
    pub ops_dispatched: u64,
    /// Fused superinstructions dispatched across all runs so far.
    pub fusions_hit: u64,
    /// Lane-loads served from approximate memory across all runs so far.
    pub approx_loads: u64,
    /// Bit flips injected into approximate loads across all runs so far.
    pub bit_flips: u64,
}

/// An application with one exact implementation and a set of approximate
/// variants, runnable on seeded inputs.
pub trait Approximable {
    /// Number of approximate variants.
    fn variant_count(&self) -> usize;

    /// Human-readable label of variant `index`.
    ///
    /// # Panics
    ///
    /// May panic when `index` is out of range.
    fn variant_label(&self, index: usize) -> String;

    /// Run the exact implementation on the input derived from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError>;

    /// Run approximate variant `index` on the input derived from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates execution failures.
    fn run_variant(&mut self, index: usize, seed: u64) -> Result<RunOutcome, RuntimeError>;

    /// Output quality (%) of `approx` relative to `exact`.
    fn quality(&self, exact: &[f64], approx: &[f64]) -> f64;

    /// Execute a batch of runs and return their outcomes in order.
    ///
    /// The default loops over [`Approximable::run_variant`] /
    /// [`Approximable::run_exact`] in batch order — the *same call order*
    /// a sequence of [`Deployment::invoke`] calls would produce, so even
    /// order-sensitive (stateful) implementations behave identically
    /// under batched and sequential invocation. Backends whose runs are
    /// history-independent (e.g. a device app that starts every request
    /// cold) may override this with a fused execution path; the override
    /// must keep every outcome bit-identical to the default.
    ///
    /// # Errors
    ///
    /// Propagates execution failures; on error the whole batch is
    /// abandoned.
    fn run_batch(&mut self, runs: &[BatchRun]) -> Result<Vec<RunOutcome>, RuntimeError> {
        runs.iter()
            .map(|r| match r.variant {
                Some(v) => self.run_variant(v, r.seed),
                None => self.run_exact(r.seed),
            })
            .collect()
    }

    /// Cumulative executor diagnostics (see [`EngineDiagnostics`]);
    /// backends without instrumentation return the zero default.
    fn engine_diagnostics(&self) -> EngineDiagnostics {
        EngineDiagnostics::default()
    }
}

/// Static quality prediction for one rung, produced by the compiler's
/// error-propagation analysis (`paraprox-analysis::errorprop`) before any
/// calibration launch runs.
///
/// Two numbers matter and they play different roles:
///
/// - `quality_floor` is the *sound* certificate: output quality can never
///   fall below it (it is `100·(1 − error_bound)` for the app's metric).
///   Empirical error must never exceed `error_bound` —
///   `tests/errorprop_suite.rs` asserts exactly that across every app × rung.
/// - `predicted_quality` is the *heuristic* point estimate used for
///   calibration avoidance: pruning rungs from the tuning pass and
///   ordering the back-off ladder. It is allowed to be wrong (a pruned
///   rung is merely not measured — never served unsafely, because only
///   measured rungs enter the ladder).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticQuality {
    /// Rung label (matches [`Approximable::variant_label`]).
    pub label: String,
    /// Sound upper bound on metric-space output error (`+∞` = unbounded,
    /// e.g. for unbounded metrics or refused rungs).
    pub error_bound: f64,
    /// Sound lower bound on output quality (%), `100·(1 − error_bound)`
    /// clamped to `[0, 100]`; 0 when the bound is unbounded.
    pub quality_floor: f64,
    /// Heuristic point estimate of output quality (%), used for pruning
    /// and ladder ordering.
    pub predicted_quality: f64,
    /// Whether `predicted_quality` is an *affirmative* claim (backed by a
    /// finite propagated bound or an explicit error-rate model). When the
    /// analysis refused the rung or widened its bound to `+∞`, the
    /// prediction carries no pruning weight: the rung must be measured
    /// dynamically, exactly as without a static table.
    pub predictive: bool,
    /// Whether the analysis *refused* this rung: injected error reached a
    /// Critical sink (address, branch, loop bound, Critical buffer) and
    /// no bound exists.
    pub refused: bool,
    /// Refusal reasons (rendered diagnostics), empty unless `refused`.
    pub refusals: Vec<String>,
}

impl StaticQuality {
    /// Whether this rung may skip calibration-free pruning checks: `true`
    /// unless the table makes an affirmative finite prediction below
    /// `toq`. A refusal or a precision loss (`predictive == false`) means
    /// "no claim" — the rung is measured dynamically, never pruned, so an
    /// imprecise analysis can only cost launches it would have cost
    /// anyway.
    pub fn predicts_met(&self, toq: Toq) -> bool {
        !self.predictive || self.predicted_quality >= toq.percent()
    }
}

/// Profiling results for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateProfile {
    /// Variant index.
    pub index: usize,
    /// Variant label.
    pub label: String,
    /// Mean output quality (%) over the training seeds.
    pub mean_quality: f64,
    /// Worst output quality (%) over the training seeds.
    pub min_quality: f64,
    /// Mean speedup over exact execution (cycles ratio).
    pub speedup: f64,
    /// Whether the candidate met the TOQ on every training input.
    pub meets_toq: bool,
    /// Whether the candidate was pruned by the static error-propagation
    /// table and never measured (its qualities/speedup are zeroed).
    pub pruned: bool,
}

/// The outcome of a tuning pass.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// Per-candidate profiles, in variant order.
    pub profiles: Vec<CandidateProfile>,
    /// The selected variant (fastest meeting the TOQ), or `None` when no
    /// candidate qualifies and exact execution should be used.
    pub chosen: Option<usize>,
    /// Mean exact cycles over the training seeds (the speedup baseline).
    pub exact_cycles: f64,
    /// Static per-rung quality table, when the tune ran with one (empty
    /// otherwise). Indexed like `profiles` by variant index.
    pub statics: Vec<StaticQuality>,
    /// Calibration launches skipped thanks to static pruning (pruned
    /// rungs × training seeds).
    pub calibration_launches_saved: u64,
}

impl TuneReport {
    /// Speedup of the chosen candidate (1.0 when falling back to exact).
    pub fn chosen_speedup(&self) -> f64 {
        self.chosen
            .and_then(|i| self.profiles.iter().find(|p| p.index == i))
            .map(|p| p.speedup)
            .unwrap_or(1.0)
    }

    /// Quality of the chosen candidate (100.0 when falling back to exact).
    pub fn chosen_quality(&self) -> f64 {
        self.chosen
            .and_then(|i| self.profiles.iter().find(|p| p.index == i))
            .map(|p| p.mean_quality)
            .unwrap_or(100.0)
    }

    /// The back-off ladder used by [`Deployment`]: qualifying candidates
    /// (meeting the TOQ *and* faster than exact) ordered most-aggressive
    /// (fastest) first, terminated by the exact kernel.
    ///
    /// The terminal [`Rung::Exact`] is always present, so the ladder is
    /// never empty: with no candidates at all, or with every candidate
    /// below the TOQ, the ladder is exactly `[Rung::Exact]` and a
    /// deployment built from it serves exact execution from the first
    /// request.
    pub fn backoff_ladder(&self) -> Vec<Rung> {
        let mut qualifying: Vec<&CandidateProfile> = self
            .profiles
            .iter()
            .filter(|p| p.meets_toq && p.speedup > 1.0)
            .collect();
        qualifying.sort_by(|a, b| {
            b.speedup
                .partial_cmp(&a.speedup)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut ladder: Vec<Rung> = qualifying.iter().map(|p| Rung::Variant(p.index)).collect();
        // With a static quality table, order the *fallback* rungs (after
        // the chosen fastest) by predicted quality, best first: backing
        // off then lands on the rung most likely to repair quality rather
        // than merely the next-fastest one.
        if !self.statics.is_empty() && ladder.len() > 2 {
            let predicted = |r: &Rung| match r {
                Rung::Variant(i) => self
                    .statics
                    .get(*i)
                    .map(|s| if s.refused { 0.0 } else { s.predicted_quality })
                    .unwrap_or(0.0),
                Rung::Exact => 100.0,
            };
            ladder[1..].sort_by(|a, b| {
                predicted(b)
                    .partial_cmp(&predicted(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        ladder.push(Rung::Exact);
        ladder
    }
}

/// One rung of the back-off ladder: an approximate variant, or the exact
/// kernel (always the terminal rung).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Approximate variant by index.
    Variant(usize),
    /// Exact execution — the ladder's terminal rung.
    Exact,
}

impl Rung {
    /// The variant index, or `None` for exact execution.
    pub fn variant(self) -> Option<usize> {
        match self {
            Rung::Variant(i) => Some(i),
            Rung::Exact => None,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rung::Variant(i) => write!(f, "v{i}"),
            Rung::Exact => write!(f, "exact"),
        }
    }
}

/// The offline/training-phase tuner.
#[derive(Debug, Clone)]
pub struct Tuner {
    /// Target output quality.
    pub toq: Toq,
    /// Seeds of the training inputs (the paper uses 10 training runs).
    pub training_seeds: Vec<u64>,
}

impl Tuner {
    /// A tuner with the paper's defaults: TOQ = 90%, 10 training inputs.
    pub fn paper_default() -> Tuner {
        Tuner {
            toq: Toq::paper_default(),
            training_seeds: (0..10).collect(),
        }
    }

    /// Profile every variant and select the fastest one meeting the TOQ.
    ///
    /// # Errors
    ///
    /// Propagates execution failures from the application. A variant that
    /// fails to execute is treated as non-qualifying rather than aborting
    /// the tune.
    pub fn tune(&self, app: &mut dyn Approximable) -> Result<TuneReport, RuntimeError> {
        self.tune_with_static(app, &[])
    }

    /// [`Tuner::tune`] with a static per-rung quality table: rungs whose
    /// static prediction already fails the TOQ — or that the analysis
    /// refused outright — are *pruned*: their calibration launches are
    /// skipped entirely and their profiles zeroed with
    /// [`CandidateProfile::pruned`] set. The skipped launches are counted
    /// in [`TuneReport::calibration_launches_saved`].
    ///
    /// Pruning is a calibration-avoidance heuristic, not a soundness
    /// gate: a mispredicted prune costs speedup (the rung is just never
    /// measured), never quality — unmeasured rungs cannot enter the
    /// back-off ladder.
    ///
    /// # Errors
    ///
    /// Same as [`Tuner::tune`].
    pub fn tune_with_static(
        &self,
        app: &mut dyn Approximable,
        statics: &[StaticQuality],
    ) -> Result<TuneReport, RuntimeError> {
        if self.training_seeds.is_empty() {
            return Err(RuntimeError("no training seeds".to_string()));
        }
        let mut exact_runs = Vec::with_capacity(self.training_seeds.len());
        for &seed in &self.training_seeds {
            exact_runs.push(app.run_exact(seed)?);
        }
        let exact_cycles =
            exact_runs.iter().map(|r| r.cycles as f64).sum::<f64>() / exact_runs.len() as f64;

        let mut calibration_launches_saved = 0u64;
        let mut profiles = Vec::with_capacity(app.variant_count());
        for index in 0..app.variant_count() {
            let label = app.variant_label(index);
            if let Some(sq) = statics.get(index) {
                if !sq.predicts_met(self.toq) {
                    calibration_launches_saved += self.training_seeds.len() as u64;
                    profiles.push(CandidateProfile {
                        index,
                        label,
                        mean_quality: 0.0,
                        min_quality: 0.0,
                        speedup: 0.0,
                        meets_toq: false,
                        pruned: true,
                    });
                    continue;
                }
            }
            let mut qualities = Vec::new();
            let mut cycles = Vec::new();
            let mut failed = false;
            for (&seed, exact) in self.training_seeds.iter().zip(&exact_runs) {
                match app.run_variant(index, seed) {
                    Ok(run) => {
                        qualities.push(app.quality(&exact.output, &run.output));
                        cycles.push(run.cycles as f64);
                    }
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            let profile = if failed || qualities.is_empty() {
                CandidateProfile {
                    index,
                    label,
                    mean_quality: 0.0,
                    min_quality: 0.0,
                    speedup: 0.0,
                    meets_toq: false,
                    pruned: false,
                }
            } else {
                let mean_quality = qualities.iter().sum::<f64>() / qualities.len() as f64;
                let min_quality = qualities.iter().cloned().fold(f64::INFINITY, f64::min);
                let mean_cycles = cycles.iter().sum::<f64>() / cycles.len() as f64;
                let speedup = exact_cycles / mean_cycles.max(1.0);
                CandidateProfile {
                    index,
                    label,
                    mean_quality,
                    min_quality,
                    speedup,
                    meets_toq: qualities.iter().all(|&q| self.toq.is_met(q)),
                    pruned: false,
                }
            };
            profiles.push(profile);
        }
        let chosen = profiles
            .iter()
            .filter(|p| p.meets_toq && p.speedup > 1.0)
            .max_by(|a, b| {
                a.speedup
                    .partial_cmp(&b.speedup)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|p| p.index);
        Ok(TuneReport {
            profiles,
            chosen,
            exact_cycles,
            statics: statics.to_vec(),
            calibration_launches_saved,
        })
    }
}

/// Result of one deployed invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvokeResult {
    /// The produced output.
    pub output: Vec<f64>,
    /// Cycles spent on the approximate (or exact) execution.
    pub cycles: u64,
    /// The variant used (`None` = exact).
    pub variant: Option<usize>,
    /// Measured quality when this invocation was a calibration check (or a
    /// shadow probe of the promotion candidate while serving exact).
    pub checked_quality: Option<f64>,
    /// Whether this invocation triggered a back-off.
    pub backed_off: bool,
    /// Whether this invocation triggered a re-promotion up the ladder.
    pub promoted: bool,
}

/// Deployed-mode policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentConfig {
    /// Target output quality enforced by the watchdog.
    pub toq: Toq,
    /// Calibration cadence: every `check_every`-th served request is
    /// checked against exact execution. The paper's §5 cites checks every
    /// 40–50 invocations costing under 5%. Clamped to at least 1.
    pub check_every: u64,
    /// Number of *consecutive* clean checks at the current rung required
    /// before re-promoting one rung up the ladder (hysteresis so variants
    /// do not flap). `0` disables re-promotion: the deployment only ever
    /// walks down, the pre-serving behaviour.
    pub promote_after: u64,
}

impl DeploymentConfig {
    /// Back-off-only policy (no re-promotion), the paper's §5 loop.
    pub fn backoff_only(toq: Toq, check_every: u64) -> DeploymentConfig {
        DeploymentConfig {
            toq,
            check_every,
            promote_after: 0,
        }
    }
}

/// Deployed-mode execution: run the chosen kernel, periodically verify
/// quality, back off on TOQ violations, and (when configured) re-promote
/// after a clean streak.
#[derive(Debug, Clone)]
pub struct Deployment {
    config: DeploymentConfig,
    ladder: Vec<Rung>,
    /// The ladder index this deployment started at (non-zero when the
    /// static error-propagation table predicted the leading rungs would
    /// miss the TOQ for this policy's threshold).
    seeded_position: usize,
    state: WatchdogState,
}

/// Everything serving a request can change.
#[derive(Debug, Clone, Default)]
struct WatchdogState {
    /// Index into the ladder; the last rung is always [`Rung::Exact`].
    position: usize,
    invocations: u64,
    /// Served requests since the last calibration check.
    since_check: u64,
    checks: u64,
    violations: u64,
    backoffs: u64,
    promotions: u64,
    clean_streak: u64,
}

impl Deployment {
    /// Create a back-off-only deployment from a tune report (no
    /// re-promotion; see [`Deployment::with_config`]).
    ///
    /// `check_every` controls calibration frequency; the paper's §5 cites
    /// checks every 40–50 invocations costing under 5%.
    pub fn new(report: &TuneReport, toq: Toq, check_every: u64) -> Deployment {
        Deployment::with_config(report, DeploymentConfig::backoff_only(toq, check_every))
    }

    /// Create a deployment with an explicit policy, including re-promotion
    /// hysteresis for long-running (serving) use.
    ///
    /// When the report carries a static quality table, the starting rung
    /// is *seeded*: leading ladder rungs whose static prediction misses
    /// this policy's TOQ are skipped, so the first served invocations do
    /// not have to discover (and pay for) a doomed rung dynamically.
    pub fn with_config(report: &TuneReport, config: DeploymentConfig) -> Deployment {
        let ladder = report.backoff_ladder();
        let seeded_position = if report.statics.is_empty() {
            0
        } else {
            ladder
                .iter()
                .position(|r| match r {
                    Rung::Exact => true,
                    Rung::Variant(v) => report
                        .statics
                        .get(*v)
                        .is_none_or(|s| s.predicts_met(config.toq)),
                })
                .unwrap_or(ladder.len() - 1)
        };
        Deployment {
            config: DeploymentConfig {
                check_every: config.check_every.max(1),
                ..config
            },
            ladder,
            seeded_position,
            state: WatchdogState {
                position: seeded_position,
                ..WatchdogState::default()
            },
        }
    }

    /// The variant the next invocation will use (`None` = exact).
    pub fn current_variant(&self) -> Option<usize> {
        self.ladder[self.state.position].variant()
    }

    /// The full back-off ladder (terminal rung is always [`Rung::Exact`]).
    pub fn ladder(&self) -> &[Rung] {
        &self.ladder
    }

    /// Current position in the ladder (0 = most aggressive).
    pub fn position(&self) -> usize {
        self.state.position
    }

    /// The ladder index this deployment started at. Zero unless the tune
    /// report carried a static quality table that disqualified the
    /// leading rungs for this policy's TOQ.
    pub fn seeded_position(&self) -> usize {
        self.seeded_position
    }

    /// The policy this deployment runs under.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// Number of served invocations so far. Calibration re-executions
    /// (the exact run of a check, the variant run of a shadow probe) are
    /// *not* counted: they are overhead, not served requests.
    pub fn invocations(&self) -> u64 {
        self.state.invocations
    }

    /// Number of calibration checks (including shadow probes) performed.
    pub fn checks(&self) -> u64 {
        self.state.checks
    }

    /// Number of checks that violated the TOQ.
    pub fn violations(&self) -> u64 {
        self.state.violations
    }

    /// Number of back-offs down the ladder.
    pub fn backoffs(&self) -> u64 {
        self.state.backoffs
    }

    /// Number of re-promotions up the ladder.
    pub fn promotions(&self) -> u64 {
        self.state.promotions
    }

    /// Consecutive clean checks at the current rung.
    pub fn clean_streak(&self) -> u64 {
        self.state.clean_streak
    }

    fn promotion_enabled(&self) -> bool {
        self.config.promote_after > 0
    }

    /// Register a clean check; promote when the streak reaches the
    /// configured hysteresis threshold. Returns whether a promotion fired.
    fn record_clean(&mut self) -> bool {
        self.state.clean_streak += 1;
        if self.promotion_enabled()
            && self.state.position > 0
            && self.state.clean_streak >= self.config.promote_after
        {
            self.state.position -= 1;
            self.state.promotions += 1;
            self.state.clean_streak = 0;
            return true;
        }
        false
    }

    /// Serve one request on the input derived from `seed`: a chunk of one
    /// through [`Deployment::invoke_chunk`]. A chunk ends at the next
    /// calibration check at the latest, so a chunk of one always serves
    /// its seed.
    ///
    /// # Errors
    ///
    /// Propagates execution failures; a failed invocation leaves the
    /// deployment exactly as it was.
    pub fn invoke(
        &mut self,
        app: &mut dyn Approximable,
        seed: u64,
    ) -> Result<InvokeResult, RuntimeError> {
        let mut results = self.invoke_chunk(app, &[seed])?;
        Ok(results.pop().expect("a chunk of one serves its seed"))
    }

    /// Serve the next rung-stable chunk of `seeds` — the one call that
    /// serves requests, and the only place the TOQ policy is applied.
    ///
    /// The rung can only change at a calibration check, so the requests
    /// up to the next check run at the current rung as one
    /// [`Approximable::run_batch`]. Returns one result per served
    /// request: `seeds[..results.len()]` were served, the rest lie past
    /// the check and wait for the next call. The decision trace is
    /// therefore the same however a stream of seeds is cut into calls.
    ///
    /// Every `check_every`-th *served* request is a calibration check,
    /// run in the same batch on the chunk's last seed. While serving an
    /// approximate variant, the check re-runs that input exactly and the
    /// measured quality drives back-off (on violation) or the clean
    /// streak (toward re-promotion). While serving exact with a
    /// non-trivial ladder and re-promotion enabled, the check instead
    /// *shadow-probes* the next-better rung: the candidate runs on the
    /// same input (the exact output is still the one served) and its
    /// quality feeds the same clean-streak hysteresis.
    ///
    /// # Errors
    ///
    /// Propagates execution failures, and fails when `run_batch` returns
    /// a different number of outcomes than runs. Nothing of a failed
    /// chunk is committed, so the deployment is exactly as it was.
    pub fn invoke_chunk(
        &mut self,
        app: &mut dyn Approximable,
        seeds: &[u64],
    ) -> Result<Vec<InvokeResult>, RuntimeError> {
        let until_check = self.config.check_every - self.state.since_check;
        let chunk = &seeds[..seeds
            .len()
            .min(usize::try_from(until_check).unwrap_or(usize::MAX))];
        let Some(&last) = chunk.last() else {
            return Ok(Vec::new());
        };
        let at_check = chunk.len() as u64 == until_check;
        let variant = self.current_variant();
        let mut runs: Vec<BatchRun> = chunk
            .iter()
            .map(|&seed| BatchRun { variant, seed })
            .collect();
        let check = match variant {
            _ if !at_check => None,
            Some(_) => Some(BatchRun {
                variant: None,
                seed: last,
            }),
            None => self.probe_candidate().map(|candidate| BatchRun {
                variant: Some(candidate),
                seed: last,
            }),
        };
        runs.extend(check);
        let mut outcomes = app.run_batch(&runs)?;
        if outcomes.len() != runs.len() {
            return Err(RuntimeError(format!(
                "run_batch returned {} outcomes for {} runs",
                outcomes.len(),
                runs.len()
            )));
        }
        let rerun = check.map(|_| outcomes.pop().expect("outcome count checked above"));
        let mut results: Vec<InvokeResult> = outcomes
            .into_iter()
            .map(|run| InvokeResult {
                output: run.output,
                cycles: run.cycles,
                variant,
                checked_quality: None,
                backed_off: false,
                promoted: false,
            })
            .collect();
        self.state.invocations += chunk.len() as u64;
        self.state.since_check += chunk.len() as u64;
        if at_check {
            self.state.since_check = 0;
        }
        if let Some(rerun) = rerun {
            let served = results.last_mut().expect("a check ends a non-empty chunk");
            self.state.checks += 1;
            // A check measures the served variant against its exact
            // re-run; a shadow probe measures the candidate against the
            // exact output that was served.
            let q = match variant {
                Some(_) => app.quality(&rerun.output, &served.output),
                None => app.quality(&served.output, &rerun.output),
            };
            served.checked_quality = Some(q);
            if self.config.toq.is_met(q) {
                served.promoted = self.record_clean();
            } else {
                self.state.violations += 1;
                self.state.clean_streak = 0;
                if variant.is_some() {
                    // The terminal rung is Exact, so this never walks
                    // past the end: a served variant implies
                    // position < ladder.len() - 1.
                    self.state.position += 1;
                    self.state.backoffs += 1;
                    served.backed_off = true;
                }
            }
        }
        Ok(results)
    }

    /// The rung a check shadow-probes while exact is served: the
    /// next-better one, when re-promotion is enabled and there is one.
    fn probe_candidate(&self) -> Option<usize> {
        if !self.promotion_enabled() || self.state.position == 0 {
            return None;
        }
        self.ladder[self.state.position - 1].variant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mock application whose variants have configurable (quality,
    /// cycles); quality can degrade over time (run-count based) or over a
    /// seed window (for deterministic drift-and-recovery scenarios) to
    /// exercise the watchdog.
    struct Mock {
        /// (quality, cycles) per variant.
        variants: Vec<(f64, u64)>,
        exact_cycles: u64,
        /// Quality drop applied after `drift_after` total runs.
        drift_after: Option<u64>,
        /// Quality drop applied to seeds inside this window.
        drift_seeds: Option<std::ops::Range<u64>>,
        /// Seed on which every variant run fails.
        fail_variant_seed: Option<u64>,
        /// Seed on which the exact run fails.
        fail_exact_seed: Option<u64>,
        runs: u64,
    }

    impl Mock {
        fn new(variants: Vec<(f64, u64)>) -> Mock {
            Mock {
                variants,
                exact_cycles: 1000,
                drift_after: None,
                drift_seeds: None,
                fail_variant_seed: None,
                fail_exact_seed: None,
                runs: 0,
            }
        }
    }

    impl Approximable for Mock {
        fn variant_count(&self) -> usize {
            self.variants.len()
        }
        fn variant_label(&self, index: usize) -> String {
            format!("variant{index}")
        }
        fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError> {
            self.runs += 1;
            if self.fail_exact_seed == Some(seed) {
                return Err(RuntimeError(format!("exact run failed on seed {seed}")));
            }
            Ok(RunOutcome {
                output: vec![100.0],
                cycles: self.exact_cycles,
            })
        }
        fn run_variant(&mut self, index: usize, seed: u64) -> Result<RunOutcome, RuntimeError> {
            self.runs += 1;
            if self.fail_variant_seed == Some(seed) {
                return Err(RuntimeError(format!("variant run failed on seed {seed}")));
            }
            let (quality, cycles) = self.variants[index];
            let mut effective = quality;
            if matches!(self.drift_after, Some(t) if self.runs > t) {
                effective -= 20.0;
            }
            if matches!(&self.drift_seeds, Some(w) if w.contains(&seed)) {
                effective -= 20.0;
            }
            // Encode quality as the output error: quality() below recovers it.
            Ok(RunOutcome {
                output: vec![effective],
                cycles,
            })
        }
        fn quality(&self, _exact: &[f64], approx: &[f64]) -> f64 {
            approx[0]
        }
    }

    #[test]
    fn tuner_picks_fastest_qualifying_candidate() {
        // v0: high quality, modest speedup; v1: qualifying and faster;
        // v2: fastest but below TOQ.
        let mut app = Mock::new(vec![(99.0, 800), (95.0, 400), (70.0, 100)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert_eq!(report.chosen, Some(1));
        assert!(report.profiles[2].speedup > report.profiles[1].speedup);
        assert!(!report.profiles[2].meets_toq);
        assert!((report.chosen_speedup() - 2.5).abs() < 1e-9);
        assert_eq!(report.chosen_quality(), 95.0);
    }

    #[test]
    fn tuner_falls_back_to_exact_when_nothing_qualifies() {
        let mut app = Mock::new(vec![(50.0, 100), (60.0, 200)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert_eq!(report.chosen, None);
        assert_eq!(report.chosen_speedup(), 1.0);
        assert_eq!(report.chosen_quality(), 100.0);
    }

    #[test]
    fn slower_than_exact_variants_are_not_chosen() {
        let mut app = Mock::new(vec![(99.0, 2000)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert_eq!(report.chosen, None);
    }

    #[test]
    fn backoff_ladder_orders_by_speedup_and_terminates_in_exact() {
        let mut app = Mock::new(vec![(95.0, 800), (95.0, 200), (95.0, 400)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert_eq!(
            report.backoff_ladder(),
            vec![
                Rung::Variant(1),
                Rung::Variant(2),
                Rung::Variant(0),
                Rung::Exact
            ]
        );
    }

    fn sq(predicted: f64, refused: bool) -> StaticQuality {
        StaticQuality {
            label: String::new(),
            error_bound: if refused { f64::INFINITY } else { 0.0 },
            quality_floor: if refused { 0.0 } else { predicted },
            predicted_quality: if refused { 0.0 } else { predicted },
            predictive: !refused,
            refused,
            refusals: if refused {
                vec!["error reaches Critical sink".to_string()]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn static_table_prunes_rungs_and_counts_saved_launches() {
        // v2's affirmative prediction is below the 90% TOQ: it may not
        // consume calibration launches. v1 and v3 make no claim (refusal
        // / widened bound) — they are measured like any other rung.
        let mut app = Mock::new(vec![(95.0, 200), (95.0, 100), (70.0, 100), (95.0, 400)]);
        let no_claim = StaticQuality {
            predictive: false,
            ..sq(0.0, false)
        };
        let statics = [sq(95.0, false), sq(99.0, true), sq(70.0, false), no_claim];
        let tuner = Tuner::paper_default();
        let report = tuner.tune_with_static(&mut app, &statics).unwrap();
        assert_eq!(report.chosen, Some(1));
        assert!(!report.profiles[0].pruned);
        assert!(!report.profiles[1].pruned, "refusal is not a prune");
        assert!(report.profiles[2].pruned && !report.profiles[2].meets_toq);
        assert!(!report.profiles[3].pruned, "no-claim rungs are measured");
        assert_eq!(
            report.calibration_launches_saved,
            tuner.training_seeds.len() as u64
        );
        // Exact runs plus three measured variants.
        assert_eq!(app.runs, 4 * tuner.training_seeds.len() as u64);
        // The pruned rung never reaches the ladder.
        assert!(!report.backoff_ladder().contains(&Rung::Variant(2)));
    }

    #[test]
    fn tune_without_statics_prunes_nothing() {
        let mut app = Mock::new(vec![(95.0, 200), (70.0, 100)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert!(report.profiles.iter().all(|p| !p.pruned));
        assert_eq!(report.calibration_launches_saved, 0);
        assert!(report.statics.is_empty());
    }

    #[test]
    fn static_table_orders_fallback_rungs_by_predicted_quality() {
        // Speedup order would be v1, v2, v0; with a static table the
        // fallback rungs (after the chosen fastest) reorder by predicted
        // quality so backing off lands on the best repair first.
        let mut app = Mock::new(vec![(95.0, 800), (95.0, 200), (95.0, 400)]);
        let statics = [sq(99.0, false), sq(93.0, false), sq(91.0, false)];
        let report = Tuner::paper_default()
            .tune_with_static(&mut app, &statics)
            .unwrap();
        assert_eq!(
            report.backoff_ladder(),
            vec![
                Rung::Variant(1),
                Rung::Variant(0),
                Rung::Variant(2),
                Rung::Exact
            ]
        );
    }

    #[test]
    fn deployment_seeds_starting_rung_from_static_table() {
        let mut app = Mock::new(vec![(95.0, 800), (95.0, 200), (95.0, 400)]);
        // Without statics the deployment starts at position 0.
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        let deploy = Deployment::new(&report, Toq::paper_default(), 10);
        assert_eq!(deploy.seeded_position(), 0);

        // With a static table predicting the chosen rung misses a
        // *stricter* deployment TOQ, the start seeds past it.
        let statics = [sq(99.0, false), sq(93.0, false), sq(98.0, false)];
        let report = Tuner::paper_default()
            .tune_with_static(&mut app, &statics)
            .unwrap();
        // Ladder: v1 (fastest), then v2, v0 by predicted quality... but a
        // 97% TOQ deployment skips rungs predicted below 97.
        let deploy = Deployment::new(&report, Toq::new(97.0).unwrap(), 10);
        let ladder = deploy.ladder().to_vec();
        assert_eq!(ladder[0], Rung::Variant(1));
        assert!(deploy.seeded_position() > 0);
        let seeded = ladder[deploy.seeded_position()];
        assert!(matches!(seeded, Rung::Variant(0) | Rung::Variant(2)));
        assert_eq!(deploy.position(), deploy.seeded_position());
    }

    #[test]
    fn ladder_is_exact_only_for_empty_candidate_set() {
        let mut app = Mock::new(vec![]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert_eq!(report.backoff_ladder(), vec![Rung::Exact]);
        // A deployment over the trivial ladder serves exact immediately and
        // never checks.
        let mut deploy = Deployment::new(&report, Toq::paper_default(), 1);
        assert_eq!(deploy.current_variant(), None);
        for seed in 0..5 {
            let r = deploy.invoke(&mut app, seed).unwrap();
            assert_eq!(r.variant, None);
            assert!(r.checked_quality.is_none());
            assert!(!r.backed_off && !r.promoted);
        }
        assert_eq!(deploy.checks(), 0);
    }

    #[test]
    fn ladder_is_exact_only_when_every_candidate_is_below_toq() {
        let mut app = Mock::new(vec![(50.0, 100), (60.0, 200)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert_eq!(report.backoff_ladder(), vec![Rung::Exact]);
        let mut deploy = Deployment::new(&report, Toq::paper_default(), 1);
        assert_eq!(deploy.current_variant(), None);
        assert!(deploy
            .invoke(&mut app, 0)
            .unwrap()
            .checked_quality
            .is_none());
    }

    #[test]
    fn ladder_excludes_qualifying_but_slower_than_exact_variants() {
        // 99% quality but 2x the exact cycles: meets the TOQ yet must not
        // appear on the ladder — backing off to it would serve a slower
        // *and* approximate kernel.
        let mut app = Mock::new(vec![(99.0, 2000), (95.0, 200)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert_eq!(report.backoff_ladder(), vec![Rung::Variant(1), Rung::Exact]);
    }

    #[test]
    fn rung_accessors_and_display() {
        assert_eq!(Rung::Variant(3).variant(), Some(3));
        assert_eq!(Rung::Exact.variant(), None);
        assert_eq!(Rung::Variant(3).to_string(), "v3");
        assert_eq!(Rung::Exact.to_string(), "exact");
    }

    #[test]
    fn deployment_checks_periodically_and_backs_off_on_drift() {
        let mut app = Mock::new(vec![(95.0, 200), (96.0, 500)]);
        app.drift_after = Some(30);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        assert_eq!(report.chosen, Some(0));
        let mut deploy = Deployment::new(&report, Toq::paper_default(), 5);
        assert_eq!(deploy.current_variant(), Some(0));

        let mut backed_off_at = None;
        for i in 0..40 {
            let result = deploy.invoke(&mut app, i).unwrap();
            if result.backed_off {
                backed_off_at = Some(i);
                break;
            }
        }
        // Drift starts after 30 total runs; the next periodic check (every
        // 5th invocation) must catch it and back off to variant 1.
        assert!(backed_off_at.is_some(), "watchdog must catch the drift");
        assert_eq!(deploy.current_variant(), Some(1));
    }

    #[test]
    fn deployment_exhausts_ladder_to_exact() {
        let mut app = Mock::new(vec![(95.0, 200)]);
        app.drift_after = Some(0); // always drifted: checks always fail
        let report = {
            // Tune on a pristine copy so the variant qualifies.
            let mut clean = Mock::new(vec![(95.0, 200)]);
            Tuner::paper_default().tune(&mut clean).unwrap()
        };
        let mut deploy = Deployment::new(&report, Toq::paper_default(), 1);
        let first = deploy.invoke(&mut app, 0).unwrap();
        assert_eq!(first.variant, Some(0));
        assert!(first.backed_off);
        let second = deploy.invoke(&mut app, 1).unwrap();
        assert_eq!(second.variant, None, "ladder exhausted -> exact");
        // Exact runs are never "checked".
        assert!(second.checked_quality.is_none());
    }

    #[test]
    fn check_cadence_respected() {
        let mut app = Mock::new(vec![(95.0, 200)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        let mut deploy = Deployment::new(&report, Toq::paper_default(), 10);
        let mut checks = 0;
        for i in 0..50 {
            if deploy
                .invoke(&mut app, i)
                .unwrap()
                .checked_quality
                .is_some()
            {
                checks += 1;
            }
        }
        assert_eq!(checks, 5);
    }

    #[test]
    fn check_cadence_counts_served_requests_not_calibration_reruns() {
        // Regression: "check every Nth" must mean every Nth *served*
        // request. The exact re-execution a check performs is calibration
        // overhead, not a served request, and must not advance the cadence
        // counter or the invocation count.
        let mut app = Mock::new(vec![(95.0, 200)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        let runs_after_tune = app.runs;
        let mut deploy = Deployment::new(&report, Toq::paper_default(), 3);
        let mut check_invocations = Vec::new();
        for i in 1..=12u64 {
            if deploy
                .invoke(&mut app, i)
                .unwrap()
                .checked_quality
                .is_some()
            {
                check_invocations.push(i);
            }
        }
        assert_eq!(check_invocations, vec![3, 6, 9, 12]);
        assert_eq!(deploy.invocations(), 12);
        assert_eq!(deploy.checks(), 4);
        // 12 served runs + 4 exact calibration re-runs.
        assert_eq!(app.runs - runs_after_tune, 12 + 4);
    }

    #[test]
    fn cadence_stays_aligned_across_backoff() {
        // Two qualifying variants; the first drifts over a seed window so a
        // check fails mid-stream. The checks must keep firing every 3rd
        // served request, unperturbed by the rung change.
        let mut app = Mock::new(vec![(95.0, 200), (96.0, 500)]);
        app.drift_seeds = Some(4..20);
        let report = {
            let mut clean = Mock::new(vec![(95.0, 200), (96.0, 500)]);
            Tuner::paper_default().tune(&mut clean).unwrap()
        };
        // Promotion enabled (with a threshold the stream never reaches) so
        // shadow probes keep firing on the same cadence once the ladder is
        // exhausted to exact.
        let mut deploy = Deployment::with_config(
            &report,
            DeploymentConfig {
                toq: Toq::paper_default(),
                check_every: 3,
                promote_after: 100,
            },
        );
        let mut check_invocations = Vec::new();
        for i in 1..=15u64 {
            // Seed == served-request index.
            if deploy
                .invoke(&mut app, i)
                .unwrap()
                .checked_quality
                .is_some()
            {
                check_invocations.push(i);
            }
        }
        assert_eq!(check_invocations, vec![3, 6, 9, 12, 15]);
        assert!(deploy.violations() > 0, "the drift window must be caught");
    }

    #[test]
    fn clean_streak_repromotes_after_recovery() {
        let mut app = Mock::new(vec![(95.0, 200)]);
        app.drift_seeds = Some(5..12);
        let report = {
            let mut clean = Mock::new(vec![(95.0, 200)]);
            Tuner::paper_default().tune(&mut clean).unwrap()
        };
        let mut deploy = Deployment::with_config(
            &report,
            DeploymentConfig {
                toq: Toq::paper_default(),
                check_every: 2,
                promote_after: 2,
            },
        );
        let mut backed_off_at = None;
        let mut promoted_at = None;
        for i in 0..30u64 {
            let r = deploy.invoke(&mut app, i).unwrap();
            if r.backed_off {
                assert!(backed_off_at.is_none(), "must back off exactly once");
                backed_off_at = Some(i);
            }
            if r.promoted {
                assert!(promoted_at.is_none(), "must promote exactly once");
                promoted_at = Some(i);
            }
        }
        // Checks land on seeds 1,3,5,...; the first drifted check is seed 5.
        assert_eq!(backed_off_at, Some(5));
        // Shadow probes at 7,9,11 are dirty; 13 and 15 are clean: streak of
        // 2 reached at seed 15 -> promotion back to the variant.
        assert_eq!(promoted_at, Some(15));
        assert_eq!(deploy.current_variant(), Some(0));
        assert_eq!(deploy.promotions(), 1);
        // Violations: the serving check at 5 plus the dirty probes 7/9/11.
        assert_eq!(deploy.violations(), 4);
    }

    #[test]
    fn promotion_disabled_never_climbs_back() {
        let mut app = Mock::new(vec![(95.0, 200)]);
        app.drift_seeds = Some(3..8);
        let report = {
            let mut clean = Mock::new(vec![(95.0, 200)]);
            Tuner::paper_default().tune(&mut clean).unwrap()
        };
        let mut deploy = Deployment::new(&report, Toq::paper_default(), 1);
        for i in 0..20u64 {
            let r = deploy.invoke(&mut app, i).unwrap();
            assert!(!r.promoted);
            // Once at exact, no checks fire at all (legacy behaviour).
            if r.variant.is_none() {
                assert!(r.checked_quality.is_none());
            }
        }
        assert_eq!(deploy.current_variant(), None);
        assert_eq!(deploy.promotions(), 0);
    }

    #[test]
    fn hysteresis_blocks_flapping_candidates() {
        // The variant's quality alternates clean/dirty per seed; with
        // promote_after = 2 the streak never reaches 2, so once backed off
        // the deployment must stay at exact instead of flapping.
        struct Flapper;
        impl Approximable for Flapper {
            fn variant_count(&self) -> usize {
                1
            }
            fn variant_label(&self, _: usize) -> String {
                "flapper".into()
            }
            fn run_exact(&mut self, _seed: u64) -> Result<RunOutcome, RuntimeError> {
                Ok(RunOutcome {
                    output: vec![100.0],
                    cycles: 1000,
                })
            }
            fn run_variant(&mut self, _: usize, seed: u64) -> Result<RunOutcome, RuntimeError> {
                let q = if seed.is_multiple_of(2) { 95.0 } else { 75.0 };
                Ok(RunOutcome {
                    output: vec![q],
                    cycles: 100,
                })
            }
            fn quality(&self, _exact: &[f64], approx: &[f64]) -> f64 {
                approx[0]
            }
        }
        let report = {
            let mut clean = Mock::new(vec![(95.0, 100)]);
            Tuner::paper_default().tune(&mut clean).unwrap()
        };
        let mut app = Flapper;
        let mut deploy = Deployment::with_config(
            &report,
            DeploymentConfig {
                toq: Toq::paper_default(),
                check_every: 1,
                promote_after: 2,
            },
        );
        let mut promoted_any = false;
        for seed in 0..40u64 {
            let r = deploy.invoke(&mut app, seed).unwrap();
            promoted_any |= r.promoted;
        }
        assert_eq!(deploy.current_variant(), None, "must settle at exact");
        assert!(
            !promoted_any,
            "alternating quality must never clear hysteresis"
        );
    }

    /// Serve `seeds` by calling [`Deployment::invoke_chunk`] until every
    /// seed is served, as a caller with that many requests in hand does.
    fn serve_all(
        deploy: &mut Deployment,
        app: &mut dyn Approximable,
        mut seeds: &[u64],
    ) -> Vec<InvokeResult> {
        let mut out = Vec::with_capacity(seeds.len());
        while !seeds.is_empty() {
            let results = deploy.invoke_chunk(app, seeds).unwrap();
            assert!(!results.is_empty(), "a chunk serves at least one seed");
            seeds = &seeds[results.len()..];
            out.extend(results);
        }
        out
    }

    /// Drive the same seeded stream through sequential `invoke` and
    /// through `invoke_chunk` calls offered `window` seeds at a time, and
    /// assert the results and final deployment state are identical.
    fn assert_batch_matches_sequential(
        make_app: impl Fn() -> Mock,
        config: DeploymentConfig,
        requests: u64,
        window: usize,
    ) {
        let report = {
            let mut clean = Mock::new(vec![(95.0, 200), (96.0, 500)]);
            Tuner::paper_default().tune(&mut clean).unwrap()
        };
        let seeds: Vec<u64> = (0..requests).collect();

        let mut seq_app = make_app();
        let mut seq = Deployment::with_config(&report, config);
        let expected: Vec<InvokeResult> = seeds
            .iter()
            .map(|&s| seq.invoke(&mut seq_app, s).unwrap())
            .collect();

        let mut bat_app = make_app();
        let mut bat = Deployment::with_config(&report, config);
        let mut got = Vec::new();
        for window_seeds in seeds.chunks(window) {
            got.extend(serve_all(&mut bat, &mut bat_app, window_seeds));
        }

        assert_eq!(got, expected, "results diverged (window={window})");
        assert_eq!(bat.invocations(), seq.invocations());
        assert_eq!(bat.checks(), seq.checks());
        assert_eq!(bat.violations(), seq.violations());
        assert_eq!(bat.backoffs(), seq.backoffs());
        assert_eq!(bat.promotions(), seq.promotions());
        assert_eq!(bat.clean_streak(), seq.clean_streak());
        assert_eq!(bat.position(), seq.position());
        // The apps saw the exact same call sequence, so even their
        // order-sensitive internal state matches.
        assert_eq!(bat_app.runs, seq_app.runs, "call counts (window={window})");
    }

    #[test]
    fn batched_invocation_is_trace_identical_to_sequential() {
        // Drift over a seed window: the stream backs off mid-way and
        // re-promotes after recovery, so the trace exercises every
        // decision kind across every batch window.
        let make_app = || {
            let mut app = Mock::new(vec![(95.0, 200), (96.0, 500)]);
            app.drift_seeds = Some(10..30);
            app
        };
        for window in [1, 2, 3, 5, 8, 64] {
            assert_batch_matches_sequential(
                make_app,
                DeploymentConfig {
                    toq: Toq::paper_default(),
                    check_every: 4,
                    promote_after: 2,
                },
                60,
                window,
            );
        }
    }

    #[test]
    fn batched_invocation_matches_for_stateful_drift() {
        // Run-count based drift is order-sensitive: identical traces here
        // prove the batched path preserves the exact call order of the
        // sequential path (served runs in sequence order, calibration
        // immediately after its boundary request).
        let make_app = || {
            let mut app = Mock::new(vec![(95.0, 200), (96.0, 500)]);
            app.drift_after = Some(25);
            app
        };
        for window in [1, 4, 7, 32] {
            assert_batch_matches_sequential(
                make_app,
                DeploymentConfig {
                    toq: Toq::paper_default(),
                    check_every: 5,
                    promote_after: 0,
                },
                40,
                window,
            );
        }
    }

    #[test]
    fn failed_request_leaves_the_deployment_untouched_at_every_window() {
        let report = {
            let mut clean = Mock::new(vec![(95.0, 200), (96.0, 500)]);
            Tuner::paper_default().tune(&mut clean).unwrap()
        };
        let config = DeploymentConfig {
            toq: Toq::paper_default(),
            check_every: 4,
            promote_after: 2,
        };
        let seeds: Vec<u64> = (0..12).collect();
        // Checks fall on seeds 3, 7 and 11. One app fails serving seed 5,
        // mid-chunk; the other fails the calibration re-run of boundary
        // seed 7, after the served run of the same seed succeeded.
        for (fail_variant_seed, fail_exact_seed) in [(Some(5), None), (None, Some(7))] {
            let failing = fail_variant_seed.or(fail_exact_seed).unwrap();
            // Window 0 stands for `invoke`, one seed a call.
            for window in [0usize, 1, 3, 8] {
                let mut app = Mock::new(vec![(95.0, 200), (96.0, 500)]);
                app.fail_variant_seed = fail_variant_seed;
                app.fail_exact_seed = fail_exact_seed;
                let mut deploy = Deployment::with_config(&report, config);
                let mut failed_calls = 0;
                for window_seeds in seeds.chunks(window.max(1)) {
                    let mut rest = window_seeds;
                    while !rest.is_empty() {
                        let before = format!("{deploy:?}");
                        let result = if window == 0 {
                            deploy.invoke(&mut app, rest[0]).map(|r| vec![r])
                        } else {
                            deploy.invoke_chunk(&mut app, rest)
                        };
                        match result {
                            Ok(results) => rest = &rest[results.len()..],
                            Err(e) => {
                                assert!(
                                    e.0.ends_with(&format!("seed {failing}")),
                                    "only seed {failing} fails (window {window}): {e}"
                                );
                                assert_eq!(
                                    format!("{deploy:?}"),
                                    before,
                                    "failed chunk changed the deployment (window {window})"
                                );
                                failed_calls += 1;
                                break;
                            }
                        }
                    }
                }
                assert_eq!(failed_calls, 1);
            }
        }
    }

    #[test]
    fn invoke_chunk_never_crosses_a_check_boundary() {
        let mut app = Mock::new(vec![(95.0, 200)]);
        let report = Tuner::paper_default().tune(&mut app).unwrap();
        let mut deploy = Deployment::new(&report, Toq::paper_default(), 5);
        let offered: Vec<u64> = (0..100).collect();
        let checked = |results: &[InvokeResult]| -> Vec<bool> {
            results
                .iter()
                .map(|r| r.checked_quality.is_some())
                .collect()
        };
        // Fresh deployment: 5 requests until the check, which lands on
        // the fifth.
        let mut probe = deploy.clone();
        let results = probe.invoke_chunk(&mut app, &offered).unwrap();
        assert_eq!(checked(&results), [false, false, false, false, true]);
        assert!(results.iter().all(|r| r.variant == Some(0)));
        assert_eq!(probe.checks(), 1);
        // Short of the check: all 3 served, none checked.
        let mut probe = deploy.clone();
        let results = probe.invoke_chunk(&mut app, &offered[..3]).unwrap();
        assert_eq!(checked(&results), [false, false, false]);
        assert_eq!(probe.checks(), 0);
        // After two served requests, only 3 remain until the check.
        deploy.invoke(&mut app, 0).unwrap();
        deploy.invoke(&mut app, 1).unwrap();
        let mut probe = deploy.clone();
        let results = probe.invoke_chunk(&mut app, &offered).unwrap();
        assert_eq!(checked(&results), [false, false, true]);
        // Nothing offered: nothing served, nothing run.
        let (before, runs) = (format!("{deploy:?}"), app.runs);
        assert!(deploy.invoke_chunk(&mut app, &[]).unwrap().is_empty());
        assert_eq!((format!("{deploy:?}"), app.runs), (before, runs));
    }

    /// A [`Mock`] whose `run_batch` returns one outcome too many or one
    /// too few.
    struct Miscounting {
        inner: Mock,
        extra: bool,
    }

    impl Approximable for Miscounting {
        fn variant_count(&self) -> usize {
            self.inner.variant_count()
        }
        fn variant_label(&self, index: usize) -> String {
            self.inner.variant_label(index)
        }
        fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError> {
            self.inner.run_exact(seed)
        }
        fn run_variant(&mut self, index: usize, seed: u64) -> Result<RunOutcome, RuntimeError> {
            self.inner.run_variant(index, seed)
        }
        fn quality(&self, exact: &[f64], approx: &[f64]) -> f64 {
            self.inner.quality(exact, approx)
        }
        fn run_batch(&mut self, runs: &[BatchRun]) -> Result<Vec<RunOutcome>, RuntimeError> {
            let mut outcomes = self.inner.run_batch(runs)?;
            if self.extra {
                outcomes.push(outcomes[0].clone());
            } else {
                outcomes.pop();
            }
            Ok(outcomes)
        }
    }

    #[test]
    fn miscounted_run_batch_fails_the_chunk_and_leaves_the_deployment_untouched() {
        let report = Tuner::paper_default()
            .tune(&mut Mock::new(vec![(95.0, 200)]))
            .unwrap();
        for extra in [false, true] {
            let mut app = Miscounting {
                inner: Mock::new(vec![(95.0, 200)]),
                extra,
            };
            // Two seeds stop short of the check; five end on it, so the
            // batch carries the calibration re-run too.
            for offered in [2u64, 5] {
                let mut deploy = Deployment::new(&report, Toq::paper_default(), 5);
                let before = format!("{deploy:?}");
                let seeds: Vec<u64> = (0..offered).collect();
                let err = deploy.invoke_chunk(&mut app, &seeds).unwrap_err();
                assert!(err.0.starts_with("run_batch returned"), "{err}");
                assert_eq!(
                    format!("{deploy:?}"),
                    before,
                    "extra={extra}, {offered} seeds"
                );
            }
        }
    }

    #[test]
    fn empty_training_rejected() {
        let tuner = Tuner {
            toq: Toq::paper_default(),
            training_seeds: vec![],
        };
        let mut app = Mock::new(vec![]);
        assert!(tuner.tune(&mut app).is_err());
    }

    #[test]
    fn error_display() {
        assert!(!RuntimeError("x".into()).to_string().is_empty());
    }
}
