//! The measurement loop shared by the six workloads: set up several
//! times, repeat the workload's fixed work until the time budget is
//! spent (in a traced run, alternately with spans off and on), and fold
//! the repetitions into named metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use paraprox_apps::Scale;

use crate::json::Json;
use crate::metrics::{unit_of, Values, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile};
use crate::trace::{self, Span, Summary};

/// Share of a traced repetition's wall time that may lie outside every
/// span before the run fails.
pub const RESIDUAL_LIMIT: f64 = 0.05;

/// How one run is shaped.
#[derive(Debug, Clone)]
pub struct Config {
    /// `--seed`; everything generated derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from traced repetitions.
    pub trace: bool,
    pub scale: Scale,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
    /// Repetitions an untraced run measures even when the budget is
    /// already spent.
    pub min_reps: usize,
}

impl Config {
    /// First measurement seed: above the tuner's training seeds `0..3`.
    pub fn seed_base(&self) -> u64 {
        1000 + self.seed % (1 << 32)
    }
}

/// What one repetition observed.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds of each unit of the repetition, in a fixed order.
    /// `work_s` sums each unit's median over repetitions, so one slow
    /// unit in one repetition does not move it.
    pub parts: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations that succeeded within their deadline, if they have one.
    pub on_time: u64,
    /// Simulated or counted values that must repeat exactly.
    pub exact: Values,
    /// Host-time figures read from public counters.
    pub timed: Values,
    /// Per-request samples (the serve workloads); `serve.latency_ms`
    /// feeds `latency_p50_ms`.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub errors: Vec<String>,
}

impl Rep {
    /// Count one failed operation and keep the reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// One of the six workloads.
pub trait Workload {
    /// Build everything the repetitions need and run the warm-up
    /// repetition, checking outputs against the host references. Called
    /// [`Config::setups`] times; each call replaces the previous state.
    fn setup(&mut self, cfg: &Config) -> Result<(), String>;

    /// One repetition of the workload's fixed work.
    fn repetition(&mut self, cfg: &Config) -> Rep;

    /// Extra calls made only in a traced run, outside the repetition's
    /// timed work, to time a stage that `repetition` reaches only through
    /// a larger public function.
    fn shadow(&mut self, _cfg: &Config) {}

    /// Per-layer metrics that need both the spans and the repetition.
    fn layer_metrics(&self, _spans: &[Span], _summary: &Summary, _rep: &Rep, _out: &mut Values) {}
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the run was asked for, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Untraced and traced repetitions measured.
    pub reps: (usize, usize),
    /// Wall seconds of each set-up and of each untraced repetition (the
    /// sum of its units), in the order they ran: shows how the host moved
    /// during the run.
    pub setup_seconds: Vec<f64>,
    pub rep_seconds: Vec<f64>,
    /// Size of each pooled sample behind a median or percentile.
    pub sample_counts: Vec<(&'static str, usize)>,
    pub errors: Vec<String>,
    /// Spans of the last traced repetition.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line the driver reads.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value)| {
                    let unit = unit_of(name).expect("every reported metric is in the tables");
                    (
                        name,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                    )
                })),
            ),
        ])
    }

    /// Human-readable report: every metric by name with its unit, the
    /// repetition and sample counts, and in a traced run the layer table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {}: R = {} untraced + {} traced repetitions, {} operations, {} failed\n",
            self.workload, self.reps.0, self.reps.1, self.attempted, self.failed
        );
        for (what, seconds) in [
            ("set-up", &self.setup_seconds),
            ("repetition", &self.rep_seconds),
        ] {
            let seconds: Vec<String> = seconds.iter().map(|s| format!("{s:.4}")).collect();
            out.push_str(&format!("  {what} seconds: {}\n", seconds.join(" ")));
        }
        for (name, count) in &self.sample_counts {
            out.push_str(&format!("  samples {name}: n = {count}\n"));
        }
        for &(name, value) in &self.metrics {
            let unit = unit_of(name).unwrap_or("");
            out.push_str(&format!("  {name:<34} {value:>16.6} {unit}\n"));
        }
        if !self.spans.is_empty() {
            out.push_str("  layer table of the last traced repetition (self = span minus covered children):\n");
            out.push_str(&format!(
                "    {:<12} {:<14} {:>7} {:>12} {:>12}\n",
                "layer", "span", "count", "total ms", "self ms"
            ));
            for ((layer, name), agg) in &Summary::of(&self.spans).by_name {
                out.push_str(&format!(
                    "    {layer:<12} {name:<14} {:>7} {:>12.3} {:>12.3}\n",
                    agg.count,
                    agg.total_ns as f64 / 1e6,
                    agg.self_ns as f64 / 1e6
                ));
            }
        }
        for e in &self.errors {
            out.push_str(&format!("  FAILED: {e}\n"));
        }
        out
    }
}

/// `VmHWM` of this process in MiB: the peak resident set since it
/// started. Each workload runs in a process of its own, so this is the
/// workload's figure.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Repeat `body` until the budget would be overrun by one more
/// repetition of the last one's length, and at least `min` times.
fn repeat_for<T>(seconds: f64, min: usize, mut body: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    loop {
        let before = started.elapsed().as_secs_f64();
        out.push(body());
        let after = started.elapsed().as_secs_f64();
        if out.len() >= min && after + (after - before) > seconds {
            return out;
        }
    }
}

/// Run one workload and fold what it observed into named metrics.
pub fn run(name: &'static str, workload: &mut dyn Workload, cfg: &Config) -> Outcome {
    let mut errors = Vec::new();
    let mut setup_times = Vec::new();
    for _ in 0..cfg.setups.max(1) {
        let started = Instant::now();
        if let Err(e) = workload.setup(cfg) {
            return Outcome {
                workload: name,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                reps: (0, 0),
                setup_seconds: setup_times,
                rep_seconds: Vec::new(),
                sample_counts: Vec::new(),
                errors: vec![format!("set-up failed: {e}")],
                spans: Vec::new(),
            };
        }
        setup_times.push(started.elapsed().as_secs_f64());
    }

    // Per traced repetition: the layer values from its spans, its public
    // counters and the workload's own arithmetic over both.
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Values)> = Vec::new();
    let mut last_spans = Vec::new();
    if cfg.trace {
        // Plain and traced repetitions alternate, so a slow spell of the
        // host falls on both alike and what separates their medians is
        // the recorder's cost. Two pairs at least: the exact-repeat rule
        // then covers a traced pair too, and the serve workloads pool
        // enough requests for their p99.
        trace::drain();
        let pairs = repeat_for(cfg.seconds, cfg.min_reps.min(2), || {
            let plain = workload.repetition(cfg);
            trace::enable(true);
            let root = trace::unit_span("benchmark", "repetition", 0);
            let rep = workload.repetition(cfg);
            drop(root);
            let shadow = trace::unit_span("benchmark", "shadow", 0);
            workload.shadow(cfg);
            drop(shadow);
            trace::enable(false);
            (plain, rep, trace::drain())
        });
        for (plain, rep, spans) in pairs {
            reps.push(plain);
            let summary = Summary::of(&spans);
            let mut v = from_spans(&summary);
            v.extend(rep.exact.iter().chain(&rep.timed).map(|(k, x)| (*k, *x)));
            workload.layer_metrics(&spans, &summary, &rep, &mut v);
            let root = summary.get("benchmark", "repetition");
            v.insert(
                "trace.residual_share",
                root.self_ns as f64 / (root.total_ns as f64).max(1.0),
            );
            v.insert("trace.spans", spans.len() as f64);
            traced.push((rep, v));
            last_spans = spans;
        }
    } else {
        reps = repeat_for(cfg.seconds, cfg.min_reps.max(1), || {
            workload.repetition(cfg)
        });
    }

    // Failures and the exact-repeat rule, over every repetition.
    let all: Vec<&Rep> = reps.iter().chain(traced.iter().map(|(r, _)| r)).collect();
    let first = all[0];
    let mut attempted = 0;
    let mut failed = 0;
    for (i, rep) in all.iter().enumerate() {
        attempted += rep.attempted;
        failed += rep.failed;
        errors.extend(rep.errors.iter().cloned());
        if rep.parts.len() != first.parts.len() {
            failed += 1;
            errors.push(format!(
                "repetition {i} measured {} units, the first {}",
                rep.parts.len(),
                first.parts.len()
            ));
        }
        for (key, value) in &first.exact {
            let other = rep.exact.get(key);
            if other.map(|v| v.to_bits()) != Some(value.to_bits()) {
                failed += 1;
                errors.push(format!(
                    "{key} did not repeat: {value} in repetition 0, {other:?} in repetition {i}"
                ));
            }
        }
    }

    // Each unit's median wall time over a set of repetitions.
    let unit_medians = |set: &[&Rep]| -> Vec<f64> {
        (0..first.parts.len())
            .map(|unit| {
                median(
                    &set.iter()
                        .filter_map(|r| r.parts.get(unit).copied())
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    };
    let work_of = |set: &[&Rep]| -> f64 { unit_medians(set).iter().sum() };
    let untraced: Vec<&Rep> = reps.iter().collect();
    let pooled = |key: &str| -> Vec<f64> {
        all.iter()
            .filter_map(|r| r.samples.get(key))
            .flatten()
            .copied()
            .collect()
    };
    let mut sample_counts = Vec::new();

    let metrics: Vec<(&'static str, f64)> = if !cfg.trace {
        // Requests have a latency of their own: the median over
        // repetitions of each repetition's p50. Elsewhere an operation is
        // a unit, and the units are too unlike for a median across them
        // to be stable (it flips between neighbours), so each unit counts
        // once at its own median: their geometric mean.
        let requests: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.samples.get("serve.latency_ms"))
            .map(|s| median(s))
            .collect();
        let latency_ms = if requests.is_empty() {
            geomean(&unit_medians(&untraced)) * 1e3
        } else {
            sample_counts.push(("serve.latency_ms", pooled("serve.latency_ms").len()));
            median(&requests)
        };
        // Every repetition offers the same stream, so each has a goodput
        // of its own and the run reports their median. Late replies come
        // in bursts, when the host stalls the whole machine for longer
        // than the deadline: pooled over the run, one such burst (6 to 67
        // late requests measured) decides the figure; it is a minority of
        // the repetitions, so it does not move their median.
        let shares: Vec<f64> = untraced
            .iter()
            .map(|r| r.on_time as f64 / r.attempted.max(1) as f64)
            .collect();
        let mut values = Values::new();
        values.insert("setup_s", median(&setup_times));
        values.insert("work_s", work_of(&untraced));
        values.insert("latency_p50_ms", latency_ms);
        values.insert("goodput_share", median(&shares));
        values.insert("peak_rss_mb", peak_rss_mb());
        for key in ["quality_min_pct", "sim_speedup_geomean"] {
            values.insert(key, first.exact.get(key).copied().unwrap_or(f64::NAN));
        }
        END_TO_END
            .iter()
            .map(|m| (m.name, values[m.name]))
            .collect()
    } else {
        // The median over traced repetitions of each layer value; a
        // layer that did nothing on this workload reads 0.
        let mut values = Values::new();
        for (name, _) in PER_LAYER {
            let seen: Vec<f64> = traced
                .iter()
                .filter_map(|(_, v)| v.get(name).copied())
                .collect();
            values.insert(name, median(&seen));
        }
        for (metric, key, p) in TAILS {
            let samples = pooled(key);
            if samples.is_empty() {
                continue;
            }
            if !sample_counts.iter().any(|(k, _)| *k == key) {
                sample_counts.push((key, samples.len()));
            }
            // A tail the sample cannot support is withheld and reads 0.
            let value = if p == 50.0 {
                Some(median(&samples))
            } else {
                percentile(&samples, p)
            };
            values.insert(metric, value.unwrap_or(0.0));
        }
        let traced_reps: Vec<&Rep> = traced.iter().map(|(r, _)| r).collect();
        let (plain, with_spans) = (work_of(&untraced), work_of(&traced_reps));
        values.insert(
            "trace.overhead_share",
            (with_spans - plain) / plain.max(f64::MIN_POSITIVE),
        );
        if values["trace.residual_share"] > RESIDUAL_LIMIT {
            failed += 1;
            errors.push(format!(
                "{:.1} % of the traced repetition lies outside every span (limit {:.0} %)",
                values["trace.residual_share"] * 100.0,
                RESIDUAL_LIMIT * 100.0
            ));
        }
        PER_LAYER
            .iter()
            .map(|(name, _)| (*name, values[name]))
            .collect()
    };

    for &(name, value) in &metrics {
        if !value.is_finite() {
            failed += 1;
            errors.push(format!("{name} is not a finite number"));
        }
    }
    errors.dedup();
    Outcome {
        workload: name,
        attempted: attempted.max(1),
        failed,
        metrics,
        reps: (reps.len(), traced.len()),
        setup_seconds: setup_times,
        rep_seconds: reps.iter().map(|r| r.parts.iter().sum()).collect(),
        sample_counts,
        errors,
        spans: last_spans,
    }
}

/// Tail metrics computed from samples pooled over every repetition:
/// `(metric, sample key, percentile)`.
const TAILS: [(&str, &str, f64); 7] = [
    ("serve.queue_wait_p50_ms", "serve.queue_wait_ms", 50.0),
    ("serve.queue_wait_p99_ms", "serve.queue_wait_ms", 99.0),
    ("serve.service_p50_ms", "serve.service_ms", 50.0),
    ("serve.service_p99_ms", "serve.service_ms", 99.0),
    ("serve.latency_p95_ms", "serve.latency_ms", 95.0),
    ("serve.latency_p99_ms", "serve.latency_ms", 99.0),
    ("serve.generator_lag_p99_ms", "serve.lag_ms", 99.0),
];

/// Layer times that follow from the spans alone, the same way on every
/// workload. `approx.rewrite_ms` is what remains of `compile` after the
/// stages that can be called on their own (and are, as shadow calls).
fn from_spans(s: &Summary) -> Values {
    let mut v = Values::new();
    v.insert("lang.parse_us", s.self_ms("lang", "parse") * 1e3);
    v.insert("apps.build_ms", s.self_ms("apps", "build"));
    v.insert("apps.input_gen_ms", s.self_ms("apps", "input_gen"));
    v.insert("analysis.lint_ms", s.self_ms("analysis", "lint"));
    v.insert("analysis.partition_ms", s.self_ms("analysis", "partition"));
    v.insert("analysis.errorprop_ms", s.self_ms("analysis", "errorprop"));
    v.insert("patterns.detect_ms", s.self_ms("patterns", "detect"));
    let compile = s.total_ms("core", "compile");
    v.insert("core.compile_ms", compile);
    let shadows = v["analysis.lint_ms"]
        + v["analysis.partition_ms"]
        + v["analysis.errorprop_ms"]
        + v["patterns.detect_ms"];
    if s.get("analysis", "lint").count > 0 {
        v.insert("approx.rewrite_ms", (compile - shadows).max(0.0));
    }
    v.insert("core.bind_ms", s.self_ms("core", "bind"));
    v.insert("runtime.tune_ms", s.total_ms("runtime", "tune"));
    v.insert("runtime.tune_self_ms", s.self_ms("runtime", "tune"));
    let invoke = s.get("runtime", "invoke");
    if invoke.count > 0 {
        v.insert(
            "runtime.invoke_self_us",
            invoke.self_ns as f64 / 1e3 / invoke.count as f64,
        );
    }
    v.insert("quality.eval_ms", s.self_ms("quality", "eval"));
    v.insert("vgpu.device_ms", s.layer_self_ms("vgpu"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two units of fixed cost; every third repetition one unit stalls
    /// and misses its deadline.
    struct Fake {
        calls: u32,
        drift: bool,
        requests: bool,
    }

    impl Workload for Fake {
        fn setup(&mut self, _cfg: &Config) -> Result<(), String> {
            Ok(())
        }

        fn repetition(&mut self, _cfg: &Config) -> Rep {
            self.calls += 1;
            let _span = trace::span("core", "compile");
            let stalled = self.calls.is_multiple_of(3);
            let mut rep = Rep {
                parts: vec![1.0, if stalled { 50.0 } else { 2.0 }],
                attempted: 2,
                on_time: if stalled { 1 } else { 2 },
                ..Rep::default()
            };
            if self.requests {
                rep.samples.insert("serve.latency_ms", vec![4.0, 6.0]);
            }
            rep.exact.insert("quality_min_pct", 97.5);
            let speedup = if self.drift {
                f64::from(self.calls)
            } else {
                2.0
            };
            rep.exact.insert("sim_speedup_geomean", speedup);
            rep
        }
    }

    fn fake(drift: bool, requests: bool) -> Fake {
        Fake {
            calls: 0,
            drift,
            requests,
        }
    }

    fn cfg(trace: bool) -> Config {
        Config {
            seed: 0,
            seconds: 0.0,
            trace,
            scale: Scale::Test,
            setups: 2,
            min_reps: 5,
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let _guard = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = run("fake", &mut fake(false, true), &cfg(false));
        assert!(outcome.correct(), "{:?}", outcome.errors);
        assert_eq!(outcome.reps, (5, 0));
        assert_eq!(outcome.attempted, 10);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        let get = |n: &str| outcome.metrics.iter().find(|m| m.0 == n).unwrap().1;
        // The stalled unit is a minority of its repetitions: no effect.
        assert_eq!(get("work_s"), 3.0);
        assert_eq!(get("latency_p50_ms"), 5.0);
        // Without request samples each unit counts once, at its median.
        let units = run("fake", &mut fake(false, false), &cfg(false));
        let unit_latency = units.metrics.iter().find(|m| m.0 == "latency_p50_ms");
        assert!((unit_latency.unwrap().1 - 2f64.sqrt() * 1e3).abs() < 1e-9);
        // Nor does its late reply move the median goodput of the five.
        assert_eq!(get("goodput_share"), 1.0);
        assert_eq!(get("quality_min_pct"), 97.5);
        assert!(get("peak_rss_mb") > 0.0);
        let line = outcome.to_json().render();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.fields().len(), 4);
        assert_eq!(
            parsed
                .get("metrics")
                .unwrap()
                .get("work_s")
                .unwrap()
                .get("unit"),
            Some(&Json::str("s"))
        );
        assert!(outcome.render().contains("work_s"));
    }

    #[test]
    fn traced_run_reports_every_per_layer_metric_and_idle_layers_read_zero() {
        let _guard = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = run("fake", &mut fake(false, false), &cfg(true));
        assert_eq!(outcome.reps, (2, 2));
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.map(|m| m.0));
        let get = |n: &str| outcome.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("core.compile_ms") > 0.0);
        assert_eq!(get("vgpu.device_ms"), 0.0);
        // The repetition, its compile span and the (empty) shadow pass.
        assert_eq!(get("trace.spans"), 3.0);
        assert!(!outcome.spans.is_empty());
    }

    #[test]
    fn a_value_that_must_repeat_and_does_not_fails_the_run() {
        let _guard = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = run("fake", &mut fake(true, false), &cfg(false));
        assert!(!outcome.correct());
        assert_eq!(outcome.failed, 4);
        assert!(outcome.errors[0].contains("sim_speedup_geomean did not repeat"));
    }
}
