//! `compile_sweep`: 13 applications × 2 device profiles through
//! build → compile. The only workload in which the virtual device does
//! nothing: lang, analysis, patterns, approx and the error-propagation
//! bounds do all the work, so a compiler-side change shows here and is
//! predicted flat everywhere else.

use std::time::Instant;

use paraprox::{compile, latency_table_for, CompileOptions, Compiled, DeviceProfile};
use paraprox_apps::{self as apps, App};
use paraprox_patterns::{detect, DetectOptions};

use super::profiles;
use crate::harness::{Config, Rep, Workload};
use crate::trace;

#[derive(Default)]
pub struct CompileSweep {
    units: Vec<(App, DeviceProfile)>,
    /// The last repetition's results, kept in a traced run for the
    /// shadow calls.
    compiled: Vec<Compiled>,
}

/// Kernel source text of the applications built through the language
/// front end.
fn source_of(app: &App) -> Option<&'static str> {
    match app.spec.name {
        "BlackScholes" => Some(apps::black_scholes::SOURCE),
        "Gamma Correction" => Some(apps::gamma_correction::SOURCE),
        "Mean Filter" => Some(apps::mean_filter::SOURCE),
        "Cumulative Frequency Histogram" => Some(apps::cumulative_histogram::SOURCE),
        _ => None,
    }
}

impl Workload for CompileSweep {
    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        self.units = apps::registry()
            .into_iter()
            .flat_map(|app| profiles().map(|profile| (app.clone(), profile)))
            .collect();
        let warm = self.repetition(cfg);
        match warm.errors.first() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn repetition(&mut self, cfg: &Config) -> Rep {
        let mut rep = Rep::default();
        let (mut instances, mut variants) = (0usize, 0usize);
        self.compiled.clear();
        for (unit, (app, profile)) in self.units.iter().enumerate() {
            let started = Instant::now();
            let _unit = trace::unit_span("benchmark", "unit", unit as u64 + 1);
            let workload = {
                let _span = trace::span("apps", "build");
                (app.build)(cfg.scale, cfg.seed_base())
            };
            let table = latency_table_for(profile);
            let result = {
                let _span = trace::span("core", "compile");
                compile(&workload, &table, &CompileOptions::default())
            };
            let seconds = started.elapsed().as_secs_f64();
            rep.parts.push(seconds);
            rep.attempted += 1;
            match result {
                Ok(compiled) => {
                    rep.on_time += 1;
                    instances += compiled
                        .patterns
                        .iter()
                        .map(|kp| kp.instances.len())
                        .sum::<usize>();
                    variants += compiled.variants.len();
                    if trace::enabled() {
                        self.compiled.push(compiled);
                    }
                }
                Err(e) => rep.fail(format!("{} on {}: {e}", app.spec.name, profile.name)),
            }
        }
        rep.exact.insert("patterns.instances", instances as f64);
        rep.exact.insert("approx.variants", variants as f64);
        // Nothing is simulated or served here: the neutral values.
        rep.exact.insert("quality_min_pct", 100.0);
        rep.exact.insert("sim_speedup_geomean", 1.0);
        rep
    }

    /// The stages `compile` runs internally, called once more on their
    /// own so each gets a span. What `compile` spends beyond them is the
    /// rewrites' share (`approx.rewrite_ms`).
    fn shadow(&mut self, _cfg: &Config) {
        for ((app, profile), compiled) in self.units.iter().zip(&self.compiled) {
            let workload = &compiled.workload;
            if let Some(source) = source_of(app) {
                let _span = trace::span("lang", "parse");
                std::hint::black_box(paraprox_lang::parse_program(source).is_ok());
            }
            {
                let _span = trace::span("analysis", "lint");
                std::hint::black_box(paraprox::analyze_workload(workload));
            }
            let table = latency_table_for(profile);
            let patterns = {
                let _span = trace::span("patterns", "detect");
                detect(&workload.program, &table, &DetectOptions::default())
            };
            {
                let _span = trace::span("analysis", "partition");
                std::hint::black_box(paraprox_analysis::partition_program(&workload.program));
            }
            let _span = trace::span("analysis", "errorprop");
            std::hint::black_box(paraprox::errorbounds::static_quality(
                workload,
                &patterns,
                &compiled.variants,
            ));
        }
    }
}
