//! `deploy_cold`: time-to-first-deploy. Four applications, one per
//! pattern, on both device profiles; each unit goes build → compile →
//! bind (with approximate-memory rungs) → tune with static pruning →
//! deploy → first 16 invocations, on a fresh device every time. Many
//! cold, distinct programs: bytecode compilation, fusion profiling and
//! launch set-up dominate over steady-state dispatch, and the tuner's
//! calibration runs are where static pruning pays.

use std::time::Instant;

use paraprox::{compile, latency_table_for, CompileOptions, Device, DeviceApp, DeviceProfile};
use paraprox_apps::App;
use paraprox_runtime::{Approximable, Deployment};

use super::{pattern_apps, profiles, tuner};
use crate::adapter::{traced_input_gen, Traced};
use crate::harness::{Config, Rep, Workload};
use crate::metrics::Values;
use crate::reference::check_exact;
use crate::stats::geomean;
use crate::trace::{self, Span, Summary};

/// Error rates of the approximate-memory rungs every unit is bound with.
const APPROX_RATES: [f64; 3] = [1e-6, 1e-4, 1e-2];
const CHECK_EVERY: u64 = 8;
const INVOCATIONS: u64 = 16;

#[derive(Default)]
pub struct DeployCold {
    units: Vec<(App, DeviceProfile)>,
    /// Set for the warm-up repetition: also check exact outputs against
    /// the host references.
    verify: bool,
}

/// What one unit's deployment observed, beyond its wall time.
struct Deployed {
    speedup: f64,
    quality: f64,
    counts: [(&'static str, f64); 7],
    host: [(&'static str, f64); 2],
}

impl DeployCold {
    fn deploy(&self, cfg: &Config, app: &App, profile: &DeviceProfile) -> Result<Deployed, String> {
        let workload = {
            let _span = trace::span("apps", "build");
            (app.build)(cfg.scale, cfg.seed_base())
        };
        let compiled = {
            let _span = trace::span("core", "compile");
            compile(
                &workload,
                &latency_table_for(profile),
                &CompileOptions::default(),
            )
        }
        .map_err(|e| e.to_string())?;
        let mut bound = {
            let _span = trace::span("core", "bind");
            Traced::new(
                DeviceApp::new(
                    Device::new(profile.clone()),
                    &compiled,
                    traced_input_gen(app.input_gen(cfg.scale)),
                )
                .with_approx_memory(&compiled, &APPROX_RATES),
            )
        };
        let statics = bound.inner.static_quality().to_vec();
        let tuner = tuner();
        let report = {
            let _span = trace::span("runtime", "tune");
            tuner.tune_with_static(&mut bound, &statics)
        }
        .map_err(|e| e.to_string())?;
        let mut deployment = Deployment::new(&report, tuner.toq, CHECK_EVERY);
        let (mut cycles, mut checked) = (0u64, Vec::new());
        for i in 0..INVOCATIONS {
            let _span = trace::span("runtime", "invoke");
            let served = deployment
                .invoke(&mut bound, cfg.seed_base() + i)
                .map_err(|e| e.to_string())?;
            cycles += served.cycles;
            checked.extend(served.checked_quality);
        }
        if self.verify {
            let exact = bound
                .run_exact(cfg.seed_base())
                .map_err(|e| e.to_string())?;
            check_exact(
                app,
                cfg.scale,
                cfg.seed_base(),
                &workload.pipeline,
                &exact.output,
            )?;
        }
        let measured = report.profiles.iter().filter(|p| !p.pruned).count();
        let diagnostics = bound.engine_diagnostics();
        Ok(Deployed {
            // Base: exact cycles, mean over the tuner's training seeds.
            speedup: report.exact_cycles * INVOCATIONS as f64 / cycles.max(1) as f64,
            // What was served exact has, by definition, full quality.
            quality: if checked.is_empty() {
                100.0
            } else {
                checked.iter().sum::<f64>() / checked.len() as f64
            },
            counts: [
                (
                    "runtime.calibration_runs",
                    (tuner.training_seeds.len() * (1 + measured)) as f64,
                ),
                (
                    "runtime.calibration_runs_saved",
                    report.calibration_launches_saved as f64,
                ),
                (
                    "runtime.seeded_position_sum",
                    deployment.seeded_position() as f64,
                ),
                ("runtime.checks", deployment.checks() as f64),
                ("violations", deployment.violations() as f64),
                ("approx.variants", compiled.variants.len() as f64),
                (
                    "vgpu.program_compiles",
                    bound.inner.device_mut().compile_count() as f64,
                ),
            ],
            host: [
                ("vgpu.ops_dispatched", diagnostics.ops_dispatched as f64),
                ("vgpu.fusions_hit", diagnostics.fusions_hit as f64),
            ],
        })
    }
}

impl Workload for DeployCold {
    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        self.units = pattern_apps()
            .into_iter()
            .flat_map(|app| profiles().map(|profile| (app.clone(), profile)))
            .collect();
        self.verify = true;
        let warm = self.repetition(cfg);
        self.verify = false;
        match warm.errors.first() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn repetition(&mut self, cfg: &Config) -> Rep {
        let mut rep = Rep::default();
        let (mut speedups, mut quality) = (Vec::new(), 100.0f64);
        for (unit, (app, profile)) in self.units.iter().enumerate() {
            let started = Instant::now();
            let span = trace::unit_span("benchmark", "unit", unit as u64 + 1);
            let result = self.deploy(cfg, app, profile);
            drop(span);
            let seconds = started.elapsed().as_secs_f64();
            rep.parts.push(seconds);
            rep.attempted += 1;
            match result {
                Ok(deployed) => {
                    rep.on_time += 1;
                    speedups.push(deployed.speedup);
                    quality = quality.min(deployed.quality);
                    for (key, value) in deployed.counts {
                        *rep.exact.entry(key).or_default() += value;
                    }
                    for (key, value) in deployed.host {
                        *rep.timed.entry(key).or_default() += value;
                    }
                }
                Err(e) => rep.fail(format!("{} on {}: {e}", app.spec.name, profile.name)),
            }
        }
        let checks = rep.exact.get("runtime.checks").copied().unwrap_or(0.0);
        let violations = rep.exact.remove("violations").unwrap_or(0.0);
        rep.exact
            .insert("runtime.toq_violation_share", violations / checks.max(1.0));
        rep.exact.insert("quality_min_pct", quality);
        rep.exact.insert("sim_speedup_geomean", geomean(&speedups));
        rep
    }

    /// The first device run of each unit pays bytecode compilation and
    /// fusion profiling on its fresh device.
    fn layer_metrics(&self, spans: &[Span], _summary: &Summary, _rep: &Rep, out: &mut Values) {
        let mut first: Vec<Option<&Span>> = vec![None; self.units.len() + 1];
        for span in spans.iter().filter(|s| s.layer == "vgpu") {
            if let Some(slot) = first.get_mut(span.unit as usize) {
                slot.get_or_insert(span);
            }
        }
        let total: u64 = first.iter().flatten().map(|s| s.end_ns - s.start_ns).sum();
        out.insert("vgpu.first_launch_ms", total as f64 / 1e6);
    }
}
