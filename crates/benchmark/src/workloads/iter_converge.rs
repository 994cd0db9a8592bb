//! `iter_converge`: the two loop-of-stencil-reduce applications run to
//! convergence under the exact schedule and the two approximation
//! schedules worth keeping (`sampled-check`, `trend-exit`), three fields
//! each, on one pooled device per application. Hundreds of small
//! launches over ping-pong buffers: launch set-up, image refresh copies
//! and skips, and host-side residual folding dominate, not interpreter
//! dispatch.
//!
//! Iterations to convergence depend on the initial field far more than
//! on anything a change could touch — over field seeds 1000..1120 the
//! exact Jacobi loop takes 8 to 96 iterations and hits its cap on a
//! third of them — so the three fields are fixed, and `--seed` drives
//! the other seeded input of a schedule: which lanes its sampled
//! residual checks read.

use std::time::Instant;

use paraprox::Device;
use paraprox_apps::{iter_registry, IterApp};
use paraprox_iter::{ConvergenceSpec, FieldGen, IterSchedule, IterativeApp};
use paraprox_runtime::Approximable;

use super::{digest, digest_value, gtx560, record_stats, stats_since};
use crate::harness::{Config, Rep, Workload};
use crate::metrics::Values;
use crate::stats::geomean;
use crate::trace::{self, Span, Summary};

/// Approximation schedules measured beside `exact`. The `reach-ramp`
/// and `aggressive` presets only ever lose and are not referenced.
const SCHEDULES: [&str; 2] = ["sampled-check", "trend-exit"];
/// Field seeds: the three `bench_iter` measures, on which both exact
/// loops converge well inside their iteration cap.
const FIELD_SEEDS: [u64; 3] = [1000, 1001, 1002];
const TOQ_PCT: f64 = 90.0;

struct Job {
    name: &'static str,
    app: IterativeApp,
    schedules: Vec<IterSchedule>,
}

#[derive(Default)]
pub struct IterConverge {
    jobs: Vec<Job>,
}

fn field_gen(app: &IterApp, cfg: &Config) -> FieldGen {
    let mut inner = app.field_gen(cfg.scale);
    Box::new(move |seed| {
        let _span = trace::span("apps", "input_gen");
        inner(seed)
    })
}

/// One exact stencil step on the device must equal the application's
/// hand-written host step.
fn check_one_step(app: &IterApp, cfg: &Config) -> Result<(), String> {
    let model = (app.build)(cfg.scale);
    let (w, h) = (model.width, model.height);
    let one_step = ConvergenceSpec {
        max_iters: 1,
        ..(app.spec)(cfg.scale)
    };
    let mut job = IterativeApp::new(
        Device::new(gtx560()),
        model,
        one_step,
        app.field_gen(cfg.scale),
    )
    .map_err(|e| e.to_string())?;
    let stepped = job
        .run_schedule(&IterSchedule::exact(), FIELD_SEEDS[0])
        .map_err(|e| e.to_string())?;
    let field = (app.gen_field)(cfg.scale, FIELD_SEEDS[0]);
    let expected = match app.name {
        "Jacobi" => paraprox_apps::jacobi::step_reference(&field, w, h),
        "Sobel Flow" => paraprox_apps::sobel_flow::step_reference(&field, w, h),
        other => return Err(format!("no host step wired for {other}")),
    };
    for (i, (got, want)) in stepped.output.iter().zip(&expected).enumerate() {
        let off = (*got as f32 - want).abs();
        if off.is_nan() || off > 1e-3 * want.abs().max(1.0) {
            return Err(format!("{} cell {i}: {got} vs host step {want}", app.name));
        }
    }
    Ok(())
}

impl Workload for IterConverge {
    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        self.jobs.clear();
        for app in iter_registry() {
            check_one_step(&app, cfg)?;
            let spec = (app.spec)(cfg.scale);
            let mut job = IterativeApp::new(
                Device::new(gtx560()),
                (app.build)(cfg.scale),
                spec,
                field_gen(&app, cfg),
            )
            .map_err(|e| e.to_string())?;
            let mut schedules = vec![IterSchedule::exact()];
            for name in SCHEDULES {
                let mut schedule = IterSchedule::named(name, spec.max_iters)
                    .ok_or_else(|| format!("no preset {name}"))?;
                schedule.seed = schedule.seed.wrapping_add(cfg.seed);
                job.add_schedule(schedule.clone())
                    .map_err(|e| e.to_string())?;
                schedules.push(schedule);
            }
            self.jobs.push(Job {
                name: app.name,
                app: job,
                schedules,
            });
        }
        let warm = self.repetition(cfg);
        match warm.errors.first() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn repetition(&mut self, _cfg: &Config) -> Rep {
        let mut rep = Rep::default();
        let (mut speedups, mut quality_min) = (Vec::new(), 100.0f64);
        let (mut iterations, mut checks, mut exact_cycles, mut outputs) = (0u64, 0u64, 0u64, 0u64);
        let mut stats = paraprox_vgpu::LaunchStats::default();
        let (mut copies, mut skips) = (0u64, 0u64);
        for job in &mut self.jobs {
            let before = *job.app.total_stats();
            let refresh_before = {
                let device = job.app.device_mut();
                (device.image_refresh_copies(), device.image_refresh_skips())
            };
            // Per schedule: summed cycles, summed quality against the
            // exact field of the same seed, and whether every run converged.
            let mut exact_fields: Vec<Vec<f64>> = Vec::new();
            let mut ladder: Vec<(u64, f64, bool)> = Vec::new();
            for schedule in &job.schedules {
                let (mut cycles, mut quality, mut converged) = (0u64, 0.0, true);
                for (s, &seed) in FIELD_SEEDS.iter().enumerate() {
                    let started = Instant::now();
                    let result = {
                        let _span = trace::unit_span("iter", "run_schedule", seed);
                        job.app.run_schedule(schedule, seed)
                    };
                    let seconds = started.elapsed().as_secs_f64();
                    rep.parts.push(seconds);
                    rep.attempted += 1;
                    let run = match (result, job.app.last_run()) {
                        (Ok(out), Some(run)) => (out, run.clone()),
                        (Err(e), _) => {
                            rep.fail(format!("{} {} seed {seed}: {e}", job.name, schedule.label));
                            converged = false;
                            continue;
                        }
                        (Ok(_), None) => unreachable!("a finished loop records its run"),
                    };
                    let (out, run) = run;
                    iterations += u64::from(run.iterations);
                    checks += u64::from(run.checks);
                    cycles += out.cycles;
                    outputs = digest(&out.output, outputs);
                    converged &= run.converged;
                    if schedule.is_exact() {
                        if run.converged {
                            rep.on_time += 1;
                        } else {
                            rep.fail(format!(
                                "{} exact loop hit the iteration cap on seed {seed}",
                                job.name
                            ));
                        }
                        exact_cycles += out.cycles;
                        exact_fields.push(out.output);
                    } else {
                        rep.on_time += 1;
                        if let Some(exact) = exact_fields.get(s) {
                            let _span = trace::span("quality", "eval");
                            quality += job.app.quality(exact, &out.output);
                        }
                    }
                }
                ladder.push((cycles, quality / FIELD_SEEDS.len() as f64, converged));
            }
            // The schedule a tuner would deploy: the cheapest that
            // converged everywhere within TOQ; exact if none does.
            let base = ladder[0].0;
            let (cycles, quality) = ladder[1..]
                .iter()
                .filter(|(_, q, converged)| *converged && *q >= TOQ_PCT)
                .map(|&(c, q, _)| (c, q))
                .min_by_key(|&(c, _)| c)
                .filter(|&(c, _)| c < base)
                .unwrap_or((base, 100.0));
            speedups.push(base as f64 / cycles.max(1) as f64);
            quality_min = quality_min.min(quality);
            stats.accumulate(&stats_since(job.app.total_stats(), &before));
            let device = job.app.device_mut();
            copies += device.image_refresh_copies() - refresh_before.0;
            skips += device.image_refresh_skips() - refresh_before.1;
        }
        record_stats(&stats, &mut rep);
        rep.exact.extend([
            ("vgpu.cycles_exact", exact_cycles as f64),
            ("quality_min_pct", quality_min),
            ("sim_speedup_geomean", geomean(&speedups)),
            ("iter.iterations", iterations as f64),
            ("iter.residual_checks", checks as f64),
            ("iter.blocks", stats.blocks as f64),
            ("outputs", digest_value(outputs)),
        ]);
        rep.timed.extend([
            ("vgpu.image_refresh_copies", copies as f64),
            ("vgpu.image_refresh_skips", skips as f64),
        ]);
        rep
    }

    /// What `run_schedule` spends outside its launches: field
    /// generation, residual folding, the trend predictor.
    fn layer_metrics(&self, _spans: &[Span], summary: &Summary, rep: &Rep, out: &mut Values) {
        let loops = summary.total_ms("iter", "run_schedule");
        out.insert(
            "iter.self_ms",
            (loops - rep.timed["vgpu.launch_wall_ms"]).max(0.0),
        );
    }
}
