//! Command implementations.

use std::error::Error;

use paraprox::{
    compile, latency_table_for, CompileError, CompileOptions, Compiled, Device, DeviceApp,
    DeviceProfile, Workload,
};
use paraprox_apps::{App, IterApp, Scale};
use paraprox_iter::ConvergenceSpec;
use paraprox_runtime::{Toq, Tuner};
use paraprox_serve::{drift_inputs, run_closed_loop, Engine, LoadSpec, ServeConfig};

use crate::args::{AnalyzeOpts, Command, InspectOpts, RunOpts, ServeOpts, TuneOpts, SEED_BASE};

pub fn run(cmd: Command) -> Result<(), Box<dyn Error>> {
    match cmd {
        Command::List => list(),
        Command::Tune(o) => tune(&o),
        Command::Run(o) => match o.iters {
            Some(cap) => run_iter_app(&o, cap),
            None => run_app(&o),
        },
        Command::Inspect(o) => match &o.schedule {
            Some(name) => inspect_schedule(&o, name),
            None if o.rungs => inspect_rungs(&o),
            None => inspect(&o),
        },
        Command::Analyze(o) => analyze(&o),
        Command::Serve(o) => serve(&o),
    }
}

/// Look up a registry application by (prefix) name.
fn find_app(name: &str) -> Result<App, String> {
    paraprox_apps::find(name)
        .ok_or_else(|| format!("no application matching `{name}` (try `paraprox list`)"))
}

/// Compile `workload`'s approximate variants against `profile`'s latencies.
fn compile_for(workload: &Workload, profile: &DeviceProfile) -> Result<Compiled, CompileError> {
    compile(
        workload,
        &latency_table_for(profile),
        &CompileOptions::default(),
    )
}

fn list() -> Result<(), Box<dyn Error>> {
    println!(
        "{:<32} {:<18} {:<22} metric",
        "application", "domain", "patterns"
    );
    for app in paraprox_apps::registry() {
        println!(
            "{:<32} {:<18} {:<22} {}",
            app.spec.name, app.spec.domain, app.spec.patterns, app.spec.metric
        );
    }
    Ok(())
}

fn tune(o: &TuneOpts) -> Result<(), Box<dyn Error>> {
    let app = find_app(&o.app)?;
    println!("{} on {}", app.spec.name, o.device.name);

    let compiled = compile_for(&(app.build)(o.scale, 0), &o.device)?;
    println!(
        "patterns: {}; variants: {}",
        compiled.pattern_names().join("+"),
        compiled.variants.len()
    );
    let input_gen = app.input_gen(o.scale);
    let mut device_app = DeviceApp::new(Device::new(o.device.clone()), &compiled, input_gen);
    let tuner = Tuner {
        toq: Toq::new(o.toq)?,
        training_seeds: (0..o.seeds).collect(),
    };
    let statics = device_app.static_quality().to_vec();
    let report = tuner.tune_with_static(&mut device_app, &statics)?;
    println!(
        "\n{:<30} {:>8} {:>9}  status",
        "variant", "quality", "speedup"
    );
    for p in &report.profiles {
        if !o.all && !p.meets_toq {
            continue;
        }
        println!(
            "{:<30} {:>7.2}% {:>8.2}x  {}",
            p.label,
            p.mean_quality,
            p.speedup,
            if p.pruned {
                "pruned (static bound below TOQ)"
            } else if p.meets_toq {
                "ok"
            } else {
                "below TOQ"
            }
        );
    }
    match report.chosen {
        Some(i) => println!(
            "\nchosen: {} ({:.2}x at {:.1}%)",
            report.profiles[i].label,
            report.chosen_speedup(),
            report.chosen_quality()
        ),
        None => println!("\nno variant met the TOQ with a speedup; exact execution retained"),
    }
    if report.calibration_launches_saved > 0 {
        println!(
            "static error bounds pruned {} rung(s) before measurement, skipping {} calibration launch(es)",
            report.profiles.iter().filter(|p| p.pruned).count(),
            report.calibration_launches_saved
        );
    }
    Ok(())
}

fn run_app(o: &RunOpts) -> Result<(), Box<dyn Error>> {
    let app = find_app(&o.app)?;
    let profile = o.device.clone().with_parallelism(o.threads);
    let mut workload = (app.build)(o.scale, 0);
    let mut dev = Device::new(profile.clone());
    if let Some(rate) = o.approx_mem {
        println!(
            "{} on {} (exact pipeline, approx memory at rate {rate:e})",
            app.spec.name, profile.name
        );
        let partition = paraprox::partition_program(&workload.program);
        let slots = paraprox::tolerant_buffer_slots(&workload, &partition);
        println!("\nbuffer placements");
        for (i, spec) in workload.pipeline.buffers.iter().enumerate() {
            println!(
                "  {:<20} {}",
                spec.name,
                if slots.contains(&i) {
                    "approx (tolerant)"
                } else {
                    "exact"
                }
            );
        }
        for &slot in &slots {
            workload.pipeline.buffers[slot] = workload.pipeline.buffers[slot]
                .clone()
                .with_space(paraprox_ir::MemSpace::Approx);
        }
        dev.set_approx_rate(rate);
    } else {
        println!("{} on {} (exact pipeline)", app.spec.name, profile.name);
    }
    let run = workload.pipeline.execute(&mut dev, &workload.program)?;
    let s = &run.stats;

    let warps_per_block = s.warps as f64 / s.blocks.max(1) as f64;
    println!("\nlaunch report");
    println!("  blocks          {:>12}", s.blocks);
    println!("  warps           {:>12}", s.warps);
    println!("  warps/block     {:>12.1}", warps_per_block);
    println!("  instructions    {:>12}", s.instructions);
    println!(
        "  cycles          {:>12}  (compute={}, memory={}, overhead={})",
        s.total_cycles(),
        s.compute_cycles,
        s.memory_cycles,
        s.overhead_cycles
    );
    println!("  l1 hit rate     {:>11.1}%", s.l1_hit_rate() * 100.0);
    if o.approx_mem.is_some() {
        println!("  approx loads    {:>12}", s.approx_loads);
        println!("  bit flips       {:>12}", s.bit_flips);
    }
    println!("  host workers    {:>12}", s.workers);
    println!(
        "  wall time       {:>12}",
        format!("{:.3} ms", s.wall_nanos as f64 / 1e6)
    );
    Ok(())
}

/// Look up an iterative app by (prefix) name, with its convergence spec at
/// `scale` capped at `cap` iterations (0 keeps the app's cap). This and
/// [`find_schedule`] list what exists when nothing matches.
fn find_iter_app(name: &str, scale: Scale, cap: u32) -> Result<(IterApp, ConvergenceSpec), String> {
    let app = paraprox_apps::find_iter(name).ok_or_else(|| {
        let names: Vec<&str> = paraprox_apps::iter_registry()
            .iter()
            .map(|a| a.name)
            .collect();
        format!(
            "no iterative application matching `{name}` (available: {})",
            names.join(", ")
        )
    })?;
    let mut spec = (app.spec)(scale);
    if cap > 0 {
        spec.max_iters = cap;
    }
    Ok((app, spec))
}

fn find_schedule(name: &str, max_iters: u32) -> Result<paraprox_iter::IterSchedule, String> {
    let presets = paraprox_iter::IterSchedule::presets(max_iters);
    let lower = name.to_lowercase();
    presets
        .iter()
        .find(|s| s.label.starts_with(&lower))
        .cloned()
        .ok_or_else(|| {
            let labels: Vec<&str> = presets.iter().map(|s| s.label.as_str()).collect();
            format!(
                "no preset schedule matching `{name}` (available: {})",
                labels.join(", ")
            )
        })
}

/// `run <app> --iters <n>`: drive the iterative loop-of-stencil-reduce
/// job to convergence under each (or one named) schedule and compare.
fn run_iter_app(o: &RunOpts, cap: u32) -> Result<(), Box<dyn Error>> {
    let (app, spec) = find_iter_app(&o.app, o.scale, cap)?;
    let scale = o.scale;
    let profile = o.device.clone().with_parallelism(o.threads);
    let model = (app.build)(scale);
    println!(
        "{} on {} ({}x{} field, tol {:.0e} abs / {}% rel, cap {} iters)",
        app.name,
        profile.name,
        model.width,
        model.height,
        spec.tol_abs,
        spec.tol_rel * 100.0,
        spec.max_iters
    );
    let mut job =
        paraprox_iter::IterativeApp::new(Device::new(profile), model, spec, app.field_gen(scale))?
            .with_presets()?;

    let mut schedules = vec![paraprox_iter::IterSchedule::exact()];
    schedules.extend(job.schedules().iter().cloned());
    if let Some(only) = &o.schedule {
        let wanted = find_schedule(only, spec.max_iters)?;
        schedules.retain(|s| s.label == wanted.label || s.is_exact());
    }

    println!(
        "\n{:<16} {:>6} {:>7} {:>11} {:>10} {:>9} {:>8}  outcome",
        "schedule", "iters", "checks", "residual", "cycles", "speedup", "quality"
    );
    let mut exact_out: Option<paraprox_runtime::RunOutcome> = None;
    for schedule in &schedules {
        let out = job.run_schedule(schedule, SEED_BASE)?;
        let run = job.last_run().cloned().ok_or("loop recorded no run")?;
        let (speedup, quality) = match &exact_out {
            None => (1.0, 100.0),
            Some(e) => (
                e.cycles as f64 / out.cycles.max(1) as f64,
                paraprox_runtime::Approximable::quality(&job, &e.output, &out.output),
            ),
        };
        println!(
            "{:<16} {:>6} {:>7} {:>11.4e} {:>10} {:>8.2}x {:>7.2}%  {}",
            run.schedule,
            run.iterations,
            run.checks,
            run.residual,
            out.cycles,
            speedup,
            quality,
            if run.predicted {
                "converged (predicted)"
            } else if run.converged {
                "converged"
            } else {
                "iteration cap"
            }
        );
        if schedule.is_exact() {
            exact_out = Some(out);
        }
    }
    Ok(())
}

/// `inspect <app> --schedule <name>`: print the schedule's plan and the
/// safety gate's verdict under the loop's launch contexts.
fn inspect_schedule(o: &InspectOpts, schedule: &str) -> Result<(), Box<dyn Error>> {
    let (app, spec) = find_iter_app(&o.file, o.scale, o.iters)?;
    let sched = find_schedule(schedule, spec.max_iters)?;
    let model = (app.build)(o.scale);
    println!(
        "{} ({}x{} field, {} metric)\n",
        app.name, model.width, model.height, app.metric
    );
    println!("{}", sched.describe(spec.max_iters));
    let contexts = paraprox_iter::iter_launch_contexts(&model, &sched);
    println!("\ngate: {} launch context(s) per iteration", contexts.len());
    match paraprox_iter::gate_schedule(&model, &sched) {
        Ok(()) => {
            println!(
                "gate: admitted — the program passed the effect contract and the full lint suite"
            );
            Ok(())
        }
        Err(paraprox_iter::IterError::Refused { label, reasons }) => {
            println!("gate: REFUSED schedule `{label}`:");
            for r in &reasons {
                println!("  - {r}");
            }
            Err(format!("schedule `{label}` refused by the safety gate").into())
        }
        Err(e) => Err(e.into()),
    }
}

/// `inspect <app> --rungs`: compile every auto-generated rung of a
/// registry application and print the static error-propagation table next
/// to the quality actually measured on the device.
fn inspect_rungs(o: &InspectOpts) -> Result<(), Box<dyn Error>> {
    use paraprox_runtime::Approximable;

    /// Bit-error rates for the appended approximate-memory rungs
    /// (the rungs `tests/errorprop_suite.rs` checks: one plausible, one
    /// the static table should reject).
    const APPROX_RATES: [f64; 2] = [1e-7, 1e-2];
    const MEASURE_SEEDS: u64 = 2;

    let (app, scale) = (find_app(&o.file)?, o.scale);
    let profile = DeviceProfile::gtx560();
    let compiled = compile_for(&(app.build)(scale, 0), &profile)?;
    let mut dapp = DeviceApp::new(
        Device::new(profile.clone()),
        &compiled,
        app.input_gen(scale),
    )
    .with_approx_memory(&compiled, &APPROX_RATES);
    let statics = dapp.static_quality().to_vec();
    println!(
        "{} on {}: {} rung(s); static bound vs quality measured over {} seed(s)\n",
        app.spec.name,
        profile.name,
        statics.len(),
        MEASURE_SEEDS
    );
    println!(
        "{:<30} {:>12} {:>10} {:>10}  status",
        "rung", "static bound", "predicted", "measured"
    );
    for (i, s) in statics.iter().enumerate() {
        let mut quality = 0.0f64;
        let mut failed = None;
        for seed in 0..MEASURE_SEEDS {
            let exact = dapp.run_exact(seed)?;
            match dapp.run_variant(i, seed) {
                Ok(run) => quality += dapp.quality(&exact.output, &run.output),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        let bound = fmt_bound(s.error_bound);
        let (measured, status) = match &failed {
            Some(e) => ("-".to_string(), format!("did not run: {e}")),
            None => (
                format!("{:.2}%", quality / MEASURE_SEEDS as f64),
                if s.refused {
                    "refused (measure dynamically)".to_string()
                } else if s.predictive {
                    "bound".to_string()
                } else {
                    "no claim (widened to +inf)".to_string()
                },
            ),
        };
        println!(
            "{:<30} {:>12} {:>9.2}% {:>10}  {}",
            s.label, bound, s.predicted_quality, measured, status
        );
        for r in &s.refusals {
            println!("    {r}");
        }
    }
    Ok(())
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Print one kernel's buffer verdicts with their witness chains, each
/// buffer name after `label` and padded to `width`.
fn print_verdicts(part: &paraprox_analysis::KernelPartition, label: &str, width: usize) {
    for v in &part.verdicts {
        println!(
            "  {label}{:<width$} {:<9} ({})",
            v.name,
            v.criticality.to_string(),
            v.declared
        );
        for step in &v.witness {
            println!("      {step}");
        }
    }
}

/// A finite f64 as a JSON number, non-finite as `null` (JSON has no
/// infinity; an unbounded static error bound serializes as `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The version of the `analyze --json` schema emitted by
/// [`analyze_json_report`]; bumped on any breaking field change. The full
/// schema is documented in DESIGN.md.
const ANALYZE_SCHEMA_VERSION: u32 = 2;

/// Render the complete `analyze --json` document (see DESIGN.md for the
/// schema). Factored out of [`analyze`] so tests can round-trip it.
fn analyze_json_report(
    app_name: &str,
    workload: &paraprox::Workload,
    diags: &[paraprox::Diagnostic],
    parts: &[paraprox_analysis::KernelPartition],
    statics: &[paraprox::StaticQuality],
) -> String {
    let errors = diags
        .iter()
        .filter(|d| d.severity == paraprox::Severity::Error)
        .count();
    let misplaced = diags
        .iter()
        .filter(|d| d.code == "approx-placement")
        .count();
    let findings: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"severity\":{},\"code\":{},\"kernel\":{},\"path\":{},\"message\":{}}}",
                json_str(match d.severity {
                    paraprox::Severity::Error => "error",
                    paraprox::Severity::Warning => "warning",
                }),
                json_str(d.code),
                json_str(&d.kernel_name),
                json_str(&d.path_string()),
                json_str(&d.message)
            )
        })
        .collect();
    let partitions: Vec<String> = parts
        .iter()
        .map(|p| {
            let buffers: Vec<String> = p
                .verdicts
                .iter()
                .map(|v| {
                    let witness: Vec<String> = v.witness.iter().map(|w| json_str(w)).collect();
                    format!(
                        "{{\"name\":{},\"mem\":{},\"declared\":{},\"criticality\":{},\"witness\":[{}]}}",
                        json_str(&v.name),
                        json_str(&v.mem.to_string()),
                        json_str(&v.declared.to_string()),
                        json_str(&v.criticality.to_string()),
                        witness.join(",")
                    )
                })
                .collect();
            format!(
                "{{\"kernel\":{},\"buffers\":[{}]}}",
                json_str(&p.kernel_name),
                buffers.join(",")
            )
        })
        .collect();
    let bounds: Vec<String> = statics
        .iter()
        .map(|s| {
            let refusals: Vec<String> = s.refusals.iter().map(|r| json_str(r)).collect();
            format!(
                "{{\"label\":{},\"error_bound\":{},\"quality_floor\":{},\"predicted_quality\":{},\"predictive\":{},\"refused\":{},\"refusals\":[{}]}}",
                json_str(&s.label),
                json_f64(s.error_bound),
                json_f64(s.quality_floor),
                json_f64(s.predicted_quality),
                s.predictive,
                s.refused,
                refusals.join(",")
            )
        })
        .collect();
    format!(
        "{{\"schema\":{ANALYZE_SCHEMA_VERSION},\"app\":{},\"kernels\":{},\"launches\":{},\"findings\":[{}],\"errors\":{},\"warnings\":{},\"misplaced\":{},\"partition\":[{}],\"error_bounds\":[{}]}}",
        json_str(app_name),
        workload.program.kernel_count(),
        workload.pipeline.launches.len(),
        findings.join(","),
        errors,
        diags.len() - errors,
        misplaced,
        partitions.join(","),
        bounds.join(",")
    )
}

/// A static error bound as the rung tables print it.
fn fmt_bound(bound: f64) -> String {
    if bound.is_finite() {
        format!("{bound:.4}")
    } else {
        "unbounded".to_string()
    }
}

/// Print the per-rung static error-bound table, human-readable.
fn print_error_bounds(statics: &[paraprox::StaticQuality]) {
    println!(
        "\nper-rung static error bounds ({} auto-generated rung(s)):",
        statics.len()
    );
    println!(
        "{:<30} {:>12} {:>8} {:>10}  status",
        "rung", "error bound", "floor", "predicted"
    );
    for s in statics {
        println!(
            "{:<30} {:>12} {:>7.2}% {:>9.2}%  {}",
            s.label,
            fmt_bound(s.error_bound),
            s.quality_floor,
            s.predicted_quality,
            if s.refused {
                "refused"
            } else if s.predictive {
                "bound"
            } else {
                "no claim (widened to +inf)"
            }
        );
        for r in &s.refusals {
            println!("    {r}");
        }
    }
}

fn analyze(o: &AnalyzeOpts) -> Result<(), Box<dyn Error>> {
    let app = find_app(&o.app)?;
    let workload = (app.build)(o.scale, 0);
    let diags = paraprox::analyze_workload(&workload);
    let parts = paraprox::partition_program(&workload.program);
    let errors = diags
        .iter()
        .filter(|d| d.severity == paraprox::Severity::Error)
        .count();
    // The JSON report always carries the per-rung error bounds; the human
    // report only pays for variant generation when asked.
    let statics = if o.json || o.error_bounds {
        compile_for(&workload, &DeviceProfile::gtx560())?.static_quality
    } else {
        Vec::new()
    };

    if o.json {
        println!(
            "{}",
            analyze_json_report(app.spec.name, &workload, &diags, &parts, &statics)
        );
    } else {
        println!(
            "{}: {} kernel(s), {} launch(es)",
            app.spec.name,
            workload.program.kernel_count(),
            workload.pipeline.launches.len()
        );
        if o.partition {
            for p in &parts {
                println!("kernel `{}` partition:", p.kernel_name);
                print_verdicts(p, "", 20);
            }
        }
        if o.error_bounds {
            print_error_bounds(&statics);
        }
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            println!("no findings: races, bounds, dataflow, and placement lints are all clean");
        } else {
            println!(
                "{} finding(s), {} error(s), {} warning(s)",
                diags.len(),
                errors,
                diags.len() - errors
            );
        }
    }
    if errors > 0 {
        return Err(format!("static analysis found {errors} error(s)").into());
    }
    Ok(())
}

fn serve(o: &ServeOpts) -> Result<(), Box<dyn Error>> {
    let profile = &o.device;
    let toq = Toq::new(o.toq)?;
    let spec = LoadSpec {
        requests: o.requests,
        seed_base: SEED_BASE,
        inflight: o.inflight,
    };

    let mut builder = Engine::builder(ServeConfig {
        queue_capacity: o.queue,
        shards: o.shards,
        workers: o.workers,
        batch_window: o.batch_window,
        toq,
        check_every: o.check_every,
        promote_after: o.promote_after,
        quality_alpha: 0.25,
    });
    println!(
        "serving on {} (TOQ {:.0}%, check every {}, promote after {})",
        profile.name, o.toq, o.check_every, o.promote_after
    );
    let mut tenants = Vec::new();
    for name in &o.apps {
        let app = find_app(name)?;
        let compiled = compile_for(&(app.build)(o.scale, 0), profile)?;
        let mut input_gen = app.input_gen(o.scale);
        if let Some(k) = o.drift_at {
            input_gen = drift_inputs(
                input_gen,
                spec.seed_base + k,
                spec.seed_base + k + o.drift_len,
                o.drift_gain as f32,
            );
        }
        let mut device_app = DeviceApp::new(Device::new(profile.clone()), &compiled, input_gen);
        let tuner = Tuner {
            toq,
            training_seeds: (0..o.seeds).collect(),
        };
        let statics = device_app.static_quality().to_vec();
        let report = tuner.tune_with_static(&mut device_app, &statics)?;
        let ladder: Vec<String> = report
            .backoff_ladder()
            .iter()
            .map(|r| match r.variant() {
                Some(i) => report.profiles[i].label.clone(),
                None => "exact".to_string(),
            })
            .collect();
        println!("  {:<32} ladder: {}", app.spec.name, ladder.join(" -> "));
        tenants.push(builder.register(app.spec.name, Box::new(device_app), &report));
    }

    let engine = builder.start();
    println!(
        "\n{} shard(s) x {} worker(s), batch window {}, queue capacity {}, {} in flight; \
         {} requests/tenant from seed {}",
        engine.shard_count(),
        engine.worker_count() / engine.shard_count(),
        o.batch_window,
        o.queue,
        o.inflight,
        o.requests,
        spec.seed_base
    );
    if let Some(k) = o.drift_at {
        println!(
            "drift window: requests {k}..{} at gain {}x",
            k + o.drift_len,
            o.drift_gain
        );
    }
    println!();
    let names = engine.tenant_names();
    let load = run_closed_loop(&engine, &tenants, &spec, |r| {
        if r.backed_off {
            println!(
                "  [{} #{}] TOQ violated at {:.1}% -> backed off",
                names[r.tenant],
                r.seq,
                r.checked_quality.unwrap_or(0.0)
            );
        } else if r.promoted {
            println!(
                "  [{} #{}] quality recovered -> re-promoted",
                names[r.tenant], r.seq
            );
        }
    })?;
    let snap = engine.shutdown();

    // Two tables: the watchdog's decisions repeat exactly run to run, so
    // the first diffs cleanly; queueing, batching and latency follow the
    // host's thread timing and get their own.
    println!(
        "\n{:<32} {:>6} {:>6} {:>5} {:>8} {:>8} {:>7} {:>5} {:>7}",
        "tenant", "served", "checks", "viol", "backoff", "promote", "rung", "start", "meanQ"
    );
    for t in &snap.tenants {
        println!(
            "{:<32} {:>6} {:>6} {:>5} {:>8} {:>8} {:>7} {:>5} {:>6.1}%",
            t.name,
            t.served,
            t.checks,
            t.violations,
            t.backoffs,
            t.promotions,
            t.rung,
            t.seeded_position,
            t.mean_quality.unwrap_or(100.0)
        );
    }
    println!("\nvaries run to run (host thread timing):");
    println!(
        "{:<32} {:>5} {:>9} {:>10} {:>10}",
        "tenant", "depth", "batch", "p50", "p99"
    );
    let mut ops_dispatched = 0u64;
    let mut fusions_hit = 0u64;
    for t in &snap.tenants {
        ops_dispatched += t.ops_dispatched;
        fusions_hit += t.fusions_hit;
        println!(
            "{:<32} {:>5} {:>5.1}/{:<3} {:>8.2}ms {:>8.2}ms",
            t.name,
            t.peak_queue_depth,
            t.mean_batch(),
            t.peak_batch,
            t.service_p50_ns as f64 / 1e6,
            t.service_p99_ns as f64 / 1e6
        );
    }
    println!(
        "throughput: {:.1} req/s ({} requests in {:.2}s); {} rejected-with-retry, {} error(s), \
         {} cross-shard steal(s)",
        load.throughput_rps(),
        load.completed,
        load.wall_nanos as f64 / 1e9,
        load.retries,
        load.errors,
        snap.steals
    );
    println!(
        "\ndevice: {} op(s) dispatched, {} fusion hit(s)",
        ops_dispatched, fusions_hit
    );
    if load.errors > 0 {
        return Err(format!("{} request(s) failed", load.errors).into());
    }
    Ok(())
}

fn inspect(o: &InspectOpts) -> Result<(), Box<dyn Error>> {
    let file = &o.file;
    let source = std::fs::read_to_string(file)?;
    let program = paraprox_lang::parse_program(&source)?;
    println!(
        "{file}: {} device function(s), {} kernel(s)\n",
        program.func_count(),
        program.kernel_count()
    );
    let table = latency_table_for(&DeviceProfile::gtx560());
    let detected = paraprox_patterns::detect(
        &program,
        &table,
        &paraprox_patterns::DetectOptions::default(),
    );
    for kp in &detected {
        let kernel = program.kernel(kp.kernel);
        println!("kernel `{}`:", kernel.name);
        if o.effects {
            println!(
                "  effects: {}",
                paraprox_analysis::summarize_kernel(&program, kp.kernel)
            );
        }
        if o.partition {
            let part = paraprox_analysis::partition_kernel(&program, kp.kernel);
            print_verdicts(&part, "buffer ", 16);
        }
        if kp.instances.is_empty() {
            println!("  (no approximable patterns)");
        }
        for inst in &kp.instances {
            match inst {
                paraprox_patterns::PatternInstance::Map(c) => {
                    let func = program.func(c.func);
                    println!(
                        "  {}: function `{}` is pure and costs ~{} cycles (Eq. 1) -> approximate memoization",
                        inst.name(),
                        func.name,
                        c.cycles_needed
                    );
                }
                paraprox_patterns::PatternInstance::Stencil(s) => {
                    println!(
                        "  {}: {}x{} tile over buffer {:?} -> center/row/column value replication",
                        inst.name(),
                        s.tile_h,
                        s.tile_w,
                        s.buffer
                    );
                }
                paraprox_patterns::PatternInstance::Reduction(r) => {
                    println!(
                        "  reduction: loop at depth {} ({:?}) -> sampling + adjustment",
                        r.path.depth(),
                        r.kind
                    );
                }
                paraprox_patterns::PatternInstance::Scan(m) => {
                    println!(
                        "  scan: phase-I template over {}-element subarrays -> subarray prediction",
                        m.subarray_len
                    );
                }
            }
        }
    }
    if let Some(name) = &o.bytecode {
        let lower = name.to_lowercase();
        let Some((_, kernel)) = program
            .kernels()
            .find(|(_, k)| k.name.to_lowercase().starts_with(&lower))
        else {
            return Err(format!("no kernel matching `{name}` in {file}").into());
        };
        let profile = DeviceProfile::gtx560();
        let compiled = paraprox_vgpu::compile_kernel(&program, kernel, &profile);
        println!(
            "\nbytecode for kernel `{}` ({} ops, compiled for {}):\n",
            kernel.name,
            compiled.op_count(),
            profile.name
        );
        print!("{}", compiled.disassemble());
        println!(
            "\n{} superinstructions: each fused line shows both constituent ops; \
             the `~` op after it is padding that keeps jump targets in place",
            compiled.superinstruction_count()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal JSON value and recursive-descent parser — just enough to
    /// deserialize the `analyze --json` document and prove the schema
    /// round-trips without an external serde dependency.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn to_json(&self) -> String {
            match self {
                Json::Null => "null".to_string(),
                Json::Bool(b) => b.to_string(),
                Json::Num(n) => format!("{n}"),
                Json::Str(s) => json_str(s),
                Json::Arr(items) => {
                    let inner: Vec<String> = items.iter().map(Json::to_json).collect();
                    format!("[{}]", inner.join(","))
                }
                Json::Obj(fields) => {
                    let inner: Vec<String> = fields
                        .iter()
                        .map(|(k, v)| format!("{}:{}", json_str(k), v.to_json()))
                        .collect();
                    format!("{{{}}}", inner.join(","))
                }
            }
        }
    }

    fn parse_value(s: &[u8], mut i: usize) -> Result<(Json, usize), String> {
        while i < s.len() && s[i].is_ascii_whitespace() {
            i += 1;
        }
        match *s.get(i).ok_or("unexpected end of input")? {
            b'n' => expect(s, i, "null").map(|i| (Json::Null, i)),
            b't' => expect(s, i, "true").map(|i| (Json::Bool(true), i)),
            b'f' => expect(s, i, "false").map(|i| (Json::Bool(false), i)),
            b'"' => parse_string(s, i).map(|(v, i)| (Json::Str(v), i)),
            b'[' => {
                i += 1;
                let mut items = Vec::new();
                loop {
                    while i < s.len() && s[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if s.get(i) == Some(&b']') {
                        return Ok((Json::Arr(items), i + 1));
                    }
                    if !items.is_empty() {
                        if s.get(i) != Some(&b',') {
                            return Err(format!("expected `,` or `]` at byte {i}"));
                        }
                        i += 1;
                    }
                    let (v, next) = parse_value(s, i)?;
                    items.push(v);
                    i = next;
                }
            }
            b'{' => {
                i += 1;
                let mut fields = Vec::new();
                loop {
                    while i < s.len() && s[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if s.get(i) == Some(&b'}') {
                        return Ok((Json::Obj(fields), i + 1));
                    }
                    if !fields.is_empty() {
                        if s.get(i) != Some(&b',') {
                            return Err(format!("expected `,` or `}}` at byte {i}"));
                        }
                        i += 1;
                        while i < s.len() && s[i].is_ascii_whitespace() {
                            i += 1;
                        }
                    }
                    let (key, next) = parse_string(s, i)?;
                    i = next;
                    while i < s.len() && s[i].is_ascii_whitespace() {
                        i += 1;
                    }
                    if s.get(i) != Some(&b':') {
                        return Err(format!("expected `:` at byte {i}"));
                    }
                    let (v, next) = parse_value(s, i + 1)?;
                    fields.push((key, v));
                    i = next;
                }
            }
            c if c == b'-' || c.is_ascii_digit() => {
                let start = i;
                while i < s.len()
                    && (s[i].is_ascii_digit() || matches!(s[i], b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    i += 1;
                }
                let text = std::str::from_utf8(&s[start..i]).map_err(|e| e.to_string())?;
                let n: f64 = text.parse().map_err(|_| format!("bad number `{text}`"))?;
                Ok((Json::Num(n), i))
            }
            c => Err(format!("unexpected byte {c:?} at {i}")),
        }
    }

    fn expect(s: &[u8], i: usize, word: &str) -> Result<usize, String> {
        if s[i..].starts_with(word.as_bytes()) {
            Ok(i + word.len())
        } else {
            Err(format!("expected `{word}` at byte {i}"))
        }
    }

    fn parse_string(s: &[u8], mut i: usize) -> Result<(String, usize), String> {
        if s.get(i) != Some(&b'"') {
            return Err(format!("expected string at byte {i}"));
        }
        i += 1;
        let mut out = String::new();
        while let Some(&c) = s.get(i) {
            match c {
                b'"' => return Ok((out, i + 1)),
                b'\\' => {
                    let esc = *s.get(i + 1).ok_or("unterminated escape")?;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = s
                                .get(i + 2..i + 6)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            i += 4;
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                    i += 2;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let rest = std::str::from_utf8(&s[i..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().ok_or("unexpected end of string")?;
                    out.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn parse_json(text: &str) -> Result<Json, String> {
        let (v, end) = parse_value(text.as_bytes(), 0)?;
        if text.as_bytes()[end..]
            .iter()
            .any(|b| !b.is_ascii_whitespace())
        {
            return Err(format!("trailing garbage after byte {end}"));
        }
        Ok(v)
    }

    #[test]
    fn analyze_json_round_trips() {
        let app = paraprox_apps::find("gamma").expect("registry app");
        let workload = (app.build)(Scale::Test, 0);
        let diags = paraprox::analyze_workload(&workload);
        let parts = paraprox::partition_program(&workload.program);
        let compiled = compile(
            &workload,
            &latency_table_for(&DeviceProfile::gtx560()),
            &CompileOptions::default(),
        )
        .expect("compile");
        let text = analyze_json_report(
            app.spec.name,
            &workload,
            &diags,
            &parts,
            &compiled.static_quality,
        );

        // Deserialize, check the versioned schema, then re-serialize and
        // re-parse: the document must survive a full round trip.
        let doc = parse_json(&text).expect("analyze --json output parses");
        assert_eq!(doc.get("schema"), Some(&Json::Num(2.0)));
        assert_eq!(doc.get("app"), Some(&Json::Str(app.spec.name.to_string())));
        assert_eq!(doc.get("errors"), Some(&Json::Num(0.0)));
        assert_eq!(doc.get("findings"), Some(&Json::Arr(Vec::new())));
        let Some(Json::Arr(bounds)) = doc.get("error_bounds") else {
            panic!("error_bounds must be an array");
        };
        assert_eq!(
            bounds.len(),
            compiled.static_quality.len(),
            "one entry per auto-generated rung"
        );
        for (entry, sq) in bounds.iter().zip(&compiled.static_quality) {
            assert_eq!(entry.get("label"), Some(&Json::Str(sq.label.clone())));
            assert_eq!(entry.get("refused"), Some(&Json::Bool(sq.refused)));
            match entry.get("error_bound") {
                Some(Json::Num(n)) => assert!((n - sq.error_bound).abs() < 1e-12),
                Some(Json::Null) => assert!(!sq.error_bound.is_finite()),
                other => panic!("error_bound must be a number or null, got {other:?}"),
            }
        }
        let reparsed = parse_json(&doc.to_json()).expect("re-serialized JSON parses");
        assert_eq!(reparsed, doc, "round trip is lossless");
    }

    #[test]
    fn json_f64_maps_non_finite_to_null() {
        assert_eq!(json_f64(0.25), "0.25");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }
}
