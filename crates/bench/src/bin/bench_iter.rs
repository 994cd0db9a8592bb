//! Iterative-schedule sweep: run each iterative application's
//! loop-of-stencil-reduce job to convergence under the exact schedule and
//! every preset approximation schedule, recording iterations-to-
//! convergence, residual checks, simulated cycles, and converged-field
//! quality versus the exact loop.
//!
//! ```sh
//! cargo run --release -p paraprox-bench --bin bench_iter            # full
//! cargo run --release -p paraprox-bench --bin bench_iter -- --smoke # gate
//! ```
//!
//! Writes `BENCH_iter.json` into the current directory. Every schedule
//! was admitted by the static safety gate (effect contract on both
//! ping-pong parities plus the full lint suite under the loop's launch
//! contexts) before it ran.
//!
//! Invariants asserted per application and treated as benchmark failures:
//!
//! * **The exact loop converges** before the iteration cap.
//! * **Re-running a schedule on the same seed is bit-identical** (the
//!   sampled residual checks are host-derived, so the loop's control
//!   flow is deterministic).
//! * **At least one approximate schedule reaches >= 1.3x fewer cycles**
//!   than the exact loop while holding quality at or above the default
//!   90% TOQ.
//!
//! `--smoke` runs test-scale inputs on a single seed as a CI gate and
//! exits non-zero if any invariant fails.

use paraprox_apps::{iter_registry, Scale};
use paraprox_iter::{IterSchedule, IterativeApp};
use paraprox_runtime::Approximable;
use paraprox_vgpu::{Device, DeviceProfile};

/// Default target output quality (percent), as in the paper's tuner.
const TOQ: f64 = 90.0;
/// Cycle-reduction bar at least one schedule must clear per app.
const SPEEDUP_BAR: f64 = 1.3;

/// Per-schedule aggregate over the measurement seeds.
struct Point {
    label: String,
    iterations: f64,
    checks: f64,
    residual: f64,
    cycles: f64,
    speedup: f64,
    quality: f64,
    all_converged: bool,
    any_predicted: bool,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Test } else { Scale::Paper };
    // Deployment seeds, past the tuner's training range.
    let seeds: &[u64] = if smoke { &[1000] } else { &[1000, 1001, 1002] };
    println!(
        "iterative-schedule sweep: {} scale, {} seed(s), profile gtx560\n",
        if smoke { "test (smoke)" } else { "paper" },
        seeds.len()
    );

    let mut entries = Vec::new();
    let mut failures = 0usize;
    for app in iter_registry() {
        let spec = (app.spec)(scale);
        let model = (app.build)(scale);
        let (w, h) = (model.width, model.height);
        let mut job = IterativeApp::new(
            Device::new(DeviceProfile::gtx560().with_parallelism(1)),
            model,
            spec,
            app.field_gen(scale),
        )
        .and_then(IterativeApp::with_presets)
        .expect("preset schedules must pass the gate");

        println!(
            "{} ({w}x{h}, tol {:.0e} abs / {}% rel, cap {})",
            app.name,
            spec.tol_abs,
            spec.tol_rel * 100.0,
            spec.max_iters
        );
        println!(
            "  {:<16} {:>6} {:>7} {:>11} {:>11} {:>9} {:>8}  outcome",
            "schedule", "iters", "checks", "residual", "cycles", "speedup", "quality"
        );

        let mut schedules = vec![IterSchedule::exact()];
        schedules.extend(job.schedules().iter().cloned());
        let mut exact_per_seed: Vec<paraprox_runtime::RunOutcome> = Vec::new();
        let mut points: Vec<Point> = Vec::new();
        for schedule in &schedules {
            let mut p = Point {
                label: schedule.label.clone(),
                iterations: 0.0,
                checks: 0.0,
                residual: 0.0,
                cycles: 0.0,
                speedup: 0.0,
                quality: 0.0,
                all_converged: true,
                any_predicted: false,
            };
            for (si, &seed) in seeds.iter().enumerate() {
                let out = job.run_schedule(schedule, seed).expect("loop must run");
                let run = job.last_run().expect("run recorded").clone();
                if schedule.is_exact() {
                    // Determinism gate: the same seed replays bit-identically.
                    let replay = job.run_schedule(schedule, seed).expect("replay");
                    let identical = out.output.len() == replay.output.len()
                        && out
                            .output
                            .iter()
                            .zip(&replay.output)
                            .all(|(a, b)| a.to_bits() == b.to_bits());
                    if !identical {
                        eprintln!("FAIL: {}: exact replay on seed {seed} diverged", app.name);
                        failures += 1;
                    }
                    if !run.converged {
                        eprintln!(
                            "FAIL: {}: exact loop hit the {}-iteration cap (residual {:.3e})",
                            app.name, spec.max_iters, run.residual
                        );
                        failures += 1;
                    }
                }
                let (speedup, quality) = if schedule.is_exact() {
                    (1.0, 100.0)
                } else {
                    let e = &exact_per_seed[si];
                    (
                        e.cycles as f64 / out.cycles.max(1) as f64,
                        job.quality(&e.output, &out.output),
                    )
                };
                p.iterations += f64::from(run.iterations);
                p.checks += f64::from(run.checks);
                p.residual += run.residual;
                p.cycles += out.cycles as f64;
                p.speedup += speedup;
                p.quality += quality;
                p.all_converged &= run.converged;
                p.any_predicted |= run.predicted;
                if schedule.is_exact() {
                    exact_per_seed.push(out);
                }
            }
            let k = seeds.len() as f64;
            p.iterations /= k;
            p.checks /= k;
            p.residual /= k;
            p.cycles /= k;
            p.speedup /= k;
            p.quality /= k;
            println!(
                "  {:<16} {:>6.1} {:>7.1} {:>11.4e} {:>11.0} {:>8.2}x {:>7.2}%  {}",
                p.label,
                p.iterations,
                p.checks,
                p.residual,
                p.cycles,
                p.speedup,
                p.quality,
                if p.any_predicted {
                    "converged (predicted)"
                } else if p.all_converged {
                    "converged"
                } else {
                    "iteration cap"
                }
            );
            points.push(p);
        }

        let best = points
            .iter()
            .filter(|p| p.label != "exact" && p.quality >= TOQ)
            .map(|p| p.speedup)
            .fold(0.0f64, f64::max);
        if best < SPEEDUP_BAR {
            eprintln!(
                "FAIL: {}: no schedule reached {SPEEDUP_BAR}x within TOQ {TOQ}% (best {best:.2}x)",
                app.name
            );
            failures += 1;
        }
        println!("  best within TOQ {TOQ:.0}%: {best:.2}x cycle reduction\n");

        let point_json: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "        {{ \"schedule\": {:?}, \"iterations\": {:.2}, \"checks\": {:.2}, \"residual\": {:.6e}, \"cycles\": {:.0}, \"speedup\": {:.4}, \"quality\": {:.4}, \"converged\": {}, \"predicted\": {} }}",
                    p.label,
                    p.iterations,
                    p.checks,
                    p.residual,
                    p.cycles,
                    p.speedup,
                    p.quality,
                    p.all_converged,
                    p.any_predicted
                )
            })
            .collect();
        entries.push(format!(
            "    {{\n      \"app\": {:?},\n      \"field\": \"{w}x{h}\",\n      \"tol_abs\": {:e},\n      \"tol_rel\": {},\n      \"max_iters\": {},\n      \"best_speedup_within_toq\": {best:.4},\n      \"schedules\": [\n{}\n      ]\n    }}",
            app.name,
            spec.tol_abs,
            spec.tol_rel,
            spec.max_iters,
            point_json.join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"iterative_schedule_sweep\",\n  \"scale\": {:?},\n  \"profile\": \"gtx560\",\n  \"seeds\": {:?},\n  \"toq\": {TOQ},\n  \"note\": \"Loop-of-stencil-reduce jobs run to residual convergence under gated approximation schedules (sampled residual checks, EWMA trend early-exit). Cycles are simulated device cycles summed over every stencil and residual launch; quality is the app metric comparing converged fields against the exact schedule on the same seed; speedup is exact cycles / schedule cycles.\",\n  \"results\": [\n{}\n  ]\n}}\n",
        if smoke { "test" } else { "paper" },
        seeds,
        entries.join(",\n")
    );
    std::fs::write("BENCH_iter.json", &json).expect("write BENCH_iter.json");
    println!("wrote BENCH_iter.json");

    if failures > 0 {
        eprintln!("FAIL: {failures} iterative-schedule invariant violation(s)");
        std::process::exit(1);
    }
}
