//! Batched-vs-sequential differential over every benchmark application.
//!
//! The serving engine's batcher coalesces requests into one fused device
//! dispatch ([`DeviceApp`]'s `run_batch` override). Its contract is
//! bit-identity: a fused batch must produce exactly the outputs, simulated
//! cycles, and executor diagnostics that running the same (variant, seed)
//! sequence one request at a time produces — at any device worker count
//! and any store-schedule seed. Every one of the 13 apps is checked on a
//! mixed exact/variant batch, and on a batch mixing two approximate-memory
//! error rates with an exact run (each job carries its own rate) next to
//! a batch of exactly one run.

use paraprox::{compile, latency_table_for, CompileOptions, Device, DeviceApp, DeviceProfile};
use paraprox_apps::{registry, Scale};
use paraprox_runtime::{Approximable, BatchRun, EngineDiagnostics, RunOutcome};

/// Bind a fresh device app for one (workers, schedule-seed) setting.
fn bind(
    app: &paraprox_apps::App,
    compiled: &paraprox::Compiled,
    profile: &DeviceProfile,
    workers: usize,
    schedule_seed: Option<u64>,
) -> DeviceApp {
    let mut device = Device::new(profile.clone().with_parallelism(workers));
    device.set_schedule_seed(schedule_seed);
    DeviceApp::new(device, compiled, app.input_gen(Scale::Test))
}

/// A mixed batch: exact runs interleaved with the first and last
/// *runnable* variants (some candidate variants legitimately fail on the
/// device — e.g. a shared-memory table that does not fit — and the tuner
/// would never deploy those).
fn batch_runs(usable: &[usize], seeds: &[u64]) -> Vec<BatchRun> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let variant = if usable.is_empty() {
                None
            } else {
                // None, first, last, first, None, first, last, ...
                match i % 4 {
                    0 => None,
                    1 | 3 => Some(usable[0]),
                    _ => Some(*usable.last().expect("non-empty")),
                }
            };
            BatchRun { variant, seed }
        })
        .collect()
}

fn assert_outcomes_bit_identical(
    app: &str,
    setting: &str,
    reference: &[RunOutcome],
    got: &[RunOutcome],
) {
    assert_eq!(got.len(), reference.len(), "{app}: batch arity ({setting})");
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        assert_eq!(r.cycles, g.cycles, "{app}: run {i} cycles ({setting})");
        assert_eq!(
            r.output.len(),
            g.output.len(),
            "{app}: run {i} output length ({setting})"
        );
        for (j, (x, y)) in r.output.iter().zip(&g.output).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{app}: run {i} output[{j}] bits diverged ({setting})"
            );
        }
    }
}

/// Run `runs` one request at a time; returns the outcomes and the app's
/// cumulative executor diagnostics.
fn one_at_a_time(app: &mut DeviceApp, runs: &[BatchRun]) -> (Vec<RunOutcome>, EngineDiagnostics) {
    let outcomes = runs
        .iter()
        .map(|r| match r.variant {
            Some(v) => app.run_variant(v, r.seed),
            None => app.run_exact(r.seed),
        })
        .map(|out| out.expect("sequential run must succeed"))
        .collect();
    (outcomes, app.engine_diagnostics())
}

#[test]
fn all_apps_batched_execution_is_bit_identical_to_sequential() {
    let profile = DeviceProfile::gtx560();
    let seeds: Vec<u64> = (100..106).collect();
    for app in registry() {
        let workload = (app.build)(Scale::Test, 0);
        let compiled = compile(
            &workload,
            &latency_table_for(&profile),
            &CompileOptions::default(),
        )
        .expect("compile must succeed");

        // Probe which variants the device can actually run.
        let mut probe = bind(&app, &compiled, &profile, 1, None);
        let usable: Vec<usize> = (0..probe.variant_count())
            .filter(|&v| probe.run_variant(v, seeds[0]).is_ok())
            .collect();

        // Sequential reference: one request at a time, in batch order, on
        // the default single-worker device.
        let mut seq_app = bind(&app, &compiled, &profile, 1, None);
        let runs = batch_runs(&usable, &seeds);
        let (reference, seq_diag) = one_at_a_time(&mut seq_app, &runs);

        for workers in [1usize, 2, 4] {
            for schedule_seed in [None, Some(9u64)] {
                let setting = format!("x{workers} schedule {schedule_seed:?}");
                let mut batched = bind(&app, &compiled, &profile, workers, schedule_seed);
                let got = batched.run_batch(&runs).expect("batched run must succeed");
                assert_outcomes_bit_identical(app.spec.name, &setting, &reference, &got);
                // Superinstructions are fused when a kernel is compiled,
                // so both paths dispatch the same op stream.
                let diag = batched.engine_diagnostics();
                assert_eq!(
                    (diag.ops_dispatched, diag.fusions_hit),
                    (seq_diag.ops_dispatched, seq_diag.fusions_hit),
                    "{}: executed op stream diverged ({setting})",
                    app.spec.name
                );
                if workers == 1 && schedule_seed.is_none() {
                    // A second batch on the same app runs the programs the
                    // first compiled — the serving steady state. Outcomes
                    // must still be bit-identical (runs are
                    // history-independent).
                    let again = batched.run_batch(&runs).expect("second batch must succeed");
                    assert_outcomes_bit_identical(
                        app.spec.name,
                        &format!("{setting}, second batch"),
                        &reference,
                        &again,
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_rate_and_single_run_batches_are_bit_identical_to_sequential() {
    const RATES: [f64; 2] = [1e-3, 5e-2];
    let mut injected = 0;
    for profile in [DeviceProfile::gtx560(), DeviceProfile::core_i7_965()] {
        for app in registry() {
            let workload = (app.build)(Scale::Test, 0);
            let compiled = compile(
                &workload,
                &latency_table_for(&profile),
                &CompileOptions::default(),
            )
            .expect("compile must succeed");
            let bind_approx = |workers| {
                bind(&app, &compiled, &profile, workers, None).with_approx_memory(&compiled, &RATES)
            };
            let mut seq_app = bind_approx(1);
            let rungs = seq_app.variant_count();
            if rungs < compiled.variants.len() + RATES.len() {
                continue; // no tolerant buffer, so no approximate-memory rung
            }
            // The two rates, then exact, then the first rate again.
            let mixed: Vec<BatchRun> = [Some(rungs - 2), Some(rungs - 1), None, Some(rungs - 2)]
                .into_iter()
                .zip(200u64..)
                .map(|(variant, seed)| BatchRun { variant, seed })
                .collect();
            let single = [BatchRun {
                variant: Some(rungs - 1),
                seed: 300,
            }];
            let (mixed_ref, _) = one_at_a_time(&mut seq_app, &mixed);
            let (single_ref, seq_diag) = one_at_a_time(&mut seq_app, &single);
            injected += seq_diag.bit_flips;

            for workers in [1usize, 2] {
                let setting = format!("{} x{workers}", profile.name);
                let mut batched = bind_approx(workers);
                let got = batched.run_batch(&mixed).expect("mixed-rate batch");
                assert_outcomes_bit_identical(app.spec.name, &setting, &mixed_ref, &got);
                let got = batched.run_batch(&single).expect("batch of one");
                assert_outcomes_bit_identical(app.spec.name, &setting, &single_ref, &got);
                let diag = batched.engine_diagnostics();
                assert_eq!(
                    (diag.approx_loads, diag.bit_flips),
                    (seq_diag.approx_loads, seq_diag.bit_flips),
                    "{}: approximate-memory traffic ({setting})",
                    app.spec.name
                );
            }
        }
    }
    assert!(
        injected > 0,
        "no app injected a flip in the mixed-rate batch"
    );
}
