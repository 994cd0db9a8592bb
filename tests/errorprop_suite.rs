//! Integration tests for the static error-propagation table (tier-2):
//! on all 13 paper applications and every auto-generated rung — the
//! rewrite variants plus two approximate-memory rates, one
//! DRAM-refresh-plausible and one the table should prune — the promises
//! `StaticQuality` makes to the tuner hold.
//!
//! * **Soundness.** A rung the analysis did not refuse never measures a
//!   metric error above its `error_bound`. Refused rungs claim no bound.
//! * **Usefulness.** The table prunes calibration launches somewhere,
//!   otherwise it is dead weight.
//! * **No lost deployment.** Pruning may cost speedup (a mispredicted
//!   rung goes unmeasured) but never pushes a tunable app back to exact.

use paraprox::{
    compile, latency_table_for, CompileOptions, Device, DeviceApp, DeviceProfile, Metric,
    StaticQuality, Toq,
};
use paraprox_apps::{registry, App, Scale};
use paraprox_runtime::{Approximable, Tuner};

const APPROX_RATES: [f64; 2] = [1e-7, 1e-2];
const MEASURE_SEEDS: u64 = 2;
const TRAINING_SEEDS: u64 = 3;
/// Slack for float accumulation in the metric itself.
const SOUNDNESS_EPS: f64 = 1e-9;

/// The app bound to a fresh GTX 560 with both approximate-memory rungs
/// appended, its static table (one entry per rung), and the metric the
/// table's bounds are stated in.
fn bind(app: &App) -> (DeviceApp, Vec<StaticQuality>, Metric) {
    let profile = DeviceProfile::gtx560();
    let workload = (app.build)(Scale::Test, 0);
    let compiled = compile(
        &workload,
        &latency_table_for(&profile),
        &CompileOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{}: {e}", app.spec.name));
    let dapp = DeviceApp::new(Device::new(profile), &compiled, app.input_gen(Scale::Test))
        .with_approx_memory(&compiled, &APPROX_RATES);
    let statics = dapp.static_quality().to_vec();
    assert_eq!(
        statics.len(),
        dapp.variant_count(),
        "{}: the static table must cover every rung",
        app.spec.name
    );
    (dapp, statics, compiled.workload.metric)
}

/// Static error bounds are never exceeded. A rung that cannot execute at
/// this scale (a shared-placement table larger than shared memory) has no
/// measurement; the tuner treats it as non-qualifying and so do we.
#[test]
fn measured_error_never_exceeds_the_static_bound() {
    for app in registry() {
        let (mut dapp, statics, metric) = bind(&app);
        for seed in 0..MEASURE_SEEDS {
            let exact = dapp.run_exact(seed).expect("exact run");
            for (i, sq) in statics.iter().enumerate() {
                let Ok(run) = dapp.run_variant(i, seed) else {
                    continue;
                };
                let err = metric.error(&exact.output, &run.output);
                // Written as the violation so that a rung whose bound is
                // infinite (it claims nothing) passes even when flipped
                // exponent bits drive the measured error to NaN.
                let violated = !sq.refused && err > sq.error_bound + SOUNDNESS_EPS;
                assert!(
                    !violated,
                    "{}: rung {i} ({}): measured error {err:.6} exceeds static bound {:.6} (seed {seed})",
                    app.spec.name,
                    sq.label,
                    sq.error_bound
                );
            }
        }
    }
}

/// The static table pays for itself in skipped calibration launches on at
/// least one app, and whenever the purely dynamic tuner finds a
/// qualifying rung the statically-pruned tune finds one too.
#[test]
fn static_pruning_saves_launches_and_never_loses_a_deployment() {
    let tuner = Tuner {
        toq: Toq::paper_default(),
        training_seeds: (0..TRAINING_SEEDS).collect(),
    };
    let mut saved = 0u64;
    for app in registry() {
        let (mut dapp, statics, _) = bind(&app);
        let pruned = tuner
            .tune_with_static(&mut dapp, &statics)
            .expect("tune with static table");
        saved += pruned.calibration_launches_saved;
        let dynamic = tuner.tune(&mut dapp).expect("dynamic tune");
        assert!(
            dynamic.chosen.is_none() || pruned.chosen.is_some(),
            "{}: static pruning left no qualifying rung, but the dynamic tuner chose rung {:?}",
            app.spec.name,
            dynamic.chosen
        );
    }
    assert!(
        saved > 0,
        "no app pruned any rung: the static table saved nothing"
    );
}
