//! The six workloads. Each stresses a different set of layers; the
//! reasons are recorded in `README.md` and `BENCHMARK.json`.

mod compile_sweep;
mod deploy_cold;
mod iter_converge;
mod kernel_exec;
mod serve;

use paraprox::DeviceProfile;
use paraprox_apps::App;
use paraprox_runtime::{Toq, Tuner};
use paraprox_vgpu::LaunchStats;

use crate::harness::{Rep, Workload};

/// Look a workload up by its fixed name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "compile_sweep" => Box::new(compile_sweep::CompileSweep::default()),
        "deploy_cold" => Box::new(deploy_cold::DeployCold::default()),
        "serve_closed" => Box::new(serve::Serve::closed()),
        "serve_open_drift" => Box::new(serve::Serve::open_drift()),
        "iter_converge" => Box::new(iter_converge::IterConverge::default()),
        "kernel_exec" => Box::new(kernel_exec::KernelExec::default()),
        _ => return None,
    })
}

/// The paper's two machines with host parallelism pinned to one worker,
/// so a device never competes with the benchmark for the two cores.
fn profiles() -> [DeviceProfile; 2] {
    [gtx560(), DeviceProfile::core_i7_965().with_parallelism(1)]
}

fn gtx560() -> DeviceProfile {
    DeviceProfile::gtx560().with_parallelism(1)
}

/// TOQ 90 %, training seeds `0..3` — disjoint from every measurement
/// seed, which start at `Config::seed_base() >= 1000`.
fn tuner() -> Tuner {
    Tuner {
        toq: Toq::paper_default(),
        training_seeds: (0..3).collect(),
    }
}

/// One application per pattern the paper rewrites: map (memoization),
/// stencil, reduction and scan.
fn pattern_apps() -> Vec<App> {
    [
        "BlackScholes",
        "Mean Filter",
        "Matrix Multiply",
        "Cumulative Frequency Histogram",
    ]
    .iter()
    .map(|name| paraprox_apps::find(name).expect("registered application"))
    .collect()
}

/// A digest of an output that fits an `f64` exactly, so "the outputs
/// repeated bit for bit" can ride along with the other exact values.
fn digest(outputs: &[f64], seed: u64) -> u64 {
    outputs.iter().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest_value(digest: u64) -> f64 {
    (digest >> 12) as f64
}

/// The counters of `now` that were added since `then` (the fields
/// [`record_stats`] reports).
fn stats_since(now: &LaunchStats, then: &LaunchStats) -> LaunchStats {
    LaunchStats {
        compute_cycles: now.compute_cycles - then.compute_cycles,
        memory_cycles: now.memory_cycles - then.memory_cycles,
        overhead_cycles: now.overhead_cycles - then.overhead_cycles,
        instructions: now.instructions - then.instructions,
        load_transactions: now.load_transactions - then.load_transactions,
        serialized_transactions: now.serialized_transactions - then.serialized_transactions,
        bank_conflict_extra: now.bank_conflict_extra - then.bank_conflict_extra,
        l1_hits: now.l1_hits - then.l1_hits,
        l1_misses: now.l1_misses - then.l1_misses,
        blocks: now.blocks - then.blocks,
        wall_nanos: now.wall_nanos - then.wall_nanos,
        ops_dispatched: now.ops_dispatched - then.ops_dispatched,
        fusions_hit: now.fusions_hit - then.fusions_hit,
        ..LaunchStats::default()
    }
}

/// Report a repetition's exact launches: the simulated counters (which
/// must repeat exactly) and the simulator's own host-side figures.
fn record_stats(stats: &LaunchStats, rep: &mut Rep) {
    rep.exact.extend([
        ("vgpu.cycles_exact", stats.total_cycles() as f64),
        ("vgpu.compute_cycles", stats.compute_cycles as f64),
        ("vgpu.memory_cycles", stats.memory_cycles as f64),
        ("vgpu.overhead_cycles", stats.overhead_cycles as f64),
        ("vgpu.load_transactions", stats.load_transactions as f64),
        (
            "vgpu.serialized_transactions",
            stats.serialized_transactions as f64,
        ),
        ("vgpu.bank_conflict_extra", stats.bank_conflict_extra as f64),
        ("vgpu.l1_hit_rate", stats.l1_hit_rate()),
    ]);
    rep.timed.extend([
        ("vgpu.launch_wall_ms", stats.wall_nanos as f64 / 1e6),
        ("vgpu.ops_dispatched", stats.ops_dispatched as f64),
        ("vgpu.fusions_hit", stats.fusions_hit as f64),
        (
            "vgpu.ns_per_op",
            stats.wall_nanos as f64 / stats.ops_dispatched.max(1) as f64,
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use paraprox_apps::Scale;

    use crate::harness::{run, Config};
    use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
    use crate::trace;

    /// One `Scale::Test` smoke run per workload and mode: every named
    /// metric present and finite, nothing failed. Nothing at
    /// `Scale::Paper` runs under `cargo test`.
    #[test]
    fn every_workload_reports_every_metric_at_test_scale() {
        let _guard = trace::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for name in WORKLOADS {
            for traced in [false, true] {
                let cfg = Config {
                    seed: 3,
                    seconds: 0.0,
                    trace: traced,
                    scale: Scale::Test,
                    setups: 1,
                    min_reps: 1,
                };
                let mut workload = super::by_name(name).unwrap();
                let outcome = run(name, workload.as_mut(), &cfg);
                assert!(outcome.correct(), "{name}: {:?}", outcome.errors);
                let expected: Vec<&str> = if traced {
                    PER_LAYER.iter().map(|m| m.0).collect()
                } else {
                    END_TO_END.iter().map(|m| m.name).collect()
                };
                let got: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
                assert_eq!(got, expected, "{name}");
                for (metric, value) in &outcome.metrics {
                    assert!(value.is_finite(), "{name}: {metric} = {value}");
                }
                if !traced {
                    for (metric, value) in &outcome.metrics {
                        assert!(*value > 0.0, "{name}: {metric} must never read 0");
                    }
                }
            }
        }
        assert!(super::by_name("nope").is_none());
    }
}
