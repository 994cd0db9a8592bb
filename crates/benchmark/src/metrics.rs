//! The names every later issue cites: workloads, end-to-end metrics and
//! per-layer metrics, with their units. `BENCHMARK.json` at the
//! repository root lists the same names (a test keeps the two in step).

use std::collections::BTreeMap;

/// Result-schema version, bumped when a metric is renamed or redefined.
pub const SCHEMA_VERSION: u32 = 1;

/// The six workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 6] = [
    "compile_sweep",
    "deploy_cold",
    "serve_closed",
    "serve_open_drift",
    "iter_converge",
    "kernel_exec",
];

/// An end-to-end metric: reported by every workload from untraced
/// repetitions, with the share of the parent's median by which it may
/// worsen before a change is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    pub bound: f64,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    end_to_end("setup_s", "s", "lower", 0.25),
    end_to_end("work_s", "s", "lower", 0.25),
    end_to_end("latency_p50_ms", "ms", "lower", 0.25),
    end_to_end("goodput_share", "share", "higher", 0.03),
    end_to_end("quality_min_pct", "%", "higher", 0.02),
    end_to_end("sim_speedup_geomean", "x", "higher", 0.15),
    end_to_end("peak_rss_mb", "MiB", "lower", 0.15),
];

/// Per-layer metrics (layer = crate name), reported by every workload
/// from a `--trace 1` run; a layer that does no work on a workload
/// reads `0`.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("lang.parse_us", "us"),
    ("apps.build_ms", "ms"),
    ("apps.input_gen_ms", "ms"),
    ("analysis.lint_ms", "ms"),
    ("analysis.partition_ms", "ms"),
    ("analysis.errorprop_ms", "ms"),
    ("patterns.detect_ms", "ms"),
    ("patterns.instances", "count"),
    ("approx.rewrite_ms", "ms"),
    ("approx.variants", "count"),
    ("core.compile_ms", "ms"),
    ("core.bind_ms", "ms"),
    ("runtime.tune_ms", "ms"),
    ("runtime.tune_self_ms", "ms"),
    ("runtime.calibration_runs", "count"),
    ("runtime.calibration_runs_saved", "count"),
    ("runtime.seeded_position_sum", "count"),
    ("runtime.invoke_self_us", "us"),
    ("runtime.checks", "count"),
    ("runtime.backoffs", "count"),
    ("runtime.promotions", "count"),
    ("runtime.toq_violation_share", "share"),
    ("quality.eval_ms", "ms"),
    ("vgpu.device_ms", "ms"),
    ("vgpu.launch_wall_ms", "ms"),
    ("vgpu.first_launch_ms", "ms"),
    ("vgpu.program_compiles", "count"),
    ("vgpu.ops_dispatched", "count"),
    ("vgpu.fusions_hit", "count"),
    ("vgpu.ns_per_op", "ns"),
    ("vgpu.sim_minst_per_s", "Minst/s"),
    ("vgpu.par2_speedup", "x"),
    ("vgpu.cycles_exact", "cycles"),
    ("vgpu.compute_cycles", "cycles"),
    ("vgpu.memory_cycles", "cycles"),
    ("vgpu.overhead_cycles", "cycles"),
    ("vgpu.load_transactions", "count"),
    ("vgpu.serialized_transactions", "count"),
    ("vgpu.bank_conflict_extra", "count"),
    ("vgpu.l1_hit_rate", "share"),
    ("vgpu.image_refresh_copies", "count"),
    ("vgpu.image_refresh_skips", "count"),
    ("serve.throughput_rps", "req/s"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.service_p99_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("serve.mean_batch", "requests"),
    ("serve.peak_batch", "requests"),
    ("serve.steals", "count"),
    ("serve.rejected", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.latency_p95_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.generator_lag_p99_ms", "ms"),
    ("iter.iterations", "count"),
    ("iter.residual_checks", "count"),
    ("iter.blocks", "count"),
    ("iter.self_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.residual_share", "share"),
    ("trace.spans", "count"),
];

/// Named values being assembled for one report.
pub type Values = BTreeMap<&'static str, f64>;

/// Unit of a metric of either kind.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is the contract the driver reads; the tables
    /// above are what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("{key} missing");
            };
            items
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            panic!()
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (listed, ours) in e2e.iter().zip(END_TO_END) {
            assert_eq!(listed.get("name").and_then(Json::as_str), Some(ours.name));
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(ours.unit));
            assert_eq!(
                listed.get("better").and_then(Json::as_str),
                Some(ours.better)
            );
            assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(ours.bound));
        }
        let Some(Json::Arr(layers)) = doc.get("per_layer") else {
            panic!()
        };
        assert_eq!(layers.len(), PER_LAYER.len());
        for (listed, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(listed.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(listed.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::str("crates/benchmark")]))
        );
    }

    #[test]
    fn names_are_unique_and_have_units() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        all.extend(PER_LAYER.iter().map(|(n, _)| *n));
        all.extend(WORKLOADS);
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
        assert_eq!(unit_of("work_s"), Some("s"));
        assert_eq!(unit_of("vgpu.ns_per_op"), Some("ns"));
        assert_eq!(unit_of("nope"), None);
    }
}
