//! Serving-engine benchmark: drift/watchdog behavior, batched-vs-unbatched
//! capacity, and an open-loop offered-load sweep, on both device profiles.
//!
//! ```sh
//! cargo run --release -p paraprox-bench --bin bench_serve            # full
//! cargo run --release -p paraprox-bench --bin bench_serve -- --smoke # quick
//! ```
//!
//! Writes `BENCH_serve.json` into the current directory. Three sections
//! per device profile:
//!
//! 1. **drift**: seeded closed-loop streams with a mid-stream drift window
//!    (every `f32` input scaled by the gain), recording TOQ violations and
//!    watchdog recalibrations. The stream is seeded, so reruns replay it —
//!    and the decision trace is identical at any shard count, worker
//!    count, or batch window.
//! 2. **capacity**: the same seeded stream pushed closed-loop through the
//!    single-shard engine at batch window 1 (the same code, one request a
//!    batch) and through
//!    the sharded+batched engine; the ratio is the speedup from coalescing
//!    requests into fused multi-block launches. In `--smoke` mode a ratio
//!    below 0.90 fails the run (perf gate — the margin absorbs wall-clock
//!    noise on small hosts where the batching win is near parity, while
//!    still catching real serving-path regressions).
//! 3. **offered-load sweep**: a deterministic open-loop generator (Poisson
//!    arrivals from a seeded PRNG, independent of service times) offers
//!    fractions of the measured batched capacity; each point records
//!    achieved throughput, drop rate, and latency percentiles. Below
//!    saturation latency is flat and drops are zero; past saturation the
//!    admission queue overflows and the engine sheds load instead of
//!    collapsing.

use paraprox::{Compiled, Device, DeviceApp, DeviceProfile};
use paraprox_apps::{App, Scale};
use paraprox_bench::{both_devices, compile_app};
use paraprox_runtime::{Toq, TuneReport, Tuner};
use paraprox_serve::{
    drift_inputs, run_closed_loop, run_open_loop, Engine, LoadSpec, OpenLoopSpec, ServeConfig,
    TenantId, TenantSnapshot,
};

struct BenchShape {
    scale: Scale,
    requests: u64,
    drift_at: u64,
    drift_len: u64,
    check_every: u64,
    promote_after: u64,
    /// Closed-loop requests per tenant for each capacity measurement.
    capacity_requests: u64,
    /// Offered-load fractions of the measured batched capacity.
    sweep_fractions: &'static [f64],
    /// Target seconds of offered load per sweep point.
    sweep_seconds: f64,
    /// Bounds on total requests per sweep point.
    sweep_requests: (u64, u64),
}

const DRIFT_GAIN: f32 = 8.0;
const APPS: [&str; 4] = ["Black", "Gamma", "Mean", "Gaussian"];
const SEED_BASE: u64 = 1000;
const BATCHED_SHARDS: usize = 2;
const BATCH_WINDOW: usize = 8;

/// One tenant application, compiled and tuned once per profile; every
/// engine build reuses the report and binds a fresh device instance
/// (outcomes are a pure function of profile, program, and seed, so the
/// tune transfers).
struct Prepared {
    app: App,
    compiled: Compiled,
    report: TuneReport,
}

fn prepare(profile: &DeviceProfile, scale: Scale, toq: Toq) -> Vec<Prepared> {
    APPS.iter()
        .map(|name| {
            let app = paraprox_apps::find(name).expect("registered app");
            let compiled = compile_app(&app, scale, profile, &Default::default());
            let mut scratch = DeviceApp::new(
                Device::new(profile.clone()),
                &compiled,
                app.input_gen(scale),
            );
            let report = Tuner {
                toq,
                training_seeds: (0..3).collect(),
            }
            .tune(&mut scratch)
            .expect("tuning must succeed");
            Prepared {
                app,
                compiled,
                report,
            }
        })
        .collect()
}

/// Build a serving engine over the prepared tenants. `drift` wraps each
/// input generator in the mid-stream gain window.
fn build_engine(
    prepared: &[Prepared],
    profile: &DeviceProfile,
    scale: Scale,
    config: ServeConfig,
    drift: Option<(u64, u64)>,
) -> (Engine, Vec<TenantId>) {
    let mut builder = Engine::builder(config);
    let tenants = prepared
        .iter()
        .map(|p| {
            let mut input_gen = p.app.input_gen(scale);
            if let Some((at, len)) = drift {
                input_gen =
                    drift_inputs(input_gen, SEED_BASE + at, SEED_BASE + at + len, DRIFT_GAIN);
            }
            let device_app = DeviceApp::new(Device::new(profile.clone()), &p.compiled, input_gen);
            builder.register(p.app.spec.name, Box::new(device_app), &p.report)
        })
        .collect();
    (builder.start(), tenants)
}

fn serve_config(toq: Toq, shape: &BenchShape, shards: usize, batch_window: usize) -> ServeConfig {
    ServeConfig {
        queue_capacity: 1024,
        shards,
        workers: 1,
        batch_window,
        toq,
        check_every: shape.check_every,
        promote_after: shape.promote_after,
        quality_alpha: 0.25,
    }
}

/// Closed-loop capacity of one engine configuration on the shared seeded
/// stream, in requests per second. Best of two runs: capacity is a
/// maximum-sustainable-rate question, and the second run also absorbs
/// warm-up effects (host allocator, fused-artifact stores).
fn measure_capacity(
    prepared: &[Prepared],
    profile: &DeviceProfile,
    shape: &BenchShape,
    toq: Toq,
    shards: usize,
    batch_window: usize,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..2 {
        let (engine, tenants) = build_engine(
            prepared,
            profile,
            shape.scale,
            serve_config(toq, shape, shards, batch_window),
            None,
        );
        let spec = LoadSpec {
            requests: shape.capacity_requests,
            seed_base: SEED_BASE,
            inflight: 64,
        };
        let load = run_closed_loop(&engine, &tenants, &spec, |_| {});
        engine.shutdown();
        assert_eq!(load.errors, 0, "no request may fail");
        best = best.max(load.throughput_rps());
    }
    best
}

fn json_opt(q: Option<f64>) -> String {
    q.map_or("null".to_string(), |v| format!("{v:.3}"))
}

fn tenant_json(t: &TenantSnapshot) -> String {
    format!(
        "        {{\n          \"app\": {:?},\n          \"served\": {},\n          \"errors\": {},\n          \"checks\": {},\n          \"violations\": {},\n          \"backoffs\": {},\n          \"promotions\": {},\n          \"recalibrations\": {},\n          \"final_rung\": {:?},\n          \"ladder_len\": {},\n          \"mean_quality\": {},\n          \"min_quality\": {},\n          \"batches\": {},\n          \"mean_batch\": {:.2},\n          \"peak_batch\": {},\n          \"peak_queue_depth\": {},\n          \"service_p50_ms\": {:.3},\n          \"service_p99_ms\": {:.3},\n          \"queue_p50_ms\": {:.3},\n          \"queue_p99_ms\": {:.3}\n        }}",
        t.name,
        t.served,
        t.errors,
        t.checks,
        t.violations,
        t.backoffs,
        t.promotions,
        t.recalibrations(),
        t.rung,
        t.ladder_len,
        json_opt(t.mean_quality),
        json_opt(t.min_quality),
        t.batches,
        t.mean_batch(),
        t.peak_batch,
        t.peak_queue_depth,
        t.service_p50_ns as f64 / 1e6,
        t.service_p99_ns as f64 / 1e6,
        t.queue_p50_ns as f64 / 1e6,
        t.queue_p99_ns as f64 / 1e6,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke {
        BenchShape {
            scale: Scale::Test,
            requests: 24,
            drift_at: 6,
            drift_len: 8,
            check_every: 4,
            promote_after: 2,
            capacity_requests: 60,
            sweep_fractions: &[0.5, 1.0],
            sweep_seconds: 0.3,
            sweep_requests: (20, 120),
        }
    } else {
        BenchShape {
            scale: Scale::Paper,
            requests: 80,
            drift_at: 25,
            drift_len: 20,
            check_every: 8,
            promote_after: 2,
            capacity_requests: 240,
            sweep_fractions: &[0.25, 0.5, 0.75, 0.9, 1.0, 1.1],
            sweep_seconds: 2.0,
            sweep_requests: (320, 4800),
        }
    };
    let toq = Toq::paper_default();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serving engine: {} scale, {} requests/tenant (drift), {}/tenant (capacity), drift {}..{} at {DRIFT_GAIN}x, check every {}, host has {host_cores} core(s)\n",
        if smoke { "test (smoke)" } else { "paper" },
        shape.requests,
        shape.capacity_requests,
        shape.drift_at,
        shape.drift_at + shape.drift_len,
        shape.check_every,
    );

    let mut profile_entries = Vec::new();
    let mut gate_failures = Vec::new();
    for (tag, profile) in both_devices() {
        println!("== {tag} ({}) ==", profile.name);
        let prepared = prepare(&profile, shape.scale, toq);

        // -- Section 1: drift / watchdog (the pre-existing benchmark) --
        let (engine, tenants) = build_engine(
            &prepared,
            &profile,
            shape.scale,
            serve_config(toq, &shape, BATCHED_SHARDS, BATCH_WINDOW),
            Some((shape.drift_at, shape.drift_len)),
        );
        let workers = engine.worker_count();
        let spec = LoadSpec {
            requests: shape.requests,
            seed_base: SEED_BASE,
            inflight: 8,
        };
        let load = run_closed_loop(&engine, &tenants, &spec, |_| {});
        let snap = engine.shutdown();
        assert_eq!(load.errors, 0, "no request may fail");

        println!(
            "{:>32} {:>6} {:>5} {:>7} {:>7} {:>7} {:>9} {:>9}",
            "tenant", "served", "viol", "recal", "rung", "meanQ", "p50", "p99"
        );
        for t in &snap.tenants {
            println!(
                "{:>32} {:>6} {:>5} {:>7} {:>7} {:>6.1}% {:>7.2}ms {:>7.2}ms",
                t.name,
                t.served,
                t.violations,
                t.recalibrations(),
                t.rung,
                t.mean_quality.unwrap_or(100.0),
                t.service_p50_ns as f64 / 1e6,
                t.service_p99_ns as f64 / 1e6,
            );
        }
        println!(
            "drift stream: {:.1} req/s over {:.2}s with {workers} worker(s)",
            load.throughput_rps(),
            load.wall_nanos as f64 / 1e9
        );

        // -- Section 2: batched-vs-unbatched capacity on one stream --
        let baseline_rps = measure_capacity(&prepared, &profile, &shape, toq, 1, 1);
        let batched_rps = measure_capacity(
            &prepared,
            &profile,
            &shape,
            toq,
            BATCHED_SHARDS,
            BATCH_WINDOW,
        );
        let speedup = batched_rps / baseline_rps;
        println!(
            "capacity: unbatched 1x1x1 {baseline_rps:.1} req/s, batched {BATCHED_SHARDS}x1 window {BATCH_WINDOW} {batched_rps:.1} req/s -> {speedup:.2}x"
        );
        // A hard >= 1.0 gate flaps on small hosts where the batching win
        // is near parity (recorded margins ~1.04x on one core): leave
        // headroom for wall-clock noise, fail on genuine regressions.
        if speedup < 0.90 {
            gate_failures.push(format!("{tag}: {speedup:.2}x"));
        }

        // -- Section 3: open-loop offered-load sweep --
        let mut sweep_entries = Vec::new();
        for &fraction in shape.sweep_fractions {
            let rate = batched_rps * fraction;
            let requests = ((rate * shape.sweep_seconds) as u64)
                .clamp(shape.sweep_requests.0, shape.sweep_requests.1);
            let (engine, tenants) = build_engine(
                &prepared,
                &profile,
                shape.scale,
                serve_config(toq, &shape, BATCHED_SHARDS, BATCH_WINDOW),
                None,
            );
            let open = run_open_loop(&engine, &tenants, &OpenLoopSpec::new(requests, rate));
            engine.shutdown();
            assert_eq!(open.errors, 0, "no admitted request may fail");
            println!(
                "  offered {:>8.1} req/s ({:>4.0}% of capacity, {requests} reqs): achieved {:>8.1} req/s, drops {:>5.1}%, p50 {:>7.2}ms p95 {:>7.2}ms p99 {:>7.2}ms",
                rate,
                fraction * 100.0,
                open.achieved_rps(),
                open.drop_rate() * 100.0,
                open.latency_p(50.0) as f64 / 1e6,
                open.latency_p(95.0) as f64 / 1e6,
                open.latency_p(99.0) as f64 / 1e6,
            );
            sweep_entries.push(format!(
                "        {{\"fraction\": {fraction:.2}, \"offered_rps\": {rate:.2}, \"requests\": {requests}, \"achieved_rps\": {:.2}, \"completed\": {}, \"dropped\": {}, \"drop_rate\": {:.4}, \"latency_p50_ms\": {:.3}, \"latency_p95_ms\": {:.3}, \"latency_p99_ms\": {:.3}}}",
                open.achieved_rps(),
                open.completed,
                open.dropped,
                open.drop_rate(),
                open.latency_p(50.0) as f64 / 1e6,
                open.latency_p(95.0) as f64 / 1e6,
                open.latency_p(99.0) as f64 / 1e6,
            ));
        }
        println!();

        profile_entries.push(format!(
            "    {{\n      \"profile\": {tag:?},\n      \"device\": {:?},\n      \"workers\": {workers},\n      \"throughput_rps\": {:.2},\n      \"wall_s\": {:.3},\n      \"completed\": {},\n      \"retries\": {},\n      \"steals\": {},\n      \"capacity\": {{\n        \"requests_per_tenant\": {},\n        \"baseline_rps\": {baseline_rps:.2},\n        \"batched_rps\": {batched_rps:.2},\n        \"speedup\": {speedup:.3},\n        \"baseline\": {{\"shards\": 1, \"workers\": 1, \"batch_window\": 1}},\n        \"batched\": {{\"shards\": {BATCHED_SHARDS}, \"workers\": 1, \"batch_window\": {BATCH_WINDOW}}}\n      }},\n      \"offered_load_sweep\": [\n{}\n      ],\n      \"tenants\": [\n{}\n      ]\n    }}",
            profile.name,
            load.throughput_rps(),
            load.wall_nanos as f64 / 1e9,
            load.completed,
            load.retries,
            snap.steals,
            shape.capacity_requests,
            sweep_entries.join(",\n"),
            snap.tenants
                .iter()
                .map(tenant_json)
                .collect::<Vec<_>>()
                .join(",\n")
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"serving_engine\",\n  \"scale\": {:?},\n  \"toq\": {:.1},\n  \"check_every\": {},\n  \"promote_after\": {},\n  \"queue_capacity\": 1024,\n  \"requests_per_tenant\": {},\n  \"seed_base\": {SEED_BASE},\n  \"drift\": {{\"at\": {}, \"len\": {}, \"gain\": {DRIFT_GAIN:.1}}},\n  \"host_cores\": {host_cores},\n  \"note\": \"Seeded streams through the pipeline-of-farms serving engine. drift: closed-loop with a mid-stream input-drift window; the online watchdog backs off down the tuned ladder and re-promotes after the clean streak. capacity: the same stream through the single-shard unbatched path vs the sharded+batched path (fused multi-block launches); fusion amortizes per-launch host overhead (thread scopes, per-worker arena clones, program-cache lookups) across the batch, so the speedup grows with host cores and shrinks as kernels dwarf launch overhead — on a single-core host at paper scale it is near parity, while overhead-dominated test scale shows the gain. offered_load_sweep: deterministic open-loop Poisson arrivals at fractions of the batched capacity; past saturation the bounded admission queue sheds load. Decision traces are identical at any shard count, worker count, and batch window.\",\n  \"profiles\": [\n{}\n  ]\n}}\n",
        if smoke { "test" } else { "paper" },
        toq.percent(),
        shape.check_every,
        shape.promote_after,
        shape.requests,
        shape.drift_at,
        shape.drift_len,
        profile_entries.join(",\n")
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");

    if smoke && !gate_failures.is_empty() {
        eprintln!(
            "PERF GATE FAILED: sharded+batched engine slower than single-shard unbatched baseline: {}",
            gate_failures.join(", ")
        );
        std::process::exit(1);
    }
}
