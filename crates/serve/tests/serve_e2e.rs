//! End-to-end serving tests: deterministic drift/recovery across worker
//! counts, and bounded-queue backpressure.

use std::sync::mpsc;

use paraprox_runtime::{Approximable, RunOutcome, RuntimeError, Tuner};
use paraprox_serve::{Engine, ServeConfig, SubmitError, TenantId, Ticket};

/// A deterministic mock whose variant quality degrades for seeds inside a
/// window — the serving analogue of input drift. Quality depends only on
/// the seed, never on wall-clock or run order, so the watchdog's decision
/// trace is a pure function of the request stream.
struct Drifting {
    clean_quality: f64,
    drift_quality: f64,
    window: std::ops::Range<u64>,
    /// Seed on which the variant run fails.
    fail_variant_seed: Option<u64>,
    /// Seed on which the exact run fails.
    fail_exact_seed: Option<u64>,
}

impl Approximable for Drifting {
    fn variant_count(&self) -> usize {
        1
    }
    fn variant_label(&self, _: usize) -> String {
        "drifting".into()
    }
    fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError> {
        if self.fail_exact_seed == Some(seed) {
            return Err(RuntimeError(format!("exact run failed on seed {seed}")));
        }
        Ok(RunOutcome {
            output: vec![100.0],
            cycles: 1000,
        })
    }
    fn run_variant(&mut self, _: usize, seed: u64) -> Result<RunOutcome, RuntimeError> {
        if self.fail_variant_seed == Some(seed) {
            return Err(RuntimeError(format!("variant run failed on seed {seed}")));
        }
        let q = if self.window.contains(&seed) {
            self.drift_quality
        } else {
            self.clean_quality
        };
        Ok(RunOutcome {
            output: vec![q],
            cycles: 100,
        })
    }
    fn quality(&self, _exact: &[f64], approx: &[f64]) -> f64 {
        approx[0]
    }
}

/// One watchdog decision, as observed by the client.
#[derive(Debug, Clone, PartialEq)]
struct Decision {
    seq: u64,
    variant: Option<usize>,
    checked_quality: Option<f64>,
    backed_off: bool,
    promoted: bool,
    error: Option<String>,
}

/// The tenants of [`run_drift_stream`] that never fail.
const HEALTHY_TENANTS: usize = 3;
/// The last tenant's variant run fails on this seed (mid-chunk) ...
const FAILING_SERVED_SEED: u64 = 9;
/// ... and its exact run on this one, which it meets as the calibration
/// re-run of a check whose served run succeeded.
const FAILING_CALIBRATION_SEED: u64 = 16;

/// Serve `requests` seeded requests to three drifting tenants, and a
/// fourth that also fails two of its requests, on a `shards × workers`
/// farm coalescing up to `batch_window` requests per dispatch, and
/// return each tenant's decision trace in sequence order.
fn run_drift_stream(
    shards: usize,
    workers: usize,
    batch_window: usize,
    requests: u64,
) -> Vec<Vec<Decision>> {
    let drifting = |failing: bool| Drifting {
        clean_quality: 95.0,
        drift_quality: 70.0,
        // Seeds are the request sequence numbers: drift hits requests
        // 20..35 of every tenant, then recovers.
        window: 20..35,
        fail_variant_seed: failing.then_some(FAILING_SERVED_SEED),
        fail_exact_seed: failing.then_some(FAILING_CALIBRATION_SEED),
    };
    let report = Tuner::paper_default().tune(&mut drifting(false)).unwrap();
    let mut builder = Engine::builder(ServeConfig {
        queue_capacity: 1024,
        workers,
        shards,
        batch_window,
        check_every: 4,
        promote_after: 2,
        ..ServeConfig::paper_default()
    });
    let tenants: Vec<TenantId> = (0..=HEALTHY_TENANTS)
        .map(|i| {
            let app = Box::new(drifting(i == HEALTHY_TENANTS));
            builder.register(format!("tenant{i}"), app, &report)
        })
        .collect();
    let engine = builder.start();
    assert_eq!(engine.worker_count(), shards * workers);
    assert_eq!(engine.shard_count(), shards);

    let mut tickets: Vec<Vec<Ticket>> = (0..tenants.len()).map(|_| Vec::new()).collect();
    for seq in 0..requests {
        for &t in &tenants {
            tickets[t].push(engine.submit(t, seq).unwrap());
        }
    }
    let traces: Vec<Vec<Decision>> = tickets
        .into_iter()
        .map(|tenant_tickets| {
            tenant_tickets
                .into_iter()
                .map(|ticket| {
                    let r = ticket.wait().unwrap();
                    Decision {
                        seq: r.seq,
                        variant: r.variant,
                        checked_quality: r.checked_quality,
                        backed_off: r.backed_off,
                        promoted: r.promoted,
                        error: r.error,
                    }
                })
                .collect()
        })
        .collect();
    // The snapshot reads the watchdog's counters from each deployment;
    // they must add up to the decisions the responses carried.
    let snapshot = engine.shutdown();
    for (trace, tenant) in traces.iter().zip(&snapshot.tenants) {
        let count = |f: fn(&Decision) -> bool| trace.iter().filter(|d| f(d)).count() as u64;
        assert_eq!(tenant.checks, count(|d| d.checked_quality.is_some()));
        assert_eq!(tenant.backoffs, count(|d| d.backed_off));
        assert_eq!(tenant.promotions, count(|d| d.promoted));
    }
    traces
}

#[test]
fn drift_backs_off_and_repromotes_deterministically_across_worker_counts() {
    let requests = 60;
    // Reference: a single actor — one shard, one worker, batch window 1.
    let reference = run_drift_stream(1, 1, 1, requests);

    for trace in &reference[..HEALTHY_TENANTS] {
        assert!(trace.iter().all(|d| d.error.is_none()));
        // Per-tenant FIFO: responses arrive in submission order.
        let seqs: Vec<u64> = trace.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, (0..requests).collect::<Vec<u64>>());

        // Checks fire every 4th served request (seq 3, 7, 11, ...).
        let checked: Vec<u64> = trace
            .iter()
            .filter(|d| d.checked_quality.is_some())
            .map(|d| d.seq)
            .collect();
        assert_eq!(checked, (3..requests).step_by(4).collect::<Vec<u64>>());

        // Drift hits seeds 20..35: the first drifted check is seq 23, and
        // the watchdog must back off to exact there — within one check
        // window of the drift onset.
        let backoff: Vec<&Decision> = trace.iter().filter(|d| d.backed_off).collect();
        assert_eq!(backoff.len(), 1, "exactly one back-off");
        assert_eq!(backoff[0].seq, 23);
        assert_eq!(backoff[0].checked_quality, Some(70.0));
        assert_eq!(trace[24].variant, None, "serving exact after back-off");

        // Shadow probes at 27 and 31 still see drift (window ends at 35);
        // 35 and 39 are clean, so the 2-clean-check hysteresis re-promotes
        // at seq 39 and the variant serves again from seq 40.
        let promote: Vec<&Decision> = trace.iter().filter(|d| d.promoted).collect();
        assert_eq!(promote.len(), 1, "exactly one re-promotion");
        assert_eq!(promote[0].seq, 39);
        assert_eq!(
            trace[40].variant,
            Some(0),
            "variant restored after recovery"
        );
        assert_eq!(trace[59].variant, Some(0));
    }

    // The decision trace is a pure function of the request stream: more
    // workers must not change a single decision.
    for workers in [2, 4] {
        let trace = run_drift_stream(1, workers, 1, requests);
        assert_eq!(trace, reference, "{workers} workers diverged from 1");
    }
}

/// The tentpole guarantee: the per-tenant watchdog decision trace is
/// bit-identical at **any** shard count, worker count, and batch window.
/// Every cell of the {shards} × {workers} × {windows} matrix must replay
/// the single-actor reference exactly — batch formation is timing-
/// dependent (a worker pops whatever is queued, up to the window), so
/// this asserts that *when* requests coalesce cannot leak into *what*
/// the watchdog decides. That includes which requests fail: an erroring
/// request is answered with its error and nothing else of its tenant's
/// trace moves, whoever shared a chunk with it.
#[test]
fn decision_trace_is_identical_across_shards_workers_and_batch_windows() {
    let requests = 60;
    let reference = run_drift_stream(1, 1, 1, requests);
    let failed: Vec<u64> = reference[HEALTHY_TENANTS]
        .iter()
        .filter(|d| d.error.is_some())
        .map(|d| d.seq)
        .collect();
    assert_eq!(failed, [FAILING_SERVED_SEED, FAILING_CALIBRATION_SEED]);
    for shards in [1, 2, 4] {
        for workers in [1, 2, 4] {
            for window in [1, 8] {
                if (shards, workers, window) == (1, 1, 1) {
                    continue;
                }
                let trace = run_drift_stream(shards, workers, window, requests);
                assert_eq!(
                    trace, reference,
                    "shards={shards} workers={workers} window={window} \
                     diverged from the single-actor reference"
                );
            }
        }
    }
}

/// An app that blocks on a gate channel before completing, so the test
/// can hold requests in flight and fill the queue deterministically.
struct Gated {
    gate: mpsc::Receiver<()>,
}

impl Approximable for Gated {
    fn variant_count(&self) -> usize {
        0
    }
    fn variant_label(&self, _: usize) -> String {
        unreachable!("no variants")
    }
    fn run_exact(&mut self, _seed: u64) -> Result<RunOutcome, RuntimeError> {
        self.gate.recv().map_err(|e| RuntimeError(e.to_string()))?;
        Ok(RunOutcome {
            output: vec![1.0],
            cycles: 10,
        })
    }
    fn run_variant(&mut self, _: usize, _: u64) -> Result<RunOutcome, RuntimeError> {
        unreachable!("no variants")
    }
    fn quality(&self, _: &[f64], _: &[f64]) -> f64 {
        100.0
    }
}

#[test]
fn bounded_queue_rejects_with_retry_after_and_recovers() {
    let (gate_tx, gate_rx) = mpsc::channel();
    // No variants: the tune report yields an exact-only ladder, so every
    // request runs the gated exact kernel. Tuning runs on a separate
    // instance whose gate is pre-opened for the 10 training runs.
    let report = Tuner::paper_default()
        .tune(&mut Gated {
            gate: {
                let (tx, rx) = mpsc::channel();
                for _ in 0..10 {
                    tx.send(()).unwrap();
                }
                rx
            },
        })
        .unwrap();

    let capacity = 4;
    let mut builder = Engine::builder(ServeConfig {
        queue_capacity: capacity,
        workers: 1,
        ..ServeConfig::paper_default()
    });
    let id = builder.register("gated", Box::new(Gated { gate: gate_rx }), &report);
    let engine = builder.start();

    // Fill the admission budget: `capacity` requests admitted (one may be
    // in flight, blocked on the gate; in flight still counts).
    let tickets: Vec<Ticket> = (0..capacity as u64)
        .map(|s| engine.submit(id, s).unwrap())
        .collect();

    // The budget is exhausted: the next submission must be rejected, with
    // a retry-after hint equal to the admitted depth.
    match engine.submit(id, 99).unwrap_err() {
        SubmitError::QueueFull { retry_after } => assert_eq!(retry_after, capacity),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    // Rejection is sticky while nothing completes.
    assert!(matches!(
        engine.submit(id, 100),
        Err(SubmitError::QueueFull { .. })
    ));

    // Open the gate: all admitted requests complete...
    for _ in 0..capacity {
        gate_tx.send(()).unwrap();
    }
    for t in tickets {
        let r = t.wait().unwrap();
        assert!(r.error.is_none());
        assert_eq!(r.variant, None, "exact-only ladder");
    }

    // ...and admission recovers.
    gate_tx.send(()).unwrap();
    let ticket = engine.submit(id, 200).expect("queue drained: must admit");
    assert!(ticket.wait().unwrap().error.is_none());

    let snap = engine.shutdown();
    assert_eq!(snap.rejected, 2, "both over-budget submissions counted");
    assert_eq!(snap.tenants[0].served, capacity as u64 + 1);
    assert_eq!(snap.tenants[0].errors, 0);
}
