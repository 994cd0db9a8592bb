//! The serving engine: bounded admission, a request batcher, and a farm
//! of work-stealing device shards running the online quality watchdog.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use paraprox_quality::QualityStream;
use paraprox_runtime::{Approximable, Deployment, DeploymentConfig, Toq, TuneReport};

use crate::batch::{serve_claimed, BatchItem, Core};
use crate::shard::ShardSet;
use crate::stats::{percentile, TenantSnapshot, TenantStats};

/// Identifies a registered tenant (the index returned by
/// [`EngineBuilder::register`]).
pub type TenantId = usize;

/// Engine policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Maximum number of admitted-but-incomplete requests (queued *and*
    /// in flight) across all tenants. Submissions beyond this budget are
    /// rejected with [`SubmitError::QueueFull`]. Clamped to at least 1.
    pub queue_capacity: usize,
    /// Worker threads *per shard*; `0` means one per available CPU.
    pub workers: usize,
    /// Device shards. Tenants have affinity to shard `tenant % shards`;
    /// idle shards steal ready tenants from busy ones. Clamped to at
    /// least 1 — one shard reproduces the pre-sharding engine.
    pub shards: usize,
    /// Maximum consecutive requests of one tenant coalesced into a single
    /// fused batch. Clamped to at least 1: every request is then a batch
    /// of its own, served by the same code.
    pub batch_window: usize,
    /// Target output quality enforced by every tenant's watchdog.
    pub toq: Toq,
    /// Calibration cadence: check every `check_every`-th served request
    /// (per tenant). The paper's §5 cites 40–50 as keeping overhead under
    /// 5%; serving tests use smaller values to exercise the watchdog.
    pub check_every: u64,
    /// Consecutive clean checks required before re-promoting one rung up
    /// the ladder. `0` disables re-promotion (back-off only).
    pub promote_after: u64,
    /// EWMA smoothing factor for the streaming quality estimate.
    pub quality_alpha: f64,
}

impl ServeConfig {
    /// Paper-flavoured defaults: TOQ 90%, check every 40th request,
    /// re-promote after 3 clean checks, a 64-deep queue, auto workers,
    /// one shard, a batch window of 1.
    pub fn paper_default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            workers: 0,
            shards: 1,
            batch_window: 1,
            toq: Toq::paper_default(),
            check_every: 40,
            promote_after: 3,
            quality_alpha: 0.25,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission budget is exhausted. `retry_after` is the number of
    /// admitted-but-incomplete requests ahead of the caller — a hint for
    /// how many completions to wait for before resubmitting.
    QueueFull {
        /// Queue depth at rejection time (completions to wait for).
        retry_after: usize,
    },
    /// No tenant with that id is registered.
    UnknownTenant(TenantId),
    /// The engine is shutting down and no longer admits work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { retry_after } => {
                write!(f, "queue full: retry after {retry_after} completions")
            }
            SubmitError::UnknownTenant(id) => write!(f, "unknown tenant {id}"),
            SubmitError::ShuttingDown => write!(f, "engine is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The completed result of one admitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Tenant the request was for.
    pub tenant: TenantId,
    /// Per-tenant sequence number (0-based submission order).
    pub seq: u64,
    /// The request's input seed.
    pub seed: u64,
    /// Output values (empty when `error` is set).
    pub output: Vec<f64>,
    /// Simulated device cycles of the served execution.
    pub cycles: u64,
    /// The variant served (`None` = exact).
    pub variant: Option<usize>,
    /// Calibration quality when this request was a watchdog check.
    pub checked_quality: Option<f64>,
    /// Whether this request triggered a back-off.
    pub backed_off: bool,
    /// Whether this request triggered a re-promotion.
    pub promoted: bool,
    /// Time spent waiting for a worker, nanoseconds.
    pub queue_nanos: u64,
    /// Execution (service) time, nanoseconds. Requests fused into one
    /// chunk share the chunk's wall-clock time: they complete together.
    pub service_nanos: u64,
    /// Execution error, if the kernel failed.
    pub error: Option<String>,
}

/// Handle to one admitted request; redeem it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    /// Tenant the request was admitted for.
    pub tenant: TenantId,
    /// Per-tenant sequence number assigned at admission.
    pub seq: u64,
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Block until the request completes.
    ///
    /// # Errors
    ///
    /// Fails only if the engine's worker panicked before replying.
    pub fn wait(self) -> Result<Response, mpsc::RecvError> {
        self.rx.recv()
    }
}

struct Request {
    seq: u64,
    seed: u64,
    submitted_at: Instant,
    reply: mpsc::Sender<Response>,
}

/// Scheduler state, under a single short-held mutex.
struct State {
    /// Per-tenant FIFO of admitted requests.
    pending: Vec<VecDeque<Request>>,
    /// Whether the tenant is in a ready queue or held by a worker.
    scheduled: Vec<bool>,
    /// Per-tenant next sequence number.
    submitted: Vec<u64>,
    /// Deepest each tenant's FIFO has been.
    peak_depth: Vec<usize>,
    /// Per-shard ready queues (round-robin within a shard, stealing
    /// across shards).
    ready: ShardSet,
    /// Admitted-but-incomplete requests (queued + in flight).
    queued: usize,
    /// Submissions rejected by admission control.
    rejected: u64,
    shutdown: bool,
}

struct Shared {
    config: ServeConfig,
    names: Vec<String>,
    cores: Vec<Mutex<Core>>,
    state: Mutex<State>,
    /// Signals workers: work available, or shutdown drained.
    work_cv: Condvar,
}

/// Registers tenants, then [`EngineBuilder::start`]s the worker set.
pub struct EngineBuilder {
    config: ServeConfig,
    names: Vec<String>,
    cores: Vec<Mutex<Core>>,
}

impl EngineBuilder {
    /// Start building an engine with the given policy.
    pub fn new(config: ServeConfig) -> EngineBuilder {
        EngineBuilder {
            config,
            names: Vec::new(),
            cores: Vec::new(),
        }
    }

    /// Register a tenant: an application plus its offline tune report.
    /// The engine builds the tenant's deployment (back-off ladder,
    /// watchdog cadence, re-promotion hysteresis) from the engine config.
    /// Returns the tenant's id, used with [`Engine::submit`].
    pub fn register(
        &mut self,
        name: impl Into<String>,
        app: Box<dyn Approximable + Send>,
        report: &TuneReport,
    ) -> TenantId {
        let deployment = Deployment::with_config(
            report,
            DeploymentConfig {
                toq: self.config.toq,
                check_every: self.config.check_every,
                promote_after: self.config.promote_after,
            },
        );
        let stats = TenantStats::new(QualityStream::new(
            self.config.toq,
            self.config.quality_alpha,
        ));
        self.names.push(name.into());
        self.cores.push(Mutex::new(Core {
            app,
            deployment,
            stats,
        }));
        self.names.len() - 1
    }

    /// Spawn the persistent worker set — `shards × workers` threads, each
    /// pinned to one shard — and start serving.
    pub fn start(self) -> Engine {
        let tenants = self.names.len();
        let shards = self.config.shards.max(1);
        let per_shard = if self.config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.config.workers
        }
        .max(1);
        let shared = Arc::new(Shared {
            config: ServeConfig {
                queue_capacity: self.config.queue_capacity.max(1),
                shards,
                batch_window: self.config.batch_window.max(1),
                ..self.config
            },
            names: self.names,
            cores: self.cores,
            state: Mutex::new(State {
                pending: (0..tenants).map(|_| VecDeque::new()).collect(),
                scheduled: vec![false; tenants],
                submitted: vec![0; tenants],
                peak_depth: vec![0; tenants],
                ready: ShardSet::new(shards),
                queued: 0,
                rejected: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let handles = (0..shards * per_shard)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let shard = i % shards;
                std::thread::spawn(move || worker_loop(&shared, shard))
            })
            .collect();
        Engine { shared, handles }
    }
}

/// Point-in-time summary of the whole engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Tenant claims satisfied by stealing from another shard's queue.
    pub steals: u64,
    /// Per-tenant summaries, in registration order.
    pub tenants: Vec<TenantSnapshot>,
}

/// The running engine. Prefer [`Engine::shutdown`] (which returns the
/// final summary); dropping the engine also drains and joins the workers.
pub struct Engine {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for Engine {
    fn drop(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Engine {
    /// Build an engine. Register tenants, then `start()`.
    pub fn builder(config: ServeConfig) -> EngineBuilder {
        EngineBuilder::new(config)
    }

    /// The policy the engine runs under.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Registered tenant names, in registration order.
    pub fn tenant_names(&self) -> &[String] {
        &self.shared.names
    }

    /// Number of worker threads serving requests (across all shards).
    pub fn worker_count(&self) -> usize {
        self.handles.len()
    }

    /// Number of device shards.
    pub fn shard_count(&self) -> usize {
        self.shared.config.shards
    }

    /// Submit a request for `tenant` on the input derived from `seed`.
    ///
    /// Non-blocking admission: the request is either admitted — the
    /// returned [`Ticket`] completes once a worker has served it — or
    /// rejected immediately.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the admission budget is exhausted
    /// (with a retry-after hint), [`SubmitError::UnknownTenant`] for an
    /// unregistered id, [`SubmitError::ShuttingDown`] after shutdown
    /// begins.
    pub fn submit(&self, tenant: TenantId, seed: u64) -> Result<Ticket, SubmitError> {
        if tenant >= self.shared.names.len() {
            return Err(SubmitError::UnknownTenant(tenant));
        }
        let mut state = self.shared.state.lock().unwrap();
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queued >= self.shared.config.queue_capacity {
            state.rejected += 1;
            return Err(SubmitError::QueueFull {
                retry_after: state.queued,
            });
        }
        let seq = state.submitted[tenant];
        state.submitted[tenant] += 1;
        state.queued += 1;
        let (tx, rx) = mpsc::channel();
        state.pending[tenant].push_back(Request {
            seq,
            seed,
            submitted_at: Instant::now(),
            reply: tx,
        });
        state.peak_depth[tenant] = state.peak_depth[tenant].max(state.pending[tenant].len());
        if !state.scheduled[tenant] {
            state.scheduled[tenant] = true;
            state.ready.push(tenant);
            self.shared.work_cv.notify_one();
        }
        Ok(Ticket { tenant, seq, rx })
    }

    /// Point-in-time summary of every tenant. Taking a snapshot briefly
    /// locks each tenant's core in turn; in-flight requests for a tenant
    /// delay only that tenant's row.
    pub fn snapshot(&self) -> EngineSnapshot {
        let (rejected, steals, peaks) = {
            let state = self.shared.state.lock().unwrap();
            (state.rejected, state.ready.steals, state.peak_depth.clone())
        };
        let tenants = self
            .shared
            .cores
            .iter()
            .zip(&self.shared.names)
            .zip(&peaks)
            .map(|((core, name), &peak)| snapshot_core(&core.lock().unwrap(), name, peak))
            .collect();
        EngineSnapshot {
            rejected,
            steals,
            tenants,
        }
    }

    /// Stop admitting work, drain every already-admitted request, join
    /// the workers, and return the final summary.
    pub fn shutdown(mut self) -> EngineSnapshot {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        self.snapshot()
    }
}

fn snapshot_core(core: &Core, name: &str, peak_depth: usize) -> TenantSnapshot {
    let d = &core.deployment;
    let s = &core.stats;
    let diag = core.app.engine_diagnostics();
    TenantSnapshot {
        name: name.to_string(),
        served: s.served,
        errors: s.errors,
        checks: d.checks(),
        violations: d.violations(),
        backoffs: s.backoffs,
        promotions: s.promotions,
        rung: d.ladder()[d.position()].to_string(),
        position: d.position(),
        seeded_position: d.seeded_position(),
        ladder_len: d.ladder().len(),
        mean_quality: s.quality.mean(),
        min_quality: s.quality.min(),
        ewma_quality: s.quality.ewma(),
        cycles: s.cycles,
        batches: s.batches,
        peak_batch: s.peak_batch,
        peak_queue_depth: peak_depth,
        ops_dispatched: diag.ops_dispatched,
        fusions_hit: diag.fusions_hit,
        queue_p50_ns: percentile(&s.queue_ns, 50.0),
        queue_p99_ns: percentile(&s.queue_ns, 99.0),
        service_p50_ns: percentile(&s.service_ns, 50.0),
        service_p99_ns: percentile(&s.service_ns, 99.0),
    }
}

fn worker_loop(shared: &Shared, shard: usize) {
    loop {
        // Claim the next ready tenant — own shard first, then steal —
        // or exit once shutdown has drained. While the tenant is claimed,
        // pop up to `batch_window` consecutive requests: the batch.
        let (tenant, items) = {
            let mut state = shared.state.lock().unwrap();
            let tenant = loop {
                if let Some(t) = state.ready.claim(shard) {
                    break t;
                }
                if state.shutdown && state.queued == 0 {
                    return;
                }
                state = shared.work_cv.wait(state).unwrap();
            };
            let window = shared.config.batch_window;
            let mut items = Vec::with_capacity(window.min(state.pending[tenant].len()));
            while items.len() < window {
                let Some(request) = state.pending[tenant].pop_front() else {
                    break;
                };
                items.push(BatchItem {
                    seq: request.seq,
                    seed: request.seed,
                    queue_nanos: request.submitted_at.elapsed().as_nanos() as u64,
                    reply: request.reply,
                });
            }
            // A tenant only enters a ready queue with pending work.
            assert!(!items.is_empty(), "ready tenant has a pending request");
            (tenant, items)
        };
        let count = items.len();

        // Serve outside the scheduler lock. The per-tenant core mutex is
        // uncontended (only snapshot() may briefly touch it).
        {
            let mut core = shared.cores[tenant].lock().unwrap();
            serve_claimed(tenant, &mut core, items);
        }

        // Completion bookkeeping: release or re-enqueue the tenant.
        let mut state = shared.state.lock().unwrap();
        state.queued -= count;
        if state.pending[tenant].is_empty() {
            state.scheduled[tenant] = false;
        } else {
            // Back of the home queue: round-robin fairness across tenants.
            state.ready.push(tenant);
            shared.work_cv.notify_one();
        }
        if state.shutdown && state.queued == 0 {
            // Wake every idle worker so they observe the drained state.
            shared.work_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_runtime::{RunOutcome, RuntimeError, Tuner};

    /// Minimal deterministic app: one variant at fixed quality/cycles.
    struct Fixed {
        quality: f64,
    }

    impl Approximable for Fixed {
        fn variant_count(&self) -> usize {
            1
        }
        fn variant_label(&self, _: usize) -> String {
            "fixed".into()
        }
        fn run_exact(&mut self, _seed: u64) -> Result<RunOutcome, RuntimeError> {
            Ok(RunOutcome {
                output: vec![100.0],
                cycles: 1000,
            })
        }
        fn run_variant(&mut self, _: usize, _seed: u64) -> Result<RunOutcome, RuntimeError> {
            Ok(RunOutcome {
                output: vec![self.quality],
                cycles: 100,
            })
        }
        fn quality(&self, _exact: &[f64], approx: &[f64]) -> f64 {
            approx[0]
        }
    }

    fn fixed_engine(config: ServeConfig) -> (Engine, TenantId) {
        let report = Tuner::paper_default()
            .tune(&mut Fixed { quality: 95.0 })
            .unwrap();
        let mut builder = Engine::builder(config);
        let id = builder.register("fixed", Box::new(Fixed { quality: 95.0 }), &report);
        (builder.start(), id)
    }

    #[test]
    fn serves_and_snapshots() {
        let (engine, id) = fixed_engine(ServeConfig {
            workers: 2,
            check_every: 5,
            ..ServeConfig::paper_default()
        });
        assert_eq!(engine.tenant_names(), ["fixed".to_string()]);
        assert_eq!(engine.worker_count(), 2);
        assert_eq!(engine.shard_count(), 1);
        let tickets: Vec<Ticket> = (0..20).map(|s| engine.submit(id, s).unwrap()).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            assert_eq!(t.seq, i as u64);
            let r = t.wait().unwrap();
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.variant, Some(0));
            assert!(r.error.is_none());
            assert_eq!(r.output, vec![95.0]);
        }
        let snap = engine.shutdown();
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.steals, 0, "one shard never steals");
        let t = &snap.tenants[0];
        assert_eq!(t.served, 20);
        assert_eq!(t.checks, 4);
        assert_eq!(t.violations, 0);
        assert_eq!(t.rung, "v0");
        assert_eq!(t.mean_quality, Some(95.0));
        assert!(t.service_p99_ns >= t.service_p50_ns);
        assert_eq!(t.batches, 20, "window 1: every request is its own batch");
        assert_eq!(t.peak_batch, 1);
        assert!(t.peak_queue_depth >= 1);
    }

    /// Two rungs — v0 fast at quality 95, v1 slower at quality 99. With a
    /// static table attached to the tune report and a serving TOQ of 97%,
    /// the deployment must seed its starting rung past v0 (predicted 95)
    /// straight onto v1, and the snapshot must report where it started.
    struct Stepped;

    impl Approximable for Stepped {
        fn variant_count(&self) -> usize {
            2
        }
        fn variant_label(&self, i: usize) -> String {
            format!("v{i}")
        }
        fn run_exact(&mut self, _seed: u64) -> Result<RunOutcome, RuntimeError> {
            Ok(RunOutcome {
                output: vec![100.0],
                cycles: 1000,
            })
        }
        fn run_variant(&mut self, i: usize, _seed: u64) -> Result<RunOutcome, RuntimeError> {
            Ok(RunOutcome {
                output: vec![[95.0, 99.0][i]],
                cycles: [100, 200][i],
            })
        }
        fn quality(&self, _exact: &[f64], approx: &[f64]) -> f64 {
            approx[0]
        }
    }

    #[test]
    fn static_table_seeds_tenant_starting_rung() {
        let sq = |predicted: f64| paraprox_runtime::StaticQuality {
            label: String::new(),
            error_bound: 1.0 - predicted / 100.0,
            quality_floor: predicted,
            predicted_quality: predicted,
            predictive: true,
            refused: false,
            refusals: Vec::new(),
        };
        // Tune at the paper TOQ (90%): both rungs qualify, ladder is
        // [v0, v1, exact] by speedup.
        let statics = vec![sq(95.0), sq(99.0)];
        let report = Tuner::paper_default()
            .tune_with_static(&mut Stepped, &statics)
            .unwrap();
        // Serve at a stricter TOQ (97%): the static table disqualifies v0
        // up front, so the tenant starts on v1 without ever serving (and
        // then backing off from) the doomed rung.
        let mut builder = Engine::builder(ServeConfig {
            workers: 1,
            toq: Toq::new(97.0).unwrap(),
            check_every: 4,
            ..ServeConfig::paper_default()
        });
        let id = builder.register("stepped", Box::new(Stepped), &report);
        let engine = builder.start();
        let tickets: Vec<Ticket> = (0..8).map(|s| engine.submit(id, s).unwrap()).collect();
        for t in tickets {
            let r = t.wait().unwrap();
            assert_eq!(
                r.variant,
                Some(1),
                "every request served from the seeded rung"
            );
            assert_eq!(r.output, vec![99.0]);
            assert!(!r.backed_off);
        }
        let snap = engine.shutdown();
        let t = &snap.tenants[0];
        assert_eq!(t.seeded_position, 1, "v0 statically disqualified at TOQ 97");
        assert_eq!(
            t.position, 1,
            "no violations at 99 quality: still on the seed"
        );
        assert_eq!(t.rung, "v1");
        assert_eq!(t.backoffs, 0);
        assert_eq!(t.violations, 0);
    }

    /// An app that blocks on a gate before completing, so the test can
    /// pile up a deep queue behind the first request deterministically.
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
    fn batching_coalesces_queued_requests() {
        let (gate_tx, gate_rx) = mpsc::channel();
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
        let mut builder = Engine::builder(ServeConfig {
            workers: 1,
            batch_window: 8,
            queue_capacity: 256,
            ..ServeConfig::paper_default()
        });
        let id = builder.register("gated", Box::new(Gated { gate: gate_rx }), &report);
        let engine = builder.start();
        // The worker blocks on the gate inside its first batch, so the
        // remaining submissions pile up in the tenant FIFO.
        let tickets: Vec<Ticket> = (0..40).map(|s| engine.submit(id, s).unwrap()).collect();
        for _ in 0..40 {
            gate_tx.send(()).unwrap();
        }
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait().unwrap();
            assert_eq!(r.seq, i as u64, "batching preserves per-tenant order");
            assert!(r.error.is_none());
        }
        let snap = engine.shutdown();
        let t = &snap.tenants[0];
        assert_eq!(t.served, 40);
        // The first batch holds 1..=8 requests (a race with submission);
        // everything after it was already queued, so the window is full:
        // at most 1 + ceil(39 / 8) = 6 dispatches for 40 requests.
        assert!(
            t.batches <= 6,
            "expected coalescing, got {} batches for 40 requests",
            t.batches
        );
        assert_eq!(t.peak_batch, 8, "a full window must have formed");
        assert!(t.peak_queue_depth >= 32, "queue built up behind the gate");
    }

    #[test]
    fn sharded_engine_drains_all_tenants() {
        let report = Tuner::paper_default()
            .tune(&mut Fixed { quality: 95.0 })
            .unwrap();
        let mut builder = Engine::builder(ServeConfig {
            workers: 1,
            shards: 4,
            batch_window: 4,
            queue_capacity: 256,
            ..ServeConfig::paper_default()
        });
        let tenants: Vec<TenantId> = (0..3)
            .map(|i| builder.register(format!("t{i}"), Box::new(Fixed { quality: 95.0 }), &report))
            .collect();
        let engine = builder.start();
        assert_eq!(engine.worker_count(), 4, "one worker per shard");
        assert_eq!(engine.shard_count(), 4);
        let mut tickets = Vec::new();
        for s in 0..10 {
            for &t in &tenants {
                tickets.push(engine.submit(t, s).unwrap());
            }
        }
        for t in tickets {
            assert!(t.wait().unwrap().error.is_none());
        }
        let snap = engine.shutdown();
        for t in &snap.tenants {
            assert_eq!(t.served, 10);
        }
    }

    #[test]
    fn unknown_tenant_rejected() {
        let (engine, id) = fixed_engine(ServeConfig::paper_default());
        assert_eq!(
            engine.submit(id + 1, 0).unwrap_err(),
            SubmitError::UnknownTenant(id + 1)
        );
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_work_and_rejects_new() {
        let (engine, id) = fixed_engine(ServeConfig {
            workers: 1,
            ..ServeConfig::paper_default()
        });
        let tickets: Vec<Ticket> = (0..10).map(|s| engine.submit(id, s).unwrap()).collect();
        let snap = engine.shutdown();
        assert_eq!(snap.tenants[0].served, 10, "shutdown must drain the queue");
        for t in tickets {
            assert!(t.wait().is_ok(), "admitted requests must complete");
        }
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (engine, id) = fixed_engine(ServeConfig::paper_default());
        {
            let mut state = engine.shared.state.lock().unwrap();
            state.shutdown = true;
        }
        assert_eq!(engine.submit(id, 0).unwrap_err(), SubmitError::ShuttingDown);
        engine.shutdown();
    }

    #[test]
    fn submit_error_display() {
        assert!(SubmitError::QueueFull { retry_after: 3 }
            .to_string()
            .contains("retry after 3"));
        assert!(SubmitError::UnknownTenant(7).to_string().contains('7'));
        assert!(!SubmitError::ShuttingDown.to_string().is_empty());
    }

    #[test]
    fn round_robin_across_tenants_is_fair() {
        // Two tenants, one worker: completions must interleave rather than
        // drain one tenant before the other.
        let report = Tuner::paper_default()
            .tune(&mut Fixed { quality: 95.0 })
            .unwrap();
        let mut builder = Engine::builder(ServeConfig {
            workers: 1,
            queue_capacity: 64,
            ..ServeConfig::paper_default()
        });
        let a = builder.register("a", Box::new(Fixed { quality: 95.0 }), &report);
        let b = builder.register("b", Box::new(Fixed { quality: 95.0 }), &report);
        let engine = builder.start();
        let mut tickets = Vec::new();
        for s in 0..8 {
            tickets.push(engine.submit(a, s).unwrap());
            tickets.push(engine.submit(b, s).unwrap());
        }
        for t in tickets {
            t.wait().unwrap();
        }
        let snap = engine.shutdown();
        assert_eq!(snap.tenants[0].served, 8);
        assert_eq!(snap.tenants[1].served, 8);
        assert_eq!(snap.tenants[0].name, "a");
    }
}
