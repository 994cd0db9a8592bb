//! The two serving workloads, over the same four tenants (one per
//! pattern) on the simulated GTX 560.
//!
//! `serve_closed` measures the capacity of the batched path: two
//! shards, a batch window of 8, a closed loop with 16 requests in
//! flight and no drift. Queueing dominates latency; `plan_batch` /
//! `commit_batch`, fused multi-request launches and work stealing do
//! the work.
//!
//! `serve_open_drift` uses the same layers differently: one shard,
//! batch window 1 (the per-request `Deployment::invoke` path), an open
//! loop on a Poisson schedule at a fixed rate below saturation, and an
//! input-drift window that makes the watchdog back off, serve exact,
//! and re-promote. Latency is timed from each request's due time.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paraprox::{compile, latency_table_for, CompileOptions, Compiled, Device, DeviceApp};
use paraprox_apps::{App, Scale};
use paraprox_runtime::{Approximable, Toq, TuneReport};
use paraprox_serve::{drift_inputs, Engine, OpenLoopSpec, Response, ServeConfig, Ticket};

use super::{digest, digest_value, gtx560, pattern_apps, tuner};
use crate::adapter::{traced_input_gen, unit_key, Links, Traced};
use crate::harness::{Config, Rep, Workload};
use crate::metrics::Values;
use crate::reference::check_exact;
use crate::stats::geomean;
use crate::trace::{self, Span, SpanId, Summary};

/// Requests in flight in the closed loop.
const INFLIGHT: usize = 16;
/// Offered load of the open loop, requests per second over all tenants:
/// it keeps the single shard busy 30-35 % of the time on this stream
/// (drift window included) on the 2-core host this was sized on.
/// Far enough below saturation that the median latency follows service
/// time rather than amplifying every host hiccup through the queue.
const OPEN_RATE_RPS: f64 = 90.0;
/// A response later than this after its due time misses.
const DEADLINE_MS: f64 = 100.0;
/// Gain applied to every `f32` input inside the drift window.
const DRIFT_GAIN: f32 = 8.0;

struct Tenant {
    app: App,
    compiled: Compiled,
    report: TuneReport,
}

pub struct Serve {
    open: bool,
    tenants: Vec<Tenant>,
    links: Arc<Links>,
}

/// A submitted request the generator still holds the ticket of.
struct Pending {
    ticket: Ticket,
    unit: u64,
    span: SpanId,
    submit_ns: u64,
    /// How late the generator submitted it (open loop), nanoseconds.
    lag_ns: u64,
}

impl Serve {
    pub fn closed() -> Serve {
        Serve {
            open: false,
            tenants: Vec::new(),
            links: Arc::default(),
        }
    }

    pub fn open_drift() -> Serve {
        Serve {
            open: true,
            ..Serve::closed()
        }
    }

    /// Requests per tenant in one repetition.
    fn requests(&self, scale: Scale) -> u64 {
        match (scale, self.open) {
            (Scale::Test, _) => 24,
            (Scale::Paper, false) => 160,
            (Scale::Paper, true) => 64,
        }
    }

    /// Per-tenant request indices whose inputs drift: a quarter of the
    /// way in, for a third of the stream — long enough at paper scale
    /// for a back-off and a failed probe, and leaving room to re-promote
    /// before the stream ends.
    fn drift_window(&self, scale: Scale) -> (u64, u64) {
        let n = self.requests(scale);
        (n / 4, n / 4 + n / 3)
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            queue_capacity: 1024,
            workers: 1,
            shards: if self.open { 1 } else { 2 },
            batch_window: if self.open { 1 } else { 8 },
            toq: Toq::paper_default(),
            check_every: 8,
            promote_after: 2,
            quality_alpha: 0.25,
        }
    }

    /// A fresh engine over fresh devices, so every repetition starts
    /// from the same deployment state.
    fn engine(&self, cfg: &Config) -> Engine {
        let mut builder = Engine::builder(self.config());
        for (id, tenant) in self.tenants.iter().enumerate() {
            let mut input_gen = traced_input_gen(tenant.app.input_gen(cfg.scale));
            if self.open {
                let (from, until) = self.drift_window(cfg.scale);
                let base = cfg.seed_base();
                input_gen = drift_inputs(input_gen, base + from, base + until, DRIFT_GAIN);
            }
            let app = DeviceApp::new(Device::new(gtx560()), &tenant.compiled, input_gen);
            builder.register(
                tenant.app.spec.name,
                Box::new(Traced::for_tenant(app, id, Arc::clone(&self.links))),
                &tenant.report,
            );
        }
        builder.start()
    }

    fn submit(
        &self,
        engine: &Engine,
        tenant: usize,
        seed: u64,
        lag_ns: u64,
    ) -> Result<Pending, String> {
        let unit = unit_key(tenant, seed);
        let span = if trace::enabled() {
            let span = trace::reserve();
            self.links.insert(unit, span);
            span
        } else {
            0
        };
        let _span = trace::unit_span("serve", "submit", unit);
        let submit_ns = trace::now_ns();
        let ticket = engine.submit(tenant, seed).map_err(|e| e.to_string())?;
        Ok(Pending {
            ticket,
            unit,
            span,
            submit_ns,
            lag_ns,
        })
    }

    /// Wait for a response and record the request's life as spans: the
    /// request from submission to reply, and its queue wait as a child.
    /// Device spans opened by the shard worker are its other children.
    fn redeem(pending: Pending, root: SpanId) -> Result<(Response, u64), String> {
        let response = {
            let _span = trace::unit_span("serve", "wait", pending.unit);
            pending.ticket.wait().map_err(|e| e.to_string())?
        };
        let explicit = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            unit: pending.unit,
            layer: "serve",
            name,
            thread: 0,
            start_ns,
            end_ns,
        };
        let queued_until = pending.submit_ns + response.queue_nanos;
        trace::record(explicit(
            pending.span,
            root,
            "request",
            pending.submit_ns,
            queued_until + response.service_nanos,
        ));
        trace::record(explicit(
            trace::reserve(),
            pending.span,
            "queue_wait",
            pending.submit_ns,
            queued_until,
        ));
        Ok((response, pending.lag_ns))
    }

    fn closed_loop(
        &self,
        engine: &Engine,
        requests: u64,
        base: u64,
        rep: &mut Rep,
    ) -> Vec<(Response, u64)> {
        let root = trace::current();
        let mut outstanding: VecDeque<Pending> = VecDeque::new();
        let mut done = Vec::new();
        let mut redeem = |outstanding: &mut VecDeque<Pending>, rep: &mut Rep| {
            let oldest = outstanding.pop_front().expect("an outstanding request");
            match Serve::redeem(oldest, root) {
                Ok(r) => done.push(r),
                Err(e) => rep.fail(e),
            }
        };
        for i in 0..requests {
            for tenant in 0..self.tenants.len() {
                rep.attempted += 1;
                match self.submit(engine, tenant, base + i, 0) {
                    Ok(pending) => outstanding.push_back(pending),
                    Err(e) => rep.fail(e),
                }
                while outstanding.len() >= INFLIGHT {
                    redeem(&mut outstanding, rep);
                }
            }
        }
        while !outstanding.is_empty() {
            redeem(&mut outstanding, rep);
        }
        done
    }

    /// Submit on the arrival schedule whatever the engine's state; a
    /// request the admission queue refuses is dropped, not retried.
    fn open_loop(
        &self,
        engine: &Engine,
        requests: u64,
        cfg: &Config,
        rep: &mut Rep,
    ) -> Vec<(Response, u64)> {
        let root = trace::current();
        let tenants = self.tenants.len();
        let spec = OpenLoopSpec {
            requests: requests * tenants as u64,
            rate_rps: OPEN_RATE_RPS,
            seed_base: cfg.seed_base(),
            schedule_seed: cfg.seed + 7,
        };
        let mut next = vec![0u64; tenants];
        let mut pending = Vec::new();
        let started = Instant::now();
        for (i, due_ns) in spec.arrival_offsets_ns().into_iter().enumerate() {
            let now = started.elapsed().as_nanos() as u64;
            if due_ns > now {
                let _span = trace::span("benchmark", "sleep");
                std::thread::sleep(Duration::from_nanos(due_ns - now));
            }
            let lag_ns = (started.elapsed().as_nanos() as u64).saturating_sub(due_ns);
            let tenant = i % tenants;
            let seed = spec.seed_base + next[tenant];
            next[tenant] += 1;
            rep.attempted += 1;
            match self.submit(engine, tenant, seed, lag_ns) {
                Ok(p) => pending.push(p),
                Err(e) => rep.fail(e),
            }
        }
        let mut done = Vec::new();
        for p in pending {
            match Serve::redeem(p, root) {
                Ok(r) => done.push(r),
                Err(e) => rep.fail(e),
            }
        }
        done
    }

    fn repetition_of(&self, cfg: &Config, requests: u64, verify: bool) -> Rep {
        let mut rep = Rep::default();
        self.links.clear();
        let engine = {
            let _span = trace::span("benchmark", "prepare");
            self.engine(cfg)
        };
        let started = Instant::now();
        let done = if self.open {
            self.open_loop(&engine, requests, cfg, &mut rep)
        } else {
            self.closed_loop(&engine, requests, cfg.seed_base(), &mut rep)
        };
        let wall = started.elapsed().as_secs_f64();
        let snapshot = {
            let _span = trace::span("serve", "shutdown");
            engine.shutdown()
        };
        let _span = trace::span("benchmark", "account");

        // Per tenant, in sequence order: the decision trace, and service
        // time counted once per fused chunk (every request of a chunk
        // reports the chunk's whole service time).
        let mut by_tenant: Vec<Vec<&Response>> = vec![Vec::new(); self.tenants.len()];
        for (response, lag_ns) in &done {
            by_tenant[response.tenant].push(response);
            let latency_ms = (lag_ns + response.queue_nanos + response.service_nanos) as f64 / 1e6;
            if let Some(e) = &response.error {
                rep.fail(format!(
                    "{} request {}: {e}",
                    self.tenants[response.tenant].app.spec.name, response.seq
                ));
            } else if latency_ms <= DEADLINE_MS || !self.open {
                rep.on_time += 1;
            }
            for (key, value) in [
                ("serve.latency_ms", latency_ms),
                ("serve.queue_wait_ms", response.queue_nanos as f64 / 1e6),
                ("serve.service_ms", response.service_nanos as f64 / 1e6),
                ("serve.lag_ms", *lag_ns as f64 / 1e6),
            ] {
                rep.samples.entry(key).or_default().push(value);
            }
        }
        let (mut busy_ns, mut decisions) = (0u64, 0u64);
        for responses in &mut by_tenant {
            responses.sort_by_key(|r| r.seq);
            let mut last = None;
            for r in responses.iter() {
                if last != Some(r.service_nanos) {
                    busy_ns += r.service_nanos;
                }
                last = Some(r.service_nanos);
                let decision = [
                    r.variant.map_or(-1.0, |v| v as f64),
                    r.checked_quality.unwrap_or(-1.0),
                    f64::from(u8::from(r.backed_off)) + 2.0 * f64::from(u8::from(r.promoted)),
                ];
                decisions = digest(&decision, decisions);
                if verify && r.variant.is_none() && r.error.is_none() {
                    let tenant = &self.tenants[r.tenant];
                    let drifted = self.open && {
                        let (from, until) = self.drift_window(cfg.scale);
                        (cfg.seed_base() + from..cfg.seed_base() + until).contains(&r.seed)
                    };
                    if !drifted {
                        if let Err(e) = check_exact(
                            &tenant.app,
                            cfg.scale,
                            r.seed,
                            &tenant.compiled.workload.pipeline,
                            &r.output,
                        ) {
                            rep.fail(format!("{} seed {}: {e}", tenant.app.spec.name, r.seed));
                        }
                    }
                }
            }
        }

        rep.parts.push(if self.open {
            busy_ns as f64 / 1e9
        } else {
            wall
        });
        let sum = |f: fn(&paraprox_serve::TenantSnapshot) -> u64| -> f64 {
            snapshot.tenants.iter().map(f).sum::<u64>() as f64
        };
        let served = sum(|t| t.served);
        let checks = sum(|t| t.checks);
        let speedups: Vec<f64> = snapshot
            .tenants
            .iter()
            .zip(&self.tenants)
            .map(|(snap, tenant)| {
                tenant.report.exact_cycles * snap.served as f64 / snap.cycles.max(1) as f64
            })
            .collect();
        let quality = snapshot
            .tenants
            .iter()
            .map(|t| t.mean_quality.unwrap_or(100.0))
            .fold(100.0, f64::min);
        rep.exact.extend([
            ("quality_min_pct", quality),
            ("sim_speedup_geomean", geomean(&speedups)),
            ("runtime.checks", checks),
            ("runtime.backoffs", sum(|t| t.backoffs)),
            ("runtime.promotions", sum(|t| t.promotions)),
            (
                "runtime.toq_violation_share",
                sum(|t| t.violations) / checks.max(1.0),
            ),
            (
                "runtime.seeded_position_sum",
                sum(|t| t.seeded_position as u64),
            ),
            ("decisions", digest_value(decisions)),
        ]);
        rep.timed.extend([
            ("serve.throughput_rps", done.len() as f64 / wall),
            ("busy_ms", busy_ns as f64 / 1e6),
            ("serve.mean_batch", served / sum(|t| t.batches).max(1.0)),
            (
                "serve.peak_batch",
                snapshot
                    .tenants
                    .iter()
                    .map(|t| t.peak_batch)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("serve.steals", snapshot.steals as f64),
            ("serve.rejected", snapshot.rejected as f64),
            (
                "serve.peak_queue_depth",
                snapshot
                    .tenants
                    .iter()
                    .map(|t| t.peak_queue_depth)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("vgpu.ops_dispatched", sum(|t| t.ops_dispatched)),
            ("vgpu.fusions_hit", sum(|t| t.fusions_hit)),
        ]);
        rep
    }
}

impl Workload for Serve {
    /// Compile and tune the four tenants once; every engine binds fresh
    /// devices to the same reports (outcomes are a pure function of
    /// profile, program and seed, so the tune transfers).
    fn setup(&mut self, cfg: &Config) -> Result<(), String> {
        let profile = gtx560();
        self.tenants = pattern_apps()
            .into_iter()
            .map(|app| {
                let workload = (app.build)(cfg.scale, cfg.seed_base());
                let compiled = compile(
                    &workload,
                    &latency_table_for(&profile),
                    &CompileOptions::default(),
                )
                .map_err(|e| e.to_string())?;
                let mut scratch = DeviceApp::new(
                    Device::new(profile.clone()),
                    &compiled,
                    app.input_gen(cfg.scale),
                );
                let statics = scratch.static_quality().to_vec();
                let report = tuner()
                    .tune_with_static(&mut scratch, &statics)
                    .map_err(|e| e.to_string())?;
                let exact = scratch
                    .run_exact(cfg.seed_base())
                    .map_err(|e| e.to_string())?;
                check_exact(
                    &app,
                    cfg.scale,
                    cfg.seed_base(),
                    &workload.pipeline,
                    &exact.output,
                )?;
                Ok(Tenant {
                    app,
                    compiled,
                    report,
                })
            })
            .collect::<Result<_, String>>()?;
        // Warm-up: a short repetition through the same paths.
        let warm = self.repetition_of(cfg, self.requests(cfg.scale) / 4, true);
        match warm.errors.first() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    fn repetition(&mut self, cfg: &Config) -> Rep {
        self.repetition_of(cfg, self.requests(cfg.scale), false)
    }

    /// What the shard workers spent outside the application: batching,
    /// planning, committing and replying on the batched path; on the
    /// per-request path, where service time *is* `Deployment::invoke`,
    /// the same remainder is the deployment's own time per request.
    fn layer_metrics(&self, _spans: &[Span], summary: &Summary, rep: &Rep, out: &mut Values) {
        let inside: f64 = ["run_exact", "run_variant", "run_batch"]
            .iter()
            .map(|name| summary.total_ms("vgpu", name))
            .sum::<f64>()
            + summary.total_ms("quality", "eval");
        let own_ms = (rep.timed["busy_ms"] - inside).max(0.0);
        if self.open {
            let requests = rep.samples["serve.service_ms"].len().max(1);
            out.insert("runtime.invoke_self_us", own_ms * 1e3 / requests as f64);
        } else {
            out.insert("serve.self_ms", own_ms);
        }
    }
}
