//! Load generation for serving experiments: the closed-loop driver and
//! the open-loop arrival schedule.
//!
//! **Closed loop** ([`run_closed_loop`]) drives an [`Engine`] the way the
//! paper's measurement loops drive a deployment: a fixed number of seeded
//! requests per tenant, submitted round-robin with a bounded number
//! outstanding (so the generator never outruns the engine by more than
//! `inflight`). Admission rejections are honoured as designed: on
//! [`SubmitError::QueueFull`] the generator waits for its oldest
//! outstanding ticket — a completion *is* the retry-after signal — and
//! resubmits. A closed loop measures *capacity*: the engine is never
//! starved, so completed/wall-clock is saturation throughput.
//!
//! **Open loop** ([`OpenLoopSpec::arrival_offsets_ns`]) is a precomputed
//! arrival schedule — exponential inter-arrival gaps drawn
//! deterministically from a SplitMix64 stream — for a driver that submits
//! regardless of how fast the engine drains (the end-to-end benchmark's
//! `serve_open_drift` workload). The schedule depends only on
//! `(schedule_seed, rate_rps, requests)`, never on observed service
//! times, so two engines under comparison face the *same* offered stream.
//!
//! Seeds are `seed_base + sequence`, so a run is fully described by its
//! spec and reproducible by construction; keeping `seed_base` above the
//! tuner's training seeds ensures serving traffic never replays a
//! training input.

use std::collections::VecDeque;
use std::time::Instant;

use crate::engine::{Engine, Response, SubmitError, TenantId, Ticket};

/// Shape of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadSpec {
    /// Requests per tenant.
    pub requests: u64,
    /// First request seed; request `i` of every tenant uses
    /// `seed_base + i`. Keep this above the training seeds so serving
    /// traffic is disjoint from tuning traffic.
    pub seed_base: u64,
    /// Maximum outstanding (admitted, not yet redeemed) tickets. Clamped
    /// to at least 1.
    pub inflight: usize,
}

impl LoadSpec {
    /// `requests` per tenant from seed 1000, 8 outstanding.
    pub fn new(requests: u64) -> LoadSpec {
        LoadSpec {
            requests,
            seed_base: 1000,
            inflight: 8,
        }
    }
}

/// What a closed-loop run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Wall-clock duration of the whole run, nanoseconds.
    pub wall_nanos: u64,
    /// Responses redeemed (requests per tenant × tenants).
    pub completed: u64,
    /// Submissions rejected with `QueueFull` and retried to success.
    pub retries: u64,
    /// Responses carrying an execution error.
    pub errors: u64,
}

impl LoadReport {
    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.wall_nanos as f64 / 1e9)
    }
}

/// Drive `spec.requests` seeded requests per tenant through the engine,
/// round-robin, redeeming every ticket. `on_response` sees each response
/// as it is redeemed (per tenant, in sequence order).
///
/// # Errors
///
/// The first [`SubmitError`] other than `QueueFull` (an unknown tenant
/// id, or submission racing shutdown) ends the run; tickets already
/// admitted are abandoned, and the engine serves them as usual.
///
/// # Panics
///
/// Panics if a worker dies without replying.
pub fn run_closed_loop(
    engine: &Engine,
    tenants: &[TenantId],
    spec: &LoadSpec,
    mut on_response: impl FnMut(&Response),
) -> Result<LoadReport, SubmitError> {
    let inflight = spec.inflight.max(1);
    let mut outstanding: VecDeque<Ticket> = VecDeque::with_capacity(inflight);
    let mut report = LoadReport {
        wall_nanos: 0,
        completed: 0,
        retries: 0,
        errors: 0,
    };
    let mut redeem_oldest = |outstanding: &mut VecDeque<Ticket>, report: &mut LoadReport| {
        let ticket = outstanding.pop_front().expect("an outstanding ticket");
        let response = ticket.wait().expect("worker must reply");
        report.completed += 1;
        report.errors += u64::from(response.error.is_some());
        on_response(&response);
    };

    let started = Instant::now();
    for i in 0..spec.requests {
        let seed = spec.seed_base + i;
        for &tenant in tenants {
            loop {
                match engine.submit(tenant, seed) {
                    Ok(ticket) => {
                        outstanding.push_back(ticket);
                        break;
                    }
                    Err(SubmitError::QueueFull { .. }) => {
                        // Backpressure: drain one completion, then retry.
                        // The admission counter releases a batch's slots
                        // only after the whole batch is served, so the
                        // queue can read full for a moment after our last
                        // ticket has already been redeemed — with nothing
                        // left to drain, just yield until a slot frees.
                        report.retries += 1;
                        if outstanding.is_empty() {
                            std::thread::yield_now();
                        } else {
                            redeem_oldest(&mut outstanding, &mut report);
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            while outstanding.len() >= inflight {
                redeem_oldest(&mut outstanding, &mut report);
            }
        }
    }
    while !outstanding.is_empty() {
        redeem_oldest(&mut outstanding, &mut report);
    }
    report.wall_nanos = started.elapsed().as_nanos() as u64;
    Ok(report)
}

/// Shape of an open-loop run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSpec {
    /// Total requests across all tenants (assigned round-robin).
    pub requests: u64,
    /// Offered load, requests per second across all tenants. Arrival gaps
    /// are exponential with this rate (a Poisson arrival process).
    pub rate_rps: f64,
    /// First request seed; request `i` of every tenant uses
    /// `seed_base + i` (the same seed-per-sequence convention as
    /// [`LoadSpec`]).
    pub seed_base: u64,
    /// Seed of the arrival schedule's SplitMix64 stream. The schedule is
    /// a pure function of `(schedule_seed, rate_rps, requests)`.
    pub schedule_seed: u64,
}

impl OpenLoopSpec {
    /// `requests` arrivals at `rate_rps`, seeds from 1000, schedule 7.
    pub fn new(requests: u64, rate_rps: f64) -> OpenLoopSpec {
        OpenLoopSpec {
            requests,
            rate_rps,
            seed_base: 1000,
            schedule_seed: 7,
        }
    }

    /// The arrival schedule: nanosecond offsets from the run's start, one
    /// per request, strictly derived from the spec (service times never
    /// feed back into it). Gaps are `-ln(u)/rate` with `u` uniform in
    /// `(0, 1]` from SplitMix64 — exponential inter-arrivals.
    pub fn arrival_offsets_ns(&self) -> Vec<u64> {
        let rate = self.rate_rps.max(1e-9);
        let mut state = self.schedule_seed;
        let mut at_ns = 0.0f64;
        (0..self.requests)
            .map(|_| {
                let bits = paraprox_prng::splitmix64(&mut state);
                // Uniform in (0, 1]: never 0, so ln(u) is finite.
                let u = ((bits >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                at_ns += -u.ln() / rate * 1e9;
                at_ns as u64
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeConfig;
    use paraprox_runtime::{Approximable, RunOutcome, RuntimeError, Tuner};

    struct Echo;

    impl Approximable for Echo {
        fn variant_count(&self) -> usize {
            0
        }
        fn variant_label(&self, _: usize) -> String {
            unreachable!()
        }
        fn run_exact(&mut self, seed: u64) -> Result<RunOutcome, RuntimeError> {
            Ok(RunOutcome {
                output: vec![seed as f64],
                cycles: 1,
            })
        }
        fn run_variant(&mut self, _: usize, _: u64) -> Result<RunOutcome, RuntimeError> {
            unreachable!()
        }
        fn quality(&self, _: &[f64], _: &[f64]) -> f64 {
            100.0
        }
    }

    #[test]
    fn closed_loop_completes_every_request_under_tiny_queue() {
        let report = Tuner::paper_default().tune(&mut Echo).unwrap();
        let mut builder = Engine::builder(ServeConfig {
            // Queue smaller than inflight × tenants: the loop must absorb
            // QueueFull rejections via retries and still finish.
            queue_capacity: 2,
            workers: 2,
            ..ServeConfig::paper_default()
        });
        let a = builder.register("a", Box::new(Echo), &report);
        let b = builder.register("b", Box::new(Echo), &report);
        let engine = builder.start();
        let spec = LoadSpec {
            requests: 25,
            seed_base: 1000,
            inflight: 8,
        };
        let mut seen = Vec::new();
        let load = run_closed_loop(&engine, &[a, b], &spec, |r| {
            assert_eq!(r.output, vec![r.seed as f64]);
            seen.push((r.tenant, r.seq, r.seed));
        })
        .unwrap();
        assert_eq!(load.completed, 50);
        assert_eq!(load.errors, 0);
        assert!(load.throughput_rps() > 0.0);
        // Per tenant: all 25 seqs redeemed in order, seeds offset by base.
        for t in [a, b] {
            let seqs: Vec<u64> = seen.iter().filter(|x| x.0 == t).map(|x| x.1).collect();
            assert_eq!(seqs, (0..25).collect::<Vec<u64>>());
        }
        assert!(seen.iter().all(|x| x.2 == 1000 + x.1));
        let snap = engine.shutdown();
        assert_eq!(snap.tenants[0].served + snap.tenants[1].served, 50);
    }

    #[test]
    fn closed_loop_reports_an_unknown_tenant_instead_of_panicking() {
        let report = Tuner::paper_default().tune(&mut Echo).unwrap();
        let mut builder = Engine::builder(ServeConfig::paper_default());
        let a = builder.register("a", Box::new(Echo), &report);
        let engine = builder.start();
        // Tenant `a` is admitted before the unregistered id is offered;
        // its abandoned ticket must not wedge shutdown.
        let load = run_closed_loop(&engine, &[a, a + 1], &LoadSpec::new(4), |_| {});
        assert_eq!(load, Err(SubmitError::UnknownTenant(a + 1)));
        let snap = engine.shutdown();
        assert_eq!(snap.tenants[0].served, 1);
    }

    #[test]
    fn arrival_schedule_is_deterministic_and_monotone() {
        let spec = OpenLoopSpec::new(500, 10_000.0);
        let a = spec.arrival_offsets_ns();
        let b = spec.arrival_offsets_ns();
        assert_eq!(a, b, "schedule is a pure function of the spec");
        assert_eq!(a.len(), 500);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are sorted");
        // Mean gap of exponential(rate) is 1/rate: 100µs at 10k rps. The
        // 500-arrival sample mean should be within a factor of two.
        let mean_gap = a.last().unwrap() / 500;
        assert!(
            (50_000..200_000).contains(&mean_gap),
            "mean gap {mean_gap}ns far from 100µs"
        );
        // A different schedule seed yields a different schedule.
        let other = OpenLoopSpec {
            schedule_seed: 8,
            ..spec
        };
        assert_ne!(other.arrival_offsets_ns(), a);
    }
}
