//! The batcher: serve a claimed tenant's queued requests in fused
//! deployment chunks.
//!
//! A worker that claims a tenant pops up to `batch_window` consecutive
//! requests (the tenant's FIFO order) and serves them here as one *batch*.
//! The batch is cut into rung-stable chunks by
//! [`Deployment::invoke_chunk`] — a chunk never crosses a calibration
//! boundary, so the watchdog sees exactly the per-request sequence it
//! would have seen — and each chunk executes through the application's
//! [`Approximable::run_batch`], which device-backed apps fuse into a
//! single multi-block dispatch over the worker-image pool. The
//! per-request decision trace (variants served, check qualities,
//! back-offs, re-promotions, errors) is bit-identical whatever the
//! window, a window of 1 included: that is the same loop over one item.
//! Only wall-clock cost changes.
//!
//! [`Approximable::run_batch`]: paraprox_runtime::Approximable::run_batch

use std::sync::mpsc;
use std::time::Instant;

use paraprox_runtime::{Approximable, Deployment, InvokeResult, RuntimeError};

use crate::engine::{Response, TenantId};
use crate::stats::TenantStats;

/// Everything a worker needs to serve one tenant. One mutex per tenant:
/// the scheduler guarantees at most one worker holds a tenant at a time,
/// so this lock is uncontended and exists only to move the state safely.
pub(crate) struct Core {
    pub app: Box<dyn Approximable + Send>,
    pub deployment: Deployment,
    pub stats: TenantStats,
}

/// One popped request, ready to serve.
pub(crate) struct BatchItem {
    pub seq: u64,
    pub seed: u64,
    /// Time the request waited in the tenant FIFO, nanoseconds.
    pub queue_nanos: u64,
    pub reply: mpsc::Sender<Response>,
}

/// Serve a claimed tenant's popped requests (at least one) and reply to
/// each ticket.
pub(crate) fn serve_claimed(tenant: TenantId, core: &mut Core, items: Vec<BatchItem>) {
    core.stats.batches += 1;
    core.stats.peak_batch = core.stats.peak_batch.max(items.len() as u64);
    let seeds: Vec<u64> = items.iter().map(|item| item.seed).collect();
    // Requests are independent submissions, so one failing must not take
    // its chunk-mates down: a failed chunk committed nothing, and the
    // rest of the batch is re-served one request at a time — only a
    // request that fails alone is answered with the error.
    let mut width = items.len();
    let mut done = 0;
    while done < items.len() {
        let offered = &seeds[done..items.len().min(done + width)];
        let started = Instant::now();
        let outcome = core.deployment.invoke_chunk(core.app.as_mut(), offered);
        let service_nanos = started.elapsed().as_nanos() as u64;
        match outcome {
            Ok(results) => {
                for r in results {
                    record(core, &items[done], service_nanos, Ok(r), tenant);
                    done += 1;
                }
            }
            Err(_) if offered.len() > 1 => width = 1,
            Err(e) => {
                record(core, &items[done], service_nanos, Err(&e), tenant);
                done += 1;
            }
        }
    }
}

/// Account one completed request in the tenant's stats and reply to its
/// ticket. A dropped ticket is not an error.
fn record(
    core: &mut Core,
    item: &BatchItem,
    service_nanos: u64,
    outcome: Result<InvokeResult, &RuntimeError>,
    tenant: TenantId,
) {
    core.stats.served += 1;
    core.stats.queue_ns.push(item.queue_nanos);
    core.stats.service_ns.push(service_nanos);
    let response = match outcome {
        Ok(r) => {
            core.stats.cycles += r.cycles;
            core.stats.backoffs += u64::from(r.backed_off);
            core.stats.promotions += u64::from(r.promoted);
            if let Some(q) = r.checked_quality {
                core.stats.quality.observe(q);
            }
            Response {
                tenant,
                seq: item.seq,
                seed: item.seed,
                output: r.output,
                cycles: r.cycles,
                variant: r.variant,
                checked_quality: r.checked_quality,
                backed_off: r.backed_off,
                promoted: r.promoted,
                queue_nanos: item.queue_nanos,
                service_nanos,
                error: None,
            }
        }
        Err(e) => {
            core.stats.errors += 1;
            Response {
                tenant,
                seq: item.seq,
                seed: item.seed,
                output: Vec::new(),
                cycles: 0,
                variant: None,
                checked_quality: None,
                backed_off: false,
                promoted: false,
                queue_nanos: item.queue_nanos,
                service_nanos,
                error: Some(e.to_string()),
            }
        }
    };
    let _ = item.reply.send(response);
}
