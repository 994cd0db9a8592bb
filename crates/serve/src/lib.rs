//! paraprox-serve: a multi-tenant approximate-kernel serving engine.
//!
//! The paper's runtime (§2, §5) tunes candidate kernels offline and then
//! deploys the fastest one meeting the target output quality (TOQ),
//! checking every N-th invocation against exact execution and backing off
//! when quality drifts. That loop assumes a single caller invoking one
//! deployment synchronously. This crate turns it into a *serving engine*:
//! a long-running process that owns one [`paraprox_runtime::Deployment`]
//! per registered application (a **tenant**), accepts kernel-invocation
//! requests through a bounded submission queue, coalesces them into fused
//! device batches, and dispatches them across a farm of work-stealing
//! device shards while the quality watchdog runs online — sampling served
//! requests on the configured cadence, walking down
//! [`paraprox_runtime::TuneReport::backoff_ladder`] on TOQ violations, and
//! re-promoting after a configurable streak of clean checks (hysteresis,
//! so recovered tenants climb back up without flapping).
//!
//! # Architecture: a pipeline of farms
//!
//! ```text
//!  stage 1: ADMISSION        stage 2: BATCHER         stage 3: SHARD FARM
//!
//!  submit() ── bounded ──▶ per-tenant FIFO ──▶ shard 0: [ready q] ─ workers
//!     │        budget          │        ╲       shard 1: [ready q] ─ workers
//!     ▼        (QueueFull      │     tenant ──▶ shard 2: [ready q] ─ workers
//!  reject w/    + retry-       │     affinity:      ▲ idle shards steal
//!  retry-after  after)      strict seq   t % shards │ ready tenants
//!  when full)               order per           a claiming worker pops up
//!                           tenant              to `batch_window` requests
//!                                               and serves them as ONE
//!                                               fused deployment batch
//! ```
//!
//! **Admission** is a single bounded budget over *admitted-but-incomplete*
//! requests (queued **and** in flight). When the budget is exhausted,
//! [`Engine::submit`] fails fast with [`SubmitError::QueueFull`] carrying
//! a retry-after hint instead of blocking the caller — classic
//! reject-with-backpressure.
//!
//! **Batching** happens at claim time: the worker that claims a ready
//! tenant pops up to [`ServeConfig::batch_window`] consecutive requests
//! and serves them as one batch. The deployment splits the batch into
//! rung-stable chunks (a chunk never crosses a calibration boundary —
//! [`paraprox_runtime::Deployment::plan_batch`]), and device-backed
//! applications fuse each chunk into a single multi-block launch over the
//! device's pooled worker images, amortizing per-request launch overhead.
//!
//! **Sharding**: workers are partitioned into [`ServeConfig::shards`]
//! shards; a tenant's home shard is `tenant % shards`, so its requests
//! keep hitting the same small worker set (device-state affinity). A
//! shard whose ready queue runs dry *steals* the oldest ready tenant from
//! another shard instead of idling.
//!
//! # Determinism
//!
//! Scheduling is per-tenant **actor style**: each tenant's requests are
//! processed strictly in submission order by at most one worker at a
//! time. Every watchdog decision depends only on the tenant's own request
//! order — never on cross-tenant interleaving, batch formation, or which
//! shard served it. Batch boundaries cannot shift a calibration check:
//! chunks are planned to end exactly at check boundaries, and fused
//! execution is bit-identical to sequential execution per run. The
//! sequence of served variants, check qualities, back-offs and
//! re-promotions is therefore **deterministic for a given seeded request
//! stream, independent of worker count, shard count, and batch window**.
//! Tests exploit this: the same stream replayed across shards × workers ×
//! windows yields bit-identical decision traces.
//!
//! Everything is built on `std` threads, mutexes and condition variables —
//! no external dependencies, in keeping with the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod drift;
mod engine;
mod loadgen;
mod shard;
mod stats;

pub use drift::drift_inputs;
pub use engine::{
    Engine, EngineBuilder, EngineSnapshot, Response, ServeConfig, SubmitError, TenantId, Ticket,
};
pub use loadgen::{run_closed_loop, LoadReport, LoadSpec, OpenLoopSpec};
pub use stats::{percentile, TenantSnapshot, TenantStats};
