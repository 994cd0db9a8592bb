//! Iterative loop-of-stencil-reduce jobs with convergence-aware
//! approximation schedules.
//!
//! Paraprox's pattern rewrites treat each kernel launch as an isolated
//! request: detect a pattern, emit an approximate variant, let the runtime
//! tuner pick a rung. Many data-parallel applications, however, are
//! *iterative solvers*: the same stencil kernel is launched over a
//! ping-pong buffer pair until a residual reduction falls under a
//! tolerance. For those, the interesting approximation knobs live on the
//! **loop**, not on any single launch:
//!
//! - **Sampled convergence checks** — evaluate the residual only every
//!   `k`-th iteration, and on a deterministic [`paraprox_prng`]-derived
//!   sample of the grid rather than every element.
//! - **Residual-trend early exit** — feed measured residual decay ratios
//!   into a [`paraprox_quality::QualityStream`] EWMA and stop as soon as
//!   the extrapolated trend lands under tolerance.
//!
//! Every schedule runs the exact stencil: re-applying Paraprox's
//! per-launch stencil rewrite inside the loop (a reduced-reach ramp for
//! the early iterations) costs more iterations than it saves per
//! iteration (the `reach-ramp` rung measured 0.21x).
//!
//! This crate makes that loop a first-class job model:
//!
//! - [`IterModel`] packages the stencil kernel, a shared residual-reduce
//!   kernel over the ping-pong pair, launch geometry, and a quality
//!   metric.
//! - [`ConvergenceSpec`] states when the loop is done (absolute/relative
//!   residual tolerance, iteration cap).
//! - [`IterSchedule`] is one point in the schedule space; schedules are
//!   exposed as rungs through [`paraprox_runtime::Approximable`], so the
//!   offline tuner and the serving-time TOQ back-off ladder own the knobs
//!   exactly as they do for single-launch rewrites.
//! - [`gate_schedule`] refuses any schedule under which the model's
//!   program fails the static safety analyses ([`paraprox_analysis`]) in
//!   the loop's launch contexts — including both parities of the
//!   loop-carried buffer swap and the sampled residual launches.
//! - [`IterativeApp`] drives the loop on one [`paraprox_vgpu::Device`]:
//!   one pooled worker scope serves every launch of every iteration, and
//!   worker images skip the refresh copy of the swapped-in output buffer,
//!   which the stencil never reads.
//!
//! Determinism contract (asserted by the workspace `iter_suite`): exact
//! schedules are bit-identical across worker counts and engines;
//! approximate schedules are bit-identical across worker counts for a
//! fixed `(seed, schedule)` because every sampling decision is made
//! host-side from [`paraprox_prng::splitmix64`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gate;
mod job;
mod model;
mod schedule;
#[cfg(test)]
pub(crate) mod testutil;

pub use gate::{gate_schedule, iter_launch_contexts};
pub use job::{FieldGen, IterRun, IterativeApp};
pub use model::{sample_params, IterModel, ModelParts, RESIDUAL_BLOCK};
pub use schedule::{ConvergenceSpec, IterSchedule, PredictorSpec};

/// Errors from building models, gating schedules, or running the loop.
#[derive(Debug)]
pub enum IterError {
    /// The model is structurally unusable (bad dimensions, missing
    /// kernels).
    Model(String),
    /// The safety analyses refused a schedule: the program produced an
    /// error-severity diagnostic under the loop's launch contexts, or a
    /// kernel's effect summary breaks the ping-pong contract.
    Refused {
        /// Label of the refused schedule.
        label: String,
        /// Human-readable reasons (one per diagnostic).
        reasons: Vec<String>,
    },
}

impl std::fmt::Display for IterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IterError::Model(m) => write!(f, "iterative model error: {m}"),
            IterError::Refused { label, reasons } => {
                write!(f, "schedule `{label}` refused by analysis: ")?;
                let mut first = true;
                for r in reasons {
                    if !first {
                        write!(f, "; ")?;
                    }
                    write!(f, "{r}")?;
                    first = false;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for IterError {}
