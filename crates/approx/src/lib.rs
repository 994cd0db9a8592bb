//! The four pattern-specific approximation optimizations of Paraprox (§3).
//!
//! Each optimization is an IR/pipeline rewriter paired with the paper's
//! tuning parameter:
//!
//! | Pattern | Optimization | Module | Tuning parameter |
//! |---|---|---|---|
//! | Map, Scatter/Gather | approximate memoization | [`memo`] | lookup-table size (plus mode and placement) |
//! | Stencil, Partition | tile value replication | [`stencil`] | scheme and reaching distance |
//! | Reduction | sampling + adjustment | [`reduction`] | skipping rate |
//! | Scan | subarray prediction | [`scan`] | skipped-subarray count |
//!
//! All rewriters are pure: they take a [`paraprox_ir::Program`] (and, for
//! scan, a [`paraprox_vgpu::Pipeline`]) and return rewritten clones, leaving
//! the exact versions untouched — the runtime chooses between variants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod loadopt;
pub mod memo;
pub mod reduction;
pub mod safety;
pub mod scan;
pub mod stencil;

pub use error::ApproxError;
pub use loadopt::optimize_buffer_loads;
pub use memo::{
    bit_tune, build_table, choose_table_bits, input_ranges, memoize_kernel, memoize_kernel_sharing,
    BitTuneResult, InputRange, LookupMode, MemoConfig, MemoizedVariant, TablePlacement,
};
pub use reduction::{approximate_reduction, approximate_reduction_group};
pub use safety::{guard_divisions, unguarded_divisions};
pub use scan::{approximate_scan, infer_scan_roles, ScanRoles};
pub use stencil::{approximate_stencil, StencilScheme};
