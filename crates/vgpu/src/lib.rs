//! A deterministic SIMT virtual device for executing kernel IR.
//!
//! This crate is the hardware substitute in the Paraprox reproduction: it
//! plays the role of the NVIDIA GTX 560 and Intel Core i7 965 that the
//! paper measures on. Kernels written in [`paraprox_ir`] are executed by a
//! lockstep warp interpreter with:
//!
//! * per-thread divergence masks for `if`/`for` (SIMT semantics),
//! * global, shared, and constant memory spaces,
//! * an L1 cache and a constant cache (set-associative, LRU),
//! * memory-coalescing transaction counting per warp,
//! * shared-memory bank-conflict modeling,
//! * atomic-operation serialization,
//! * a per-instruction latency table supplied by a [`DeviceProfile`].
//!
//! Independent thread blocks execute concurrently on host worker threads
//! (see [`DeviceProfile::parallelism`] and the `PARAPROX_THREADS`
//! environment variable), and the small blocks of a launch that cannot
//! tell the difference run as *block groups*: one 256-lane row per op
//! dispatch, each block keeping its own caches, shared memory and write
//! log. Results, simulated cycles, and cache statistics are bit-identical
//! for every worker count and grouping.
//!
//! Kernels run on one engine: each kernel is compiled once to a
//! register-machine instruction stream, with adjacent op pairs fused into
//! superinstructions at compile time, and cached per device (shared across
//! launches and pool workers). The tree-walking interpreter that serves
//! as the engine's reference oracle is compiled only into test builds,
//! behind the dev-only `oracle` feature (`ExecEngine`,
//! `DeviceProfile::with_engine`); the two produce bit-identical results,
//! simulated cycles, and cache statistics.
//!
//! Executing a kernel yields both its *results* (buffer contents) and its
//! *cost* ([`LaunchStats`], in device cycles). All speedups reported by the
//! reproduction are ratios of simulated cycles on the same profile, mirroring
//! the paper's "relative to exact execution on the same architecture"
//! baseline.
//!
//! # Example
//!
//! ```
//! use paraprox_ir::{KernelBuilder, MemSpace, Program, Ty};
//! use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut program = Program::new();
//! let mut kb = KernelBuilder::new("double");
//! let data = kb.buffer("data", Ty::F32, MemSpace::Global);
//! let gid = kb.let_("gid", KernelBuilder::global_id_x());
//! let v = kb.let_("v", kb.load(data, gid.clone()));
//! kb.store(data, gid, v * paraprox_ir::Expr::f32(2.0));
//! let kernel = program.add_kernel(kb.finish());
//!
//! let mut device = Device::new(DeviceProfile::gtx560());
//! let buf = device.alloc_f32(MemSpace::Global, &[1.0, 2.0, 3.0, 4.0]);
//! let stats = device.launch(
//!     &program,
//!     kernel,
//!     Dim2::new(1, 1),
//!     Dim2::new(4, 1),
//!     &[ArgValue::Buffer(buf)],
//! )?;
//! assert_eq!(device.read_f32(buf)?, vec![2.0, 4.0, 6.0, 8.0]);
//! assert!(stats.total_cycles() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytecode;
mod cache;
mod device;
mod error;
mod exec;
mod fused;
mod mask;
#[cfg(any(test, feature = "oracle"))]
mod oracle;
mod plan;
mod pool;
mod profile;
mod soa;
mod stats;

pub use bytecode::{compile_kernel, CompiledKernel};
pub use cache::{Cache, CacheConfig};
pub use device::{ArgValue, BufferId, Device, Dim2};
pub use error::LaunchError;
pub use fused::{execute_fused, FusedJob};
#[cfg(any(test, feature = "oracle"))]
pub use oracle::ExecEngine;
pub use plan::{BufferInit, BufferSpec, LaunchPlan, Pipeline, PipelineRun, PlanArg};
pub use profile::{DeviceKind, DeviceProfile, ProfileError};
pub use stats::LaunchStats;
