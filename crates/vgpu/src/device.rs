//! The virtual device: buffer management and kernel launching.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use paraprox_ir::{Func, Kernel, KernelId, MemSpace, Program, Scalar, Ty};

use crate::bytecode::{self, CompiledKernel};
use crate::cache::Cache;
use crate::error::LaunchError;
use crate::exec::{self, Launch};
use crate::profile::{DeviceProfile, ProfileError};
use crate::stats::LaunchStats;

/// A two-dimensional grid or block shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim2 {
    /// Extent in x (the fast axis; threads of a warp are consecutive in x).
    pub x: usize,
    /// Extent in y.
    pub y: usize,
}

impl Dim2 {
    /// Create a shape.
    pub fn new(x: usize, y: usize) -> Dim2 {
        Dim2 { x, y }
    }

    /// A one-dimensional shape.
    pub fn linear(x: usize) -> Dim2 {
        Dim2 { x, y: 1 }
    }

    /// Total element count.
    pub fn count(&self) -> usize {
        self.x * self.y
    }
}

impl std::fmt::Display for Dim2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

impl BufferId {
    /// Raw index of the buffer on its device.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArgValue {
    /// A device buffer, bound to a buffer parameter.
    Buffer(BufferId),
    /// A scalar, bound to a scalar parameter.
    Scalar(Scalar),
}

impl From<BufferId> for ArgValue {
    fn from(b: BufferId) -> ArgValue {
        ArgValue::Buffer(b)
    }
}

impl From<Scalar> for ArgValue {
    fn from(s: Scalar) -> ArgValue {
        ArgValue::Scalar(s)
    }
}

/// One device buffer: a strip of raw 32-bit patterns plus the element type
/// every word shares (the layout [`crate::soa::RegRow`] uses for
/// registers), so loads and stores move bits without a per-element
/// `Scalar` round trip and an arena copy is a `memcpy` of 4 bytes per
/// element. Stores and atomics only ever write values of type `ty`.
#[derive(Debug)]
pub(crate) struct BufferStorage {
    pub ty: Ty,
    pub space: MemSpace,
    pub base_addr: u64,
    /// Element bit patterns (`f32::to_bits`, two's complement, bool 0/1).
    pub data: Vec<u32>,
}

impl Clone for BufferStorage {
    fn clone(&self) -> BufferStorage {
        BufferStorage {
            ty: self.ty,
            space: self.space,
            base_addr: self.base_addr,
            data: self.data.clone(),
        }
    }

    /// Allocation-reusing refresh: `Vec::clone_from` on a worker image
    /// dispatches here per buffer, so repeated launches (a serving loop)
    /// refill the existing heap blocks instead of reallocating an arena
    /// copy per worker per launch.
    fn clone_from(&mut self, source: &BufferStorage) {
        self.ty = source.ty;
        self.space = source.space;
        self.base_addr = source.base_addr;
        self.data.clear();
        self.data.extend_from_slice(&source.data);
    }
}

/// Lanes a block group fills: blocks narrower than [`ALONE_BLOCK_LANES`]
/// run `GROUP_LANES / lanes` (rounded up) at a time as one row.
pub(crate) const GROUP_LANES: usize = 256;

/// Blocks this wide or wider run alone: they already pay each op's
/// dispatch over enough lanes. (Two 128-lane blocks per row measured no
/// faster than one, and slower on one application: EXPERIMENTS.md, "Host
/// speed: block groups".)
const ALONE_BLOCK_LANES: usize = 128;

/// Most blocks in one group: a local's first-written state is one bit per
/// block of a `u64`.
pub(crate) const MAX_GROUP_BLOCKS: usize = 64;

/// Blocks per group for a launch of `compiled` over `grid` blocks of
/// `block` threads bound to `args` — the one grouping rule. More than one
/// only for blocks narrower than [`ALONE_BLOCK_LANES`] when the launch is
/// *group-safe*, so that running its blocks as one row cannot change what
/// any of them observes:
///
/// * the block is whole warps, so no warp straddles two blocks;
/// * the kernel has no global atomic (the accumulated value would be read
///   across blocks);
/// * no bound buffer is both loaded and stored — checked on the buffers,
///   so two parameters aliasing one buffer count as one.
///
/// The group then spans [`GROUP_LANES`] lanes, capped by the grid; the
/// last group of a launch may be partial.
pub(crate) fn group_blocks(
    profile: &DeviceProfile,
    compiled: &CompiledKernel,
    args: &[ArgValue],
    grid: Dim2,
    block: Dim2,
) -> usize {
    let lanes = block.count();
    #[cfg(any(test, feature = "oracle"))]
    if profile.engine == crate::oracle::ExecEngine::TreeWalk {
        return 1;
    }
    let buffer = |pi: &usize| match args.get(*pi) {
        Some(ArgValue::Buffer(id)) => Some(*id),
        _ => None,
    };
    let access = &compiled.access;
    let safe = lanes < ALONE_BLOCK_LANES
        && lanes.is_multiple_of(profile.warp_width)
        && access.atomics.is_empty()
        && !access
            .loads
            .iter()
            .filter_map(buffer)
            .any(|id| access.stores.iter().filter_map(buffer).any(|s| s == id));
    if !safe {
        return 1;
    }
    GROUP_LANES
        .div_ceil(lanes)
        .min(MAX_GROUP_BLOCKS)
        .min(grid.count())
}

/// Upper bound on cached compiled kernels; past it the cache is cleared
/// (a backstop for pathological kernel-generating loops, far above what
/// the tuner's candidate sweeps produce).
const PROGRAM_CACHE_CAP: usize = 1024;

/// One verified entry of the compiled-program cache: the structural key
/// (kernel plus every function of its program, cloned at insert time) and
/// the shared compiled artifact, superinstructions included, that every
/// launch of the entry runs.
#[derive(Debug)]
struct CacheEntry {
    kernel: Kernel,
    funcs: Vec<Func>,
    compiled: Arc<CompiledKernel>,
}

/// One validated launch handed to [`Device::dispatch`]: everything of an
/// [`exec::Launch`] the device does not fill in itself, plus the
/// simulated cache state the launch enters with.
pub(crate) struct PreparedLaunch<'a> {
    pub program: &'a Program,
    pub kernel: &'a Kernel,
    pub grid: Dim2,
    pub block: Dim2,
    pub args: &'a [ArgValue],
    /// From [`Device::compiled`].
    pub compiled: Arc<CompiledKernel>,
    /// Bit-error rate of [`MemSpace::Approx`] loads for this launch.
    pub approx_rate: f64,
    pub l1: Cache,
    pub constant_cache: Cache,
}

/// Per-device cache of bytecode-compiled kernels, keyed by *structural*
/// identity (the kernel and its program's functions), so the tuner's
/// repeated launches of the same candidate — across different `Program`
/// allocations, buffer bindings, and launch geometries — compile exactly
/// once. Hash collisions fall back to a full structural comparison, so a
/// hit is never wrong; `NaN` literals (where `PartialEq` is stricter than
/// the bit-pattern hash) at worst force a recompile.
///
/// The cache deliberately survives [`Device::reclaim_buffers`] and
/// [`Device::flush_caches`]: compiled programs reference no buffers and
/// model no simulated state.
#[derive(Debug, Default)]
struct ProgramCache {
    entries: HashMap<u64, Vec<CacheEntry>>,
    len: usize,
    compiles: u64,
}

impl ProgramCache {
    fn get_or_compile(
        &mut self,
        program: &Program,
        kernel: &Kernel,
        profile: &DeviceProfile,
    ) -> Arc<CompiledKernel> {
        let mut h = DefaultHasher::new();
        kernel.hash(&mut h);
        for (_, f) in program.funcs() {
            f.hash(&mut h);
        }
        let key = h.finish();
        if let Some(list) = self.entries.get(&key) {
            for e in list {
                if e.kernel == *kernel
                    && e.funcs.len() == program.func_count()
                    && program.funcs().all(|(id, f)| e.funcs[id.0] == *f)
                {
                    return Arc::clone(&e.compiled);
                }
            }
        }
        let compiled = Arc::new(bytecode::compile_kernel(program, kernel, profile));
        self.compiles += 1;
        if self.len >= PROGRAM_CACHE_CAP {
            self.entries.clear();
            self.len = 0;
        }
        self.entries.entry(key).or_default().push(CacheEntry {
            kernel: kernel.clone(),
            funcs: program.funcs().map(|(_, f)| f.clone()).collect(),
            compiled: Arc::clone(&compiled),
        });
        self.len += 1;
        compiled
    }
}

/// A virtual device: owns buffers, caches, a compiled-program cache, and a
/// [`DeviceProfile`], and executes kernel launches.
#[derive(Debug)]
pub struct Device {
    pub(crate) profile: DeviceProfile,
    pub(crate) buffers: Vec<BufferStorage>,
    next_addr: u64,
    l1: Cache,
    constant_cache: Cache,
    programs: ProgramCache,
    /// When set, intra-block store *application order* is permuted
    /// per-block (see [`Device::set_schedule_seed`]).
    pub(crate) schedule_seed: Option<u64>,
    /// Per-worker buffer images, retained across launches so a serving
    /// loop reuses the allocations instead of cloning the arena per
    /// launch (see [`Device::pooled_images`]).
    pub(crate) image_pool: Vec<Vec<BufferStorage>>,
    /// Probability in `[0, 1]` that a lane-load from a
    /// [`MemSpace::Approx`] buffer suffers a single-bit flip (see
    /// [`Device::set_approx_rate`]). 0.0 — the default — injects nothing.
    pub(crate) approx_rate: f64,
    /// Seed for the deterministic bit-flip stream (see
    /// [`Device::set_approx_seed`]).
    pub(crate) approx_seed: u64,
    /// Worker-image refresh accounting (see
    /// [`Device::image_refresh_copies`]).
    refresh: exec::RefreshCounters,
    /// Host workers per dispatch, resolved once from
    /// [`DeviceProfile::parallelism`] when the device is created.
    workers: usize,
}

impl Device {
    /// Create a device with the given profile.
    ///
    /// # Panics
    ///
    /// Panics with `invalid device profile: …` when
    /// [`DeviceProfile::validate`] rejects the profile; use
    /// [`Device::try_new`] for profiles built from outside input.
    pub fn new(profile: DeviceProfile) -> Device {
        match Device::try_new(profile) {
            Ok(device) => device,
            Err(e) => panic!("invalid device profile: {e}"),
        }
    }

    /// Create a device, rejecting a profile whose warp width or cache
    /// geometry the simulator cannot represent.
    ///
    /// # Errors
    ///
    /// Returns what [`DeviceProfile::validate`] reports.
    pub fn try_new(profile: DeviceProfile) -> Result<Device, ProfileError> {
        profile.validate()?;
        let l1 = Cache::new(profile.cache.l1);
        let constant_cache = Cache::new(profile.cache.constant);
        let workers = match profile.parallelism {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        };
        Ok(Device {
            profile,
            buffers: Vec::new(),
            next_addr: 0,
            l1,
            constant_cache,
            programs: ProgramCache::default(),
            schedule_seed: None,
            image_pool: Vec::new(),
            approx_rate: 0.0,
            approx_seed: 0,
            refresh: exec::RefreshCounters::default(),
            workers,
        })
    }

    /// Set the bit-error rate of buffers placed in [`MemSpace::Approx`]:
    /// the probability, per lane-load, that the loaded value suffers one
    /// flipped bit. Injection is deterministic — derived from the approx
    /// seed, the block id, and a per-block access counter — so results are
    /// bit-identical at any worker count, and rate `0.0` (the default) is
    /// bit-identical to exact memory. Values are clamped to `[0, 1]`;
    /// non-finite rates are treated as 0.
    ///
    /// Buffers in every other space are never touched, whatever the rate.
    pub fn set_approx_rate(&mut self, rate: f64) {
        self.approx_rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
    }

    /// The current approximate-memory bit-error rate.
    pub fn approx_rate(&self) -> f64 {
        self.approx_rate
    }

    /// Seed the deterministic bit-flip stream for approximate memory.
    /// Different seeds draw different (still deterministic) error
    /// patterns; the default is 0.
    pub fn set_approx_seed(&mut self, seed: u64) {
        self.approx_seed = seed;
    }

    /// Number of per-worker buffer images currently pooled. Parallel
    /// launches clone the buffer arena once per host worker; the device
    /// keeps those images and refreshes them in place on the next launch,
    /// so back-to-back requests (a tuning sweep, a serving loop) pay the
    /// copy but not the allocation. The pool lives as long as the
    /// device; it deliberately survives [`Device::reclaim_buffers`].
    pub fn pooled_images(&self) -> usize {
        self.image_pool.len()
    }

    /// Permute the order in which the lanes of a block apply their stores
    /// (a per-block Fisher-Yates shuffle derived from `seed`). The SIMT
    /// model says a correct kernel must not observe this order, so for
    /// race-free kernels results stay bit-identical for every seed — and a
    /// divergence between seeds is a dynamic witness of an intra-block
    /// race. `None` (the default) restores the canonical lane order.
    pub fn set_schedule_seed(&mut self, seed: Option<u64>) {
        self.schedule_seed = seed;
    }

    /// Number of bytecode compilations this device has performed. A kernel
    /// launched repeatedly (tuner sweeps, pipeline re-runs) compiles once;
    /// this counter lets tests assert that.
    pub fn compile_count(&self) -> u64 {
        self.programs.compiles
    }

    /// The device's profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Allocate a zero-initialized buffer of `len` elements of `ty` in
    /// `space`.
    pub fn alloc_zeroed(&mut self, space: MemSpace, ty: Ty, len: usize) -> BufferId {
        // Every type's zero (`0.0`, `0`, `false`) is the all-zero pattern.
        self.alloc_bits(space, ty, vec![0; len])
    }

    /// Allocate a buffer initialized from `f32` data.
    pub fn alloc_f32(&mut self, space: MemSpace, data: &[f32]) -> BufferId {
        self.alloc_bits(space, Ty::F32, data.iter().map(|v| v.to_bits()).collect())
    }

    /// Allocate a buffer initialized from `i32` data.
    pub fn alloc_i32(&mut self, space: MemSpace, data: &[i32]) -> BufferId {
        self.alloc_bits(space, Ty::I32, data.iter().map(|&v| v as u32).collect())
    }

    /// Allocate a buffer initialized from `u32` data.
    pub fn alloc_u32(&mut self, space: MemSpace, data: &[u32]) -> BufferId {
        self.alloc_bits(space, Ty::U32, data.to_vec())
    }

    /// Allocate a buffer of `ty` elements from their bit patterns.
    pub(crate) fn alloc_bits(&mut self, space: MemSpace, ty: Ty, data: Vec<u32>) -> BufferId {
        let mut next = self.next_addr;
        let id = self.alloc_bits_at(space, ty, data, &mut next);
        self.next_addr = next;
        id
    }

    /// Allocate a buffer whose simulated address comes from an external
    /// counter instead of the device's own `next_addr`. A fused batch
    /// gives every job its *own* counter, seeded from the device's current
    /// `next_addr`, so each job sees exactly the base addresses (and hence
    /// the cache-set behavior) it would have seen running alone — jobs
    /// have private simulated caches, so overlapping address spaces are
    /// unobservable.
    pub(crate) fn alloc_bits_at(
        &mut self,
        space: MemSpace,
        ty: Ty,
        data: Vec<u32>,
        next_addr: &mut u64,
    ) -> BufferId {
        // The write log names buffers by `u32`.
        assert!(
            self.buffers.len() < u32::MAX as usize,
            "buffer arena is full"
        );
        let id = BufferId(self.buffers.len());
        // Align each buffer to a 256-byte boundary so buffers never share
        // cache lines.
        let bytes = (data.len() as u64) * 4;
        let base_addr = *next_addr;
        *next_addr = (base_addr + bytes + 255) & !255;
        self.buffers.push(BufferStorage {
            ty,
            space,
            base_addr,
            data,
        });
        id
    }

    /// Overwrite a buffer's contents with `f32` data.
    ///
    /// # Errors
    ///
    /// Fails when the buffer is unknown, has a different element type, or a
    /// different length.
    pub fn write_f32(&mut self, id: BufferId, data: &[f32]) -> Result<(), LaunchError> {
        let buf = self
            .buffers
            .get_mut(id.0)
            .ok_or(LaunchError::UnknownBuffer(id.0))?;
        if buf.ty != Ty::F32 {
            return Err(LaunchError::BufferTypeMismatch {
                expected: Ty::F32,
                found: buf.ty,
            });
        }
        if buf.data.len() != data.len() {
            return Err(LaunchError::BufferSizeMismatch {
                supplied: data.len(),
                len: buf.data.len(),
            });
        }
        for (slot, v) in buf.data.iter_mut().zip(data) {
            *slot = v.to_bits();
        }
        Ok(())
    }

    /// Read a buffer back as `f32`s.
    ///
    /// # Errors
    ///
    /// Fails when the buffer is unknown or holds a different element type.
    pub fn read_f32(&self, id: BufferId) -> Result<Vec<f32>, LaunchError> {
        let buf = self.buffer(id)?;
        if buf.ty != Ty::F32 {
            return Err(LaunchError::BufferTypeMismatch {
                expected: Ty::F32,
                found: buf.ty,
            });
        }
        Ok(buf.data.iter().map(|&b| f32::from_bits(b)).collect())
    }

    /// Read a buffer back as `i32`s.
    ///
    /// # Errors
    ///
    /// Fails when the buffer is unknown or holds a different element type.
    pub fn read_i32(&self, id: BufferId) -> Result<Vec<i32>, LaunchError> {
        let buf = self.buffer(id)?;
        if buf.ty != Ty::I32 {
            return Err(LaunchError::BufferTypeMismatch {
                expected: Ty::I32,
                found: buf.ty,
            });
        }
        Ok(buf.data.iter().map(|&b| b as i32).collect())
    }

    /// Read a buffer back as scalars of its element type. Buffers are
    /// stored as raw bit strips, so this decodes into a fresh vector.
    ///
    /// # Errors
    ///
    /// Fails when the buffer id is unknown.
    pub fn read_scalars(&self, id: BufferId) -> Result<Vec<Scalar>, LaunchError> {
        let buf = self.buffer(id)?;
        let tag = crate::soa::tag_of_ty(buf.ty);
        Ok(buf
            .data
            .iter()
            .map(|&b| crate::soa::decode(tag, b))
            .collect())
    }

    fn buffer(&self, id: BufferId) -> Result<&BufferStorage, LaunchError> {
        self.buffers
            .get(id.0)
            .ok_or(LaunchError::UnknownBuffer(id.0))
    }

    /// Read a buffer back as `f64`s ([`Scalar::to_f64_lossy`] of every
    /// element), the form pipeline outputs take.
    pub(crate) fn read_f64_lossy(&self, id: BufferId) -> Result<Vec<f64>, LaunchError> {
        let buf = self.buffer(id)?;
        let bits = buf.data.iter();
        Ok(match buf.ty {
            Ty::F32 => bits.map(|&b| f64::from(f32::from_bits(b))).collect(),
            Ty::I32 => bits.map(|&b| f64::from(b as i32)).collect(),
            Ty::U32 => bits.map(|&b| f64::from(b)).collect(),
            Ty::Bool => bits.map(|&b| f64::from(u8::from(b != 0))).collect(),
        })
    }

    /// Number of elements in a buffer.
    ///
    /// # Errors
    ///
    /// Fails when the buffer id is unknown.
    pub fn buffer_len(&self, id: BufferId) -> Result<usize, LaunchError> {
        self.buffer(id).map(|b| b.data.len())
    }

    /// The memory space a buffer was allocated in.
    ///
    /// # Errors
    ///
    /// Fails when the buffer id is unknown.
    pub fn buffer_space(&self, id: BufferId) -> Result<MemSpace, LaunchError> {
        self.buffer(id).map(|b| b.space)
    }

    /// An opaque marker of the current buffer arena, for
    /// [`Device::reclaim_buffers`].
    pub fn buffer_mark(&self) -> (usize, u64) {
        (self.buffers.len(), self.next_addr)
    }

    /// Free every buffer allocated after `mark` and flush the caches —
    /// the moral equivalent of tearing down a context after a kernel
    /// invocation. Long-running tuning/deployment loops call this between
    /// pipeline executions so the buffer arena does not grow without bound.
    ///
    /// Handles returned by allocations after the mark become invalid.
    pub fn reclaim_buffers(&mut self, mark: (usize, u64)) {
        let (len, next_addr) = mark;
        self.buffers.truncate(len);
        self.next_addr = next_addr;
        self.flush_caches();
    }

    /// Drop all cache contents (between independent experiments).
    pub fn flush_caches(&mut self) {
        self.l1.flush();
        self.constant_cache.flush();
    }

    /// Launch `kernel` of `program` over `grid` blocks of `block` threads.
    ///
    /// Returns the accumulated [`LaunchStats`]. Buffer contents are mutated
    /// in place. Caches stay warm across launches; call
    /// [`Device::flush_caches`] for cold-cache experiments.
    ///
    /// # Errors
    ///
    /// Fails on arity/type mismatches between `args` and the kernel's
    /// parameters, zero-sized launches, shared-memory oversubscription, or
    /// any runtime evaluation error (out-of-bounds access, divergent
    /// barrier, type error, division by zero).
    pub fn launch(
        &mut self,
        program: &Program,
        kernel: KernelId,
        grid: Dim2,
        block: Dim2,
        args: &[ArgValue],
    ) -> Result<LaunchStats, LaunchError> {
        let k = program.kernel(kernel);
        self.validate_launch(k, grid, block, args)?;
        let launch = PreparedLaunch {
            program,
            kernel: k,
            grid,
            block,
            args,
            compiled: self.compiled(program, k),
            approx_rate: self.approx_rate,
            l1: self.l1.clone(),
            constant_cache: self.constant_cache.clone(),
        };
        let outcome = self
            .dispatch(vec![launch])?
            .pop()
            .expect("one launch in, one outcome out");
        (self.l1, self.constant_cache) = (outcome.l1, outcome.constant_cache);
        Ok(outcome.stats)
    }

    /// Per-buffer data copies performed while refreshing pooled worker
    /// images, cumulative over the device's lifetime. Together with
    /// [`Device::image_refresh_skips`] this exposes the cost of the
    /// parallel path's per-launch arena refresh; serial launches (one
    /// worker) never refresh and count nothing.
    pub fn image_refresh_copies(&self) -> u64 {
        self.refresh
            .copies
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Per-buffer data copies *skipped* during pooled worker-image
    /// refresh because no launch of the dispatch reads the buffer (it is
    /// unbound, or bound only to parameters the kernel stores to),
    /// cumulative.
    pub fn image_refresh_skips(&self) -> u64 {
        self.refresh
            .skips
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Execute validated launches as one fused dispatch over the worker
    /// pool — the only way a kernel runs on this device; a plain launch
    /// is a dispatch of one.
    pub(crate) fn dispatch(
        &mut self,
        launches: Vec<PreparedLaunch<'_>>,
    ) -> Result<Vec<exec::SegmentOutcome>, LaunchError> {
        let segments = launches
            .into_iter()
            .map(|p| exec::FusedSegment {
                launch: Launch {
                    profile: &self.profile,
                    #[cfg(any(test, feature = "oracle"))]
                    program: p.program,
                    kernel: p.kernel,
                    args: p.args,
                    grid: p.grid,
                    block: p.block,
                    group: group_blocks(&self.profile, &p.compiled, p.args, p.grid, p.block),
                    compiled: p.compiled,
                    schedule_seed: self.schedule_seed,
                    approx_threshold: crate::mem::approx_threshold(p.approx_rate),
                    approx_seed: self.approx_seed,
                },
                l1: p.l1,
                constant_cache: p.constant_cache,
            })
            .collect();
        exec::run_fused(
            segments,
            self.workers,
            &mut self.buffers,
            &mut self.image_pool,
            &self.refresh,
        )
    }

    /// Validate a launch shape and argument list against a kernel's
    /// signature and this device's buffers and limits — the same checks
    /// [`Device::launch`] performs, shared with the fused batch executor.
    pub(crate) fn validate_launch(
        &self,
        k: &Kernel,
        grid: Dim2,
        block: Dim2,
        args: &[ArgValue],
    ) -> Result<(), LaunchError> {
        if grid.count() == 0 || block.count() == 0 {
            return Err(LaunchError::EmptyLaunch);
        }
        if args.len() != k.params.len() {
            return Err(LaunchError::ArityMismatch {
                kernel: k.name.clone(),
                expected: k.params.len(),
                found: args.len(),
            });
        }
        for (i, (arg, param)) in args.iter().zip(&k.params).enumerate() {
            match (arg, param) {
                (ArgValue::Buffer(id), paraprox_ir::Param::Buffer { ty, space, .. }) => {
                    let buf = self
                        .buffers
                        .get(id.0)
                        .ok_or(LaunchError::UnknownBuffer(id.0))?;
                    if buf.ty != *ty {
                        return Err(LaunchError::ArgMismatch {
                            kernel: k.name.clone(),
                            index: i,
                            reason: format!(
                                "buffer element type {} does not match parameter type {ty}",
                                buf.ty
                            ),
                        });
                    }
                    if !buf.space.binds_to(*space) {
                        return Err(LaunchError::ArgMismatch {
                            kernel: k.name.clone(),
                            index: i,
                            reason: format!(
                                "buffer lives in {} memory, parameter declares {space}",
                                buf.space
                            ),
                        });
                    }
                }
                (ArgValue::Scalar(s), paraprox_ir::Param::Scalar { ty, .. }) => {
                    if s.ty() != *ty {
                        return Err(LaunchError::ArgMismatch {
                            kernel: k.name.clone(),
                            index: i,
                            reason: format!(
                                "scalar argument type {} does not match parameter type {ty}",
                                s.ty()
                            ),
                        });
                    }
                }
                _ => {
                    return Err(LaunchError::ArgMismatch {
                        kernel: k.name.clone(),
                        index: i,
                        reason: "argument kind (buffer vs scalar) mismatch".to_string(),
                    });
                }
            }
        }
        let shared_bytes: usize = k.shared.iter().map(|s| s.len * 4).sum();
        if shared_bytes > self.profile.shared_mem_bytes {
            return Err(LaunchError::SharedMemoryExceeded {
                requested: shared_bytes,
                available: self.profile.shared_mem_bytes,
            });
        }
        Ok(())
    }

    /// Look up (or compile) the bytecode artifact for `kernel` of
    /// `program`.
    pub(crate) fn compiled(&mut self, program: &Program, k: &Kernel) -> Arc<CompiledKernel> {
        self.programs.get_or_compile(program, k, &self.profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paraprox_ir::{Expr, KernelBuilder};

    #[test]
    fn dim2_counts() {
        assert_eq!(Dim2::new(4, 3).count(), 12);
        assert_eq!(Dim2::linear(7).count(), 7);
        assert!(!Dim2::new(1, 1).to_string().is_empty());
    }

    #[test]
    fn alloc_read_roundtrip() {
        let mut d = Device::new(DeviceProfile::gtx560());
        let b = d.alloc_f32(MemSpace::Global, &[1.0, 2.0]);
        assert_eq!(d.read_f32(b).unwrap(), vec![1.0, 2.0]);
        assert_eq!(d.buffer_len(b).unwrap(), 2);
        let i = d.alloc_i32(MemSpace::Global, &[3, 4]);
        assert_eq!(d.read_i32(i).unwrap(), vec![3, 4]);
        assert!(d.read_f32(i).is_err());
        // Bit strips decode back to the element type, sign and all.
        let u = d.alloc_u32(MemSpace::Global, &[u32::MAX]);
        let n = d.alloc_i32(MemSpace::Global, &[-1]);
        assert_eq!(d.read_scalars(u).unwrap(), vec![Scalar::U32(u32::MAX)]);
        assert_eq!(d.read_scalars(n).unwrap(), vec![Scalar::I32(-1)]);
        assert_eq!(d.read_f64_lossy(u).unwrap(), vec![f64::from(u32::MAX)]);
        assert_eq!(d.read_f64_lossy(n).unwrap(), vec![-1.0]);
        assert_eq!(d.read_f64_lossy(b).unwrap(), vec![1.0, 2.0]);
        let z = d.alloc_zeroed(MemSpace::Global, Ty::Bool, 2);
        assert_eq!(d.read_scalars(z).unwrap(), vec![Scalar::Bool(false); 2]);
    }

    #[test]
    fn degenerate_profiles_are_rejected_at_construction() {
        let mut wide = DeviceProfile::gtx560();
        wide.warp_width = 48;
        assert_eq!(
            Device::try_new(wide).unwrap_err(),
            ProfileError::WarpWidth { width: 48 }
        );
        let mut no_ways = DeviceProfile::gtx560();
        no_ways.cache.l1.ways = 0;
        assert_eq!(
            Device::try_new(no_ways).unwrap_err(),
            ProfileError::CacheWays { cache: "l1" }
        );
        assert!(Device::try_new(DeviceProfile::core_i7_965()).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid device profile: warp width 0")]
    fn device_new_panics_on_a_degenerate_profile() {
        let mut p = DeviceProfile::gtx560();
        p.warp_width = 0;
        let _ = Device::new(p);
    }

    #[test]
    fn write_validates_shape_and_type() {
        let mut d = Device::new(DeviceProfile::gtx560());
        let b = d.alloc_f32(MemSpace::Global, &[0.0; 4]);
        assert!(d.write_f32(b, &[1.0; 4]).is_ok());
        assert!(d.write_f32(b, &[1.0; 3]).is_err());
        let i = d.alloc_i32(MemSpace::Global, &[0; 2]);
        assert!(d.write_f32(i, &[0.0; 2]).is_err());
    }

    #[test]
    fn launch_validates_args() {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("k");
        let _buf = kb.buffer("b", Ty::F32, MemSpace::Global);
        let _n = kb.scalar("n", Ty::I32);
        let kid = program.add_kernel(kb.finish());

        let mut d = Device::new(DeviceProfile::gtx560());
        let b = d.alloc_f32(MemSpace::Global, &[0.0; 4]);
        let wrong_ty = d.alloc_i32(MemSpace::Global, &[0; 4]);

        // Correct launch.
        assert!(d
            .launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(4),
                &[b.into(), Scalar::I32(4).into()]
            )
            .is_ok());
        // Arity.
        assert!(matches!(
            d.launch(&program, kid, Dim2::linear(1), Dim2::linear(4), &[b.into()]),
            Err(LaunchError::ArityMismatch { .. })
        ));
        // Buffer type.
        assert!(matches!(
            d.launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(4),
                &[wrong_ty.into(), Scalar::I32(4).into()]
            ),
            Err(LaunchError::ArgMismatch { .. })
        ));
        // Scalar type.
        assert!(matches!(
            d.launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(4),
                &[b.into(), Scalar::F32(4.0).into()]
            ),
            Err(LaunchError::ArgMismatch { .. })
        ));
        // Kind mismatch.
        assert!(matches!(
            d.launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(4),
                &[Scalar::I32(0).into(), Scalar::I32(4).into()]
            ),
            Err(LaunchError::ArgMismatch { .. })
        ));
        // Empty launch.
        assert!(matches!(
            d.launch(
                &program,
                kid,
                Dim2::new(0, 1),
                Dim2::linear(4),
                &[b.into(), Scalar::I32(4).into()]
            ),
            Err(LaunchError::EmptyLaunch)
        ));
    }

    #[test]
    fn space_mismatch_rejected() {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("k");
        let buf = kb.buffer("b", Ty::F32, MemSpace::Constant);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let _ = kb.let_("v", kb.load(buf, gid));
        let kid = program.add_kernel(kb.finish());
        let mut d = Device::new(DeviceProfile::gtx560());
        let global_buf = d.alloc_f32(MemSpace::Global, &[0.0; 4]);
        assert!(matches!(
            d.launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(4),
                &[global_buf.into()]
            ),
            Err(LaunchError::ArgMismatch { .. })
        ));
    }

    #[test]
    fn shared_memory_limit_enforced() {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("k");
        let _ = kb.shared_array("big", Ty::F32, 1 << 20);
        let kid = program.add_kernel(kb.finish());
        let mut d = Device::new(DeviceProfile::gtx560());
        assert!(matches!(
            d.launch(&program, kid, Dim2::linear(1), Dim2::linear(32), &[]),
            Err(LaunchError::SharedMemoryExceeded { .. })
        ));
    }

    #[test]
    fn worker_image_pool_is_retained_across_launches() {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("k");
        let buf = kb.buffer("b", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(buf, gid.clone()));
        kb.store(buf, gid, v + Expr::f32(1.0));
        let kid = program.add_kernel(kb.finish());

        // Serial device: no images needed.
        let mut serial = Device::new(DeviceProfile::gtx560().with_parallelism(1));
        let sb = serial.alloc_f32(MemSpace::Global, &[0.0; 64]);
        serial
            .launch(
                &program,
                kid,
                Dim2::linear(4),
                Dim2::linear(16),
                &[sb.into()],
            )
            .unwrap();
        assert_eq!(serial.pooled_images(), 0);

        // Parallel device: one image per worker, retained and reused.
        let mut par = Device::new(DeviceProfile::gtx560().with_parallelism(3));
        let pb = par.alloc_f32(MemSpace::Global, &[0.0; 64]);
        for round in 1..=3u32 {
            par.launch(
                &program,
                kid,
                Dim2::linear(4),
                Dim2::linear(16),
                &[pb.into()],
            )
            .unwrap();
            assert_eq!(par.pooled_images(), 3, "pool must not grow past workers");
            assert_eq!(par.read_f32(pb).unwrap(), vec![round as f32; 64]);
        }
        assert_eq!(serial.read_f32(sb).unwrap(), vec![1.0; 64]);
    }

    #[test]
    fn ping_pong_launches_skip_the_unread_output() {
        // Ping-pong copy kernel: reads `src`, writes `dst`, never reads
        // `dst` — the loop-carried shape a convergence loop launches every
        // iteration.
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("pingpong");
        let src = kb.buffer("src", Ty::F32, MemSpace::Global);
        let dst = kb.buffer("dst", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(src, gid.clone()));
        kb.store(dst, gid, v + Expr::f32(1.0));
        let kid = program.add_kernel(kb.finish());

        let ping_pong = |d: &mut Device| {
            let a = d.alloc_f32(MemSpace::Global, &[0.0; 64]);
            let b = d.alloc_f32(MemSpace::Global, &[0.0; 64]);
            let mut bufs = [a, b];
            for round in 1..=4u32 {
                let [cur, next] = bufs;
                d.launch(
                    &program,
                    kid,
                    Dim2::linear(4),
                    Dim2::linear(16),
                    &[cur.into(), next.into()],
                )
                .unwrap();
                assert_eq!(d.read_f32(next).unwrap(), vec![round as f32; 64]);
                bufs.swap(0, 1);
            }
            bufs.map(|b| d.read_f32(b).unwrap())
        };
        let mut d = Device::new(DeviceProfile::gtx560().with_parallelism(3));
        let par = ping_pong(&mut d);
        assert_eq!(d.pooled_images(), 3, "pool must not grow past workers");
        // First launch clones the whole arena into each of the 3 fresh
        // images (2 buffers each); the 3 later launches skip the unread
        // output and copy only the input.
        assert_eq!(d.image_refresh_copies(), 3 * 2 + 3 * 3);
        assert_eq!(d.image_refresh_skips(), 3 * 3);

        // The skip is metadata-only: results match a serial run, which
        // refreshes no image at all.
        let mut serial = Device::new(DeviceProfile::gtx560().with_parallelism(1));
        assert_eq!(ping_pong(&mut serial), par);
        assert_eq!(
            serial.image_refresh_copies() + serial.image_refresh_skips(),
            0
        );

        // A fused batch refreshes through the same counters: two jobs of
        // two buffers and 4 blocks each, on 2 workers — each fresh worker
        // image copies the 4-buffer arena once.
        use crate::fused::{execute_fused, FusedJob};
        use crate::plan::{BufferInit, BufferSpec, LaunchPlan, Pipeline, PlanArg};
        let mut pipeline = Pipeline::default();
        let src = pipeline.add_buffer(BufferSpec::global("src", BufferInit::F32(vec![0.0; 64])));
        let dst = pipeline.add_buffer(BufferSpec::zeroed_f32("dst", 64));
        pipeline.launches.push(LaunchPlan {
            kernel: kid,
            grid: Dim2::linear(4),
            block: Dim2::linear(16),
            args: vec![PlanArg::Buffer(src), PlanArg::Buffer(dst)],
        });
        pipeline.outputs.push(dst);
        let mut fused = Device::new(DeviceProfile::gtx560().with_parallelism(2));
        let job = || FusedJob {
            program: &program,
            pipeline: &pipeline,
            approx_rate: 0.0,
        };
        let runs = execute_fused(&mut fused, &[job(), job()]).unwrap();
        assert_eq!(runs[1].outputs[0], vec![1.0; 64]);
        assert_eq!(fused.image_refresh_copies(), 2 * 4);
        assert_eq!(fused.image_refresh_skips(), 0);
    }

    #[test]
    fn refresh_copies_exactly_the_buffers_a_dispatch_reads() {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("count");
        let out = kb.buffer("out", Ty::I32, MemSpace::Global);
        kb.atomic(paraprox_ir::AtomicOp::Add, out, Expr::i32(0), Expr::i32(1));
        let count = program.add_kernel(kb.finish());
        let mut kb = KernelBuilder::new("set");
        let x = kb.buffer("x", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.store(x, gid, Expr::f32(7.0));
        let set = program.add_kernel(kb.finish());
        let mut kb = KernelBuilder::new("bump");
        let a = kb.buffer("a", Ty::F32, MemSpace::Global);
        let b = kb.buffer("b", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(a, gid.clone()));
        kb.store(b, gid, v + Expr::f32(1.0));
        let bump = program.add_kernel(kb.finish());

        // Two 128-lane blocks run as two groups, one per worker.
        let mut d = Device::new(DeviceProfile::gtx560().with_parallelism(2));
        let counter = d.alloc_i32(MemSpace::Global, &[0; 4]);
        let x = d.alloc_f32(MemSpace::Global, &[0.0; 256]);
        let _unbound = d.alloc_f32(MemSpace::Global, &[0.0; 16]);
        // (copies, skips) of one launch, summed over both workers.
        let refresh = |d: &mut Device, kid, args: &[ArgValue]| {
            let before = (d.image_refresh_copies(), d.image_refresh_skips());
            d.launch(&program, kid, Dim2::linear(2), Dim2::linear(128), args)
                .unwrap();
            (
                d.image_refresh_copies() - before.0,
                d.image_refresh_skips() - before.1,
            )
        };
        // Fresh images clone the whole arena.
        assert_eq!(refresh(&mut d, count, &[counter.into()]), (2 * 3, 0));
        // An atomic-only target is not read: all three are skipped, and
        // replay still totals both launches on the device's buffer.
        assert_eq!(refresh(&mut d, count, &[counter.into()]), (0, 2 * 3));
        assert_eq!(d.read_i32(counter).unwrap(), vec![512, 0, 0, 0]);
        // A store-only buffer is skipped like an unbound one.
        assert_eq!(refresh(&mut d, set, &[x.into()]), (0, 2 * 3));
        // One buffer behind a read and a write-only parameter is read, so
        // the images see the 7s the last launch wrote.
        assert_eq!(refresh(&mut d, bump, &[x.into(), x.into()]), (2, 2 * 2));
        assert_eq!(d.read_f32(x).unwrap(), vec![8.0; 256]);
    }

    /// An atomic updates a worker image without refreshing it: a histogram
    /// whose bins change between two dispatches totals the same at every
    /// worker count, and an atomic whose operand type is wrong raises the
    /// same error at every worker count.
    #[test]
    fn atomic_only_targets_are_not_refreshed() {
        use paraprox_ir::{AtomicOp, BinOp};
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("hist");
        let bins = kb.buffer("bins", Ty::I32, MemSpace::Global);
        let data = kb.buffer("data", Ty::I32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(data, gid.clone()));
        let bin = Expr::Binary(BinOp::Rem, Box::new(v.clone()), Box::new(Expr::i32(8)));
        kb.atomic(AtomicOp::Add, bins, bin, v + Expr::i32(1));
        let hist = program.add_kernel(kb.finish());
        let mut kb = KernelBuilder::new("reset");
        let bins = kb.buffer("bins", Ty::I32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.store(bins, gid.clone(), gid * Expr::i32(7) - Expr::i32(3));
        let reset = program.add_kernel(kb.finish());
        // Blocks 0..2 add 1 to bin 1; block 3's lanes add a float.
        let mut kb = KernelBuilder::new("bad");
        let bins = kb.buffer("bins", Ty::I32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        kb.if_else(
            gid.lt(Expr::i32(192)),
            |kb| kb.atomic(AtomicOp::Add, bins, Expr::i32(1), Expr::i32(1)),
            |kb| kb.atomic(AtomicOp::Add, bins, Expr::i32(0), Expr::f32(1.0)),
        );
        let bad = program.add_kernel(kb.finish());

        let run = |workers: usize| {
            let mut d = Device::new(DeviceProfile::gtx560().with_parallelism(workers));
            let bins = d.alloc_i32(MemSpace::Global, &[0; 8]);
            let values: Vec<i32> = (0..256).map(|i| (i * 37 + 11) % 101).collect();
            let data = d.alloc_i32(MemSpace::Global, &values);
            let launch = |d: &mut Device, kid, block, args: &[ArgValue]| {
                d.launch(&program, kid, Dim2::linear(4), Dim2::linear(block), args)
            };
            let args = [bins.into(), data.into()];
            let first = launch(&mut d, hist, 64, &args).unwrap();
            launch(&mut d, reset, 2, &[bins.into()]).unwrap();
            let second = launch(&mut d, hist, 64, &args).unwrap();
            let totals = d.read_i32(bins).unwrap();
            let err = launch(&mut d, bad, 64, &[bins.into()]).unwrap_err();
            assert_eq!(d.read_i32(bins).unwrap(), totals, "a failed launch reverts");
            (
                first,
                second,
                totals,
                err.to_string(),
                d.image_refresh_skips(),
            )
        };
        let serial = run(1);
        assert_eq!(serial.4, 0, "a serial device keeps no images");
        for workers in [2, 4] {
            let par = run(workers);
            assert_eq!(par.0, serial.0, "{workers} workers, first dispatch");
            assert_eq!(par.1, serial.1, "{workers} workers, second dispatch");
            assert_eq!(par.2, serial.2, "{workers} workers, totals");
            assert_eq!(par.3, serial.3, "{workers} workers, error");
            // Every dispatch after the first skips the bins: the second
            // histogram ran on stale images.
            assert!(par.4 >= 3 * workers as u64, "{workers} workers skip");
        }
        assert!(serial.3.contains("bad"), "{}", serial.3);
        let mut want = [0i32; 8];
        for (i, w) in want.iter_mut().enumerate() {
            *w = i as i32 * 7 - 3;
        }
        for i in 0..256 {
            let v = (i * 37 + 11) % 101;
            want[(v % 8) as usize] += v + 1;
        }
        assert_eq!(serial.2, want);
    }

    #[test]
    fn buffers_do_not_share_cache_lines() {
        let mut d = Device::new(DeviceProfile::gtx560());
        let _a = d.alloc_f32(MemSpace::Global, &[0.0; 3]);
        let b = d.alloc_f32(MemSpace::Global, &[0.0; 3]);
        // Second buffer starts at a 256-byte boundary.
        assert_eq!(d.buffers[b.0].base_addr % 256, 0);
        assert!(d.buffers[b.0].base_addr >= 256);
    }

    #[test]
    fn launch_stats_returned() {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("k");
        let buf = kb.buffer("b", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(buf, gid.clone()));
        kb.store(buf, gid, v + Expr::f32(1.0));
        let kid = program.add_kernel(kb.finish());
        let mut d = Device::new(DeviceProfile::gtx560());
        let b = d.alloc_f32(MemSpace::Global, &[0.0; 64]);
        let stats = d
            .launch(
                &program,
                kid,
                Dim2::linear(2),
                Dim2::linear(32),
                &[b.into()],
            )
            .unwrap();
        assert_eq!(stats.blocks, 2);
        assert_eq!(stats.warps, 2);
        assert!(stats.loads > 0);
        assert!(stats.total_cycles() > 0);
        assert_eq!(d.read_f32(b).unwrap(), vec![1.0; 64]);
    }
}
