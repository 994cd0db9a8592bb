//! The lockstep SIMT interpreter, executed block-parallel on the host.
//!
//! A block's threads execute each statement together under an active-lane
//! mask. `if` and `for` refine the mask (divergence); `Sync` validates that
//! the block has reconverged. Costs are charged per *warp*: every warp with
//! at least one active lane pays the instruction's latency, exactly like
//! SIMT issue on real hardware — so a divergent branch pays for both arms
//! and a warp looping for its slowest lane pays every iteration.
//!
//! # Block groups
//!
//! The interpreter's cost is mostly a fixed price per dispatched op, so
//! small blocks run together: consecutive blocks of a launch form a *block
//! group*, one lane row of up to [`crate::device::GROUP_LANES`] lanes that
//! every op of the bytecode stream runs over once. A lone block is the
//! group of one; there is no second executor. A group's blocks keep
//! everything that makes a block a block: their own caches, shared arrays,
//! store permutation, flip stream and write log, and every per-op decision
//! that reads the mask — the barrier check, the loop-budget tick, the
//! first-written state of a local, the latency class of a binary — is made
//! per block. A block whose lanes are all inactive in an arm the others
//! take runs that arm under an empty mask, which changes nothing it can
//! observe. Only *group-safe* launches group (the rule is
//! [`crate::device::group_blocks`]): no block can read what another block
//! of its group wrote. A group that fails is
//! reverted and its blocks re-run one at a time, so the error reported is
//! the one the lowest failing block raises alone.
//!
//! # Host parallelism and determinism
//!
//! Thread blocks are independent in the CUDA execution model, so the
//! interpreter executes groups concurrently on host workers (a
//! work-stealing scheduler, [`crate::pool`]). Determinism — bit-identical
//! buffer contents, cycle counts, and cache statistics for *any* worker
//! count, including 1 — is achieved by making every block's execution a
//! pure function of the launch-entry state:
//!
//! * **Caches**: each block simulates against the launch-entry L1/constant
//!   cache state (counters reset, so per-block hit/miss deltas fold
//!   without double counting): a worker owns one working pair per block
//!   of a group and copies the entry state into them before every group.
//!   After the launch the device cache becomes the *last* block's final
//!   state — a deterministic choice that keeps caches warm across
//!   launches, and the only block whose caches are kept — with counters
//!   advanced by the summed per-block deltas.
//! * **Global memory**: each worker interprets against its own buffer
//!   image. Global writes are logged (stores record the value, atomics
//!   record the operation) and the worker's image is reverted after every
//!   group, so each block observes exactly the launch-entry buffer
//!   contents plus its own writes. When all groups finish, the logs are
//!   replayed into the device's buffers in ascending block order, each
//!   block's in its own application order: plain stores land
//!   last-block-wins (what serial execution produced) and atomic
//!   operations are re-applied, so cross-block accumulations (histograms,
//!   reductions) total correctly. A block reading another block's
//!   non-atomic global writes is a data race in CUDA and is outside this
//!   determinism contract.
//! * **Stats**: every counter of [`LaunchStats`] is a sum, so a group
//!   charges one accumulator for all its blocks, and the groups fold in
//!   ascending block order with the same `+=` the serial path uses.
//! * **Iteration budget**: a single shared atomic counter spans all
//!   workers, so the per-launch [`ITERATION_BUDGET`] bounds the whole
//!   launch, not each block. A group takes one token per block still
//!   looping and gives its tokens back if it fails.
//!
//! With those rules the schedule is unobservable, so `parallelism = 1`
//! (exactly the serial loop, no threads spawned) and `parallelism = N`
//! produce identical results.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use paraprox_ir::{BinOp, EvalError, Kernel, MemRef, MemSpace, Scalar, Ty};

use crate::cache::Cache;
use crate::device::{ArgValue, BufferStorage, Dim2};
use crate::error::LaunchError;
use crate::mask::{set_bits, LaneMask, Span, MAX_WARP_LANES};
use crate::pool::WorkQueue;
use crate::profile::DeviceProfile;
use crate::soa::{decode, encode_bits, tag_of_ty, TAG_BOOL, TAG_I32, TAG_U32};
use crate::stats::LaunchStats;

/// Maximum total loop iterations (summed over all warps of all blocks,
/// across every worker) per launch; guards against non-terminating loops
/// in malformed IR.
pub(crate) const ITERATION_BUDGET: u64 = 1 << 33;

/// Divergence masks are per-warp `u64` bitsets, shared by both engines.
pub(crate) type Mask = LaneMask;

pub(crate) const FILLER: Scalar = Scalar::I32(0);

/// Read access to a lane-indexed value container. Implemented by the
/// tree-walker's `Vec<Scalar>` and the bytecode engine's
/// [`crate::soa::RegRow`], so the memory pipeline (loads, stores, atomics,
/// coalescing/bank-conflict charging) is single-sourced across engines.
///
/// The `*_strip` methods offer the container's raw bit strip when the
/// lanes of the access's mask share a type (inactive lanes may hold
/// anything: the pipeline never reads them); the pipeline then moves bits
/// without decoding a `Scalar` per lane. The defaults offer nothing, which
/// is how the tree-walking oracle always takes the per-lane path.
pub(crate) trait LaneGet {
    /// Whether the container has a strip form at all. The oracle's
    /// `Vec<Scalar>` has none, so the per-lane path is its only path and
    /// never counts as a fallback.
    const STRIPS: bool = false;

    /// Scalar value of lane `i`.
    fn lane(&self, i: usize) -> Scalar;

    /// The row as a table of element indices: its bit strip and whether
    /// the active lanes are `i32` (`true`) or `u32`, when they are all one
    /// of the two.
    fn index_strip(&self, _mask: &Mask) -> Option<(bool, &[u32])> {
        None
    }

    /// The row's bit strip when every active lane has type `tag`.
    fn strip_of(&self, _tag: u8, _mask: &Mask) -> Option<&[u32]> {
        None
    }
}

impl LaneGet for crate::soa::RegRow {
    const STRIPS: bool = true;

    #[inline(always)]
    fn lane(&self, i: usize) -> Scalar {
        self.get(i)
    }

    #[inline]
    fn index_strip(&self, mask: &Mask) -> Option<(bool, &[u32])> {
        match self.active_tag(mask)? {
            TAG_I32 => Some((true, self.bits())),
            TAG_U32 => Some((false, self.bits())),
            _ => None,
        }
    }

    #[inline]
    fn strip_of(&self, tag: u8, mask: &Mask) -> Option<&[u32]> {
        (self.active_tag(mask) == Some(tag)).then(|| self.bits())
    }
}

/// Write access to a lane-indexed value container that receives a load.
pub(crate) trait LaneSet {
    /// Reset every lane to [`FILLER`] ahead of per-lane
    /// [`LaneSet::set_lane`] calls on the active lanes.
    fn fill_filler(&mut self, lanes: usize);

    /// Store `v` into lane `i`.
    fn set_lane(&mut self, i: usize, v: Scalar);

    /// After the [`LaneSet::set_lane`] calls: recover the container's
    /// compact form where the lanes agree after all.
    fn normalize(&mut self) {}

    /// Instead of the calls above: prepare to receive raw `tag`-typed
    /// bits in the lanes of `mask` (inactive lanes read as [`FILLER`]) and
    /// return the strip to write them to. `None` when the container has no
    /// strip form.
    fn begin_strip(&mut self, _tag: u8, _mask: &Mask) -> Option<&mut [u32]> {
        None
    }
}

impl LaneSet for crate::soa::RegRow {
    fn fill_filler(&mut self, lanes: usize) {
        self.reset_filler(lanes);
    }

    #[inline(always)]
    fn set_lane(&mut self, i: usize, v: Scalar) {
        self.set(i, v);
    }

    fn normalize(&mut self) {
        crate::soa::RegRow::normalize(self);
    }

    #[inline]
    fn begin_strip(&mut self, tag: u8, mask: &Mask) -> Option<&mut [u32]> {
        Some(crate::soa::RegRow::begin_strip(self, tag, mask))
    }
}

/// One global-memory write performed by a block, recorded so the write can
/// be (a) reverted from the worker's buffer image and (b) replayed onto the
/// device's buffers in block order. Twenty bytes: buffers are typed bit
/// strips, so old and new values are raw words, and a validated element
/// index always fits `u32` (it came from an `i32`/`u32` lane).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoggedWrite {
    buf: u32,
    index: u32,
    /// Bits the element held before the write.
    old: u32,
    /// A store's new bits; an atomic's operand bits.
    bits: u32,
    /// `Some` for an atomic: replay re-applies the operation against the
    /// accumulated value instead of overwriting.
    op: Option<BinOp>,
    /// The writing block's place in its group.
    block: u8,
}

/// Undo a group's writes on the worker's buffer image (reverse order, so
/// overlapping writes unwind correctly).
fn revert_writes(buffers: &mut [BufferStorage], log: &[LoggedWrite]) {
    for w in log.iter().rev() {
        buffers[w.buf as usize].data[w.index as usize] = w.old;
    }
}

/// Apply a log's writes to the device's buffers, in log order. Stores overwrite;
/// atomics re-apply their operation against the accumulated value.
fn replay_writes(buffers: &mut [BufferStorage], log: &[LoggedWrite]) -> Result<(), EvalError> {
    for w in log {
        let buf = &mut buffers[w.buf as usize];
        let slot = &mut buf.data[w.index as usize];
        *slot = match w.op {
            None => w.bits,
            Some(op) => {
                let tag = tag_of_ty(buf.ty);
                encode_bits(op.apply(decode(tag, *slot), decode(tag, w.bits))?)
            }
        };
    }
    Ok(())
}

/// Launch-wide immutable state shared by every worker.
pub(crate) struct Launch<'a> {
    pub profile: &'a DeviceProfile,
    /// Where the tree-walking oracle resolves calls; the bytecode has
    /// them compiled in.
    #[cfg(any(test, feature = "oracle"))]
    pub program: &'a paraprox_ir::Program,
    pub kernel: &'a Kernel,
    pub args: &'a [ArgValue],
    pub grid: Dim2,
    pub block: Dim2,
    /// The kernel compiled to bytecode, superinstructions included: the
    /// one artifact every launch of it runs. Shared read-only by all
    /// workers.
    pub compiled: Arc<crate::bytecode::CompiledKernel>,
    /// Seed for per-block store-application-order permutation (None =
    /// canonical lane order).
    pub schedule_seed: Option<u64>,
    /// Bit-flip probability for [`MemSpace::Approx`] loads, pre-scaled to
    /// a `u64` threshold (`rate * 2^64`, saturating); 0 disables
    /// injection entirely. See [`approx_threshold`].
    pub approx_threshold: u64,
    /// Seed of the deterministic flip stream; mixed with the block id so
    /// each block draws an independent, worker-count-invariant stream.
    pub approx_seed: u64,
    /// Buffer arena indices this launch declares *input-overwritten*: the
    /// kernel never reads them (verified by
    /// [`crate::Device::launch_overwriting`]), so their contents at launch
    /// entry are unobservable and the per-worker image refresh may keep
    /// whatever bytes the pooled image already holds. Loop-carried
    /// ping-pong buffers hit this every iteration.
    pub overwritten: &'a [usize],
    /// Blocks per group, from [`crate::device::group_blocks`]: 1 unless
    /// the launch is group-safe.
    pub group: usize,
}

/// Counters for the pooled worker-image refresh: how many per-buffer
/// copies were performed and how many were skipped because the launch
/// declared the buffer input-overwritten. Atomic because the refresh runs
/// on the pool's worker threads; the totals are deterministic for a fixed
/// launch sequence and worker count.
#[derive(Debug, Default)]
pub(crate) struct RefreshCounters {
    pub copies: AtomicU64,
    pub skips: AtomicU64,
}

/// Refresh one pooled worker image from the master arena, skipping the
/// data copy for buffers the launch declared input-overwritten (metadata
/// is still synchronized so addresses and spaces stay coherent). A skip
/// is only taken when the pooled buffer already has the right type and
/// length — the first launch after an arena change always copies.
fn refresh_image(
    image: &mut Vec<BufferStorage>,
    src: &[BufferStorage],
    overwritten: impl Fn(usize) -> bool,
    counters: &RefreshCounters,
) {
    if image.len() != src.len() {
        image.clear();
        image.extend(src.iter().cloned());
        counters
            .copies
            .fetch_add(src.len() as u64, Ordering::Relaxed);
        return;
    }
    let mut copies = 0u64;
    let mut skips = 0u64;
    for (i, (dst, s)) in image.iter_mut().zip(src).enumerate() {
        if overwritten(i) && dst.ty == s.ty && dst.data.len() == s.data.len() {
            dst.space = s.space;
            dst.base_addr = s.base_addr;
            skips += 1;
        } else {
            dst.clone_from(s);
            copies += 1;
        }
    }
    counters.copies.fetch_add(copies, Ordering::Relaxed);
    counters.skips.fetch_add(skips, Ordering::Relaxed);
}

/// Scale an error rate in `[0, 1]` to the `u64` comparison threshold the
/// executor uses: a flip happens when a uniform 64-bit draw is below
/// `rate * 2^64`. Rate 0 maps to 0 (no draws at all); rates at or above 1
/// saturate to `u64::MAX` (`f64 as u64` saturates), flipping every load.
pub(crate) fn approx_threshold(rate: f64) -> u64 {
    if rate > 0.0 {
        (rate * (u64::MAX as f64)) as u64
    } else {
        0
    }
}

/// What one block finished with; folded in ascending `block` order. A
/// group's blocks share one stats accumulator, which its first block
/// carries (the others carry zeros).
struct BlockOutcome {
    block: usize,
    stats: LaunchStats,
    /// The block's exit L1 and constant cache — kept only for the last
    /// block of a launch, whose caches become the device's.
    caches: Option<(Cache, Cache)>,
    /// The block's writes in application order.
    log: Vec<LoggedWrite>,
}

/// One shared-memory array of a group: a typed bit strip of one `len`-word
/// copy per block, like [`BufferStorage`] without an address.
#[derive(Debug)]
struct SharedArray {
    ty: Ty,
    len: usize,
    data: Vec<u32>,
}

/// Per-worker state of the memory pipeline, reused across the groups (and
/// the launches) a worker executes so that no access and no group
/// allocates for it.
#[derive(Debug, Default)]
pub(crate) struct MemScratch {
    /// Working caches, one per block of the group, reset from the
    /// launch-entry templates per group.
    l1: Vec<Cache>,
    constant_cache: Vec<Cache>,
    shared: Vec<SharedArray>,
    /// `store_order[k]` is the lane whose store is applied k-th: each
    /// block's lanes in its own permutation, blocks in order; empty means
    /// canonical lane order. Only the *application order* of
    /// [`ExecCtx::do_store`] is permuted — cost accounting and atomics
    /// are order-independent.
    store_order: Vec<usize>,
    /// Per-block flip stream state. Blocks execute their lane-loads in a
    /// deterministic sequence (ascending lanes within each access, program
    /// order across accesses, identical in both engines and in a group),
    /// so advancing a block's splitmix64 state per approx lane-load yields
    /// the same flips whatever the worker count, engine or group.
    approx_rng: Vec<u64>,
    /// Lane-indexed element indices the per-lane path validated, for the
    /// charging pass that follows it.
    resolved: Vec<u32>,
}

impl MemScratch {
    /// Have working caches for `blocks` blocks, shaped like the templates.
    fn reserve_caches(&mut self, blocks: usize, l1: &Cache, constant_cache: &Cache) {
        for (caches, template) in [
            (&mut self.l1, l1),
            (&mut self.constant_cache, constant_cache),
        ] {
            caches.reserve(blocks.saturating_sub(caches.len()));
            while caches.len() < blocks {
                caches.push(template.clone());
            }
        }
    }

    /// Set up for the group of `blocks` blocks from `first`: entry caches,
    /// zeroed shared arrays, and each block's store permutation
    /// (Fisher-Yates over its lanes, seeded per block so different blocks
    /// shuffle independently) and flip stream.
    fn begin_group(&mut self, seg: &Seg<'_>, first: usize, blocks: usize) {
        let launch = &seg.launch;
        self.reserve_caches(blocks, &seg.l1_template, &seg.cc_template);
        for (caches, template) in [
            (&mut self.l1, &seg.l1_template),
            (&mut self.constant_cache, &seg.cc_template),
        ] {
            for cache in &mut caches[..blocks] {
                cache.copy_from(template);
            }
        }
        let decls = &launch.kernel.shared;
        self.shared.resize_with(decls.len(), || SharedArray {
            ty: Ty::F32,
            len: 0,
            data: Vec::new(),
        });
        for (arr, decl) in self.shared.iter_mut().zip(decls) {
            arr.ty = decl.ty;
            arr.len = decl.len;
            arr.data.clear();
            arr.data.resize(decl.len * blocks, 0);
        }
        let lanes = launch.block.count();
        self.store_order.clear();
        if let Some(seed) = launch.schedule_seed {
            for b in 0..blocks {
                let mut state = seed ^ ((first + b) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let order = &mut self.store_order;
                let base = order.len();
                order.extend(base..base + lanes);
                for i in (1..lanes).rev() {
                    let j = (paraprox_prng::splitmix64(&mut state) % (i as u64 + 1)) as usize;
                    order.swap(base + i, base + j);
                }
            }
        }
        self.approx_rng.clear();
        self.approx_rng.extend((first..first + blocks).map(|id| {
            launch.approx_seed
                ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ 0x5851_F42D_4C95_7F2D
        }));
    }
}

/// One host worker's scratch: register file, memory pipeline state and
/// the running group's write log. A dispatch takes one per worker from
/// [`SCRATCH`] and gives them back, so a steady stream of launches
/// allocates none of it.
#[derive(Debug, Default)]
struct WorkerScratch {
    bc: crate::bytecode::BcScratch,
    mem: MemScratch,
    /// The running group's global writes, in application order.
    log: Vec<LoggedWrite>,
    /// The running group's writes split by block, each block's in order.
    split: Vec<Vec<LoggedWrite>>,
}

/// Worker scratch not in use, shared by every device of the process: a
/// dispatch borrows one per worker ([`Scratches`]), so launches reuse the
/// allocations whichever device runs them, and an idle device holds none.
/// A scratch holds no state that outlives a group.
static SCRATCH: Mutex<Vec<WorkerScratch>> = Mutex::new(Vec::new());

/// `n` worker scratches borrowed from [`SCRATCH`] for one dispatch and
/// given back when it ends, however it ends.
struct Scratches(Vec<WorkerScratch>);

impl Scratches {
    fn take(n: usize) -> Scratches {
        let mut pool = SCRATCH.lock().unwrap_or_else(PoisonError::into_inner);
        let keep = pool.len().saturating_sub(n);
        let mut taken = pool.split_off(keep);
        drop(pool);
        taken.resize_with(n, WorkerScratch::default);
        Scratches(taken)
    }
}

impl Drop for Scratches {
    fn drop(&mut self) {
        let mut pool = SCRATCH.lock().unwrap_or_else(PoisonError::into_inner);
        pool.append(&mut self.0);
    }
}

/// Per-worker mutable state for one dispatch.
struct Worker<'a> {
    buffers: &'a mut Vec<BufferStorage>,
    s: &'a mut WorkerScratch,
}

impl<'a> Worker<'a> {
    /// A worker for a dispatch of `segs`. It has its working caches for
    /// the dispatch's largest group before it takes any work, so what a
    /// dispatch allocates does not depend on which worker ran what, or on
    /// what an earlier dispatch left behind.
    fn new(
        buffers: &'a mut Vec<BufferStorage>,
        s: &'a mut WorkerScratch,
        segs: &[Seg<'_>],
    ) -> Worker<'a> {
        if let Some(seg) = segs.iter().max_by_key(|seg| seg.launch.group) {
            s.mem
                .reserve_caches(seg.launch.group, &seg.l1_template, &seg.cc_template);
        }
        // Each dispatch starts its log afresh, for the same reason.
        s.log = Vec::new();
        Worker { buffers, s }
    }

    /// Execute group `group` of segment `si`, pushing one outcome per
    /// block onto `done`: as one row when the group has several blocks,
    /// and block by block when it has one or the row fails — so an error
    /// is always the one the lowest failing block raises alone.
    fn run_group(
        &mut self,
        (si, seg): (usize, &Seg<'_>),
        group: usize,
        done: &mut Vec<(usize, BlockOutcome)>,
    ) -> Result<(), EvalError> {
        let launch = &seg.launch;
        let first = group * launch.group;
        let blocks = launch.group.min(launch.grid.count() - first);
        if blocks > 1 && self.run_row((si, seg), first, blocks, done).is_ok() {
            return Ok(());
        }
        for block in first..first + blocks {
            self.run_row((si, seg), block, 1, done)?;
        }
        Ok(())
    }

    /// Execute `blocks` blocks from `first` as one row against this
    /// worker's buffer image, revert the image, and push each block's
    /// outcome, its writes split off the row's log in their order.
    fn run_row(
        &mut self,
        (si, seg): (usize, &Seg<'_>),
        first: usize,
        blocks: usize,
        done: &mut Vec<(usize, BlockOutcome)>,
    ) -> Result<(), EvalError> {
        let launch = &seg.launch;
        let s = &mut *self.s;
        s.mem.begin_group(seg, first, blocks);
        let result = exec_group(
            launch,
            first,
            blocks,
            self.buffers,
            &mut s.log,
            &seg.iterations,
            &mut s.bc,
            &mut s.mem,
        );
        revert_writes(self.buffers, &s.log);
        let mut stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                s.log.clear();
                return Err(e);
            }
        };
        s.split.resize_with(blocks, Vec::new);
        if blocks == 1 {
            // A lone block's log is the row's. One allocation for the next
            // row's, not a doubling series: a launch's blocks write about
            // the same amount.
            s.split[0] = std::mem::take(&mut s.log);
            s.log.reserve(s.split[0].len());
        } else {
            // One exactly sized log per block of the group.
            let mut counts = [0usize; crate::device::MAX_GROUP_BLOCKS];
            for w in &s.log {
                counts[w.block as usize] += 1;
            }
            for (log, &count) in s.split.iter_mut().zip(&counts) {
                *log = Vec::with_capacity(count);
            }
            for w in s.log.drain(..) {
                s.split[w.block as usize].push(w);
            }
        }
        for (b, log) in s.split[..blocks].iter_mut().enumerate() {
            let last = first + b + 1 == launch.grid.count();
            done.push((
                si,
                BlockOutcome {
                    block: first + b,
                    stats: std::mem::take(&mut stats),
                    caches: last.then(|| (s.mem.l1[b].clone(), s.mem.constant_cache[b].clone())),
                    log: std::mem::take(log),
                },
            ));
        }
        Ok(())
    }
}

/// Install the last block's exit caches as the launch's, with counters
/// advanced from their entry values by the summed per-block deltas.
fn exit_caches(
    last: Option<BlockOutcome>,
    entry_l1: (u64, u64),
    entry_cc: (u64, u64),
    stats: &LaunchStats,
) -> (Cache, Cache) {
    let (mut l1, mut constant_cache) = last
        .and_then(|o| o.caches)
        .expect("a launch's last block keeps its caches");
    l1.set_counters(entry_l1.0 + stats.l1_hits, entry_l1.1 + stats.l1_misses);
    constant_cache.set_counters(
        entry_cc.0 + stats.const_hits,
        entry_cc.1 + stats.const_misses,
    );
    (l1, constant_cache)
}

/// One segment of a fused dispatch: an independent launch plus the
/// simulated cache state it enters with. Segments must touch disjoint
/// buffers (each serving request allocates its own); their simulated
/// address spaces may overlap freely because every segment carries
/// private caches.
pub(crate) struct FusedSegment<'a> {
    pub launch: Launch<'a>,
    pub l1: Cache,
    pub constant_cache: Cache,
}

/// What one segment finished with: its summed stats and exit caches
/// (the last block's, counters advanced past the entry values).
pub(crate) struct SegmentOutcome {
    pub stats: LaunchStats,
    pub l1: Cache,
    pub constant_cache: Cache,
}

/// A segment as the workers see it: the launch, its entry caches with
/// counters zeroed (so each block's counters are pure deltas), and the
/// offset of its first group in the dispatch-wide group numbering.
struct Seg<'a> {
    launch: Launch<'a>,
    l1_template: Cache,
    cc_template: Cache,
    entry_l1: (u64, u64),
    entry_cc: (u64, u64),
    start: usize,
    iterations: AtomicU64,
}

impl Seg<'_> {
    fn groups(&self) -> usize {
        self.launch.grid.count().div_ceil(self.launch.group)
    }
}

/// Execute every group of every segment — serially or across up to
/// `workers` host workers (the device's count, resolved once by
/// [`crate::pool::resolve_workers`]) — and fold the results
/// deterministically. A single launch is a dispatch of one segment.
///
/// Every segment's buffer contents, simulated cycles, and cache
/// statistics are bit-identical to dispatching it alone, but the host
/// cost is paid once per *dispatch*: one scope of pooled workers, one
/// shared work queue spanning every segment's groups, and one image
/// refresh per worker. Each block is a pure function of its segment's
/// entry state, and folding (stats, write replay, exit caches) happens
/// per segment in ascending `(segment, block)` order. The iteration
/// budget stays per-segment so a runaway kernel is charged like it would
/// be alone. On error nothing is folded: the caller's buffers and caches
/// are never touched.
pub(crate) fn run_fused(
    segments: Vec<FusedSegment<'_>>,
    workers: usize,
    buffers: &mut Vec<BufferStorage>,
    image_pool: &mut Vec<Vec<BufferStorage>>,
    refresh: &RefreshCounters,
) -> Result<Vec<SegmentOutcome>, LaunchError> {
    let mut segs: Vec<Seg<'_>> = Vec::with_capacity(segments.len());
    let mut total = 0usize;
    for fs in segments {
        let FusedSegment {
            launch,
            mut l1,
            mut constant_cache,
        } = fs;
        let entry_l1 = (l1.hits(), l1.misses());
        let entry_cc = (constant_cache.hits(), constant_cache.misses());
        l1.reset_counters();
        constant_cache.reset_counters();
        let seg = Seg {
            launch,
            l1_template: l1,
            cc_template: constant_cache,
            entry_l1,
            entry_cc,
            start: total,
            iterations: AtomicU64::new(0),
        };
        total += seg.groups();
        segs.push(seg);
    }
    run_segments(&segs, total, workers, buffers, image_pool, refresh)
}

/// [`run_fused`] over prepared segments holding `total` groups.
fn run_segments(
    segs: &[Seg<'_>],
    total: usize,
    workers: usize,
    buffers: &mut Vec<BufferStorage>,
    image_pool: &mut Vec<Vec<BufferStorage>>,
    refresh: &RefreshCounters,
) -> Result<Vec<SegmentOutcome>, LaunchError> {
    let started = Instant::now();
    if segs.is_empty() {
        return Ok(Vec::new());
    }
    let workers = workers.min(total).max(1);
    let eval_err = |seg: &Seg<'_>, source: EvalError| LaunchError::Eval {
        kernel: seg.launch.kernel.name.clone(),
        source,
    };
    let mut scratch = Scratches::take(workers);

    let blocks: usize = segs.iter().map(|s| s.launch.grid.count()).sum();
    let mut outcomes: Vec<(usize, BlockOutcome)> = Vec::with_capacity(blocks);
    if workers == 1 {
        // Serial path: interpret directly against the device's buffers.
        // Isolation (log + revert per group, replay below) is still
        // applied so the observable semantics are identical to the
        // parallel path.
        let mut worker = Worker::new(buffers, &mut scratch.0[0], segs);
        for (si, seg) in segs.iter().enumerate() {
            for group in 0..seg.groups() {
                worker
                    .run_group((si, seg), group, &mut outcomes)
                    .map_err(|e| eval_err(seg, e))?;
            }
        }
    } else {
        // One shared queue over every segment's groups; a global index
        // maps back to (segment, local group) through the start offsets.
        let queue = WorkQueue::new(total, workers);
        let abort = AtomicBool::new(false);
        let mut first_err: Option<(usize, usize, EvalError)> = None;
        // Per-worker buffer images come from the device's pool: a repeated
        // dispatch (tuning sweep, serving loop) refreshes the retained
        // images in place — `BufferStorage::clone_from` reuses the heap
        // blocks — instead of cloning the arena per worker per dispatch.
        if image_pool.len() < workers {
            image_pool.resize_with(workers, Vec::new);
        }
        {
            let buffers_src: &Vec<BufferStorage> = buffers;
            let (queue_ref, abort_ref) = (&queue, &abort);
            std::thread::scope(|s| {
                let handles: Vec<_> = image_pool[..workers]
                    .iter_mut()
                    .zip(scratch.0.iter_mut())
                    .enumerate()
                    .map(|(w, (image, scratch))| {
                        s.spawn(move || {
                            // Segments touch disjoint buffers, so a buffer
                            // one of them overwrites unread is unobservable
                            // to all of them.
                            let overwritten =
                                |i: usize| segs.iter().any(|s| s.launch.overwritten.contains(&i));
                            refresh_image(image, buffers_src, overwritten, refresh);
                            let mut worker = Worker::new(image, scratch, segs);
                            let mut done = Vec::new();
                            let mut err = None;
                            while let Some(global) = queue_ref.pop(w) {
                                if abort_ref.load(Ordering::Relaxed) {
                                    break;
                                }
                                let si = segs.partition_point(|s| s.start <= global) - 1;
                                let seg = &segs[si];
                                let group = global - seg.start;
                                match worker.run_group((si, seg), group, &mut done) {
                                    Ok(()) => {}
                                    Err(e) => {
                                        err = Some((si, group, e));
                                        abort_ref.store(true, Ordering::Relaxed);
                                        break;
                                    }
                                }
                            }
                            (done, err)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (done, err) = handle.join().expect("executor worker panicked");
                    outcomes.extend(done);
                    if let Some((si, group, e)) = err {
                        // Deterministic-ish selection: lowest (segment,
                        // group) among observed failures.
                        if first_err
                            .as_ref()
                            .is_none_or(|(s0, g0, _)| (si, group) < (*s0, *g0))
                        {
                            first_err = Some((si, group, e));
                        }
                    }
                }
            });
        }
        if let Some((si, _, source)) = first_err {
            return Err(eval_err(&segs[si], source));
        }
        outcomes.sort_by_key(|(si, o)| (*si, o.block));
    }
    debug_assert_eq!(outcomes.len(), blocks);

    // Deterministic fold: stats and write logs in ascending (segment,
    // block) order; each segment exits with its last block's caches.
    let mut results: Vec<SegmentOutcome> = Vec::with_capacity(segs.len());
    let mut outcomes = outcomes.into_iter().peekable();
    for (si, seg) in segs.iter().enumerate() {
        let mut stats = LaunchStats::default();
        let mut last = None;
        while let Some((_, outcome)) = outcomes.next_if(|(s, _)| *s == si) {
            stats += outcome.stats;
            replay_writes(buffers, &outcome.log).map_err(|e| eval_err(seg, e))?;
            last = Some(outcome);
        }
        let (l1, constant_cache) = exit_caches(last, seg.entry_l1, seg.entry_cc, &stats);
        stats.workers = workers as u64;
        results.push(SegmentOutcome {
            stats,
            l1,
            constant_cache,
        });
    }
    let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    for r in &mut results {
        r.stats.wall_nanos = wall;
    }
    Ok(results)
}

/// Flip one bit of a `tag`-typed 32-bit pattern. Booleans carry a single
/// logical bit, so any flip negates them.
fn flip_bit(bits: u32, tag: u8, bit: u32) -> u32 {
    if tag == TAG_BOOL {
        bits ^ 1
    } else {
        bits ^ (1u32 << (bit % 32))
    }
}

/// Run the `blocks` blocks from `first` to completion as one lane row and
/// return their summed stats; their final caches are left in `mem`. A
/// failed group gives its loop-budget tokens back, as its blocks re-run.
/// The tree-walking oracle, present only in test builds, runs instead of
/// the bytecode when the profile selects it (always one block at a time).
#[allow(clippy::too_many_arguments)]
fn exec_group(
    launch: &Launch<'_>,
    first: usize,
    blocks: usize,
    buffers: &mut Vec<BufferStorage>,
    log: &mut Vec<LoggedWrite>,
    iterations: &AtomicU64,
    bc: &mut crate::bytecode::BcScratch,
    mem: &mut MemScratch,
) -> Result<LaunchStats, EvalError> {
    let block_lanes = launch.block.count();
    let mut ctx = ExecCtx {
        profile: launch.profile,
        args: launch.args,
        grid: launch.grid,
        block: launch.block,
        lanes: block_lanes * blocks,
        block_lanes,
        blocks,
        first_block: first,
        buffers,
        log,
        mem,
        stats: LaunchStats::default(),
        iterations,
        ticks: 0,
        approx_threshold: launch.approx_threshold,
    };
    ctx.stats.blocks = blocks as u64;
    ctx.stats.warps = (blocks * block_lanes.div_ceil(ctx.profile.warp_width)) as u64;
    ctx.stats.overhead_cycles = blocks as u64 * ctx.profile.block_overhead;
    ctx.stats.groups = u64::from(blocks > 1);
    #[cfg(any(test, feature = "oracle"))]
    if launch.profile.engine == crate::oracle::ExecEngine::TreeWalk {
        debug_assert_eq!(blocks, 1, "the oracle runs one block at a time");
        crate::oracle::run_kernel(&mut ctx, launch.program, launch.kernel)?;
        return Ok(ctx.stats);
    }
    let result = crate::bytecode::execute(&mut ctx, &launch.compiled, bc);
    if result.is_err() && blocks > 1 {
        iterations.fetch_sub(ctx.ticks, Ordering::Relaxed);
    }
    result.map(|()| ctx.stats)
}

pub(crate) struct ExecCtx<'a> {
    pub(crate) profile: &'a DeviceProfile,
    pub(crate) args: &'a [ArgValue],
    pub(crate) grid: Dim2,
    pub(crate) block: Dim2,
    /// Lanes of the row: `blocks` blocks of `block_lanes` lanes, block
    /// `b` at lanes `b * block_lanes..`.
    pub(crate) lanes: usize,
    pub(crate) block_lanes: usize,
    pub(crate) blocks: usize,
    /// Launch-wide id of the row's first block.
    pub(crate) first_block: usize,
    pub(crate) buffers: &'a mut Vec<BufferStorage>,
    /// Every global write of the row in application order, for revert and
    /// ordered replay; the row appends past whatever the log holds.
    pub(crate) log: &'a mut Vec<LoggedWrite>,
    /// Block-private caches (reset from launch-entry state), shared
    /// memory, store permutations and flip streams.
    pub(crate) mem: &'a mut MemScratch,
    pub(crate) stats: LaunchStats,
    /// Launch-wide loop-iteration budget, shared across workers.
    pub(crate) iterations: &'a AtomicU64,
    /// Budget tokens this row has taken.
    pub(crate) ticks: u64,
    /// Flip threshold for [`MemSpace::Approx`] loads (0 = off); see
    /// [`approx_threshold`].
    pub(crate) approx_threshold: u64,
}

impl ExecCtx<'_> {
    // ---- the row's blocks ----------------------------------------------

    /// Launch-wide `(blockIdx.x, blockIdx.y)` of block `b` of the row.
    #[inline]
    pub(crate) fn block_coords(&self, b: usize) -> (i32, i32) {
        let id = self.first_block + b;
        ((id % self.grid.x) as i32, (id / self.grid.x) as i32)
    }

    /// The lanes of block `b` of the row.
    #[inline]
    pub(crate) fn block_range(&self, b: usize) -> Range<usize> {
        b * self.block_lanes..(b + 1) * self.block_lanes
    }

    /// One bit per block of the row, all set.
    #[inline]
    pub(crate) fn all_blocks(&self) -> u64 {
        u64::MAX >> (64 - self.blocks)
    }

    /// The blocks with an active lane in `mask`, bit `b` for block `b`. A
    /// lone block counts as active under any mask: an op it reaches runs
    /// under a non-empty one.
    #[inline]
    pub(crate) fn active_blocks(&self, mask: &Mask) -> u64 {
        if self.blocks == 1 {
            return 1;
        }
        (0..self.blocks)
            .filter(|&b| mask.range_state(self.block_range(b)).0)
            .fold(0, |bits, b| bits | 1 << b)
    }

    /// Whether every block reaching a barrier under `mask` reaches it with
    /// all its lanes: each block's part of the mask is full or empty.
    #[inline]
    pub(crate) fn converged(&self, mask: &Mask) -> bool {
        mask.all()
            || self.blocks > 1
                && (0..self.blocks).all(|b| {
                    let (any, all) = mask.range_state(self.block_range(b));
                    !any || all
                })
    }

    /// Take one launch-wide loop-budget token per block still looping
    /// under `mask`.
    #[inline]
    pub(crate) fn tick(&mut self, mask: &Mask) -> Result<(), EvalError> {
        let n = u64::from(self.active_blocks(mask).count_ones());
        self.ticks += n;
        let used = self.iterations.fetch_add(n, Ordering::Relaxed) + n;
        if used > ITERATION_BUDGET {
            return Err(EvalError::IterationLimit);
        }
        Ok(())
    }

    // ---- cost charging ------------------------------------------------

    /// Number of warps with at least one active lane — a word-wise bitset
    /// query, one shift-and-mask per warp.
    pub(crate) fn warp_count(&self, mask: &Mask) -> u64 {
        mask.active_warps(self.profile.warp_width) as u64
    }

    pub(crate) fn charge_compute(&mut self, lat: u64, mask: &Mask) {
        let warps = self.warp_count(mask);
        self.stats.compute_cycles += lat * warps;
        self.stats.instructions += warps;
    }

    /// [`ExecCtx::charge_compute`] for the warps of block `b` alone.
    pub(crate) fn charge_block(&mut self, lat: u64, mask: &Mask, b: usize) {
        let width = self.profile.warp_width;
        let warps = self
            .block_range(b)
            .step_by(width)
            .filter(|&start| mask.warp_bits(start, width) != 0)
            .count() as u64;
        self.stats.compute_cycles += lat * warps;
        self.stats.instructions += warps;
    }

    // ---- memory --------------------------------------------------------
    //
    // One pipeline for both engines. Buffers, shared arrays and (in the
    // bytecode engine) register rows are typed `u32` bit strips, so when
    // the index row's active lanes are all `i32` or all `u32` — and, for a
    // store, the value row's active lanes have the buffer's type — an
    // access gathers or scatters raw bits under any mask. Everything else
    // (active lanes of two types, the oracle's `Vec<Scalar>`, a permuted
    // store order, bit-flip injection) takes the per-lane path *of the same
    // function*.
    //
    // Both paths visit active lanes in the same order, check each lane's
    // index type, then its bounds, then (stores) its value type, and stop
    // at the first failure — so an error names the same lane and every
    // lane before it has already written, whichever path ran. The strip
    // path merely cannot meet a type error. Both hand the charging pass a
    // lane-indexed `&[u32]` of validated element indices: a bounds-checked
    // `i32`/`u32` lane's bits *are* its index, so the strip path passes
    // the index row itself and the per-lane path a resolved copy.
    //
    // In a group, a shared array holds one copy per block and a lane
    // indexes its own block's; a warp's charges go to its block's caches
    // (warps never straddle blocks: grouped blocks are whole warps).

    fn resolve_buffer(&self, mem: MemRef) -> Result<usize, EvalError> {
        match mem {
            MemRef::Param(i) => match self.args.get(i) {
                Some(ArgValue::Buffer(id)) => Ok(id.index()),
                Some(ArgValue::Scalar(_)) => {
                    Err(EvalError::NotPure("scalar parameter used as a buffer"))
                }
                None => Err(EvalError::ArityMismatch {
                    expected: i + 1,
                    found: self.args.len(),
                }),
            },
            MemRef::Shared(_) => unreachable!("shared handled by caller"),
        }
    }

    pub(crate) fn index_to_i64(idx: Scalar) -> Result<i64, EvalError> {
        match idx {
            Scalar::I32(v) => Ok(i64::from(v)),
            Scalar::U32(v) => Ok(i64::from(v)),
            other => Err(EvalError::TypeMismatch {
                expected: Ty::I32,
                found: other.ty(),
            }),
        }
    }

    /// Perform a load into `out`: active lanes receive the loaded values,
    /// inactive lanes [`FILLER`] (exactly like the tree-walker's fresh
    /// scratch vector). Generic over the lane containers so both engines
    /// share one memory pipeline.
    pub(crate) fn do_load_into<I: LaneGet, O: LaneSet>(
        &mut self,
        mem: MemRef,
        idx: &I,
        mask: &Mask,
        out: &mut O,
    ) -> Result<(), EvalError> {
        let mut resolved = std::mem::take(&mut self.mem.resolved);
        let r = self.load_inner(mem, idx, mask, out, &mut resolved);
        self.mem.resolved = resolved;
        r
    }

    fn load_inner<I: LaneGet, O: LaneSet>(
        &mut self,
        mem: MemRef,
        idx: &I,
        mask: &Mask,
        out: &mut O,
        resolved: &mut Vec<u32>,
    ) -> Result<(), EvalError> {
        match mem {
            MemRef::Shared(sid) => {
                let arr = self
                    .mem
                    .shared
                    .get(sid.index())
                    .ok_or(EvalError::UnknownFunc(sid.index()))?;
                let tag = tag_of_ty(arr.ty);
                let fallback = &mut self.stats.mem_fallback_ops;
                let copies = Copies {
                    block_lanes: self.block_lanes,
                    stride: arr.len,
                };
                let indices = gather(
                    &arr.data,
                    copies,
                    tag,
                    idx,
                    mask,
                    out,
                    resolved,
                    NO_INJECTION,
                    fallback,
                )?;
                charge_shared(&mut self.stats, self.profile, indices, mask);
            }
            MemRef::Param(_) => {
                let b = self.resolve_buffer(mem)?;
                let buf = &self.buffers[b];
                let (space, base, tag) = (buf.space, buf.base_addr, tag_of_ty(buf.ty));
                let approx = space == MemSpace::Approx;
                // Injection draws from the lane's block's flip stream once
                // per lane-load, in lane order: per-lane by nature.
                let (threshold, block_lanes, rngs, flips, fallback) = (
                    self.approx_threshold,
                    self.block_lanes,
                    &mut self.mem.approx_rng,
                    &mut self.stats.bit_flips,
                    &mut self.stats.mem_fallback_ops,
                );
                let inject = (approx && threshold > 0).then_some(|lane: usize, bits: u32| {
                    let rng = &mut rngs[lane / block_lanes];
                    if paraprox_prng::splitmix64(rng) < threshold {
                        *flips += 1;
                        flip_bit(bits, tag, (paraprox_prng::splitmix64(rng) % 32) as u32)
                    } else {
                        bits
                    }
                });
                let copies = Copies {
                    block_lanes,
                    stride: 0,
                };
                let indices = gather(
                    &buf.data, copies, tag, idx, mask, out, resolved, inject, fallback,
                )?;
                if approx {
                    self.stats.approx_loads += mask.count() as u64;
                }
                match space {
                    MemSpace::Global | MemSpace::Shared => {
                        let (lat, issue) = (self.profile.mem_lat, self.profile.mem_issue);
                        self.charge_cached_load(base, indices, mask, lat, issue);
                    }
                    // The approximate region sits behind the same L1 as
                    // exact global memory — cache state, transaction counts,
                    // and hit costs are identical — but a miss goes to the
                    // cheaper (lower-voltage) DRAM timings.
                    MemSpace::Approx => {
                        let (lat, issue) = (self.profile.approx_lat, self.profile.approx_issue);
                        self.charge_cached_load(base, indices, mask, lat, issue);
                    }
                    MemSpace::Constant => self.charge_constant_load(base, indices, mask),
                }
            }
        }
        Ok(())
    }

    /// L1-backed load costing, parametrized by the miss timings of the
    /// backing region (exact vs approximate DRAM): one transaction per
    /// distinct line a warp touches.
    fn charge_cached_load(
        &mut self,
        base: u64,
        indices: &[u32],
        mask: &Mask,
        miss_lat: u64,
        miss_issue: u64,
    ) {
        let mut segments = WarpSet::new();
        for (b, l1) in self.mem.l1[..self.blocks].iter_mut().enumerate() {
            let lanes = b * self.block_lanes..(b + 1) * self.block_lanes;
            for (start, bits) in active_warps(self.profile.warp_width, lanes, mask) {
                segments.fill_lines(l1, base, indices, start, bits);
                let transactions = segments.as_slice().len() as u64;
                self.stats.loads += 1;
                self.stats.instructions += 1;
                self.stats.load_transactions += transactions;
                self.stats.serialized_transactions += transactions.saturating_sub(1);
                let mut hits = 0u64;
                for &seg in segments.as_slice() {
                    hits += u64::from(l1.access_line(seg));
                }
                let misses = transactions - hits;
                self.stats.l1_hits += hits;
                self.stats.l1_misses += misses;
                // Exposed latency once (the slowest class present), plus a
                // pipelined issue cost for every further transaction —
                // memory-level parallelism overlaps their latencies.
                let (base, first_issue) = if misses > 0 {
                    (miss_lat, miss_issue)
                } else {
                    (self.profile.l1_hit_lat, self.profile.l1_issue)
                };
                let issue = hits * self.profile.l1_issue + misses * miss_issue;
                let exposed = base / self.profile.latency_hiding.max(1);
                self.stats.memory_cycles += exposed + issue.saturating_sub(first_issue);
            }
        }
    }

    fn charge_constant_load(&mut self, base: u64, indices: &[u32], mask: &Mask) {
        let mut words = WarpSet::new();
        for (b, cache) in self.mem.constant_cache[..self.blocks]
            .iter_mut()
            .enumerate()
        {
            let lanes = b * self.block_lanes..(b + 1) * self.block_lanes;
            for (start, bits) in active_warps(self.profile.warp_width, lanes, mask) {
                // The constant cache broadcasts one word per cycle: distinct
                // word addresses within a warp serialize.
                words.clear();
                for lane in set_lanes(start, bits) {
                    words.insert(base + u64::from(indices[lane]) * 4);
                }
                let transactions = words.as_slice().len() as u64;
                self.stats.loads += 1;
                self.stats.instructions += 1;
                self.stats.load_transactions += transactions;
                self.stats.serialized_transactions += transactions.saturating_sub(1);
                let mut hits = 0u64;
                for &addr in words.as_slice() {
                    hits += u64::from(cache.access(addr));
                }
                let misses = transactions - hits;
                self.stats.const_hits += hits;
                self.stats.const_misses += misses;
                let (base, first_issue) = if misses > 0 {
                    (self.profile.mem_lat, self.profile.mem_issue)
                } else {
                    (self.profile.const_hit_lat, self.profile.const_hit_lat)
                };
                // The constant port broadcasts one word per cycle: every
                // distinct word serializes at `const_hit_lat`; misses also pay
                // the pipelined DRAM issue cost.
                let issue = hits * self.profile.const_hit_lat + misses * self.profile.mem_issue;
                let exposed = base / self.profile.latency_hiding.max(1);
                self.stats.memory_cycles += exposed + issue.saturating_sub(first_issue);
            }
        }
    }

    pub(crate) fn do_store<I: LaneGet, V: LaneGet>(
        &mut self,
        mem: MemRef,
        idx: &I,
        val: &V,
        mask: &Mask,
    ) -> Result<(), EvalError> {
        let mut resolved = std::mem::take(&mut self.mem.resolved);
        let r = self.store_inner(mem, idx, val, mask, &mut resolved);
        self.mem.resolved = resolved;
        r
    }

    fn store_inner<I: LaneGet, V: LaneGet>(
        &mut self,
        mem: MemRef,
        idx: &I,
        val: &V,
        mask: &Mask,
        resolved: &mut Vec<u32>,
    ) -> Result<(), EvalError> {
        match mem {
            MemRef::Shared(sid) => {
                let arr = self
                    .mem
                    .shared
                    .get_mut(sid.index())
                    .ok_or(EvalError::UnknownFunc(sid.index()))?;
                let copies = Copies {
                    block_lanes: self.block_lanes,
                    stride: arr.len,
                };
                let indices = scatter(
                    &mut arr.data,
                    copies,
                    arr.ty,
                    idx,
                    val,
                    mask,
                    &self.mem.store_order,
                    resolved,
                    |_, _, _, _| {},
                    &mut self.stats.mem_fallback_ops,
                )?;
                charge_shared(&mut self.stats, self.profile, indices, mask);
                self.stats.stores += self.warp_count(mask);
            }
            MemRef::Param(_) => {
                let b = self.resolve_buffer(mem)?;
                let buf = &mut self.buffers[b];
                if buf.space == MemSpace::Constant {
                    return Err(EvalError::NotPure("store to constant memory"));
                }
                let (space, base) = (buf.space, buf.base_addr);
                let log = &mut *self.log;
                log.reserve(mask.count());
                let copies = Copies {
                    block_lanes: self.block_lanes,
                    stride: 0,
                };
                let indices = scatter(
                    &mut buf.data,
                    copies,
                    buf.ty,
                    idx,
                    val,
                    mask,
                    &self.mem.store_order,
                    resolved,
                    |block, i, old, bits| {
                        log.push(LoggedWrite {
                            buf: b as u32,
                            index: i as u32,
                            old,
                            bits,
                            op: None,
                            block: block as u8,
                        });
                    },
                    &mut self.stats.mem_fallback_ops,
                )?;
                // Coalescing for stores: one transaction per distinct line.
                // Writes to the approximate region are exact (errors are a
                // read phenomenon) but land in the cheaper DRAM.
                let store_lat = if space == MemSpace::Approx {
                    self.profile.approx_store_lat
                } else {
                    self.profile.store_lat
                };
                let mut segments = WarpSet::new();
                for (start, bits) in active_warps(self.profile.warp_width, 0..self.lanes, mask) {
                    segments.fill_lines(&self.mem.l1[0], base, indices, start, bits);
                    self.stats.stores += 1;
                    self.stats.instructions += 1;
                    self.stats.memory_cycles += store_lat * segments.as_slice().len() as u64;
                }
            }
        }
        Ok(())
    }

    pub(crate) fn do_atomic<I: LaneGet, V: LaneGet>(
        &mut self,
        op: paraprox_ir::AtomicOp,
        mem: MemRef,
        idx: &I,
        val: &V,
        mask: &Mask,
    ) -> Result<(), EvalError> {
        let bin = op.to_bin_op();
        let mut active = 0u64;
        // The block of the lane, followed as the lanes ascend.
        let (mut block, mut block_end) = (0, self.block_lanes);
        for lane in mask.iter_set() {
            active += 1;
            let i = Self::index_to_i64(idx.lane(lane))?;
            while lane >= block_end {
                block += 1;
                block_end += self.block_lanes;
            }
            // A shared array's lane reaches its own block's copy.
            let (b, ty, data) = match mem {
                MemRef::Shared(sid) => {
                    let arr = self
                        .mem
                        .shared
                        .get_mut(sid.index())
                        .ok_or(EvalError::UnknownFunc(sid.index()))?;
                    let len = arr.len;
                    (None, arr.ty, &mut arr.data[block * len..][..len])
                }
                MemRef::Param(_) => {
                    let b = self.resolve_buffer(mem)?;
                    let buf = &mut self.buffers[b];
                    if buf.space == MemSpace::Constant {
                        return Err(EvalError::NotPure("atomic on constant memory"));
                    }
                    (Some(b), buf.ty, &mut buf.data[..])
                }
            };
            let len = data.len();
            if i < 0 || i as usize >= len {
                return Err(EvalError::OutOfBounds { index: i, len });
            }
            let tag = tag_of_ty(ty);
            let old = data[i as usize];
            let operand = val.lane(lane);
            data[i as usize] = encode_bits(bin.apply(decode(tag, old), operand)?);
            if let Some(b) = b {
                self.log.push(LoggedWrite {
                    buf: b as u32,
                    index: i as u32,
                    old,
                    bits: encode_bits(operand),
                    op: Some(bin),
                    block: block as u8,
                });
            }
        }
        // Atomics fully serialize across active lanes. They are also
        // always exact, even on an `Approx`-placed buffer: the partition
        // analysis marks atomic targets Critical, so auto-placement never
        // routes them here, and a forced placement still keeps its
        // read-modify-write cycle flip-free at exact timing.
        self.stats.atomics += active;
        self.stats.memory_cycles += self.profile.atomic_lat * active;
        self.stats.instructions += self.warp_count(mask);
        Ok(())
    }
}

/// Element index of one lane on the per-lane path: index type, then
/// bounds.
#[inline]
fn lane_index<I: LaneGet>(idx: &I, lane: usize, len: usize) -> Result<usize, EvalError> {
    let i = ExecCtx::index_to_i64(idx.lane(lane))?;
    if i < 0 || i as usize >= len {
        return Err(EvalError::OutOfBounds { index: i, len });
    }
    Ok(i as usize)
}

/// Bounds-check one lane of an index strip (`signed`: the row is `i32`).
#[inline(always)]
fn strip_index(bits: u32, signed: bool, len: usize) -> Result<usize, EvalError> {
    let i = if signed {
        i64::from(bits as i32)
    } else {
        i64::from(bits)
    };
    if i < 0 || i as usize >= len {
        return Err(EvalError::OutOfBounds { index: i, len });
    }
    Ok(i as usize)
}

/// [`gather`]'s `inject` for memory that returns what was stored.
const NO_INJECTION: Option<fn(usize, u32) -> u32> = None;

/// How the blocks of a row see an array: `block_lanes` lanes to a block,
/// and block `b`'s copy at `data[b * stride..][..stride]` — or, with a
/// stride of 0, all of `data`, one copy every block shares.
#[derive(Clone, Copy)]
struct Copies {
    block_lanes: usize,
    stride: usize,
}

impl Copies {
    /// Block `b`'s copy of `data`.
    fn of(self, data: &[u32], b: usize) -> Range<usize> {
        match self.stride {
            0 => 0..data.len(),
            len => b * len..(b + 1) * len,
        }
    }
}

/// Load `data[idx[lane]]` (elements of type `tag`) into the active lanes
/// of `out`, in ascending lane order, each lane from its block's copy.
/// `inject`, when present, sees every loaded word with its lane and
/// returns the word the lane receives, and keeps the access on the
/// per-lane path. Any other access whose index row's active lanes are all
/// `i32` or all `u32` moves raw words span by span; the rest go lane by
/// lane and count in `fallback`. Returns the lane-indexed element indices
/// for the charging pass: the index row's own strip, or `resolved` filled
/// by the per-lane path.
#[allow(clippy::too_many_arguments)]
fn gather<'i, I: LaneGet, O: LaneSet>(
    data: &[u32],
    copies: Copies,
    tag: u8,
    idx: &'i I,
    mask: &Mask,
    out: &mut O,
    resolved: &'i mut Vec<u32>,
    mut inject: Option<impl FnMut(usize, u32) -> u32>,
    fallback: &mut u64,
) -> Result<&'i [u32], EvalError> {
    let lanes = mask.lanes();
    let len = copies.of(data, 0).len();
    if inject.is_none() {
        if let Some((signed, ib)) = idx.index_strip(mask) {
            if let Some(ob) = out.begin_strip(tag, mask) {
                let ib = &ib[..lanes];
                for (b, span) in mask.block_spans(copies.block_lanes) {
                    let data = &data[copies.of(data, b)];
                    let len = data.len();
                    match span {
                        Span::Run(r) => {
                            for (o, &raw) in ob[r.clone()].iter_mut().zip(&ib[r]) {
                                *o = data[strip_index(raw, signed, len)?];
                            }
                        }
                        Span::Word(first, bits) => {
                            for lane in set_lanes(first, bits) {
                                ob[lane] = data[strip_index(ib[lane], signed, len)?];
                            }
                        }
                    }
                }
                return Ok(ib);
            }
        }
        *fallback += u64::from(I::STRIPS);
    }
    resolved.resize(lanes, 0);
    out.fill_filler(lanes);
    for lane in mask.iter_set() {
        let i = lane_index(idx, lane, len)?;
        resolved[lane] = i as u32;
        let bits = data[copies.of(data, lane / copies.block_lanes).start + i];
        let bits = match &mut inject {
            Some(inject) => inject(lane, bits),
            None => bits,
        };
        out.set_lane(lane, decode(tag, bits));
    }
    out.normalize();
    Ok(resolved)
}

/// Store the active lanes of `val` to `data[idx[lane]]` (elements of type
/// `ty`, each lane in its block's copy), applying lanes in `order` (empty
/// = ascending) and reporting each write as `(block, index, old bits, new
/// bits)`. In ascending order, an access whose index row is
/// eligible as for [`gather`] and whose value row's active lanes all have
/// type `ty` moves raw words span by span; the rest go lane by lane and
/// count in `fallback`. A permuted order stays per-lane and counts
/// nothing: it exists to expose races, not to be fast. Returns the
/// lane-indexed element indices like [`gather`].
#[allow(clippy::too_many_arguments)]
fn scatter<'i, I: LaneGet, V: LaneGet>(
    data: &mut [u32],
    copies: Copies,
    ty: Ty,
    idx: &'i I,
    val: &V,
    mask: &Mask,
    order: &[usize],
    resolved: &'i mut Vec<u32>,
    mut written: impl FnMut(usize, usize, u32, u32),
    fallback: &mut u64,
) -> Result<&'i [u32], EvalError> {
    let (lanes, tag) = (mask.lanes(), tag_of_ty(ty));
    let len = copies.of(data, 0).len();
    if order.is_empty() {
        if let (Some((signed, ib)), Some(vb)) = (idx.index_strip(mask), val.strip_of(tag, mask)) {
            let (ib, vb) = (&ib[..lanes], &vb[..lanes]);
            for (b, span) in mask.block_spans(copies.block_lanes) {
                let range = copies.of(data, b);
                let data = &mut data[range];
                let len = data.len();
                let mut put = |lane: usize| -> Result<(), EvalError> {
                    let i = strip_index(ib[lane], signed, len)?;
                    written(b, i, data[i], vb[lane]);
                    data[i] = vb[lane];
                    Ok(())
                };
                match span {
                    Span::Run(mut r) => r.try_for_each(&mut put)?,
                    Span::Word(first, bits) => set_lanes(first, bits).try_for_each(&mut put)?,
                }
            }
            return Ok(ib);
        }
        *fallback += u64::from(I::STRIPS);
    }
    resolved.resize(lanes, 0);
    for k in 0..lanes {
        let lane = order.get(k).copied().unwrap_or(k);
        if mask.get(lane) {
            let i = lane_index(idx, lane, len)?;
            let v = val.lane(lane);
            if v.ty() != ty {
                return Err(EvalError::TypeMismatch {
                    expected: ty,
                    found: v.ty(),
                });
            }
            resolved[lane] = i as u32;
            let b = lane / copies.block_lanes;
            let at = copies.of(data, b).start + i;
            written(b, i, data[at], encode_bits(v));
            data[at] = encode_bits(v);
        }
    }
    Ok(resolved)
}

/// Warps of `lanes` with at least one active lane, as `(first lane, lane bits)`,
/// without allocating. One shift-and-mask per warp (see
/// [`LaneMask::warp_bits`]).
fn active_warps(
    warp_width: usize,
    lanes: Range<usize>,
    mask: &Mask,
) -> impl Iterator<Item = (usize, u64)> + '_ {
    lanes
        .step_by(warp_width)
        .map(move |start| (start, mask.warp_bits(start, warp_width)))
        .filter(|&(_, bits)| bits != 0)
}

/// The active lanes of one warp, ascending, from its [`active_warps`] bits.
fn set_lanes(start: usize, bits: u64) -> impl Iterator<Item = usize> {
    set_bits(bits).map(move |bit| start + bit)
}

/// Shared-memory banks; consecutive 4-byte words sit in consecutive banks.
const BANKS: usize = 32;

/// Bank-conflict charging for one shared-memory access, lane `l` touching
/// word `indices[l]`. Conflict degree: max number of *distinct word
/// addresses* mapping to the same bank within the warp.
fn charge_shared(stats: &mut LaunchStats, profile: &DeviceProfile, indices: &[u32], mask: &Mask) {
    let mut banks = BankWords::new();
    for (start, bits) in active_warps(profile.warp_width, 0..mask.lanes(), mask) {
        let degree = banks.degree(indices, start, bits);
        stats.shared_accesses += 1;
        stats.bank_conflict_extra += degree - 1;
        stats.memory_cycles += profile.shared_lat * degree;
        stats.instructions += 1;
    }
}

/// The distinct words one warp touched, chained per bank: a lane's word is
/// looked up only among the words its own bank has seen, so a warp costs
/// O(lanes × degree) — one probe a lane when conflict-free — where one
/// set of all its words would cost O(distinct²). Lives on the stack like
/// [`WarpSet`]; a chain link is a word's slot, [`BankWords::END`] ends it.
struct BankWords {
    head: [u8; BANKS],
    next: [u8; MAX_WARP_LANES],
    words: [u32; MAX_WARP_LANES],
}

impl BankWords {
    const END: u8 = u8::MAX;

    fn new() -> BankWords {
        BankWords {
            head: [Self::END; BANKS],
            next: [Self::END; MAX_WARP_LANES],
            words: [0; MAX_WARP_LANES],
        }
    }

    /// The conflict degree of the warp whose active lanes are `bits` from
    /// lane `start`: the most distinct words any one bank serves (1 for a
    /// conflict-free or broadcast access).
    #[inline]
    fn degree(&mut self, indices: &[u32], start: usize, bits: u64) -> u64 {
        self.head = [Self::END; BANKS];
        let (mut len, mut degree) = (0, 1);
        for lane in set_lanes(start, bits) {
            let word = indices[lane];
            let bank = word as usize % BANKS;
            // Walk the bank's chain; `depth` ends one past its length when
            // the word is new to it.
            let (mut k, mut depth) = (self.head[bank], 1);
            while k != Self::END && self.words[k as usize] != word {
                k = self.next[k as usize];
                depth += 1;
            }
            if k == Self::END {
                self.words[len] = word;
                self.next[len] = self.head[bank];
                self.head[bank] = len as u8;
                len += 1;
                degree = degree.max(depth);
            }
        }
        degree
    }
}

/// The distinct values (line tags, word addresses) one warp touched, in
/// first-touch order — the order the cache then sees them in. A warp has
/// at most [`MAX_WARP_LANES`] lanes, so the set lives on the stack.
struct WarpSet {
    items: [u64; MAX_WARP_LANES],
    len: usize,
}

impl WarpSet {
    fn new() -> WarpSet {
        WarpSet {
            items: [0; MAX_WARP_LANES],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Add `v`; returns whether it was new.
    #[inline]
    fn insert(&mut self, v: u64) -> bool {
        let seen = &self.items[..self.len];
        // Neighbouring lanes usually touch the same line.
        if seen.last() == Some(&v) || seen.contains(&v) {
            return false;
        }
        self.items[self.len] = v;
        self.len += 1;
        true
    }

    /// Become the distinct `cache` lines the active lanes (`bits`, from
    /// lane `start`) of one warp touch: lane `l` accesses the 4-byte
    /// element `indices[l]` of the buffer at `base`. One transaction each.
    fn fill_lines(&mut self, cache: &Cache, base: u64, indices: &[u32], start: usize, bits: u64) {
        self.clear();
        for lane in set_lanes(start, bits) {
            self.insert(cache.line_of(base + u64::from(indices[lane]) * 4));
        }
    }

    fn as_slice(&self) -> &[u64] {
        &self.items[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Charge = fn(&mut LaunchStats, &DeviceProfile, &[u32], &Mask);

    /// The bank-conflict charge before the per-bank chains, kept as the
    /// reference: one flat set of the warp's distinct words, searched
    /// linearly, and a per-bank count of the words it admits.
    fn charge_shared_reference(
        stats: &mut LaunchStats,
        profile: &DeviceProfile,
        indices: &[u32],
        mask: &Mask,
    ) {
        charge_by(stats, profile, indices, mask, true);
    }

    /// A wrong charge: every active lane counts in its bank, repeated words
    /// included.
    fn charge_by_lanes(
        stats: &mut LaunchStats,
        profile: &DeviceProfile,
        indices: &[u32],
        mask: &Mask,
    ) {
        charge_by(stats, profile, indices, mask, false);
    }

    fn charge_by(
        stats: &mut LaunchStats,
        profile: &DeviceProfile,
        indices: &[u32],
        mask: &Mask,
        distinct: bool,
    ) {
        let mut words = Vec::new();
        for (start, bits) in active_warps(profile.warp_width, 0..mask.lanes(), mask) {
            words.clear();
            let mut per_bank = [0u64; BANKS];
            let mut degree = 1;
            for lane in set_lanes(start, bits) {
                let word = indices[lane];
                if !distinct || !words.contains(&word) {
                    words.push(word);
                    let count = &mut per_bank[word as usize % BANKS];
                    *count += 1;
                    degree = degree.max(*count);
                }
            }
            stats.shared_accesses += 1;
            stats.bank_conflict_extra += degree - 1;
            stats.memory_cycles += profile.shared_lat * degree;
            stats.instructions += 1;
        }
    }

    /// Word strips for `lanes` lanes: the adversarial shapes, then random
    /// ones over small and large word ranges.
    fn strips(lanes: usize) -> Vec<(String, Vec<u32>)> {
        let lane_words = |f: &dyn Fn(u32) -> u32| (0..lanes as u32).map(f).collect::<Vec<_>>();
        let mut out = vec![
            ("broadcast".to_string(), lane_words(&|_| 7)),
            ("all-distinct".to_string(), lane_words(&|l| l)),
            ("stride 32".to_string(), lane_words(&|l| l * 32)),
            (
                "repeated words in one bank".to_string(),
                lane_words(&|l| (l % 4) * 32 + 5),
            ),
            (
                "repeated words in every bank".to_string(),
                lane_words(&|l| l % 48 * 3),
            ),
        ];
        for k in [2u32, 4, 8, 16, 32] {
            out.push((format!("{k}-way"), lane_words(&|l| l * k)));
        }
        let mut state = 0x5EED;
        for range in [2u64, 40, 1024, 1 << 20] {
            for draw in 0..4 {
                let words = (0..lanes)
                    .map(|_| (paraprox_prng::splitmix64(&mut state) % range) as u32)
                    .collect();
                out.push((format!("random < {range} #{draw}"), words));
            }
        }
        out
    }

    /// Full, ragged (a guard ending mid-warp plus holes) and single-lane
    /// masks over `lanes` lanes.
    fn masks(lanes: usize) -> Vec<(String, LaneMask)> {
        let mut ragged = LaneMask::empty(lanes);
        for lane in (0..lanes * 2 / 3).filter(|l| l % 7 != 3) {
            ragged.set(lane, true);
        }
        let mut out = vec![
            ("full".to_string(), LaneMask::full(lanes)),
            ("ragged".to_string(), ragged),
        ];
        for lane in [0, lanes / 2 + 1, lanes - 1] {
            let mut single = LaneMask::empty(lanes);
            single.set(lane, true);
            out.push((format!("lane {lane} alone"), single));
        }
        out
    }

    /// The cases on which `charge` and the reference charge differently,
    /// and how many of all cases the reference charges a conflict in.
    fn disagreements(charge: Charge) -> (Vec<String>, usize) {
        let (mut bad, mut conflicted) = (Vec::new(), 0);
        for width in [8usize, 32, 64] {
            let mut profile = DeviceProfile::gtx560();
            profile.warp_width = width;
            for lanes in [64usize, 100, 256] {
                for (mask_name, mask) in masks(lanes) {
                    for (strip_name, strip) in strips(lanes) {
                        let (mut got, mut want) = (LaunchStats::default(), LaunchStats::default());
                        charge(&mut got, &profile, &strip, &mask);
                        charge_shared_reference(&mut want, &profile, &strip, &mask);
                        let charged = |s: &LaunchStats| {
                            (
                                s.shared_accesses,
                                s.bank_conflict_extra,
                                s.memory_cycles,
                                s.instructions,
                            )
                        };
                        if charged(&got) != charged(&want) || got != want {
                            bad.push(format!(
                                "warp {width}, {lanes} lanes, {mask_name}, {strip_name}: \
                                 {:?} != {:?}",
                                charged(&got),
                                charged(&want)
                            ));
                        }
                        conflicted += usize::from(want.bank_conflict_extra > 0);
                    }
                }
            }
        }
        (bad, conflicted)
    }

    /// Launch `out[gid] = 0 + 1 + … + (4 * blockIdx.x + 2)` over two
    /// 32-lane blocks, block 1 then storing out of bounds if `fault`, with
    /// `remaining` budget tokens left and `group` blocks per group; return
    /// the result and the tokens taken. Block 0 takes 3 tokens, block 1
    /// takes 7.
    fn budget_run(group: usize, remaining: u64, fault: bool) -> (Result<(), EvalError>, u64) {
        use paraprox_ir::{Expr, KernelBuilder, Program};
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("budget");
        let out = kb.buffer("out", Ty::I32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let acc = kb.let_mut("acc", Ty::I32, Expr::i32(0));
        let trips = KernelBuilder::block_id_x() * Expr::i32(4) + Expr::i32(3);
        kb.for_up("k", Expr::i32(0), trips, Expr::i32(1), |kb, k| {
            kb.assign(acc, Expr::Var(acc) + k);
        });
        kb.store(out, gid.clone(), Expr::Var(acc));
        if fault {
            kb.if_(gid.eq_(Expr::i32(32)), |kb| {
                kb.store(out, Expr::i32(1000), Expr::i32(1))
            });
        }
        let kid = program.add_kernel(kb.finish());
        let profile = DeviceProfile::gtx560();
        let mut device = crate::Device::new(profile.clone());
        let buf = device.alloc_i32(MemSpace::Global, &[0; 64]);
        let kernel = program.kernel(kid);
        let compiled = Arc::new(crate::bytecode::compile_kernel(&program, kernel, &profile));
        let args = [ArgValue::Buffer(buf)];
        let cache = |g| {
            let mut c = Cache::new(g);
            c.reset_counters();
            c
        };
        let seg = Seg {
            launch: Launch {
                profile: &profile,
                program: &program,
                kernel,
                args: &args,
                grid: Dim2::linear(2),
                block: Dim2::linear(32),
                compiled,
                schedule_seed: None,
                approx_threshold: 0,
                approx_seed: 0,
                overwritten: &[],
                group,
            },
            l1_template: cache(profile.cache.l1),
            cc_template: cache(profile.cache.constant),
            entry_l1: (0, 0),
            entry_cc: (0, 0),
            start: 0,
            iterations: AtomicU64::new(ITERATION_BUDGET - remaining),
        };
        let segs = std::slice::from_ref(&seg);
        let result = run_segments(
            segs,
            seg.groups(),
            1,
            &mut device.buffers,
            &mut Vec::new(),
            &RefreshCounters::default(),
        );
        let taken = seg.iterations.load(Ordering::Relaxed) - (ITERATION_BUDGET - remaining);
        let result = result.map(|_| ()).map_err(|e| match e {
            LaunchError::Eval { source, .. } => source,
            other => panic!("unexpected {other}"),
        });
        if result.is_err() {
            assert_eq!(
                device.read_i32(buf).unwrap(),
                vec![0; 64],
                "a failed launch reverts"
            );
        }
        (result, taken)
    }

    #[test]
    fn a_failed_group_gives_its_budget_tokens_back() {
        let oob = EvalError::OutOfBounds {
            index: 1000,
            len: 64,
        };
        for group in [1, 2] {
            // A group takes a token per block still looping: ten in all.
            assert_eq!(budget_run(group, 10, false), (Ok(()), 10), "group {group}");
            // Ten tokens cover both blocks: the fault is block 1's store.
            // Had the group kept its ten tokens, block 0's re-run would
            // exhaust the budget instead.
            assert_eq!(
                budget_run(group, 10, true),
                (Err(oob.clone()), 10),
                "group {group}"
            );
            // Nine do not: block 1 exhausts the budget on its seventh
            // token, grouped or alone, faulting or not.
            for fault in [false, true] {
                assert_eq!(
                    budget_run(group, 9, fault),
                    (Err(EvalError::IterationLimit), 10),
                    "group {group}, fault {fault}"
                );
            }
        }
    }

    #[test]
    fn per_bank_chains_charge_exactly_what_the_flat_set_charged() {
        let (bad, conflicted) = disagreements(charge_shared);
        assert!(
            bad.is_empty(),
            "{} cases differ:\n{}",
            bad.len(),
            bad.join("\n")
        );
        assert!(conflicted > 100, "only {conflicted} cases have a conflict");
        // The comparison bites: counting lanes instead of distinct words
        // over-charges a broadcast and every repeated word.
        let (bad, _) = disagreements(charge_by_lanes);
        for shape in ["broadcast", "repeated words in one bank", "random < 40"] {
            assert!(
                bad.iter().any(|case| case.contains(shape)),
                "a lane-counting charge passes on `{shape}`"
            );
        }
    }
}
