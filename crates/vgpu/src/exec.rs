//! Dispatch: the lockstep SIMT interpreter's blocks, executed in parallel
//! on the host, with write-log isolation, worker buffer images and the
//! scratch pool.
//!
//! A block's threads execute each statement together under an active-lane
//! mask. `if` and `for` refine the mask (divergence); `Sync` validates that
//! the block has reconverged. What each step costs, and how bits move
//! between lanes and memory, is [`crate::mem`]'s.
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
//! interpreter executes groups concurrently on host workers, which take
//! them in ascending order from one shared counter. Determinism —
//! bit-identical buffer contents, cycle counts, cache statistics and
//! errors for *any* worker count, including 1 — is achieved by making
//! every block's execution a pure function of the launch-entry state:
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
//!   contents plus its own writes. A dispatch refreshes a worker's image
//!   only for the buffers some segment loads
//!   ([`crate::CompiledKernel::access`]); a buffer nobody loads is never
//!   observed through the image (`read_buffers` argues it for atomics).
//!   When all groups finish, the logs are replayed into the device's
//!   buffers in ascending block order, each block's in its own application
//!   order: plain stores land last-block-wins (what serial execution
//!   produced) and atomic operations are re-applied, so cross-block
//!   accumulations (histograms, reductions) total correctly. A block reading another block's
//!   non-atomic global writes is a data race in CUDA and is outside this
//!   determinism contract.
//! * **Stats**: every counter of [`LaunchStats`] is a sum, so a group
//!   charges one accumulator for all its blocks, and the groups fold in
//!   ascending block order with the same `+=` the serial path uses.
//! * **Iteration budget**: a single shared atomic counter spans all
//!   workers, so the per-launch [`ITERATION_BUDGET`] bounds the whole
//!   launch, not each block. A group takes one token per block still
//!   looping and gives its tokens back if it fails.
//! * **Errors**: a worker checks for an earlier failure *before* it takes
//!   a group and always runs a group it took. Groups are taken in
//!   ascending order, so the lowest failing group is always run and its
//!   error — the one serial execution stops at — is the one reported.
//!   (Only the launch-wide loop budget, which bounds runaway kernels, can
//!   run out in a different block than it would serially.)
//!
//! With those rules the schedule is unobservable, so `parallelism = 1`
//! (exactly the serial loop, no threads spawned) and `parallelism = N`
//! produce identical results.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use paraprox_ir::{BinOp, EvalError, Kernel};

use crate::cache::Cache;
use crate::device::{ArgValue, BufferStorage, Dim2};
use crate::error::LaunchError;
use crate::mask::LaneMask;
use crate::mem::MemScratch;
use crate::profile::DeviceProfile;
use crate::soa::{decode, encode_bits, tag_of_ty};
use crate::stats::LaunchStats;

/// Maximum total loop iterations (summed over all warps of all blocks,
/// across every worker) per launch; guards against non-terminating loops
/// in malformed IR.
pub(crate) const ITERATION_BUDGET: u64 = 1 << 33;

/// One global-memory write performed by a block, recorded so the write can
/// be (a) reverted from the worker's buffer image and (b) replayed onto the
/// device's buffers in block order. Twenty bytes: buffers are typed bit
/// strips, so old and new values are raw words, and a validated element
/// index always fits `u32` (it came from an `i32`/`u32` lane).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoggedWrite {
    pub(crate) buf: u32,
    pub(crate) index: u32,
    /// Bits the element held before the write.
    pub(crate) old: u32,
    /// A store's new bits; an atomic's operand bits.
    pub(crate) bits: u32,
    /// `Some` for an atomic: replay re-applies the operation against the
    /// accumulated value instead of overwriting.
    pub(crate) op: Option<BinOp>,
    /// The writing block's place in its group.
    pub(crate) block: u8,
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
    /// Bit-flip probability for [`paraprox_ir::MemSpace::Approx`] loads,
    /// pre-scaled to a `u64` threshold (`rate * 2^64`, saturating); 0
    /// disables injection entirely. See [`crate::mem::approx_threshold`].
    pub approx_threshold: u64,
    /// Seed of the deterministic flip stream; mixed with the block id so
    /// each block draws an independent, worker-count-invariant stream.
    pub approx_seed: u64,
    /// Blocks per group, from [`crate::device::group_blocks`]: 1 unless
    /// the launch is group-safe.
    pub group: usize,
}

/// Counters for the pooled worker-image refresh: how many per-buffer
/// copies were performed and how many were skipped because no segment of
/// the dispatch reads the buffer. Atomic because the refresh runs on the
/// pool's worker threads; the totals are deterministic for a fixed launch
/// sequence and worker count.
#[derive(Debug, Default)]
pub(crate) struct RefreshCounters {
    pub copies: AtomicU64,
    pub skips: AtomicU64,
}

/// Which arena buffers some segment of a dispatch reads: bound to a
/// parameter its kernel loads. Device functions take scalars only, so the
/// kernel's own accesses are all of them. An atomic-only target is not
/// read: an atomic returns nothing, its operation (`AtomicOp::to_bin_op`:
/// Add, Min, Max, And, Or, Xor; integer Add wraps) fails on operator and
/// types only, never on the stale value it meets in an image of the
/// buffer's type and length, and replay re-applies it to the device's own
/// buffer.
fn read_buffers(segs: &[Seg<'_>], arena: usize) -> Vec<bool> {
    let mut read = vec![false; arena];
    for seg in segs {
        for (pi, arg) in seg.launch.args.iter().enumerate() {
            if let ArgValue::Buffer(id) = arg {
                if seg.launch.compiled.access.reads(pi) {
                    read[id.index()] = true;
                }
            }
        }
    }
    read
}

/// Refresh one pooled worker image from the master arena, copying only
/// the buffers in `read`. An unread buffer keeps whatever bytes the image
/// holds: a block that stores to it logs the store and the image is
/// reverted, so the bytes are never observed. Its metadata is still
/// synchronized so addresses and spaces stay coherent, and the skip is
/// only taken when the pooled buffer already has the right type and
/// length — the first launch after an arena change always copies.
fn refresh_image(
    image: &mut Vec<BufferStorage>,
    src: &[BufferStorage],
    read: &[bool],
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
    for ((dst, s), &read) in image.iter_mut().zip(src).zip(read) {
        if !read && dst.ty == s.ty && dst.data.len() == s.data.len() {
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
        s.mem
            .begin_group(launch, (&seg.l1_template, &seg.cc_template), first, blocks);
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
                    caches: last.then(|| s.mem.caches(b)),
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
/// `workers` host workers (the device's count, resolved once when it is
/// created) — and fold the results deterministically. A single launch is
/// a dispatch of one segment.
///
/// Every segment's buffer contents, simulated cycles, and cache
/// statistics are bit-identical to dispatching it alone, but the host
/// cost is paid once per *dispatch*: one scope of pooled workers, one
/// shared group counter spanning every segment's groups, and one image
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
        // One counter over every segment's groups; a global index maps
        // back to (segment, local group) through the start offsets.
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let mut first_err: Option<(usize, usize, EvalError)> = None;
        let read = read_buffers(segs, buffers.len());
        // Per-worker buffer images come from the device's pool: a repeated
        // dispatch (tuning sweep, serving loop) refreshes the retained
        // images in place — `BufferStorage::clone_from` reuses the heap
        // blocks — instead of cloning the arena per worker per dispatch.
        if image_pool.len() < workers {
            image_pool.resize_with(workers, Vec::new);
        }
        {
            let buffers_src: &Vec<BufferStorage> = buffers;
            let (next, abort, read) = (&next, &abort, &read);
            std::thread::scope(|s| {
                let handles: Vec<_> = image_pool[..workers]
                    .iter_mut()
                    .zip(scratch.0.iter_mut())
                    .map(|(image, scratch)| {
                        s.spawn(move || {
                            refresh_image(image, buffers_src, read, refresh);
                            let mut worker = Worker::new(image, scratch, segs);
                            let mut done = Vec::new();
                            let mut err = None;
                            // Abort is checked before a group is taken, and
                            // a taken group always runs (module doc,
                            // "Errors"). Neither atomic publishes data:
                            // outcomes come back through `join`.
                            while !abort.load(Ordering::Relaxed) {
                                let global = next.fetch_add(1, Ordering::Relaxed);
                                if global >= total {
                                    break;
                                }
                                let si = segs.partition_point(|s| s.start <= global) - 1;
                                let seg = &segs[si];
                                let group = global - seg.start;
                                if let Err(e) = worker.run_group((si, seg), group, &mut done) {
                                    err = Some((si, group, e));
                                    abort.store(true, Ordering::Relaxed);
                                    break;
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
                        // The lowest (segment, group) among the observed
                        // failures: the serial path's error.
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
    ctx.charge_overhead();
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
    /// Flip threshold for [`paraprox_ir::MemSpace::Approx`] loads (0 =
    /// off); see [`crate::mem::approx_threshold`].
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
    pub(crate) fn active_blocks(&self, mask: &LaneMask) -> u64 {
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
    pub(crate) fn converged(&self, mask: &LaneMask) -> bool {
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
    pub(crate) fn tick(&mut self, mask: &LaneMask) -> Result<(), EvalError> {
        let n = u64::from(self.active_blocks(mask).count_ones());
        self.ticks += n;
        let used = self.iterations.fetch_add(n, Ordering::Relaxed) + n;
        if used > ITERATION_BUDGET {
            return Err(EvalError::IterationLimit);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Launch `out[gid] = 0 + 1 + … + (4 * blockIdx.x + 2)` over two
    /// 32-lane blocks, block 1 then storing out of bounds if `fault`, with
    /// `remaining` budget tokens left and `group` blocks per group; return
    /// the result and the tokens taken. Block 0 takes 3 tokens, block 1
    /// takes 7.
    fn budget_run(group: usize, remaining: u64, fault: bool) -> (Result<(), EvalError>, u64) {
        use paraprox_ir::{Expr, KernelBuilder, MemSpace, Program, Ty};
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
}
