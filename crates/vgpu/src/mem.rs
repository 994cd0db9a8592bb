//! The memory pipeline and the cost model: everything that moves bits
//! between lanes and memory, and every charge a launch pays.
//!
//! Costs are charged per *warp*: every warp with at least one active lane
//! pays an instruction's latency, exactly like SIMT issue on real hardware
//! — so a divergent branch pays for both arms and a warp looping for its
//! slowest lane pays every iteration. A block pays a fixed overhead; a
//! load, a store or a shared access pays per transaction (distinct line,
//! constant word or bank-conflict degree) and an atomic per active lane.
//! No other module writes a cycle, transaction, bank-conflict or cache
//! hit/miss counter of [`LaunchStats`].
//!
//! # One pipeline for both engines
//!
//! Buffers, shared arrays and (in the bytecode engine) register rows are
//! typed `u32` bit strips, so when the index row's active lanes are all
//! `i32` or all `u32` — and, for a store, the value row's active lanes have
//! the buffer's type — an access gathers or scatters raw bits under any
//! mask. Everything else (active lanes of two types, the oracle's
//! `Vec<Scalar>`, a permuted store order, bit-flip injection) takes the
//! per-lane path *of the same function*.
//!
//! Both paths visit active lanes in the same order, check each lane's
//! index type, then its bounds, then (stores) its value type, and stop at
//! the first failure — so an error names the same lane and every lane
//! before it has already written, whichever path ran. The strip path
//! merely cannot meet a type error. Both hand the charging pass a
//! lane-indexed `&[u32]` of validated element indices: a bounds-checked
//! `i32`/`u32` lane's bits *are* its index, so the strip path passes the
//! index row itself and the per-lane path a resolved copy.
//!
//! In a block group, a shared array holds one copy per block and a lane
//! indexes its own block's; a warp's charges go to its block's caches
//! (warps never straddle blocks: grouped blocks are whole warps).

use std::ops::Range;

use paraprox_ir::{EvalError, MemRef, MemSpace, Scalar, SharedId, Ty};

use crate::cache::Cache;
use crate::device::{ArgValue, BufferStorage};
use crate::exec::{ExecCtx, Launch, LoggedWrite};
use crate::mask::{set_bits, LaneMask, Span, MAX_WARP_LANES};
use crate::profile::DeviceProfile;
use crate::soa::{decode, encode_bits, tag_of_ty, RegRow, TAG_BOOL, TAG_I32, TAG_U32};
use crate::stats::LaunchStats;

/// What an inactive lane of a freshly loaded row holds.
pub(crate) const FILLER: Scalar = Scalar::I32(0);

/// Read access to a lane-indexed value container. Implemented by the
/// tree-walker's `Vec<Scalar>` and the bytecode engine's [`RegRow`], so
/// the memory pipeline is single-sourced across engines.
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
    fn index_strip(&self, _mask: &LaneMask) -> Option<(bool, &[u32])> {
        None
    }

    /// The row's bit strip when every active lane has type `tag`.
    fn strip_of(&self, _tag: u8, _mask: &LaneMask) -> Option<&[u32]> {
        None
    }
}

impl LaneGet for RegRow {
    const STRIPS: bool = true;

    #[inline(always)]
    fn lane(&self, i: usize) -> Scalar {
        self.get(i)
    }

    #[inline]
    fn index_strip(&self, mask: &LaneMask) -> Option<(bool, &[u32])> {
        match self.active_tag(mask)? {
            TAG_I32 => Some((true, self.bits())),
            TAG_U32 => Some((false, self.bits())),
            _ => None,
        }
    }

    #[inline]
    fn strip_of(&self, tag: u8, mask: &LaneMask) -> Option<&[u32]> {
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
    fn begin_strip(&mut self, _tag: u8, _mask: &LaneMask) -> Option<&mut [u32]> {
        None
    }
}

impl LaneSet for RegRow {
    fn fill_filler(&mut self, lanes: usize) {
        self.reset_filler(lanes);
    }

    #[inline(always)]
    fn set_lane(&mut self, i: usize, v: Scalar) {
        self.set(i, v);
    }

    fn normalize(&mut self) {
        RegRow::normalize(self);
    }

    #[inline]
    fn begin_strip(&mut self, tag: u8, mask: &LaneMask) -> Option<&mut [u32]> {
        Some(RegRow::begin_strip(self, tag, mask))
    }
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

/// Flip one bit of a `tag`-typed 32-bit pattern. Booleans carry a single
/// logical bit, so any flip negates them.
fn flip_bit(bits: u32, tag: u8, bit: u32) -> u32 {
    if tag == TAG_BOOL {
        bits ^ 1
    } else {
        bits ^ (1u32 << (bit % 32))
    }
}

/// One shared-memory array of a group: a typed bit strip of one `len`-word
/// copy per block, like a buffer without an address.
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
    pub(crate) fn reserve_caches(&mut self, blocks: usize, l1: &Cache, constant_cache: &Cache) {
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

    /// Set up for the group of `blocks` blocks from `first` of `launch`:
    /// entry caches copied from the templates, zeroed shared arrays, and
    /// each block's store permutation (Fisher-Yates over its lanes, seeded
    /// per block so different blocks shuffle independently) and flip
    /// stream.
    pub(crate) fn begin_group(
        &mut self,
        launch: &Launch<'_>,
        (l1, constant_cache): (&Cache, &Cache),
        first: usize,
        blocks: usize,
    ) {
        self.reserve_caches(blocks, l1, constant_cache);
        for (caches, template) in [
            (&mut self.l1, l1),
            (&mut self.constant_cache, constant_cache),
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

    /// Block `b`'s working L1 and constant cache, copied out.
    pub(crate) fn caches(&self, b: usize) -> (Cache, Cache) {
        (self.l1[b].clone(), self.constant_cache[b].clone())
    }
}

impl ExecCtx<'_> {
    // ---- compute ---------------------------------------------------------

    /// Number of warps with at least one active lane.
    fn warp_count(&self, mask: &LaneMask) -> u64 {
        mask.active_warps(self.profile.warp_width) as u64
    }

    /// Every warp with an active lane issues one instruction of latency
    /// `lat`.
    #[inline]
    pub(crate) fn charge_compute(&mut self, lat: u64, mask: &LaneMask) {
        self.charge_folded(lat, 1, mask);
    }

    /// Every warp with an active lane issues `count` instructions of
    /// summed latency `lat`: a subtree the compiler folded to a constant,
    /// re-charged at its use site. Pure compute charges are an
    /// order-insensitive per-mask sum, so charging them in one step is
    /// unobservable in the final stats.
    #[inline]
    pub(crate) fn charge_folded(&mut self, lat: u64, count: u64, mask: &LaneMask) {
        let warps = self.warp_count(mask);
        self.stats.compute_cycles += lat * warps;
        self.stats.instructions += count * warps;
    }

    /// [`ExecCtx::charge_compute`] for the warps of block `b` alone.
    pub(crate) fn charge_block(&mut self, lat: u64, mask: &LaneMask, b: usize) {
        let warps = active_warps(self.profile.warp_width, self.block_range(b), mask).count() as u64;
        self.stats.compute_cycles += lat * warps;
        self.stats.instructions += warps;
    }

    /// Each block of the row pays the profile's fixed launch overhead.
    pub(crate) fn charge_overhead(&mut self) {
        self.stats.overhead_cycles += self.blocks as u64 * self.profile.block_overhead;
    }

    // ---- memory ----------------------------------------------------------

    /// The arena index of the buffer bound to parameter `i`.
    fn resolve_buffer(&self, i: usize) -> Result<usize, EvalError> {
        match self.args.get(i) {
            Some(ArgValue::Buffer(id)) => Ok(id.index()),
            Some(ArgValue::Scalar(_)) => {
                Err(EvalError::NotPure("scalar parameter used as a buffer"))
            }
            None => Err(EvalError::ArityMismatch {
                expected: i + 1,
                found: self.args.len(),
            }),
        }
    }

    /// Perform a load into `out`: active lanes receive the loaded values,
    /// inactive lanes [`FILLER`] (exactly like the tree-walker's fresh
    /// scratch vector).
    pub(crate) fn do_load_into<I: LaneGet, O: LaneSet>(
        &mut self,
        mem: MemRef,
        idx: &I,
        mask: &LaneMask,
        out: &mut O,
    ) -> Result<(), EvalError> {
        // A shared array's lane reads its own block's copy.
        let (data, ty, stride, buf) = match mem {
            MemRef::Shared(sid) => {
                let arr = shared_array(&mut self.mem.shared, sid)?;
                (&arr.data, arr.ty, arr.len, None)
            }
            MemRef::Param(i) => {
                let buf = &self.buffers[self.resolve_buffer(i)?];
                (&buf.data, buf.ty, 0, Some(buf))
            }
        };
        let (tag, threshold) = (tag_of_ty(ty), self.approx_threshold);
        let approx = buf.is_some_and(|buf| buf.space == MemSpace::Approx);
        // Injection draws from the lane's block's flip stream once per
        // lane-load, in lane order: per-lane by nature.
        let inject = (approx && threshold > 0).then_some(|lane: usize, bits: u32| {
            let rng = &mut self.mem.approx_rng[lane / self.block_lanes];
            if paraprox_prng::splitmix64(rng) < threshold {
                self.stats.bit_flips += 1;
                flip_bit(bits, tag, (paraprox_prng::splitmix64(rng) % 32) as u32)
            } else {
                bits
            }
        });
        let indices = gather(
            data,
            Copies(self.block_lanes, stride),
            tag,
            idx,
            mask,
            out,
            &mut self.mem.resolved,
            inject,
            &mut self.stats.mem_fallback_ops,
        )?;
        let Some(buf) = buf else {
            charge_shared(&mut self.stats, self.profile, indices, mask);
            return Ok(());
        };
        if approx {
            self.stats.approx_loads += mask.count() as u64;
        }
        let caches = if buf.space == MemSpace::Constant {
            &mut self.mem.constant_cache
        } else {
            &mut self.mem.l1
        };
        let caches = &mut caches[..self.blocks];
        charge_load(&mut self.stats, self.profile, buf, caches, indices, mask);
        Ok(())
    }

    pub(crate) fn do_store<I: LaneGet, V: LaneGet>(
        &mut self,
        mem: MemRef,
        idx: &I,
        val: &V,
        mask: &LaneMask,
    ) -> Result<(), EvalError> {
        // A shared array's lane writes its own block's copy; a buffer's
        // writes are logged.
        let (data, ty, stride, buf) = match mem {
            MemRef::Shared(sid) => {
                let arr = shared_array(&mut self.mem.shared, sid)?;
                (&mut arr.data, arr.ty, arr.len, None)
            }
            MemRef::Param(i) => {
                let b = self.resolve_buffer(i)?;
                let buf = &mut self.buffers[b];
                if buf.space == MemSpace::Constant {
                    return Err(EvalError::NotPure("store to constant memory"));
                }
                (
                    &mut buf.data,
                    buf.ty,
                    0,
                    Some((b, buf.space, buf.base_addr)),
                )
            }
        };
        let log = &mut *self.log;
        if buf.is_some() {
            log.reserve(mask.count());
        }
        let indices = scatter(
            data,
            Copies(self.block_lanes, stride),
            ty,
            idx,
            val,
            mask,
            &self.mem.store_order,
            &mut self.mem.resolved,
            |block, i, old, bits| {
                if let Some((b, ..)) = buf {
                    log.push(LoggedWrite {
                        buf: b as u32,
                        index: i as u32,
                        old,
                        bits,
                        op: None,
                        block: block as u8,
                    });
                }
            },
            &mut self.stats.mem_fallback_ops,
        )?;
        let p = self.profile;
        let Some((_, space, base)) = buf else {
            charge_shared(&mut self.stats, p, indices, mask);
            self.stats.stores += mask.active_warps(p.warp_width) as u64;
            return Ok(());
        };
        // Coalescing for stores: one transaction per distinct line. Writes
        // to the approximate region are exact (errors are a read
        // phenomenon) but land in the cheaper DRAM.
        let store_lat = if space == MemSpace::Approx {
            p.approx_store_lat
        } else {
            p.store_lat
        };
        let (l1, mut lines) = (&self.mem.l1[0], WarpSet::new());
        for (start, bits) in active_warps(p.warp_width, 0..self.lanes, mask) {
            lines.fill(base, indices, start, bits, |addr| l1.line_of(addr));
            self.stats.stores += 1;
            self.stats.instructions += 1;
            self.stats.memory_cycles += store_lat * lines.as_slice().len() as u64;
        }
        Ok(())
    }

    pub(crate) fn do_atomic<I: LaneGet, V: LaneGet>(
        &mut self,
        op: paraprox_ir::AtomicOp,
        mem: MemRef,
        idx: &I,
        val: &V,
        mask: &LaneMask,
    ) -> Result<(), EvalError> {
        let Some(first) = mask.iter_set().next() else {
            return Ok(());
        };
        // An atomic checks its first lane's index type before its target.
        index_to_i64(idx.lane(first))?;
        // A shared array's lane reaches its own block's copy.
        let (buf, ty, data, stride) = match mem {
            MemRef::Shared(sid) => {
                let arr = shared_array(&mut self.mem.shared, sid)?;
                (None, arr.ty, &mut arr.data[..], arr.len)
            }
            MemRef::Param(i) => {
                let b = self.resolve_buffer(i)?;
                let buf = &mut self.buffers[b];
                if buf.space == MemSpace::Constant {
                    return Err(EvalError::NotPure("atomic on constant memory"));
                }
                (Some(b), buf.ty, &mut buf.data[..], 0)
            }
        };
        let copies = Copies(self.block_lanes, stride);
        let (bin, tag, len) = (op.to_bin_op(), tag_of_ty(ty), copies.of(data, 0).len());
        let mut active = 0u64;
        for lane in mask.iter_set() {
            active += 1;
            let i = lane_index(idx, lane, len)?;
            let block = lane / self.block_lanes;
            let at = copies.of(data, block).start + i;
            let old = data[at];
            let operand = val.lane(lane);
            data[at] = encode_bits(bin.apply(decode(tag, old), operand)?);
            if let Some(b) = buf {
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

/// A lane's index as an element number: `i32` and `u32` only.
fn index_to_i64(idx: Scalar) -> Result<i64, EvalError> {
    match idx {
        Scalar::I32(v) => Ok(i64::from(v)),
        Scalar::U32(v) => Ok(i64::from(v)),
        other => Err(EvalError::TypeMismatch {
            expected: Ty::I32,
            found: other.ty(),
        }),
    }
}

/// Element index of one lane on the per-lane path: index type, then
/// bounds.
#[inline]
fn lane_index<I: LaneGet>(idx: &I, lane: usize, len: usize) -> Result<usize, EvalError> {
    let i = index_to_i64(idx.lane(lane))?;
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

/// How the blocks of a row see an array, `Copies(block_lanes, stride)`:
/// `block_lanes` lanes to a block, and block `b`'s copy at
/// `data[b * stride..][..stride]` — or, with a stride of 0, all of `data`,
/// one copy every block shares.
#[derive(Clone, Copy)]
struct Copies(usize, usize);

impl Copies {
    /// Block `b`'s copy of `data`.
    fn of(self, data: &[u32], b: usize) -> Range<usize> {
        match self.1 {
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
    mask: &LaneMask,
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
                for (b, span) in mask.block_spans(copies.0) {
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
        let bits = data[copies.of(data, lane / copies.0).start + i];
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
    mask: &LaneMask,
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
            for (b, span) in mask.block_spans(copies.0) {
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
            let b = lane / copies.0;
            let at = copies.of(data, b).start + i;
            written(b, i, data[at], encode_bits(v));
            data[at] = encode_bits(v);
        }
    }
    Ok(resolved)
}

/// Charge a load from `buf`, lane `l` reading element `indices[l]`,
/// through `caches` (block `b`'s at `b`, its lanes
/// the `b`-th equal share of `mask`): the L1, or the constant cache for
/// constant memory. A warp's transactions are the distinct lines it
/// touches — for the constant cache, which broadcasts one word per cycle,
/// the distinct words.
fn charge_load(
    stats: &mut LaunchStats,
    p: &DeviceProfile,
    buf: &BufferStorage,
    caches: &mut [Cache],
    indices: &[u32],
    mask: &LaneMask,
) {
    // `(exposed latency, issue cost)` of a hit and of a miss. The
    // approximate region sits behind the same L1 as exact global
    // memory — cache state, transaction counts and hit costs are
    // identical — but a miss goes to the cheaper (lower-voltage) DRAM
    // timings. The constant port serializes every distinct word at
    // `const_hit_lat`; a miss also pays the pipelined DRAM issue cost.
    let (l1_hit, dram) = ((p.l1_hit_lat, p.l1_issue), (p.mem_lat, p.mem_issue));
    let (words, hit, miss) = match buf.space {
        MemSpace::Global | MemSpace::Shared => (false, l1_hit, dram),
        MemSpace::Approx => (false, l1_hit, (p.approx_lat, p.approx_issue)),
        MemSpace::Constant => (true, (p.const_hit_lat, p.const_hit_lat), dram),
    };
    let block_lanes = mask.lanes() / caches.len();
    let mut keys = WarpSet::new();
    for (b, cache) in caches.iter_mut().enumerate() {
        let lanes = b * block_lanes..(b + 1) * block_lanes;
        for (start, bits) in active_warps(p.warp_width, lanes, mask) {
            keys.fill(buf.base_addr, indices, start, bits, |addr| {
                if words {
                    addr
                } else {
                    cache.line_of(addr)
                }
            });
            let transactions = keys.as_slice().len() as u64;
            stats.loads += 1;
            stats.instructions += 1;
            stats.load_transactions += transactions;
            stats.serialized_transactions += transactions.saturating_sub(1);
            let mut hits = 0u64;
            for &key in keys.as_slice() {
                hits += u64::from(if words {
                    cache.access(key)
                } else {
                    cache.access_line(key)
                });
            }
            let misses = transactions - hits;
            if words {
                stats.const_hits += hits;
                stats.const_misses += misses;
            } else {
                stats.l1_hits += hits;
                stats.l1_misses += misses;
            }
            // Exposed latency once (the slowest class present), plus a
            // pipelined issue cost for every further transaction —
            // memory-level parallelism overlaps their latencies.
            let (lat, first_issue) = if misses > 0 { miss } else { hit };
            let issue = hits * hit.1 + misses * miss.1;
            let exposed = lat / p.latency_hiding.max(1);
            stats.memory_cycles += exposed + issue.saturating_sub(first_issue);
        }
    }
}

/// The shared array `sid` names.
fn shared_array(arrays: &mut [SharedArray], sid: SharedId) -> Result<&mut SharedArray, EvalError> {
    arrays
        .get_mut(sid.index())
        .ok_or(EvalError::UnknownFunc(sid.index()))
}

/// Warps of `lanes` with at least one active lane, as `(first lane, lane bits)`,
/// without allocating. One shift-and-mask per warp (see
/// [`LaneMask::warp_bits`]).
fn active_warps(
    warp_width: usize,
    lanes: Range<usize>,
    mask: &LaneMask,
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
fn charge_shared(
    stats: &mut LaunchStats,
    profile: &DeviceProfile,
    indices: &[u32],
    mask: &LaneMask,
) {
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

    /// Add `v` unless present.
    #[inline]
    fn insert(&mut self, v: u64) {
        let seen = &self.items[..self.len];
        // Neighbouring lanes usually touch the same line.
        if seen.last() == Some(&v) || seen.contains(&v) {
            return;
        }
        self.items[self.len] = v;
        self.len += 1;
    }

    /// Become the distinct transactions of one warp whose active lanes
    /// (`bits`, from lane `start`) access the 4-byte elements `indices[l]`
    /// of the buffer at `base`; `key` names the transaction a byte address
    /// belongs to.
    #[inline]
    fn fill(
        &mut self,
        base: u64,
        indices: &[u32],
        start: usize,
        bits: u64,
        key: impl Fn(u64) -> u64,
    ) {
        self.len = 0;
        for lane in set_lanes(start, bits) {
            self.insert(key(base + u64::from(indices[lane]) * 4));
        }
    }

    fn as_slice(&self) -> &[u64] {
        &self.items[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Charge = fn(&mut LaunchStats, &DeviceProfile, &[u32], &LaneMask);

    /// The bank-conflict charge before the per-bank chains, kept as the
    /// reference: one flat set of the warp's distinct words, searched
    /// linearly, and a per-bank count of the words it admits.
    fn charge_shared_reference(
        stats: &mut LaunchStats,
        profile: &DeviceProfile,
        indices: &[u32],
        mask: &LaneMask,
    ) {
        charge_by(stats, profile, indices, mask, true);
    }

    /// A wrong charge: every active lane counts in its bank, repeated words
    /// included.
    fn charge_by_lanes(
        stats: &mut LaunchStats,
        profile: &DeviceProfile,
        indices: &[u32],
        mask: &LaneMask,
    ) {
        charge_by(stats, profile, indices, mask, false);
    }

    fn charge_by(
        stats: &mut LaunchStats,
        profile: &DeviceProfile,
        indices: &[u32],
        mask: &LaneMask,
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
