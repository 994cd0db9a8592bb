//! Steady-state launches do not allocate per memory access.
//!
//! A counting global allocator wraps the system allocator; the single
//! test below launches a cached multi-block stencil kernel twice and
//! counts the allocations of the second launch. What is guaranteed: the
//! count is bounded by a small constant per launch plus a small constant
//! per *block*, and does not move when the same launch executes eight
//! times the warps or five times the memory operations per block — on the
//! strip path and on the per-lane fallback (permuted store order,
//! bit-flip injection) alike — nor when the lanes diverge: the same kernel
//! under a ragged guard and per-lane trip counts, where every op runs
//! under a partial mask, allocates what its converged launch allocates.
//! Nor does it move when the blocks run as block groups: the 32-lane
//! launches run eight blocks per group, the 256-lane ones alone.
//! The iterative driver's residual kernel (a guarded gather, then a
//! shared-memory halving tree whose every level stores under a partial
//! mask) stays under the same one-worker ceiling and allocates the same
//! whether its guard is ragged or not.
//!
//! This file holds exactly one `#[test]`, so nothing else allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use paraprox_ir::{Expr, KernelBuilder, KernelId, MemSpace, Program, Scalar, Ty};
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a relaxed
// atomic statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `out[gid] = sum(in[clamp(gid + k)] for k in -radius..=radius)`: a 1-D
/// box stencil whose loads per thread are a launch argument. Two more
/// arguments make it diverge without changing the program: only threads
/// with `gid < limit` run (a ragged guard), and thread `gid` takes
/// `gid % vary` extra taps (a per-lane trip count). `limit = n, vary = 1`
/// is the converged stencil.
fn stencil_program() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("box");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let n = kb.scalar("n", Ty::I32);
    let radius = kb.scalar("radius", Ty::I32);
    let limit = kb.scalar("limit", Ty::I32);
    let vary = kb.scalar("vary", Ty::I32);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.if_(gid.clone().lt(limit), |kb| {
        let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
        kb.for_up(
            "k",
            Expr::i32(0) - radius.clone(),
            radius + Expr::i32(1) + gid.clone().rem(vary),
            Expr::i32(1),
            |kb, k| {
                let j = (gid.clone() + k)
                    .max(Expr::i32(0))
                    .min(n.clone() - Expr::i32(1));
                let v = kb.load(input, j);
                kb.assign(acc, Expr::Var(acc) + v);
            },
        );
        kb.store(output, gid.clone(), Expr::Var(acc));
    });
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

/// Allocations of the second launch of the stencil over `blocks` blocks
/// of `lanes` threads, converged or — `divergent` — with the last third of
/// the last block guarded off and up to two extra taps per lane.
fn second_launch_allocations(
    blocks: usize,
    lanes: usize,
    radius: i32,
    workers: usize,
    fallback: bool,
    divergent: bool,
) -> u64 {
    let (program, kid) = stencil_program();
    let profile = DeviceProfile::gtx560().with_parallelism(workers);
    let mut d = Device::new(profile);
    let n = blocks * lanes;
    let data: Vec<f32> = (0..n).map(|i| (i % 17) as f32).collect();
    // The fallback run forces the per-lane path on both sides: injection
    // on the loads, a permuted application order on the stores.
    let space = if fallback {
        d.set_approx_rate(1e-3);
        d.set_schedule_seed(Some(7));
        MemSpace::Approx
    } else {
        MemSpace::Global
    };
    let input = d.alloc_f32(space, &data);
    let output = d.alloc_zeroed(MemSpace::Global, Ty::F32, n);
    let args = [
        ArgValue::Buffer(input),
        ArgValue::Buffer(output),
        ArgValue::Scalar(Scalar::I32(n as i32)),
        ArgValue::Scalar(Scalar::I32(radius)),
        ArgValue::Scalar(Scalar::I32(if divergent { n - lanes / 3 } else { n } as i32)),
        ArgValue::Scalar(Scalar::I32(if divergent { 3 } else { 1 })),
    ];
    let shape = (Dim2::linear(blocks), Dim2::linear(lanes));
    let first = d.launch(&program, kid, shape.0, shape.1, &args).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let second = d.launch(&program, kid, shape.0, shape.1, &args).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(d.compile_count(), 1, "the second launch runs cached code");
    assert_eq!(first.loads, second.loads);
    // 32-lane blocks run as block groups, 256-lane blocks alone.
    assert_eq!(second.groups > 0, lanes < 128, "{lanes}-lane blocks");
    let converged_loads = (blocks * lanes.div_ceil(32)) as u64 * (2 * radius as u64 + 1);
    if divergent {
        assert!(second.loads > converged_loads, "some warps take extra taps");
        assert_eq!(second.lane_fallback_ops, 0, "divergence is no fallback");
    } else {
        assert_eq!(second.loads, converged_loads, "one load per warp per tap");
    }
    allocations
}

/// The residual reduction of `paraprox-iter` (`add_residual_kernel`):
/// lane `t < count` contributes `|next[j] - cur[j]|` for
/// `j = (mul * t + off) & mask`, and each block folds its lanes through a
/// double-buffered shared-memory halving tree into one partial.
fn residual_program(lanes: usize) -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("residual");
    let cur = kb.buffer("cur", Ty::F32, MemSpace::Global);
    let next = kb.buffer("next", Ty::F32, MemSpace::Global);
    let partials = kb.buffer("partials", Ty::F32, MemSpace::Global);
    let mul = kb.scalar("mul", Ty::I32);
    let off = kb.scalar("off", Ty::I32);
    let mask = kb.scalar("mask", Ty::I32);
    let count = kb.scalar("count", Ty::I32);
    let s_a = kb.shared_array("s_a", Ty::F32, lanes);
    let s_b = kb.shared_array("s_b", Ty::F32, lanes);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let t = kb.let_("t", KernelBuilder::global_id_x());
    let d = kb.let_mut("d", Ty::F32, Expr::f32(0.0));
    kb.if_(t.clone().lt(count), |kb| {
        let idx = kb.let_("idx", (mul * t.clone() + off) & mask);
        let a = kb.load(cur, idx.clone());
        let b = kb.load(next, idx);
        kb.assign(d, (b - a).abs());
    });
    kb.store(s_a, tid.clone(), Expr::Var(d));
    kb.sync();
    let mut stride = lanes / 2;
    while stride >= 1 {
        let s = Expr::i32(stride as i32);
        kb.if_else(
            tid.clone().lt(s.clone()),
            |kb| {
                let lo = kb.load(s_a, tid.clone());
                let hi = kb.load(s_a, tid.clone() + s.clone());
                kb.store(s_b, tid.clone(), lo + hi);
            },
            |kb| {
                let v = kb.load(s_a, tid.clone());
                kb.store(s_b, tid.clone(), v);
            },
        );
        kb.sync();
        let v = kb.load(s_b, tid.clone());
        kb.store(s_a, tid.clone(), v);
        kb.sync();
        stride /= 2;
    }
    kb.if_(tid.eq_(Expr::i32(0)), |kb| {
        let total = kb.load(s_a, Expr::i32(0));
        kb.store(partials, KernelBuilder::block_id_x(), total);
    });
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

/// Allocations of the second single-worker launch of the residual kernel
/// over `blocks` blocks of 64 lanes, every lane counted or — `divergent` —
/// the last third of the last block guarded off, with a sampled
/// permutation's stride so neighbouring lanes read distant elements.
fn residual_allocations(blocks: usize, fallback: bool, divergent: bool) -> u64 {
    let lanes = 64;
    let (program, kid) = residual_program(lanes);
    let profile = DeviceProfile::gtx560().with_parallelism(1);
    let mut d = Device::new(profile);
    let n = blocks * lanes;
    let field = |k: usize| (0..n).map(|i| ((i * k) % 23) as f32).collect::<Vec<_>>();
    let space = if fallback {
        d.set_approx_rate(1e-3);
        d.set_schedule_seed(Some(7));
        MemSpace::Approx
    } else {
        MemSpace::Global
    };
    let cur = d.alloc_f32(space, &field(3));
    let next = d.alloc_f32(space, &field(5));
    let partials = d.alloc_zeroed(MemSpace::Global, Ty::F32, blocks);
    let count = if divergent { n - lanes / 3 } else { n };
    let args = [
        ArgValue::Buffer(cur),
        ArgValue::Buffer(next),
        ArgValue::Buffer(partials),
        ArgValue::Scalar(Scalar::I32(37)),
        ArgValue::Scalar(Scalar::I32(11)),
        ArgValue::Scalar(Scalar::I32(n as i32 - 1)),
        ArgValue::Scalar(Scalar::I32(count as i32)),
    ];
    let shape = (Dim2::linear(blocks), Dim2::linear(lanes));
    let first = d.launch(&program, kid, shape.0, shape.1, &args).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let second = d.launch(&program, kid, shape.0, shape.1, &args).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(d.compile_count(), 1, "the second launch runs cached code");
    assert_eq!(first.shared_accesses, second.shared_accesses);
    assert!(second.groups > 0, "64-lane blocks run as block groups");
    assert_eq!(
        (second.lane_fallback_ops, second.mem_fallback_ops),
        (0, 0),
        "the tree's partial masks are no fallback"
    );
    assert!(second.shared_accesses > 0);
    allocations
}

#[test]
fn second_launch_allocates_per_block_not_per_access() {
    for workers in [1usize, 2] {
        for fallback in [false, true] {
            let blocks = 16;
            // 16 blocks x 1 warp x 3 loads, against 8x the warps and then
            // also 5.7x the loads per warp.
            let count = |blocks, lanes, radius, divergent| {
                second_launch_allocations(blocks, lanes, radius, workers, fallback, divergent)
            };
            let small = count(blocks, 32, 1, false);
            let wide = count(blocks, 256, 1, false);
            let deep = count(blocks, 256, 8, false);
            // The same launches with every op under a partial mask.
            let ragged = count(blocks, 256, 1, true);
            let ragged_deep = count(blocks, 256, 8, true);
            println!(
                "workers {workers} fallback {fallback}: {small} {wide} {deep}, \
                 divergent {ragged} {ragged_deep}"
            );
            // Per launch: the launch's own containers plus one scratch
            // set (register file, caches, masks) per worker that ran.
            let per_worker = 64u64;
            for (name, count) in [
                ("small", small),
                ("wide", wide),
                ("deep", deep),
                ("ragged", ragged),
                ("ragged deep", ragged_deep),
            ] {
                assert!(
                    count <= per_worker * workers as u64 + 2 * blocks as u64,
                    "{name} launch (workers {workers}, fallback {fallback}) made {count} \
                     allocations for {blocks} blocks"
                );
            }
            // 24x the executed memory operations (2176 warp-loads against
            // 48) must not show. The only slack: a second worker sets up
            // its scratch only if the first leaves it a block to run.
            let all = [small, wide, deep, ragged, ragged_deep];
            let spread = all.iter().max().unwrap() - all.iter().min().unwrap();
            assert!(
                spread <= per_worker * (workers as u64 - 1),
                "allocations follow the work or the divergence: {all:?} \
                 (workers {workers}, fallback {fallback})"
            );
            // Twice the blocks cost at most a constant per extra block.
            let doubled = count(2 * blocks, 32, 1, false);
            assert!(
                doubled <= small + 2 * blocks as u64 + per_worker * (workers as u64 - 1),
                "{doubled} allocations for {} blocks, {small} for {blocks}",
                2 * blocks
            );
            // The residual tree on one worker (a second one's scratch set-up
            // depends on the schedule): under the same ceiling, and the same
            // count whether its guard is ragged or not.
            if workers == 1 {
                let converged = residual_allocations(blocks, fallback, false);
                let ragged = residual_allocations(blocks, fallback, true);
                println!("fallback {fallback}: residual {converged}, divergent {ragged}");
                assert_eq!(converged, ragged, "fallback {fallback}");
                assert!(
                    converged <= per_worker + 2 * blocks as u64,
                    "residual launch (fallback {fallback}) made {converged} allocations \
                     for {blocks} blocks"
                );
            }
        }
    }
}
