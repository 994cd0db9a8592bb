//! Steady-state launches do not allocate per memory access.
//!
//! A counting global allocator wraps the system allocator; the single
//! test below launches a cached multi-block stencil kernel twice and
//! counts the allocations of the second launch. What is guaranteed: the
//! count is bounded by a small constant per launch plus a small constant
//! per *block*, and does not move when the same launch executes eight
//! times the warps or five times the memory operations per block — on the
//! strip path and on the per-lane fallback (permuted store order,
//! bit-flip injection) alike.
//!
//! This file holds exactly one `#[test]`, so nothing else allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use paraprox_ir::{Expr, KernelBuilder, KernelId, MemSpace, Program, Scalar, Ty};
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2, ExecEngine};

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
/// box stencil whose loads per thread are a launch argument.
fn stencil_program() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("box");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let n = kb.scalar("n", Ty::I32);
    let radius = kb.scalar("radius", Ty::I32);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
    kb.for_up(
        "k",
        Expr::i32(0) - radius.clone(),
        radius + Expr::i32(1),
        Expr::i32(1),
        |kb, k| {
            let j = (gid.clone() + k)
                .max(Expr::i32(0))
                .min(n.clone() - Expr::i32(1));
            let v = kb.load(input, j);
            kb.assign(acc, Expr::Var(acc) + v);
        },
    );
    kb.store(output, gid, Expr::Var(acc));
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

/// Allocations of the second launch of the stencil over `blocks` blocks
/// of `lanes` threads.
fn second_launch_allocations(
    blocks: usize,
    lanes: usize,
    radius: i32,
    workers: usize,
    fallback: bool,
) -> u64 {
    let (program, kid) = stencil_program();
    let profile = DeviceProfile::gtx560()
        .with_engine(ExecEngine::Bytecode)
        .with_parallelism(workers);
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
    ];
    let shape = (Dim2::linear(blocks), Dim2::linear(lanes));
    let first = d.launch(&program, kid, shape.0, shape.1, &args).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let second = d.launch(&program, kid, shape.0, shape.1, &args).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(d.compile_count(), 1, "the second launch runs cached code");
    assert_eq!(first.loads, second.loads);
    assert_eq!(
        second.loads,
        (blocks * lanes.div_ceil(32)) as u64 * (2 * radius as u64 + 1),
        "one load per warp per tap"
    );
    allocations
}

#[test]
fn second_launch_allocates_per_block_not_per_access() {
    for workers in [1usize, 2] {
        for fallback in [false, true] {
            let blocks = 16;
            // 16 blocks x 1 warp x 3 loads, against 8x the warps and then
            // also 5.7x the loads per warp.
            let small = second_launch_allocations(blocks, 32, 1, workers, fallback);
            let wide = second_launch_allocations(blocks, 256, 1, workers, fallback);
            let deep = second_launch_allocations(blocks, 256, 8, workers, fallback);
            println!("workers {workers} fallback {fallback}: {small} {wide} {deep}");
            // Per launch: the launch's own containers plus one scratch
            // set (register file, caches, masks) per worker that ran.
            let per_worker = 64u64;
            for (name, count) in [("small", small), ("wide", wide), ("deep", deep)] {
                assert!(
                    count <= per_worker * workers as u64 + 2 * blocks as u64,
                    "{name} launch (workers {workers}, fallback {fallback}) made {count} \
                     allocations for {blocks} blocks"
                );
            }
            // 24x the executed memory operations (2176 warp-loads against
            // 48) must not show. The only slack: a second worker sets up
            // its scratch only if the first leaves it a block to run.
            let spread = small.max(wide).max(deep) - small.min(wide).min(deep);
            assert!(
                spread <= per_worker * (workers as u64 - 1),
                "allocations follow the work: {small} / {wide} / {deep} \
                 (workers {workers}, fallback {fallback})"
            );
            // Twice the blocks cost at most a constant per extra block.
            let doubled = second_launch_allocations(2 * blocks, 32, 1, workers, fallback);
            assert!(
                doubled <= small + 2 * blocks as u64 + per_worker * (workers as u64 - 1),
                "{doubled} allocations for {} blocks, {small} for {blocks}",
                2 * blocks
            );
        }
    }
}
