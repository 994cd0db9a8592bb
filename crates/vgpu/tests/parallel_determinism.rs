//! Regression tests for the block-parallel executor's determinism
//! contract: for any worker count, a launch must produce bit-identical
//! buffer contents, simulated cycle counts, and cache statistics.
//!
//! `LaunchStats` equality deliberately covers every simulated counter
//! (including L1/constant hit and miss counts) while ignoring the
//! host-side `wall_nanos`/`workers` measurements, so a plain `assert_eq!`
//! on stats is the whole cross-parallelism check.

use paraprox_ir::{
    AtomicOp, Expr, KernelBuilder, LoopCond, LoopStep, MemSpace, Program, Scalar, Ty,
};
use paraprox_vgpu::{Device, DeviceProfile, Dim2, LaunchStats};

fn device_with_workers(workers: usize) -> Device {
    Device::new(DeviceProfile::gtx560().with_parallelism(workers))
}

/// A compute-heavy stencil-ish kernel: per-thread loop, divergence at the
/// edges, global loads with partial reuse (exercises the cache model), and
/// a transcendental so float bit-patterns matter.
fn stencil_program() -> (Program, paraprox_ir::KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("stencil");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let n = kb.scalar("n", Ty::I32);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.if_(
        gid.clone().gt(Expr::i32(0)) & gid.clone().lt(n - Expr::i32(1)),
        |kb| {
            let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
            kb.for_loop(
                "k",
                Expr::i32(-1),
                LoopCond::Le(Expr::i32(1)),
                LoopStep::Add(Expr::i32(1)),
                |kb, k| {
                    let v = kb.let_("v", kb.load(input, gid.clone() + k));
                    kb.assign(acc, Expr::Var(acc) + v.exp());
                },
            );
            kb.store(output, gid.clone(), Expr::Var(acc) / Expr::f32(3.0));
        },
    );
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

/// Run the stencil at a given worker count; return outputs and stats.
fn run_stencil(workers: usize, blocks: usize) -> (Vec<f32>, LaunchStats) {
    let (program, kid) = stencil_program();
    let mut d = device_with_workers(workers);
    let n = blocks * 32;
    let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 0.5).collect();
    let input = d.alloc_f32(MemSpace::Global, &data);
    let output = d.alloc_f32(MemSpace::Global, &vec![0.0; n]);
    let stats = d
        .launch(
            &program,
            kid,
            Dim2::linear(blocks),
            Dim2::linear(32),
            &[input.into(), output.into(), Scalar::I32(n as i32).into()],
        )
        .unwrap();
    (d.read_f32(output).unwrap(), stats)
}

#[test]
fn stencil_identical_across_worker_counts() {
    let (out1, stats1) = run_stencil(1, 16);
    for workers in [2, 3, 4, 8] {
        let (out_n, stats_n) = run_stencil(workers, 16);
        // Bit-identical outputs.
        for (a, b) in out1.iter().zip(&out_n) {
            assert_eq!(a.to_bits(), b.to_bits(), "{workers} workers");
        }
        // Identical cycle counts and cache statistics.
        assert_eq!(stats1, stats_n, "{workers} workers");
    }
    assert_eq!(stats1.workers, 1);
    assert!(stats1.wall_nanos > 0);
}

#[test]
fn worker_count_is_capped_by_group_count() {
    // Sixteen 32-lane blocks run as two groups of eight.
    let (_, stats) = run_stencil(8, 16);
    assert_eq!(stats.groups, 2);
    assert_eq!(
        stats.workers, 2,
        "no point spawning more workers than block groups"
    );
}

/// Cross-block atomic accumulation: every thread of every block adds into
/// one global cell. The ordered replay must reproduce the exact total (an
/// integer, so associativity is not in play) at every worker count.
#[test]
fn global_atomics_total_is_exact_for_any_worker_count() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("count");
    let out = kb.buffer("out", Ty::I32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.atomic(AtomicOp::Add, out, Expr::i32(0), gid.rem(Expr::i32(7)));
    let kid = program.add_kernel(kb.finish());

    let blocks = 12;
    let lanes = 32;
    let expected: i32 = (0..(blocks * lanes) as i32).map(|g| g % 7).sum();
    let mut stats_by_workers = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut d = device_with_workers(workers);
        let out = d.alloc_i32(MemSpace::Global, &[0]);
        let stats = d
            .launch(
                &program,
                kid,
                Dim2::linear(blocks),
                Dim2::linear(lanes),
                &[out.into()],
            )
            .unwrap();
        assert_eq!(
            d.read_i32(out).unwrap(),
            vec![expected],
            "{workers} workers"
        );
        stats_by_workers.push(stats);
    }
    for s in &stats_by_workers[1..] {
        assert_eq!(*s, stats_by_workers[0]);
    }
}

/// Cache state carried across launches must also be schedule-independent:
/// the second launch starts from the first launch's final cache, so its
/// hit/miss profile would diverge if the merged cache state depended on
/// the worker schedule.
#[test]
fn back_to_back_launches_keep_cache_state_deterministic() {
    let (program, kid) = stencil_program();
    let run_twice = |workers: usize| {
        let mut d = device_with_workers(workers);
        let n = 8 * 32;
        let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.01).collect();
        let input = d.alloc_f32(MemSpace::Global, &data);
        let output = d.alloc_f32(MemSpace::Global, &vec![0.0; n]);
        let args = [input.into(), output.into(), Scalar::I32(n as i32).into()];
        let first = d
            .launch(&program, kid, Dim2::linear(8), Dim2::linear(32), &args)
            .unwrap();
        let second = d
            .launch(&program, kid, Dim2::linear(8), Dim2::linear(32), &args)
            .unwrap();
        (first, second, d.read_f32(output).unwrap())
    };
    let (first1, second1, out1) = run_twice(1);
    let (first4, second4, out4) = run_twice(4);
    assert_eq!(first1, first4);
    assert_eq!(second1, second4);
    assert_eq!(out1, out4);
    // The second launch re-reads the same lines: the warmed cache must
    // show strictly more hits than the cold one, at every worker count.
    assert!(second1.l1_hits > first1.l1_hits);
}

/// Errors must surface at every worker count (an out-of-bounds store in
/// one specific block), and the error kernel's name must be reported.
#[test]
fn errors_surface_at_every_worker_count() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("oob");
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(out, gid, Expr::f32(1.0));
    let kid = program.add_kernel(kb.finish());
    for workers in [1usize, 2, 4] {
        let mut d = device_with_workers(workers);
        // 4 blocks x 32 lanes = 128 threads, but only 100 elements: the
        // last block runs out of bounds.
        let out = d.alloc_f32(MemSpace::Global, &vec![0.0; 100]);
        let err = d
            .launch(
                &program,
                kid,
                Dim2::linear(4),
                Dim2::linear(32),
                &[out.into()],
            )
            .unwrap_err();
        assert!(err.to_string().contains("oob"), "{workers} workers: {err}");
    }
}
