//! Superinstruction fusion against the tree-walking oracle.
//!
//! `compile_kernel` fuses every statically fusable op pair, so every
//! launch of a program, the first included, dispatches superinstructions.
//! These tests assert that the fused stream is bit-identical to the
//! oracle (buffers, simulated cycles, cache statistics) on a
//! divergence-heavy and a racy fixture, across worker counts 1/2/4 and
//! five store-schedule seeds. The `fusions_hit` / `ops_dispatched`
//! diagnostics are probed directly: fusion engages on the first launch
//! and the second launch dispatches the same stream.

use paraprox_ir::{Expr, KernelBuilder, KernelId, MemSpace, Program, Ty};
use paraprox_vgpu::{Device, DeviceProfile, Dim2, ExecEngine, LaunchStats};

/// A racy kernel (same shape as `schedule.rs`): every lane stores to
/// shared slot 0, then reads it back — the store-schedule seed picks the
/// winner, and fused execution must pick the *same* winner.
fn racy_program() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("racy_last_writer");
    let out = kb.buffer("out", Ty::I32, MemSpace::Global);
    let s = kb.shared_array("s", Ty::I32, 1);
    let tx = kb.let_("tx", KernelBuilder::thread_id_x());
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(s, Expr::i32(0), tx);
    kb.sync();
    kb.store(out, gid, kb.load(s, Expr::i32(0)));
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

/// A divergence-heavy kernel exercising every fusion pattern: `x*2 + 1`
/// (mul+add), an odd/even branch under a compare (cmp+if with both arms
/// populated), a lane-dependent loop trip count, and a fused binary+store
/// tail.
fn divergent_program() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("divergent");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let x = kb.let_("x", kb.load(input, gid.clone()));
    let acc = kb.let_mut("acc", Ty::F32, x.clone() * Expr::f32(2.0) + Expr::f32(1.0));
    kb.if_else(
        tid.clone().rem(Expr::i32(2)).eq_(Expr::i32(0)),
        |kb| kb.assign(acc, Expr::Var(acc) * Expr::f32(3.0) + x.clone()),
        |kb| kb.assign(acc, Expr::Var(acc) - x.clone() * Expr::f32(0.5)),
    );
    kb.for_up(
        "i",
        Expr::i32(0),
        tid.clone().rem(Expr::i32(4)) + Expr::i32(1),
        Expr::i32(1),
        |kb, i| {
            kb.assign(acc, Expr::Var(acc) + i.cast(Ty::F32) * Expr::f32(0.25));
        },
    );
    kb.store(out, gid, Expr::Var(acc) * Expr::f32(1.5) + Expr::f32(0.125));
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

fn device(engine: ExecEngine, workers: usize, seed: Option<u64>) -> Device {
    let mut d = Device::new(
        DeviceProfile::gtx560()
            .with_engine(engine)
            .with_parallelism(workers),
    );
    d.set_schedule_seed(seed);
    d
}

/// Launch the divergent kernel twice on one device (launch 1 compiles,
/// launch 2 runs the cached program); return both outputs as bits plus
/// both stats.
fn run_divergent(device: &mut Device) -> (Vec<Vec<u32>>, Vec<LaunchStats>) {
    let (program, kid) = divergent_program();
    let data: Vec<f32> = (0..128).map(|i| (i as f32 - 61.0) * 0.37).collect();
    let mut outs = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..2 {
        let input = device.alloc_f32(MemSpace::Global, &data);
        let out = device.alloc_f32(MemSpace::Global, &[0.0; 128]);
        let s = device
            .launch(
                &program,
                kid,
                Dim2::linear(4),
                Dim2::linear(32),
                &[input.into(), out.into()],
            )
            .unwrap();
        outs.push(
            device
                .read_f32(out)
                .unwrap()
                .into_iter()
                .map(f32::to_bits)
                .collect(),
        );
        stats.push(s);
    }
    (outs, stats)
}

fn run_racy(device: &mut Device) -> (Vec<Vec<i32>>, Vec<LaunchStats>) {
    let (program, kid) = racy_program();
    let mut outs = Vec::new();
    let mut stats = Vec::new();
    for _ in 0..2 {
        let out = device.alloc_i32(MemSpace::Global, &[0; 32]);
        let s = device
            .launch(
                &program,
                kid,
                Dim2::linear(1),
                Dim2::linear(32),
                &[out.into()],
            )
            .unwrap();
        outs.push(device.read_i32(out).unwrap());
        stats.push(s);
    }
    (outs, stats)
}

const SEEDS: [Option<u64>; 5] = [None, Some(1), Some(2), Some(3), Some(4)];

#[test]
fn fused_matches_oracle_across_workers_and_seeds() {
    for seed in SEEDS {
        let (oracle_outs, oracle_stats) = run_divergent(&mut device(ExecEngine::TreeWalk, 1, seed));
        for workers in [1usize, 2, 4] {
            let (outs, stats) = run_divergent(&mut device(ExecEngine::Bytecode, workers, seed));
            assert_eq!(outs, oracle_outs, "workers={workers} seed={seed:?}");
            assert_eq!(stats, oracle_stats, "workers={workers} seed={seed:?}");
            // Superinstructions are part of the compiled program: the
            // first launch already dispatches them, and the cached program
            // the second launch runs is the same stream.
            assert!(
                stats[0].fusions_hit > 0,
                "workers={workers} seed={seed:?}: the first launch should dispatch superinstructions"
            );
            assert_eq!(stats[0].ops_dispatched, stats[1].ops_dispatched);
            assert_eq!(stats[0].fusions_hit, stats[1].fusions_hit);
        }
    }
}

#[test]
fn racy_kernel_race_winner_matches_oracle() {
    // The racy fixture's output depends on the store schedule; fusion
    // must not perturb which lane wins under any seed or worker count.
    for seed in SEEDS {
        let (oracle_outs, oracle_stats) = run_racy(&mut device(ExecEngine::TreeWalk, 1, seed));
        for workers in [1usize, 2, 4] {
            let (outs, stats) = run_racy(&mut device(ExecEngine::Bytecode, workers, seed));
            assert_eq!(
                outs, oracle_outs,
                "workers={workers} seed={seed:?}: the race winner differs from the oracle's"
            );
            assert_eq!(stats, oracle_stats);
        }
    }
}

#[test]
fn tree_walker_reports_zero_dispatches() {
    let (_, stats) = run_divergent(&mut device(ExecEngine::TreeWalk, 1, None));
    assert!(stats.iter().all(|s| s.ops_dispatched == 0));
    assert!(stats.iter().all(|s| s.fusions_hit == 0));
}
