//! Block groups against the per-block oracle.
//!
//! The bytecode engine runs the small blocks of a group-safe launch as
//! one lane row (a *block group*); the tree-walking oracle runs every
//! block alone. Each case below holds the grouped engine at 1 and 2
//! workers and several store-schedule seeds to the oracle: buffer bits,
//! every simulated counter, the error, and the approximate-memory
//! diagnostics must agree exactly. Each case also pins whether the
//! bytecode engine grouped at all (`LaunchStats::groups`), so a case that
//! silently stopped grouping fails instead of testing the lone-block path.
//!
//! Iteration-budget exhaustion is covered by a unit test in
//! `src/exec.rs`: the budget (2^33 tokens) can only be brought within
//! reach by pre-charging the launch's counter, which is internal.

use paraprox_ir::{EvalError, Expr, KernelBuilder, KernelId, MemSpace, Program, Scalar, Ty};
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2, ExecEngine, LaunchError, LaunchStats};

/// An initial buffer.
#[derive(Clone)]
enum Data {
    F32(Vec<f32>),
    I32(Vec<i32>),
}

/// A launch argument: a buffer (by its index in the buffer list) or a
/// scalar.
#[derive(Clone, Copy)]
enum Arg {
    Buf(usize),
    Int(i32),
}

/// What a run left behind: every buffer's bits, and the launch's result
/// with its `approx_loads` and `bit_flips`.
type Outcome = (Vec<Vec<u32>>, Result<(LaunchStats, u64, u64), LaunchError>);

struct Case<'a> {
    program: &'a Program,
    kid: KernelId,
    grid: Dim2,
    block: Dim2,
    buffers: &'a [(MemSpace, Data)],
    args: &'a [Arg],
    approx_rate: f64,
}

fn bits(s: Scalar) -> u32 {
    match s {
        Scalar::F32(v) => v.to_bits(),
        Scalar::I32(v) => v as u32,
        Scalar::U32(v) => v,
        Scalar::Bool(v) => u32::from(v),
    }
}

fn run(case: &Case<'_>, engine: ExecEngine, workers: usize, seed: Option<u64>) -> Outcome {
    let profile = DeviceProfile::gtx560()
        .with_engine(engine)
        .with_parallelism(workers);
    let mut d = Device::new(profile);
    d.set_schedule_seed(seed);
    d.set_approx_rate(case.approx_rate);
    d.set_approx_seed(0xF1_1B5);
    let ids: Vec<_> = case
        .buffers
        .iter()
        .map(|(space, data)| match data {
            Data::F32(v) => d.alloc_f32(*space, v),
            Data::I32(v) => d.alloc_i32(*space, v),
        })
        .collect();
    let args: Vec<ArgValue> = case
        .args
        .iter()
        .map(|a| match a {
            Arg::Buf(i) => ids[*i].into(),
            Arg::Int(v) => Scalar::I32(*v).into(),
        })
        .collect();
    let result = d
        .launch(case.program, case.kid, case.grid, case.block, &args)
        .map(|s| (s, s.approx_loads, s.bit_flips));
    let contents = ids
        .iter()
        .map(|id| d.read_scalars(*id).unwrap().into_iter().map(bits).collect())
        .collect();
    (contents, result)
}

/// Hold the bytecode engine at 1 and 2 workers to the oracle for three
/// store schedules; return the oracle's canonical-order outcome. `grouped`
/// is whether the bytecode engine must have run a group of several blocks
/// (when the launch succeeds).
fn assert_agree(case: &Case<'_>, grouped: bool) -> Outcome {
    let mut canonical = None;
    for seed in [None, Some(0x5EED_0DD5), Some(7)] {
        let reference = run(case, ExecEngine::TreeWalk, 1, seed);
        if let Ok((stats, ..)) = &reference.1 {
            assert_eq!(stats.groups, 0, "the oracle runs blocks alone");
        }
        for workers in [1, 2] {
            let got = run(case, ExecEngine::Bytecode, workers, seed);
            assert_eq!(got, reference, "{workers} workers, seed {seed:?}");
            if let Ok((stats, ..)) = &got.1 {
                assert_eq!(
                    stats.groups > 0,
                    grouped,
                    "{workers} workers, seed {seed:?}"
                );
            }
        }
        canonical.get_or_insert(reference);
    }
    canonical.expect("three seeds ran")
}

fn eval_error(outcome: &Outcome) -> EvalError {
    match &outcome.1 {
        Err(LaunchError::Eval { source, .. }) => source.clone(),
        other => panic!("expected an evaluation error, got {other:?}"),
    }
}

fn ramp(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.37).sin() + 1.5).collect()
}

/// `out[gid % slots] = in[gid] * 2 + blockIdx.x`, plus `out2[tid % 3] =
/// gid`: many lanes of every block store to the same few words, so the
/// last writer in serial block order must win — across the blocks of a
/// group, between groups, and inside a block (whose permuted store order
/// decides its own last lane). Then thread 0 of every odd block stores its
/// block id to `last[0]`, and after it thread 0 of every even block: in a
/// group the even blocks' store is applied after the odd ones', but the
/// last block in serial order must still win.
#[test]
fn same_address_stores_land_last_block_wins() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("collide");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let out2 = kb.buffer("out2", Ty::I32, MemSpace::Global);
    let last = kb.buffer("last", Ty::I32, MemSpace::Global);
    let slots = kb.scalar("slots", Ty::I32);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v =
        kb.load(input, gid.clone()) * Expr::f32(2.0) + KernelBuilder::block_id_x().cast(Ty::F32);
    kb.store(out, gid.clone().rem(slots), v);
    kb.store(
        out2,
        KernelBuilder::thread_id_x().rem(Expr::i32(3)),
        gid.clone(),
    );
    let block = KernelBuilder::block_id_x();
    for parity in [1, 0] {
        let first_lane = KernelBuilder::thread_id_x().eq_(Expr::i32(0));
        let mine = block.clone().rem(Expr::i32(2)).eq_(Expr::i32(parity));
        kb.if_(first_lane & mine, |kb| {
            kb.store(last, Expr::i32(0), block.clone())
        });
    }
    let kid = program.add_kernel(kb.finish());
    for (blocks, slots) in [(8usize, 5i32), (16, 40), (19, 64)] {
        let n = blocks * 32;
        let buffers = [
            (MemSpace::Global, Data::F32(ramp(n))),
            (MemSpace::Global, Data::F32(vec![0.0; 64])),
            (MemSpace::Global, Data::I32(vec![-1; 3])),
            (MemSpace::Global, Data::I32(vec![-1])),
        ];
        let case = Case {
            program: &program,
            kid,
            grid: Dim2::linear(blocks),
            block: Dim2::linear(32),
            buffers: &buffers,
            args: &[
                Arg::Buf(0),
                Arg::Buf(1),
                Arg::Buf(2),
                Arg::Buf(3),
                Arg::Int(slots),
            ],
            approx_rate: 0.0,
        };
        let (contents, result) = assert_agree(&case, true);
        assert!(result.is_ok());
        // Canonical order: the last block's lanes 29, 30, 31 write last.
        let last = (blocks - 1) as i32 * 32;
        assert_eq!(
            contents[2],
            vec![(last + 30) as u32, (last + 31) as u32, (last + 29) as u32]
        );
        assert_eq!(contents[3], vec![(blocks - 1) as u32]);
    }
}

/// A partial last group, 2-D blocks, and every thread coordinate: 11
/// blocks of 8 x 4 threads are a group of eight and one of three.
#[test]
fn a_partial_last_group_matches() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("coords");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let tid =
        KernelBuilder::thread_id_y() * KernelBuilder::block_dim_x() + KernelBuilder::thread_id_x();
    let block = KernelBuilder::block_id_y() * Expr::i32(11) + KernelBuilder::block_id_x();
    let gid = kb.let_("gid", block.clone() * Expr::i32(32) + tid);
    let x = kb.load(input, gid.clone());
    kb.store(
        out,
        gid,
        x * (block.cast(Ty::F32) + Expr::f32(0.5)) - KernelBuilder::thread_id_y().cast(Ty::F32),
    );
    let kid = program.add_kernel(kb.finish());
    for grid in [Dim2::linear(11), Dim2::new(11, 2)] {
        let n = grid.count() * 32;
        let buffers = [
            (MemSpace::Global, Data::F32(ramp(n))),
            (MemSpace::Global, Data::F32(vec![0.0; n])),
        ];
        let case = Case {
            program: &program,
            kid,
            grid,
            block: Dim2::new(8, 4),
            buffers: &buffers,
            args: &[Arg::Buf(0), Arg::Buf(1)],
            approx_rate: 0.0,
        };
        let (_, result) = assert_agree(&case, true);
        let stats = result.expect("launch succeeds").0;
        assert_eq!(stats.blocks, grid.count() as u64);
    }
}

/// Each block reverses its slice through shared memory across a barrier,
/// and even blocks also stage a second array inside an arm only they take:
/// per-block shared copies, and a barrier every block reaching it reaches
/// converged — whole blocks skipping the arm do not make it divergent.
#[test]
fn shared_memory_with_barriers_stays_per_block() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("reverse");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let s = kb.shared_array("s", Ty::F32, 32);
    let t = kb.shared_array("t", Ty::F32, 32);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(s, tid.clone(), kb.load(input, gid.clone()));
    kb.sync();
    let mirrored = kb.let_("m", kb.load(s, Expr::i32(31) - tid.clone()));
    kb.store(out, gid.clone(), mirrored.clone());
    kb.if_(
        KernelBuilder::block_id_x()
            .rem(Expr::i32(2))
            .eq_(Expr::i32(0)),
        |kb| {
            kb.store(t, (tid.clone() * Expr::i32(3)).rem(Expr::i32(32)), mirrored);
            kb.sync();
            kb.store(out, gid.clone(), kb.load(t, tid.clone()));
        },
    );
    let kid = program.add_kernel(kb.finish());
    let n = 12 * 32;
    let buffers = [
        (MemSpace::Global, Data::F32(ramp(n))),
        (MemSpace::Global, Data::F32(vec![0.0; n])),
    ];
    let case = Case {
        program: &program,
        kid,
        grid: Dim2::linear(12),
        block: Dim2::linear(32),
        buffers: &buffers,
        args: &[Arg::Buf(0), Arg::Buf(1)],
        approx_rate: 0.0,
    };
    let (_, result) = assert_agree(&case, true);
    assert!(result.unwrap().0.shared_accesses > 0);
}

/// Block 2 of the first group reaches a barrier with half its lanes; the
/// blocks around it reach it converged. The launch fails with the
/// divergent barrier and leaves its output untouched.
#[test]
fn a_divergent_barrier_in_block_two_of_a_group_fails_the_launch() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("diverge");
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(out, gid.clone(), Expr::f32(1.0));
    let others = KernelBuilder::block_id_x().ne_(Expr::i32(2));
    kb.if_(
        others | KernelBuilder::thread_id_x().lt(Expr::i32(16)),
        |kb| {
            kb.sync();
            kb.store(out, gid.clone(), Expr::f32(2.0));
        },
    );
    let kid = program.add_kernel(kb.finish());
    let n = 6 * 32;
    let buffers = [(MemSpace::Global, Data::F32(vec![0.0; n]))];
    let case = Case {
        program: &program,
        kid,
        grid: Dim2::linear(6),
        block: Dim2::linear(32),
        buffers: &buffers,
        args: &[Arg::Buf(0)],
        approx_rate: 0.0,
    };
    let outcome = assert_agree(&case, true);
    assert_eq!(eval_error(&outcome), EvalError::DivergentBarrier);
    assert_eq!(outcome.0[0], vec![0; n]);
}

/// Block 1 faults after a loop (a late pc), block 3 right away (an early
/// one); in one group the early fault is met first, but block 1 fails
/// first in serial order, so its error — index 1001 — is the launch's.
#[test]
fn the_lower_blocks_error_wins_whatever_the_pc() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("two_faults");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let block = KernelBuilder::block_id_x();
    let first_lane = KernelBuilder::thread_id_x().eq_(Expr::i32(0));
    kb.if_(block.clone().eq_(Expr::i32(3)) & first_lane.clone(), |kb| {
        kb.store(out, Expr::i32(2003), Expr::f32(3.0));
    });
    let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
    kb.for_up("k", Expr::i32(0), Expr::i32(6), Expr::i32(1), |kb, k| {
        kb.assign(acc, Expr::Var(acc) + kb.load(input, gid.clone() + k));
    });
    kb.store(out, gid.clone(), Expr::Var(acc));
    kb.if_(block.eq_(Expr::i32(1)) & first_lane, |kb| {
        kb.store(out, Expr::i32(1001), Expr::f32(1.0));
    });
    let kid = program.add_kernel(kb.finish());
    let n = 8 * 32;
    let buffers = [
        (MemSpace::Global, Data::F32(ramp(n + 8))),
        (MemSpace::Global, Data::F32(vec![0.0; n])),
    ];
    let case = Case {
        program: &program,
        kid,
        grid: Dim2::linear(8),
        block: Dim2::linear(32),
        buffers: &buffers,
        args: &[Arg::Buf(0), Arg::Buf(1)],
        approx_rate: 0.0,
    };
    let outcome = assert_agree(&case, true);
    assert_eq!(
        eval_error(&outcome),
        EvalError::OutOfBounds {
            index: 1001,
            len: n
        }
    );
    assert_eq!(outcome.0[1], vec![0; n]);
}

/// Loads from an approximate buffer at a flip rate of 1e-2 under a
/// partial mask: each block of a group draws from its own flip stream.
#[test]
fn approx_flips_follow_each_blocks_stream() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("approx");
    let input = kb.buffer("in", Ty::F32, MemSpace::Approx);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.if_(gid.clone().rem(Expr::i32(3)).ne_(Expr::i32(0)), |kb| {
        let v = kb.let_("v", kb.load(input, gid.clone()));
        kb.store(out, gid.clone(), v + Expr::f32(1.0));
    });
    let kid = program.add_kernel(kb.finish());
    let n = 16 * 32;
    let buffers = [
        (MemSpace::Approx, Data::F32(ramp(n))),
        (MemSpace::Global, Data::F32(vec![0.0; n])),
    ];
    let case = Case {
        program: &program,
        kid,
        grid: Dim2::linear(16),
        block: Dim2::linear(32),
        buffers: &buffers,
        args: &[Arg::Buf(0), Arg::Buf(1)],
        approx_rate: 1e-2,
    };
    let (_, result) = assert_agree(&case, true);
    let (_, approx_loads, bit_flips) = result.expect("launch succeeds");
    assert_eq!(approx_loads, (0..n).filter(|g| g % 3 != 0).count() as u64);
    assert!(bit_flips > 0, "no flip at 1e-2");
}

/// A local first written in an arm that different blocks take in
/// different iterations — even blocks copy `gid`, odd blocks `gid + 1000`,
/// each under a partial mask: a block's first write copies the source's
/// whole row over its lanes (so every lane reads the source), a later
/// write merges its active lanes, and neither may leak between the blocks
/// of a group. A loop whose trip count varies per block ticks the budget
/// once per block still looping.
#[test]
fn first_writes_and_trip_counts_are_per_block() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("per_block");
    let out = kb.buffer("out", Ty::I32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let far = kb.let_("far", gid.clone() + Expr::i32(1000));
    let block = KernelBuilder::block_id_x();
    let tid = KernelBuilder::thread_id_x();
    let mut t = None;
    kb.for_up("k", Expr::i32(0), Expr::i32(2), Expr::i32(1), |kb, k| {
        let mine = block.clone().rem(Expr::i32(2)).eq_(k.clone());
        let lanes = tid.clone().lt(Expr::i32(8) + k.clone() * Expr::i32(8));
        let mine = kb.let_("mine", mine & lanes);
        kb.if_(mine.clone() & k.clone().eq_(Expr::i32(0)), |kb| {
            t = Some(kb.let_mut("t", Ty::I32, gid.clone()));
        });
        let t = t.expect("the first arm declares t");
        kb.if_(mine & k.eq_(Expr::i32(1)), |kb| kb.assign(t, far.clone()));
    });
    let t = t.expect("the first arm declares t");
    kb.if_(tid.lt(Expr::i32(4)), |kb| {
        kb.assign(t, Expr::Var(t) + Expr::i32(5));
    });
    let acc = kb.let_mut("acc", Ty::I32, Expr::Var(t));
    kb.for_up(
        "j",
        Expr::i32(0),
        block + Expr::i32(1),
        Expr::i32(1),
        |kb, j| kb.assign(acc, Expr::Var(acc) + j),
    );
    kb.store(out, gid, Expr::Var(acc));
    let kid = program.add_kernel(kb.finish());
    let n = 8 * 32;
    let buffers = [(MemSpace::Global, Data::I32(vec![0; n]))];
    let case = Case {
        program: &program,
        kid,
        grid: Dim2::linear(8),
        block: Dim2::linear(32),
        buffers: &buffers,
        args: &[Arg::Buf(0)],
        approx_rate: 0.0,
    };
    let (contents, result) = assert_agree(&case, true);
    assert!(result.is_ok());
    // Lane l of block b: gid (+ 1000 when b is odd) (+ 5 when l < 4),
    // plus 0 + 1 + … + b.
    let want: Vec<u32> = (0..n)
        .map(|g| {
            let (b, l) = (g / 32, g % 32);
            (g + 1000 * (b % 2) + 5 * usize::from(l < 4) + b * (b + 1) / 2) as u32
        })
        .collect();
    assert_eq!(contents[0], want);
}

/// `out[gid] = in[gid] + 1` with `in` and `out` bound to one buffer: the
/// blocks would read each other's writes, so the launch must not group.
/// Bound to two buffers it groups.
#[test]
fn aliased_arguments_keep_blocks_alone() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("inc");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let shifted = (gid.clone() + Expr::i32(32)).rem(Expr::i32(8 * 32));
    kb.store(out, gid, kb.load(input, shifted) + Expr::f32(1.0));
    let kid = program.add_kernel(kb.finish());
    let n = 8 * 32;
    let buffers = [
        (MemSpace::Global, Data::F32(ramp(n))),
        (MemSpace::Global, Data::F32(vec![0.0; n])),
    ];
    for (args, grouped) in [
        ([Arg::Buf(0), Arg::Buf(0)], false),
        ([Arg::Buf(0), Arg::Buf(1)], true),
    ] {
        let case = Case {
            program: &program,
            kid,
            grid: Dim2::linear(8),
            block: Dim2::linear(32),
            buffers: &buffers,
            args: &args,
            approx_rate: 0.0,
        };
        let (_, result) = assert_agree(&case, grouped);
        assert!(result.is_ok());
    }
}

/// `v` is `in[gid]` (an `f32`) in even blocks and `gid` (an `i32`) in odd
/// ones, so in a group the left operand of `v / v` holds both types: each
/// block must pay its own type's division latency, as it does alone.
#[test]
fn a_binary_pays_each_blocks_latency_class() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("mixed_blocks");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v = kb.let_mut("v", Ty::F32, kb.load(input, gid.clone()));
    let odd = KernelBuilder::block_id_x()
        .rem(Expr::i32(2))
        .eq_(Expr::i32(1));
    kb.if_(odd, |kb| kb.assign(v, gid.clone()));
    kb.store(out, gid, (Expr::Var(v) / Expr::Var(v)).cast(Ty::F32));
    let kid = program.add_kernel(kb.finish());
    let n = 8 * 32;
    let buffers = [
        (MemSpace::Global, Data::F32(ramp(n))),
        (MemSpace::Global, Data::F32(vec![0.0; n])),
    ];
    let case = Case {
        program: &program,
        kid,
        grid: Dim2::linear(8),
        block: Dim2::linear(32),
        buffers: &buffers,
        args: &[Arg::Buf(0), Arg::Buf(1)],
        approx_rate: 0.0,
    };
    let (_, result) = assert_agree(&case, true);
    assert!(result.is_ok());
}
