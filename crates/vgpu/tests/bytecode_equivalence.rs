//! Differential tests pinning the bytecode engine to the tree-walking
//! oracle.
//!
//! The bytecode compiler (`paraprox_vgpu::compile_kernel`) and the AST
//! tree-walker are two independent implementations of the kernel-IR
//! semantics. Every test here runs the same launch under both engines (and
//! under serial and parallel host execution) and asserts *bit-identical*
//! buffers, simulated cycle counts, and cache statistics — `LaunchStats`
//! equality covers every simulated counter while ignoring host wall-clock
//! fields, so a plain `assert_eq!` on stats is the whole check. Error
//! paths must agree too: both engines must raise the same `LaunchError`.
//!
//! The per-device compiled-program cache is probed directly via
//! `Device::compile_count`: re-launching a kernel (at any geometry, from
//! any structurally identical `Program`) must not recompile it.

use paraprox_ir::{
    AtomicOp, Expr, FuncBuilder, KernelBuilder, KernelId, LoopCond, LoopStep, MemSpace, Program,
    Scalar, Ty,
};
use paraprox_vgpu::{ArgValue, Device, DeviceProfile, Dim2, ExecEngine, LaunchError, LaunchStats};

/// The two stock profiles; their latency tables differ enough that a
/// charging bug in either engine shows up on at least one of them.
fn profiles() -> [DeviceProfile; 2] {
    [DeviceProfile::gtx560(), DeviceProfile::core_i7_965()]
}

/// Candidate (engine, workers) settings compared against the reference
/// `(TreeWalk, 1)` run.
const CANDIDATES: [(ExecEngine, usize); 3] = [
    (ExecEngine::Bytecode, 1),
    (ExecEngine::Bytecode, 4),
    (ExecEngine::TreeWalk, 4),
];

/// One launch outcome: buffer contents (as raw bits) plus stats or error.
type Outcome = (Vec<Vec<u32>>, Result<LaunchStats, LaunchError>);

/// Run a single-kernel program under the given profile: allocate the f32
/// buffers, launch, read every buffer back as bit patterns.
fn run_f32(
    profile: DeviceProfile,
    program: &Program,
    kid: KernelId,
    grid: Dim2,
    block: Dim2,
    buffers: &[Vec<f32>],
    scalars: &[Scalar],
) -> Outcome {
    let mut d = Device::new(profile);
    let ids: Vec<_> = buffers
        .iter()
        .map(|b| d.alloc_f32(MemSpace::Global, b))
        .collect();
    let mut args: Vec<ArgValue> = ids.iter().map(|&id| ArgValue::Buffer(id)).collect();
    args.extend(scalars.iter().map(|&s| ArgValue::Scalar(s)));
    let result = d.launch(program, kid, grid, block, &args);
    let contents = ids
        .iter()
        .map(|&id| {
            d.read_f32(id)
                .unwrap()
                .into_iter()
                .map(f32::to_bits)
                .collect()
        })
        .collect();
    (contents, result)
}

/// Assert that every candidate (engine, workers) setting reproduces the
/// reference tree-walk run exactly: same buffers bit-for-bit, same stats
/// (or the same error, with the same buffer contents left behind).
fn assert_all_engines_agree(
    program: &Program,
    kid: KernelId,
    grid: Dim2,
    block: Dim2,
    buffers: &[Vec<f32>],
    scalars: &[Scalar],
) {
    for base in profiles() {
        let reference = run_f32(
            base.clone()
                .with_engine(ExecEngine::TreeWalk)
                .with_parallelism(1),
            program,
            kid,
            grid,
            block,
            buffers,
            scalars,
        );
        for (engine, workers) in CANDIDATES {
            let got = run_f32(
                base.clone().with_engine(engine).with_parallelism(workers),
                program,
                kid,
                grid,
                block,
                buffers,
                scalars,
            );
            assert_eq!(
                got, reference,
                "{:?} x{workers} diverged from tree-walk on {}",
                engine, base.name
            );
        }
    }
}

/// Input data with sign changes and magnitude spread, so comparisons,
/// `select`, and float classification all see both outcomes.
fn mixed_inputs(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f32) * 0.73 - 3.0).sin() * (1.0 + (i % 7) as f32))
        .collect()
}

// ---------------------------------------------------------------------------
// Divergent control flow, select, and loops
// ---------------------------------------------------------------------------

/// A kernel built to stress everything the compiler rewrites: nested
/// divergent `if`/`else`, a data-dependent trip count, `select`, integer
/// and float division latencies, transcendentals, and mixed-type casts.
fn divergence_program() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("diverge");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let x = kb.let_("x", kb.load(input, gid.clone()));
    let acc = kb.let_mut("acc", Ty::F32, Expr::f32(0.0));
    // Divergent trip count: 1 + gid % 4 iterations per thread.
    kb.for_loop(
        "k",
        Expr::i32(0),
        LoopCond::Le(gid.clone().rem(Expr::i32(4))),
        LoopStep::Add(Expr::i32(1)),
        |kb, k| {
            let kf = kb.let_("kf", k.clone().cast(Ty::F32));
            kb.if_else(
                k.rem(Expr::i32(2)).eq_(Expr::i32(0)),
                |kb| {
                    kb.assign(acc, Expr::Var(acc) + (x.clone() + kf.clone()).sin());
                },
                |kb| {
                    kb.assign(
                        acc,
                        Expr::Var(acc) - x.clone() / (kf.clone() + Expr::f32(2.0)),
                    );
                },
            );
        },
    );
    // Select with both arms computed under partial masks.
    let y = kb.let_(
        "y",
        x.clone()
            .gt(Expr::f32(0.0))
            .select(x.clone().sqrt(), (-x.clone()).log()),
    );
    kb.store(output, gid, Expr::Var(acc) + y);
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

#[test]
fn divergent_control_flow_matches_tree_walker() {
    let (program, kid) = divergence_program();
    let n = 4 * 32;
    assert_all_engines_agree(
        &program,
        kid,
        Dim2::linear(4),
        Dim2::linear(32),
        &[mixed_inputs(n), vec![0.0; n]],
        &[],
    );
}

// ---------------------------------------------------------------------------
// Device functions: divergent early returns
// ---------------------------------------------------------------------------

fn early_return_program() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut fb = FuncBuilder::new("clamp_heavy", Ty::F32);
    let x = fb.scalar("x", Ty::F32);
    // Lanes with negative input return early; the rest keep computing.
    fb.if_(x.clone().lt(Expr::f32(0.0)), |fb| {
        fb.ret(-x.clone());
    });
    let t = fb.let_("t", (x.clone() + Expr::f32(1.0)).log());
    fb.if_(t.clone().gt(Expr::f32(1.0)), |fb| {
        fb.ret(t.clone() * Expr::f32(2.0));
    });
    fb.ret(t.exp() / (x + Expr::f32(0.5)));
    let func = program.add_func(fb.finish());

    let mut kb = KernelBuilder::new("apply");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v = kb.let_("v", kb.load(input, gid.clone()));
    kb.store(
        output,
        gid,
        Expr::Call {
            func,
            args: vec![v],
        },
    );
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

#[test]
fn divergent_function_returns_match_tree_walker() {
    let (program, kid) = early_return_program();
    let n = 2 * 32;
    assert_all_engines_agree(
        &program,
        kid,
        Dim2::linear(2),
        Dim2::linear(32),
        &[mixed_inputs(n), vec![0.0; n]],
        &[],
    );
}

// ---------------------------------------------------------------------------
// Atomics and shared memory with barriers
// ---------------------------------------------------------------------------

fn atomic_program() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("atomic_hist");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let hist = kb.buffer("hist", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v = kb.let_("v", kb.load(input, gid.clone()));
    // Divergent atomics: only positive lanes contribute, into a bucket
    // derived from the value so lanes collide.
    kb.if_(v.clone().gt(Expr::f32(0.0)), |kb| {
        let bucket = kb.let_("bucket", gid.clone().rem(Expr::i32(4)));
        kb.atomic(AtomicOp::Add, hist, bucket, v.clone());
        kb.atomic(AtomicOp::Max, hist, Expr::i32(4), v.clone());
    });
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

#[test]
fn atomics_match_tree_walker() {
    let (program, kid) = atomic_program();
    let n = 2 * 32;
    assert_all_engines_agree(
        &program,
        kid,
        Dim2::linear(2),
        Dim2::linear(32),
        &[mixed_inputs(n), vec![0.0; 8]],
        &[],
    );
}

fn shared_reverse_program() -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("shared_reverse");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let tile = kb.shared_array("tile", Ty::F32, 32);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(tile, tid.clone(), kb.load(input, gid.clone()));
    kb.sync();
    kb.store(output, gid, kb.load(tile, Expr::i32(31) - tid));
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

#[test]
fn shared_memory_barrier_matches_tree_walker() {
    let (program, kid) = shared_reverse_program();
    let n = 3 * 32;
    assert_all_engines_agree(
        &program,
        kid,
        Dim2::linear(3),
        Dim2::linear(32),
        &[mixed_inputs(n), vec![0.0; n]],
        &[],
    );
}

// ---------------------------------------------------------------------------
// Error paths: both engines must raise the same LaunchError
// ---------------------------------------------------------------------------

/// Run a kernel expected to fail under every engine; assert the errors are
/// equal and that buffers are left in the same (reverted) state.
fn assert_same_error(program: &Program, kid: KernelId, block: Dim2, buffers: &[Vec<f32>]) {
    for base in profiles() {
        let reference = run_f32(
            base.clone()
                .with_engine(ExecEngine::TreeWalk)
                .with_parallelism(1),
            program,
            kid,
            Dim2::linear(1),
            block,
            buffers,
            &[],
        );
        assert!(reference.1.is_err(), "expected an error on {}", base.name);
        for (engine, workers) in CANDIDATES {
            let got = run_f32(
                base.clone().with_engine(engine).with_parallelism(workers),
                program,
                kid,
                Dim2::linear(1),
                block,
                buffers,
                &[],
            );
            assert_eq!(
                got, reference,
                "{:?} x{workers} error path diverged on {}",
                engine, base.name
            );
        }
    }
}

#[test]
fn divergent_barrier_error_matches_tree_walker() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("bad_sync");
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    kb.if_(tid.clone().lt(Expr::i32(16)), |kb| {
        kb.sync();
    });
    kb.store(output, tid, Expr::f32(1.0));
    let kid = program.add_kernel(kb.finish());
    assert_same_error(&program, kid, Dim2::linear(32), &[vec![0.0; 32]]);
}

#[test]
fn missing_return_error_matches_tree_walker() {
    let mut program = Program::new();
    let mut fb = FuncBuilder::new("partial", Ty::F32);
    let x = fb.scalar("x", Ty::F32);
    // Only positive lanes ever return.
    fb.if_(x.clone().gt(Expr::f32(0.0)), |fb| {
        fb.ret(x.clone().sqrt());
    });
    let func = program.add_func(fb.finish());

    let mut kb = KernelBuilder::new("call_partial");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v = kb.let_("v", kb.load(input, gid.clone()));
    kb.store(
        output,
        gid,
        Expr::Call {
            func,
            args: vec![v],
        },
    );
    let kid = program.add_kernel(kb.finish());
    assert_same_error(
        &program,
        kid,
        Dim2::linear(32),
        &[mixed_inputs(32), vec![0.0; 32]],
    );
}

#[test]
fn uninitialized_var_error_matches_tree_walker() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("uninit");
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    // The local is only bound on a branch no lane takes, so the read
    // below hits an uninitialized slot in both engines.
    let mut captured = None;
    kb.if_(gid.clone().lt(Expr::i32(0)), |kb| {
        captured = Some(kb.let_("v", Expr::f32(1.0)));
    });
    kb.store(output, gid, captured.unwrap());
    let kid = program.add_kernel(kb.finish());
    assert_same_error(&program, kid, Dim2::linear(32), &[vec![0.0; 32]]);
}

#[test]
fn division_by_zero_error_matches_tree_walker() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("div0");
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    // Integer division by a runtime zero (gid - gid); not constant-foldable
    // because gid is a thread special.
    let z = kb.let_("z", gid.clone() - gid.clone());
    kb.store(output, gid.clone(), (gid / z).cast(Ty::F32));
    let kid = program.add_kernel(kb.finish());
    assert_same_error(&program, kid, Dim2::linear(32), &[vec![0.0; 32]]);
}

// ---------------------------------------------------------------------------
// Program-cache probes
// ---------------------------------------------------------------------------

#[test]
fn kernel_compiles_once_across_geometries_and_program_clones() {
    let (program, kid) = divergence_program();
    let mut d = Device::new(DeviceProfile::gtx560().with_engine(ExecEngine::Bytecode));
    let n = 4 * 32;
    let input = d.alloc_f32(MemSpace::Global, &mixed_inputs(n));
    let output = d.alloc_f32(MemSpace::Global, &vec![0.0; n]);
    let args = [ArgValue::Buffer(input), ArgValue::Buffer(output)];

    assert_eq!(d.compile_count(), 0);
    d.launch(&program, kid, Dim2::linear(4), Dim2::linear(32), &args)
        .unwrap();
    assert_eq!(d.compile_count(), 1);

    // Different geometry: same compiled program.
    d.launch(&program, kid, Dim2::linear(2), Dim2::linear(64), &args)
        .unwrap();
    assert_eq!(d.compile_count(), 1);

    // A structurally identical clone (what the tuner produces when it
    // re-builds a candidate) must hit the cache too.
    let clone = program.clone();
    d.launch(&clone, kid, Dim2::linear(4), Dim2::linear(32), &args)
        .unwrap();
    assert_eq!(d.compile_count(), 1);

    // The cache survives cache flushes (it caches code, not data).
    d.flush_caches();
    d.launch(&program, kid, Dim2::linear(4), Dim2::linear(32), &args)
        .unwrap();
    assert_eq!(d.compile_count(), 1);
}

#[test]
fn structurally_different_kernels_each_compile_once() {
    // Same-shape programs differing in one constant must not collide.
    let build = |c: f32| {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("scale");
        let data = kb.buffer("data", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(data, gid.clone()));
        kb.store(data, gid, v * Expr::f32(c));
        let kid = program.add_kernel(kb.finish());
        (program, kid)
    };
    let (p2, k2) = build(2.0);
    let (p3, k3) = build(3.0);
    let mut d = Device::new(DeviceProfile::gtx560().with_engine(ExecEngine::Bytecode));
    let buf = d.alloc_f32(MemSpace::Global, &[1.0; 32]);
    let args = [ArgValue::Buffer(buf)];

    d.launch(&p2, k2, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    d.launch(&p3, k3, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    assert_eq!(d.compile_count(), 2);
    // Re-running both stays cached.
    d.launch(&p2, k2, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    d.launch(&p3, k3, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    assert_eq!(d.compile_count(), 2);
    assert_eq!(d.read_f32(buf).unwrap(), vec![2.0 * 3.0 * 2.0 * 3.0; 32]);
}

#[test]
fn changing_a_called_func_recompiles_the_kernel() {
    let build = |c: f32| {
        let mut program = Program::new();
        let mut fb = FuncBuilder::new("f", Ty::F32);
        let x = fb.scalar("x", Ty::F32);
        fb.ret(x + Expr::f32(c));
        let func = program.add_func(fb.finish());
        let mut kb = KernelBuilder::new("apply");
        let data = kb.buffer("data", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(data, gid.clone()));
        kb.store(
            data,
            gid,
            Expr::Call {
                func,
                args: vec![v],
            },
        );
        let kid = program.add_kernel(kb.finish());
        (program, kid)
    };
    // The kernel bodies are identical; only the called function differs,
    // so the cache must key on the functions as well.
    let (p1, k1) = build(1.0);
    let (p2, k2) = build(2.0);
    let mut d = Device::new(DeviceProfile::gtx560().with_engine(ExecEngine::Bytecode));
    let buf = d.alloc_f32(MemSpace::Global, &[0.0; 32]);
    let args = [ArgValue::Buffer(buf)];
    d.launch(&p1, k1, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    d.launch(&p2, k2, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    assert_eq!(d.compile_count(), 2);
    assert_eq!(d.read_f32(buf).unwrap(), vec![3.0; 32]);
}

#[test]
fn tree_walk_engine_never_compiles() {
    let (program, kid) = divergence_program();
    let mut d = Device::new(DeviceProfile::gtx560().with_engine(ExecEngine::TreeWalk));
    let n = 4 * 32;
    let input = d.alloc_f32(MemSpace::Global, &mixed_inputs(n));
    let output = d.alloc_f32(MemSpace::Global, &vec![0.0; n]);
    d.launch(
        &program,
        kid,
        Dim2::linear(4),
        Dim2::linear(32),
        &[ArgValue::Buffer(input), ArgValue::Buffer(output)],
    )
    .unwrap();
    assert_eq!(d.compile_count(), 0);
}

// ---------------------------------------------------------------------------
// Memory pipeline: strip path vs per-lane path, and error identity
// ---------------------------------------------------------------------------
//
// The bytecode engine moves raw bit strips when an access's index row is
// uniformly `i32`/`u32` (and a store's value row has the buffer's type);
// the tree-walker never does. Every case below therefore pits the strip
// path — or the fallback the case forces — against the per-lane oracle,
// at 1/2/4 workers, in canonical and in permuted store order.

/// Typed initial contents of one buffer.
#[derive(Clone)]
enum Data {
    F32(Vec<f32>),
    I32(Vec<i32>),
    U32(Vec<u32>),
}

/// What a run left behind: every buffer as bit patterns, and the stats —
/// with the two approximate-memory counters `LaunchStats` equality leaves
/// out — or the error.
type MemOutcome = (Vec<Vec<u32>>, Result<(LaunchStats, u64, u64), LaunchError>);

#[allow(clippy::too_many_arguments)]
fn run_mem(
    profile: DeviceProfile,
    seed: Option<u64>,
    approx_rate: f64,
    program: &Program,
    kid: KernelId,
    grid: Dim2,
    block: Dim2,
    buffers: &[(MemSpace, Data)],
) -> MemOutcome {
    let mut d = Device::new(profile);
    d.set_schedule_seed(seed);
    d.set_approx_rate(approx_rate);
    d.set_approx_seed(0xA11CE);
    let ids: Vec<_> = buffers
        .iter()
        .map(|(space, data)| match data {
            Data::F32(v) => d.alloc_f32(*space, v),
            Data::I32(v) => d.alloc_i32(*space, v),
            Data::U32(v) => d.alloc_u32(*space, v),
        })
        .collect();
    let args: Vec<ArgValue> = ids.iter().map(|&id| ArgValue::Buffer(id)).collect();
    let result = d
        .launch(program, kid, grid, block, &args)
        .map(|s| (s, s.approx_loads, s.bit_flips));
    let contents = ids
        .iter()
        .map(|&id| {
            d.read_scalars(id)
                .unwrap()
                .iter()
                .map(|s| match *s {
                    Scalar::F32(v) => v.to_bits(),
                    Scalar::I32(v) => v as u32,
                    Scalar::U32(v) => v,
                    Scalar::Bool(v) => u32::from(v),
                })
                .collect()
        })
        .collect();
    (contents, result)
}

/// Assert that both engines at 1, 2 and 4 workers reproduce the
/// single-worker tree-walk run, in canonical and in permuted store order
/// (a permuted run is compared with the oracle under the same seed: which
/// lane fails first, and what it leaves behind, depends on the order).
/// Returns the canonical-order reference outcome per profile.
fn assert_mem_agree(
    program: &Program,
    kid: KernelId,
    grid: Dim2,
    block: Dim2,
    buffers: &[(MemSpace, Data)],
    approx_rate: f64,
) -> Vec<MemOutcome> {
    let mut references = Vec::new();
    for base in profiles() {
        for seed in [None, Some(0x5EED_0DD5)] {
            let run = |engine, workers| {
                run_mem(
                    base.clone().with_engine(engine).with_parallelism(workers),
                    seed,
                    approx_rate,
                    program,
                    kid,
                    grid,
                    block,
                    buffers,
                )
            };
            let reference = run(ExecEngine::TreeWalk, 1);
            for engine in [ExecEngine::TreeWalk, ExecEngine::Bytecode] {
                for workers in [1, 2, 4] {
                    assert_eq!(
                        run(engine, workers),
                        reference,
                        "{engine:?} x{workers} seed {seed:?} diverged on {}",
                        base.name
                    );
                }
            }
            if seed.is_none() {
                references.push(reference);
            }
        }
    }
    references
}

/// `out[tid] = in[idx[tid]]` (gather) or `out[idx[tid]] = in[tid]`
/// (scatter), optionally under a mask that switches every third lane off.
fn indirect_program(idx_ty: Ty, scatter: bool, divergent: bool) -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("indirect");
    let idx = kb.buffer("idx", idx_ty, MemSpace::Global);
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let body = |kb: &mut KernelBuilder| {
        let i = kb.let_("i", kb.load(idx, gid.clone()));
        if scatter {
            let v = kb.let_("v", kb.load(input, gid.clone()));
            kb.store(output, i, v + Expr::f32(1.0));
        } else {
            let v = kb.let_("v", kb.load(input, i));
            kb.store(output, gid.clone(), v + Expr::f32(1.0));
        }
    };
    if divergent {
        kb.if_(gid.clone().rem(Expr::i32(3)).ne_(Expr::i32(0)), body);
    } else {
        body(&mut kb);
    }
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

/// A permutation of `0..n` that is not the identity and not monotone.
fn shuffled(n: usize) -> Vec<i32> {
    (0..n).map(|i| ((i * 37 + 11) % n) as i32).collect()
}

fn eval_error(outcome: &MemOutcome) -> paraprox_ir::EvalError {
    match &outcome.1 {
        Err(LaunchError::Eval { source, .. }) => source.clone(),
        other => panic!("expected an evaluation error, got {other:?}"),
    }
}

#[test]
fn out_of_bounds_lane_is_identical_under_full_divergent_and_permuted_access() {
    use paraprox_ir::EvalError;
    // Lane 13 is active under the divergent mask (13 % 3 != 0), lane 12
    // is not.
    for (blocks, bad_gid) in [(1usize, 13usize), (3, 32 + 13), (1, 12)] {
        let n = blocks * 32;
        for scatter in [false, true] {
            for divergent in [false, true] {
                for bad in [1000i32, -1] {
                    let (program, kid) = indirect_program(Ty::I32, scatter, divergent);
                    let mut idx = shuffled(n);
                    idx[bad_gid] = bad;
                    let buffers = [
                        (MemSpace::Global, Data::I32(idx)),
                        (MemSpace::Global, Data::F32(mixed_inputs(n))),
                        (MemSpace::Global, Data::F32(vec![0.0; n])),
                    ];
                    let refs = assert_mem_agree(
                        &program,
                        kid,
                        Dim2::linear(blocks),
                        Dim2::linear(32),
                        &buffers,
                        0.0,
                    );
                    for reference in &refs {
                        if divergent && bad_gid % 3 == 0 {
                            assert!(reference.1.is_ok(), "masked-off lane must not fault");
                        } else {
                            assert_eq!(
                                eval_error(reference),
                                EvalError::OutOfBounds {
                                    index: i64::from(bad),
                                    len: n
                                }
                            );
                        }
                    }
                    // A single-block launch writes in place: a faulting
                    // scatter leaves the lanes applied before it behind.
                    if scatter && !divergent && blocks == 1 {
                        let out = &refs[0].0[2];
                        assert!(out.iter().any(|&b| b != 0) && out.contains(&0));
                    }
                }
            }
        }
    }
}

#[test]
fn u32_indices_take_the_strip_path_and_fault_as_unsigned() {
    use paraprox_ir::EvalError;
    let n = 64;
    for scatter in [false, true] {
        let (program, kid) = indirect_program(Ty::U32, scatter, false);
        let idx: Vec<u32> = shuffled(n).into_iter().map(|i| i as u32).collect();
        let mut buffers = [
            (MemSpace::Global, Data::U32(idx.clone())),
            (MemSpace::Global, Data::F32(mixed_inputs(n))),
            (MemSpace::Global, Data::F32(vec![0.0; n])),
        ];
        let shape = (Dim2::linear(2), Dim2::linear(32));
        for reference in assert_mem_agree(&program, kid, shape.0, shape.1, &buffers, 0.0) {
            assert!(reference.1.is_ok());
            assert!(reference.0[2].iter().all(|&b| b != 0), "every lane stored");
        }
        // An index at or above 2^31 is a large positive index, never a
        // negative one.
        let mut bad = idx;
        bad[40] = 0x8000_0005;
        buffers[0].1 = Data::U32(bad);
        for reference in assert_mem_agree(&program, kid, shape.0, shape.1, &buffers, 0.0) {
            assert_eq!(
                eval_error(&reference),
                EvalError::OutOfBounds {
                    index: 0x8000_0005,
                    len: n
                }
            );
        }
    }
}

#[test]
fn mixed_tag_rows_fall_back_and_agree_with_the_oracle() {
    use paraprox_ir::EvalError;
    let n = 64;
    let shape = (Dim2::linear(2), Dim2::linear(32));
    let io = |n: usize| {
        [
            (MemSpace::Global, Data::F32(mixed_inputs(n))),
            (MemSpace::Global, Data::F32(vec![0.0; n])),
        ]
    };

    // Index row with i32 lanes and u32 lanes: no strip, no error.
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("mixed_index");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let i = kb.let_mut("i", Ty::I32, gid.clone());
    kb.if_(KernelBuilder::thread_id_x().lt(Expr::i32(16)), |kb| {
        kb.assign(i, gid.clone().cast(Ty::U32));
    });
    let v = kb.let_("v", kb.load(input, Expr::Var(i)));
    kb.store(output, Expr::Var(i), v * Expr::f32(2.0));
    let kid = program.add_kernel(kb.finish());
    for reference in assert_mem_agree(&program, kid, shape.0, shape.1, &io(n), 0.0) {
        assert!(reference.1.is_ok());
        let want: Vec<u32> = mixed_inputs(n)
            .iter()
            .map(|v| (v * 2.0).to_bits())
            .collect();
        assert_eq!(reference.0[1], want);
    }

    // Value row uniformly of another type than the buffer: the first
    // active lane faults.
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("wrong_value_type");
    let _input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(output, gid.clone(), gid);
    let kid = program.add_kernel(kb.finish());
    let mismatch = EvalError::TypeMismatch {
        expected: Ty::F32,
        found: Ty::I32,
    };
    for reference in assert_mem_agree(&program, kid, shape.0, shape.1, &io(n), 0.0) {
        assert_eq!(eval_error(&reference), mismatch);
    }

    // Value row that turns i32 from lane 20 on: lanes before it store,
    // then the same fault. One block, so the stores land in place.
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("mixed_value");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let loaded = kb.load(input, gid.clone());
    let v = kb.let_mut("v", Ty::F32, loaded);
    kb.if_(gid.clone().ge(Expr::i32(20)), |kb| {
        kb.assign(v, gid.clone());
    });
    kb.store(output, gid, Expr::Var(v));
    let kid = program.add_kernel(kb.finish());
    let refs = assert_mem_agree(
        &program,
        kid,
        Dim2::linear(1),
        Dim2::linear(32),
        &io(32),
        0.0,
    );
    for reference in &refs {
        assert_eq!(eval_error(reference), mismatch);
    }
    let want: Vec<u32> = mixed_inputs(32)
        .iter()
        .enumerate()
        .map(|(lane, v)| if lane < 20 { v.to_bits() } else { 0 })
        .collect();
    assert_eq!(refs[0].0[1], want, "canonical order stores lanes 0..20");
}

#[test]
fn crafted_bank_conflicts_have_the_expected_degree() {
    for stride in [1i32, 2, 4, 32] {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("banks");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let staged = kb.shared_array("s", Ty::F32, 32 * 32);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let slot = kb.let_("slot", tid.clone() * Expr::i32(stride));
        let v = kb.let_("v", kb.load(input, tid.clone()));
        kb.store(staged, slot.clone(), v);
        kb.sync();
        kb.store(output, tid, kb.load(staged, slot));
        let kid = program.add_kernel(kb.finish());
        let buffers = [
            (MemSpace::Global, Data::F32(mixed_inputs(32))),
            (MemSpace::Global, Data::F32(vec![0.0; 32])),
        ];
        let refs = assert_mem_agree(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(32),
            &buffers,
            0.0,
        );
        // gtx560: one 32-lane warp; lane words `tid * stride` fold onto
        // 32 / stride banks, `stride` distinct words each. One store and
        // one load, each serialized `stride` ways.
        let (stats, _, _) = refs[0].1.clone().expect("launch succeeds");
        assert_eq!(stats.shared_accesses, 2);
        assert_eq!(stats.bank_conflict_extra, 2 * (stride as u64 - 1));
        assert_eq!(refs[0].0[1], refs[0].0[0], "values survive the staging");
    }
}

#[test]
fn approx_buffers_count_and_flip_the_same_on_both_paths() {
    let (blocks, lanes) = (8usize, 64usize);
    let n = blocks * lanes;
    let (program, kid) = indirect_program(Ty::I32, false, false);
    let buffers = |space| {
        [
            (MemSpace::Global, Data::I32(shuffled(n))),
            (space, Data::F32(mixed_inputs(n))),
            (MemSpace::Global, Data::F32(vec![0.0; n])),
        ]
    };
    let shape = (Dim2::linear(blocks), Dim2::linear(lanes));
    let run =
        |space, rate| assert_mem_agree(&program, kid, shape.0, shape.1, &buffers(space), rate);
    let exact = run(MemSpace::Global, 0.0);
    let rate0 = run(MemSpace::Approx, 0.0);
    let noisy = run(MemSpace::Approx, 1e-2);
    for ((exact, rate0), noisy) in exact.iter().zip(&rate0).zip(&noisy) {
        // Rate 0: the strip path serves the load; contents are exact, and
        // every lane-load of the approximate buffer is still counted.
        assert_eq!(rate0.0, exact.0);
        let (_, approx_loads, bit_flips) = rate0.1.clone().unwrap();
        assert_eq!((approx_loads, bit_flips), (n as u64, 0));
        // Rate 1e-2: injection is per-lane in both engines; the seeded
        // stream flips the same loads whoever executes them.
        let (_, approx_loads, bit_flips) = noisy.1.clone().unwrap();
        assert_eq!(approx_loads, n as u64);
        assert_eq!(bit_flips, 8, "seeded flip stream moved");
        let differing = noisy.0[2].iter().zip(&exact.0[2]).filter(|(a, b)| a != b);
        assert_eq!(differing.count() as u64, bit_flips);
    }
}
