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
    let mut d = Device::new(DeviceProfile::gtx560());
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
    let mut d = Device::new(DeviceProfile::gtx560());
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
    let mut d = Device::new(DeviceProfile::gtx560());
    let buf = d.alloc_f32(MemSpace::Global, &[0.0; 32]);
    let args = [ArgValue::Buffer(buf)];
    d.launch(&p1, k1, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    d.launch(&p2, k2, Dim2::linear(1), Dim2::linear(32), &args)
        .unwrap();
    assert_eq!(d.compile_count(), 2);
    assert_eq!(d.read_f32(buf).unwrap(), vec![3.0; 32]);
}

// ---------------------------------------------------------------------------
// Memory pipeline: strip path vs per-lane path, and error identity
// ---------------------------------------------------------------------------
//
// The bytecode engine moves raw bit strips when an access's index row's
// active lanes are all `i32` or all `u32` (and a store's value row's have
// the buffer's type); the tree-walker never does. Every case below therefore pits the strip
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
                    // A failed launch, of one block or several, leaves
                    // its buffers as they were: the lanes a faulting
                    // scatter applied before the fault are reverted.
                    for reference in refs.iter().filter(|r| r.1.is_err()) {
                        assert!(reference.0[2].iter().all(|&b| b == 0));
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
    // then the same fault, which reverts them: a failed launch leaves its
    // buffers untouched, even with a single block.
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
    assert_eq!(
        refs[0].0[1],
        vec![0; 32],
        "the stores of lanes 0..20 are reverted"
    );
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

// ---------------------------------------------------------------------------
// Partial-mask matrix: masked typed strips against the per-lane oracle
// ---------------------------------------------------------------------------
//
// The bytecode engine runs every ALU and control op as a typed strip loop
// that takes the lane mask as an argument; the tree-walker evaluates one
// `Scalar` per active lane. The kernels below put every op class — unary,
// binary, compare, cast, select, loop step — for every operand type under
// (a) a ragged last block, (b) per-lane trip counts and (c) a nested `if`
// inside a loop inside a device function with early `return`, on a block
// wide enough for several mask words with a ragged tail. Each is launched
// twice per device (the second launch runs the cached program) under both
// engines, 1/2/4 workers, canonical and permuted store order, and compared
// with the single-worker tree-walk.

/// Two launches' outcomes, each on freshly allocated buffers.
type TwoLaunches = Vec<(Vec<Vec<u32>>, Result<LaunchStats, LaunchError>)>;

#[allow(clippy::too_many_arguments)]
fn launch_twice(
    profile: DeviceProfile,
    seed: Option<u64>,
    program: &Program,
    kid: KernelId,
    grid: Dim2,
    block: Dim2,
    buffers: &[Data],
    scalars: &[Scalar],
    falls_back: bool,
) -> TwoLaunches {
    let bytecode = profile.engine == ExecEngine::Bytecode;
    let mut d = Device::new(profile);
    d.set_schedule_seed(seed);
    (0..2)
        .map(|_| {
            let ids: Vec<_> = buffers
                .iter()
                .map(|data| match data {
                    Data::F32(v) => d.alloc_f32(MemSpace::Global, v),
                    Data::I32(v) => d.alloc_i32(MemSpace::Global, v),
                    Data::U32(v) => d.alloc_u32(MemSpace::Global, v),
                })
                .collect();
            let mut args: Vec<ArgValue> = ids.iter().map(|&id| ArgValue::Buffer(id)).collect();
            args.extend(scalars.iter().map(|&s| ArgValue::Scalar(s)));
            let result = d.launch(program, kid, grid, block, &args);
            if let Ok(stats) = &result {
                // The per-lane path is the error path: a well-typed kernel
                // never takes it, however its lanes diverge; one whose
                // active lanes differ in type must.
                assert_eq!(stats.lane_fallback_ops > 0, falls_back && bytecode);
                assert_eq!(stats.ops_dispatched > 0, bytecode);
            }
            let contents = ids
                .iter()
                .map(|&id| {
                    let scalars = d.read_scalars(id).unwrap();
                    scalars.iter().map(|&s| scalar_bits(s)).collect()
                })
                .collect();
            (contents, result)
        })
        .collect()
}

fn scalar_bits(s: Scalar) -> u32 {
    match s {
        Scalar::F32(v) => v.to_bits(),
        Scalar::I32(v) => v as u32,
        Scalar::U32(v) => v,
        Scalar::Bool(v) => u32::from(v),
    }
}

/// Assert that both engines × 1/2/4 workers reproduce the single-worker
/// tree-walk run on both launches, in canonical and in permuted store
/// order. Returns the canonical reference per profile.
fn assert_masked_agree(
    program: &Program,
    kid: KernelId,
    grid: Dim2,
    block: Dim2,
    buffers: &[Data],
    scalars: &[Scalar],
    falls_back: bool,
) -> Vec<TwoLaunches> {
    let mut references = Vec::new();
    for base in profiles() {
        for seed in [None, Some(0x5EED_0DD5)] {
            let run = |engine, workers| {
                launch_twice(
                    base.clone().with_engine(engine).with_parallelism(workers),
                    seed,
                    program,
                    kid,
                    grid,
                    block,
                    buffers,
                    scalars,
                    falls_back,
                )
            };
            let reference = run(ExecEngine::TreeWalk, 1);
            assert_eq!(
                reference[0], reference[1],
                "launches differ on {}",
                base.name
            );
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

/// A small literal of type `ty` (`Bool` has none here).
fn lit(ty: Ty, v: i32) -> Expr {
    match ty {
        Ty::F32 => Expr::f32(v as f32 * 0.75),
        Ty::I32 => Expr::i32(v),
        Ty::U32 => Expr::u32(v as u32),
        Ty::Bool => unreachable!("no bool literals in the matrix"),
    }
}

fn bin(op: paraprox_ir::BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Binary(op, Box::new(a), Box::new(b))
}

fn not(a: Expr) -> Expr {
    Expr::Unary(paraprox_ir::UnOp::Not, Box::new(a))
}

/// Every binary op the typed tables admit for `ty`, applied as
/// `acc OP rhs`; integer divisors and shift counts are made safe, so the
/// kernel is error-free under any mask.
fn fold_binary_ops(ty: Ty, acc: Expr, x: &Expr, k: &Expr) -> Expr {
    use paraprox_ir::BinOp::*;
    let ops: &[paraprox_ir::BinOp] = match ty {
        Ty::F32 => &[Add, Mul, Sub, Div, Rem, Pow, Min, Max],
        _ => &[Add, Mul, Sub, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max],
    };
    ops.iter().fold(acc, |acc, &op| {
        let rhs = match (op, ty) {
            (Div | Rem, Ty::F32) => x.clone() + k.clone() + Expr::f32(1.25),
            (Pow, _) => Expr::f32(0.5),
            (Div | Rem, _) => x.clone() | lit(ty, 1),
            (Shl | Shr, _) => k.clone() & lit(ty, 7),
            (Min, _) => lit(ty, 1000),
            (Max, Ty::U32) => lit(ty, 3),
            (Max, _) => lit(ty, -1000),
            _ => x.clone() + k.clone(),
        };
        bin(op, acc, rhs)
    })
}

/// Every unary op the typed tables admit for `ty`, folded over `x`.
fn fold_unary_ops(ty: Ty, x: &Expr) -> Expr {
    match ty {
        Ty::F32 => {
            let t = (x.clone().abs() + Expr::f32(0.5)).sqrt().log().exp();
            let u = (-x.clone()).sin() + x.clone().cos() + x.clone().floor();
            t + u + (x.clone().abs() + Expr::f32(1.0)).rsqrt()
        }
        Ty::I32 => (-x.clone()).abs() + not(x.clone()),
        _ => not(x.clone()),
    }
}

/// The device function of case (c): a per-lane trip count, a nested `if`
/// inside the loop, and an early `return` inside that.
fn early_return_in_loop(program: &mut Program, ty: Ty) -> paraprox_ir::FuncId {
    let mut fb = FuncBuilder::new("walk", ty);
    let x = fb.scalar("x", ty);
    let g = fb.scalar("g", Ty::I32);
    let r = fb.let_mut("r", ty, x.clone());
    fb.for_up(
        "j",
        Expr::i32(0),
        g.clone().rem(Expr::i32(3)) + Expr::i32(1),
        Expr::i32(1),
        |fb, j| {
            fb.if_(j.clone().eq_(g.clone().rem(Expr::i32(2))), |fb| {
                fb.if_(x.clone().gt(lit(ty, 2)), |fb| {
                    fb.ret(Expr::Var(r) * lit(ty, 3));
                });
                fb.assign(r, Expr::Var(r) + j.clone().cast(ty));
            });
            fb.assign(r, Expr::Var(r) + lit(ty, 1));
        },
    );
    fb.ret(Expr::Var(r).min(lit(ty, 500)));
    program.add_func(fb.finish())
}

/// The matrix kernel for operand type `ty`: `out` receives the value
/// chain, `flags` the bool chain. Arguments: `in`, `out`, `flags`, `n`.
fn masked_ops_program(ty: Ty) -> (Program, KernelId) {
    let mut program = Program::new();
    let walk = early_return_in_loop(&mut program, ty);
    let mut kb = KernelBuilder::new("masked_ops");
    let input = kb.buffer("in", ty, MemSpace::Global);
    let output = kb.buffer("out", ty, MemSpace::Global);
    let flags = kb.buffer("flags", Ty::I32, MemSpace::Global);
    let n = kb.scalar("n", Ty::I32);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    // (a) the ragged guard: the last block runs everything below under a
    // mask that ends mid-word.
    kb.if_(gid.clone().lt(n), |kb| {
        let x = kb.let_("x", kb.load(input, gid.clone()));
        let acc = kb.let_mut("acc", ty, x.clone());
        // (b) per-lane trip count, with both arms of a branch inside.
        kb.for_loop(
            "k",
            Expr::i32(0),
            LoopCond::Le(gid.clone().rem(Expr::i32(5))),
            LoopStep::Add(Expr::i32(1)),
            |kb, k| {
                let kt = kb.let_("kt", k.clone().cast(ty));
                kb.if_else(
                    k.rem(Expr::i32(2)).eq_(Expr::i32(0)),
                    |kb| kb.assign(acc, fold_binary_ops(ty, Expr::Var(acc), &x, &kt)),
                    |kb| kb.assign(acc, Expr::Var(acc) + fold_unary_ops(ty, &x)),
                );
            },
        );
        // Compares of `ty` operands, then bool operands under every bool
        // op and compare.
        let b = kb.let_mut("b", Ty::Bool, x.clone().lt(lit(ty, 1)));
        kb.assign(b, Expr::Var(b) ^ x.clone().le(Expr::Var(acc)));
        kb.assign(b, Expr::Var(b) | x.clone().gt(Expr::Var(acc)));
        kb.assign(b, Expr::Var(b) & not(x.clone().ge(lit(ty, 2))));
        kb.assign(b, Expr::Var(b) ^ x.clone().eq_(Expr::Var(acc)));
        kb.assign(b, Expr::Var(b).ne_(x.clone().ne_(lit(ty, 0))));
        kb.assign(b, Expr::Var(b).lt(x.clone().gt(lit(ty, 0))) | Expr::Var(b));
        // Casts through every type and back.
        let round = kb.let_(
            "round",
            Expr::Var(acc)
                .cast(Ty::F32)
                .cast(Ty::I32)
                .cast(Ty::U32)
                .cast(ty),
        );
        let as_bool = kb.let_("as_bool", Expr::Var(acc).cast(Ty::Bool));
        // Select, both arms under complementary partial masks.
        let y = kb.let_mut(
            "y",
            ty,
            Expr::Var(b).select(round + x.clone(), Expr::Var(acc) - x.clone()),
        );
        // Loop steps on a `ty`-typed loop variable with a per-lane bound:
        // `+=` and `*=` up, `-=` down (stopping short of an unsigned wrap),
        // then (integers) `<<=` up and `>>=` down.
        let bound = kb.let_(
            "bound",
            (gid.clone().rem(Expr::i32(7)) + Expr::i32(2)).cast(ty),
        );
        kb.for_loop(
            "up",
            lit(ty, 1),
            LoopCond::Lt(bound.clone()),
            LoopStep::Add(lit(ty, 2)),
            |kb, j| kb.assign(y, Expr::Var(y) + j),
        );
        kb.for_loop(
            "dbl",
            lit(ty, 2),
            LoopCond::Le(bound.clone() * lit(ty, 4)),
            LoopStep::Mul(lit(ty, 2)),
            |kb, j| kb.assign(y, Expr::Var(y) - j),
        );
        kb.for_loop(
            "down",
            bound.clone() * lit(ty, 2),
            LoopCond::Gt(lit(ty, 3)),
            LoopStep::Sub(lit(ty, 3)),
            |kb, j| kb.assign(y, Expr::Var(y) + j),
        );
        if ty != Ty::F32 {
            kb.for_loop(
                "shl",
                lit(ty, 1),
                LoopCond::Lt(bound.clone() * lit(ty, 8)),
                LoopStep::Shl(lit(ty, 1)),
                |kb, j| kb.assign(y, Expr::Var(y) ^ j),
            );
            kb.for_loop(
                "shr",
                bound * lit(ty, 16),
                LoopCond::Ge(lit(ty, 1)),
                LoopStep::Shr(lit(ty, 1)),
                |kb, j| kb.assign(y, Expr::Var(y) + j),
            );
        }
        // (c) the device function, called under the ragged mask.
        let walked = Expr::Call {
            func: walk,
            args: vec![x, gid.clone()],
        };
        kb.store(output, gid.clone(), Expr::Var(y) + walked);
        kb.store(
            flags,
            gid,
            Expr::Var(b).cast(Ty::I32) + as_bool.cast(Ty::I32) * Expr::i32(2),
        );
    });
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

/// Inputs of type `ty` with sign changes, zeros and magnitude spread.
fn typed_inputs(ty: Ty, n: usize) -> Data {
    let ints = (0..n).map(|i| ((i * 37 + 11) % 23) as i32 - 9);
    match ty {
        Ty::F32 => Data::F32(mixed_inputs(n)),
        Ty::I32 => Data::I32(ints.collect()),
        _ => Data::U32(ints.map(|v| v.unsigned_abs() * 3).collect()),
    }
}

fn zeros(ty: Ty, n: usize) -> Data {
    match ty {
        Ty::F32 => Data::F32(vec![0.0; n]),
        Ty::I32 => Data::I32(vec![0; n]),
        _ => Data::U32(vec![0; n]),
    }
}

#[test]
fn partial_mask_matrix_matches_tree_walker() {
    // 96 lanes: two mask words, the second ragged; 230 of the 288 lanes
    // pass the guard, so the last block's mask ends inside its first word.
    let (grid, block, n) = (Dim2::linear(3), Dim2::linear(96), 230usize);
    let total = 3 * 96;
    for ty in [Ty::F32, Ty::I32, Ty::U32] {
        let (program, kid) = masked_ops_program(ty);
        let buffers = [
            typed_inputs(ty, total),
            zeros(ty, total),
            zeros(Ty::I32, total),
        ];
        let refs = assert_masked_agree(
            &program,
            kid,
            grid,
            block,
            &buffers,
            &[Scalar::I32(n as i32)],
            false,
        );
        for reference in &refs {
            let (contents, result) = &reference[0];
            assert!(result.is_ok(), "{ty:?} matrix kernel failed: {result:?}");
            assert!(contents[1][..n].iter().any(|&b| b != 0));
            assert!(contents[2][..n].iter().any(|&b| b != 0));
            assert!(
                contents[1][n..]
                    .iter()
                    .chain(&contents[2][n..])
                    .all(|&b| b == 0),
                "a guarded-off lane stored"
            );
        }
    }
}

/// `out[gid] = x OP d` under `if d != 0`, with `d` loaded under the full
/// mask (so the inactive lanes hold the data's own zeros, not filler) or
/// recomputed under the guard (so they hold filler).
fn guarded_division(ty: Ty, op: paraprox_ir::BinOp, recompute: bool) -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("guarded_division");
    let input = kb.buffer("in", ty, MemSpace::Global);
    let divisors = kb.buffer("d", ty, MemSpace::Global);
    let output = kb.buffer("out", ty, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let x = kb.let_("x", kb.load(input, gid.clone()));
    let d = kb.let_("d", kb.load(divisors, gid.clone()));
    kb.if_(d.clone().ne_(lit(ty, 0)), |kb| {
        let divisor = if recompute {
            d.clone() * lit(ty, 1)
        } else {
            d.clone()
        };
        kb.store(output, gid.clone(), bin(op, x.clone(), divisor));
    });
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

#[test]
fn zero_divisor_on_an_inactive_lane_divides_nothing() {
    use paraprox_ir::BinOp;
    let (grid, block, total) = (Dim2::linear(2), Dim2::linear(96), 192usize);
    for ty in [Ty::I32, Ty::U32] {
        for op in [BinOp::Div, BinOp::Rem] {
            for recompute in [false, true] {
                let (program, kid) = guarded_division(ty, op, recompute);
                // Every fourth lane's divisor is zero; `i32::MIN / -1` and
                // friends ride along on the active lanes.
                let divisor = |i: usize| match (i.is_multiple_of(4), (i % 5) as i32 - 2) {
                    (true, _) => 0,
                    (false, 0) => -1,
                    (false, d) => d,
                };
                let (xs, ds) = match ty {
                    Ty::I32 => {
                        let mut xs: Vec<i32> = (0..total).map(|i| i as i32 * 7 - 400).collect();
                        xs[3] = i32::MIN;
                        (Data::I32(xs), Data::I32((0..total).map(divisor).collect()))
                    }
                    _ => (
                        Data::U32((0..total).map(|i| i as u32 * 7 + 1).collect()),
                        Data::U32((0..total).map(|i| divisor(i).unsigned_abs()).collect()),
                    ),
                };
                let buffers = [xs, ds, zeros(ty, total)];
                for reference in
                    assert_masked_agree(&program, kid, grid, block, &buffers, &[], false)
                {
                    let (contents, result) = &reference[0];
                    assert!(result.is_ok(), "{ty:?} {op:?}: {result:?}");
                    let (xs, ds) = (&contents[0], &contents[1]);
                    for (i, (&x, &d)) in xs.iter().zip(ds).enumerate() {
                        let want = match (d, ty, op) {
                            (0, _, _) => 0,
                            (_, Ty::I32, BinOp::Div) => (x as i32).wrapping_div(d as i32) as u32,
                            (_, Ty::I32, _) => (x as i32).wrapping_rem(d as i32) as u32,
                            (_, _, BinOp::Div) => x / d,
                            _ => x % d,
                        };
                        assert_eq!(contents[2][i], want, "{ty:?} {op:?} lane {i}");
                    }
                }
            }
        }
    }
}

/// Expect every engine to raise `want` (and the oracle's buffers).
fn assert_masked_error(
    program: &Program,
    kid: KernelId,
    block: Dim2,
    buffers: &[Data],
    want: paraprox_ir::EvalError,
) {
    for reference in assert_masked_agree(program, kid, Dim2::linear(1), block, buffers, &[], false)
    {
        match &reference[0].1 {
            Err(LaunchError::Eval { source, .. }) => assert_eq!(*source, want),
            other => panic!("expected {want:?}, got {other:?}"),
        }
    }
}

#[test]
fn first_failing_active_lane_decides_the_error() {
    use paraprox_ir::{BinOp, EvalError};
    let lanes = 96usize;
    // Odd lanes divide. The divisor row is `i32` except one lane turned
    // `u32` (an operand type mismatch there) and holds zeros where `zeros`
    // says: whichever failing lane is lower decides the error, and a
    // failing even lane decides nothing.
    let run = |zero_lanes: &[usize],
               u32_lane: Option<usize>,
               op: BinOp,
               want: Option<EvalError>| {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("first_failure");
        let divisors = kb.buffer("d", Ty::I32, MemSpace::Global);
        let output = kb.buffer("out", Ty::I32, MemSpace::Global);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let d = kb.let_mut("d", Ty::I32, kb.load(divisors, tid.clone()));
        if let Some(lane) = u32_lane {
            kb.if_(tid.clone().eq_(Expr::i32(lane as i32)), |kb| {
                kb.assign(d, Expr::Var(d).cast(Ty::U32));
            });
        }
        kb.if_(tid.clone().rem(Expr::i32(2)).eq_(Expr::i32(1)), |kb| {
            kb.store(
                output,
                tid.clone(),
                bin(op, tid.clone() + Expr::i32(100), Expr::Var(d)),
            );
        });
        let kid = program.add_kernel(kb.finish());
        let mut ds = vec![3; lanes];
        for &lane in zero_lanes {
            ds[lane] = 0;
        }
        let buffers = [Data::I32(ds), Data::I32(vec![0; lanes])];
        match want {
            Some(want) => assert_masked_error(&program, kid, Dim2::linear(lanes), &buffers, want),
            None => {
                for reference in assert_masked_agree(
                    &program,
                    kid,
                    Dim2::linear(1),
                    Dim2::linear(lanes),
                    &buffers,
                    &[],
                    false,
                ) {
                    assert!(reference[0].1.is_ok());
                }
            }
        }
    };
    let mismatch = EvalError::OperandTypeMismatch {
        lhs: Ty::I32,
        rhs: Ty::U32,
    };
    for op in [BinOp::Div, BinOp::Rem] {
        run(&[4, 70], None, op, None);
        run(&[5, 71], None, op, Some(EvalError::DivisionByZero));
        run(&[9], Some(71), op, Some(EvalError::DivisionByZero));
        run(&[71], Some(9), op, Some(mismatch.clone()));
        run(&[8], Some(71), op, Some(mismatch.clone()));
        run(&[71], Some(8), op, Some(EvalError::DivisionByZero));
    }
}

#[test]
fn local_written_narrow_and_read_wide_fails_at_the_oracles_lane() {
    use paraprox_ir::EvalError;
    let lanes = 96usize;
    // `v` is first written on lanes 8..20 (f32 there, filler elsewhere).
    // Reading it on those lanes or fewer stays on the strips and succeeds;
    // reading it on lanes 8.. meets the `i32` filler at lane 20, before
    // the `u32` that lane 70 of `w` would object to.
    let build = |read_from: i32, read_to: i32| {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("narrow_then_wide");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let x = kb.let_("x", kb.load(input, tid.clone()));
        kb.if_(tid.clone().ge(Expr::i32(8)), |kb| {
            let mut v = None;
            kb.if_(tid.clone().lt(Expr::i32(20)), |kb| {
                v = Some(kb.let_("v", x.clone() * Expr::f32(2.0)));
            });
            let v = v.unwrap();
            let w = kb.let_mut("w", Ty::F32, x.clone() + Expr::f32(1.0));
            kb.if_(tid.clone().eq_(Expr::i32(70)), |kb| {
                kb.assign(w, tid.clone().cast(Ty::U32));
            });
            let reads = tid.clone().ge(Expr::i32(read_from)) & tid.clone().lt(Expr::i32(read_to));
            kb.if_(reads, |kb| {
                kb.store(output, tid.clone(), -(v.clone() * Expr::Var(w)).abs());
            });
        });
        let kid = program.add_kernel(kb.finish());
        (program, kid)
    };
    let buffers = [Data::F32(mixed_inputs(lanes)), Data::F32(vec![0.0; lanes])];
    let (program, kid) = build(10, 18);
    for reference in assert_masked_agree(
        &program,
        kid,
        Dim2::linear(1),
        Dim2::linear(lanes),
        &buffers,
        &[],
        false,
    ) {
        assert!(reference[0].1.is_ok());
        let stored = reference[0].0[1].iter().filter(|&&b| b != 0).count();
        assert_eq!(stored, 8);
    }
    let (program, kid) = build(8, 96);
    assert_masked_error(
        &program,
        kid,
        Dim2::linear(lanes),
        &buffers,
        EvalError::OperandTypeMismatch {
            lhs: Ty::I32,
            rhs: Ty::F32,
        },
    );

    // Inactive lanes never leak: a cast reads `v` on every lane, legally
    // (lane by lane — the types differ), and must find the filler's zero
    // outside 8..20 whatever the register held before.
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("narrow_then_cast");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::I32, MemSpace::Global);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let x = kb.let_("x", kb.load(input, tid.clone()));
    let busy = kb.let_("busy", (x.clone() * Expr::f32(3.0) + Expr::f32(7.0)).abs());
    let mut v = None;
    kb.if_(
        tid.clone().ge(Expr::i32(8)) & tid.clone().lt(Expr::i32(20)),
        |kb| v = Some(kb.let_("v", x.clone() * busy + Expr::f32(40.0))),
    );
    kb.store(output, tid, v.unwrap().cast(Ty::I32));
    let kid = program.add_kernel(kb.finish());
    let cast_buffers = [Data::F32(mixed_inputs(lanes)), Data::I32(vec![-1; lanes])];
    for reference in assert_masked_agree(
        &program,
        kid,
        Dim2::linear(1),
        Dim2::linear(lanes),
        &cast_buffers,
        &[],
        true,
    ) {
        assert!(reference[0].1.is_ok());
        for (lane, &got) in reference[0].0[1].iter().enumerate() {
            assert_eq!(got != 0, (8..20).contains(&lane), "lane {lane}: {got:#x}");
        }
    }

    // The same for the control ops: a condition, a loop bound and a loop
    // step amount first written on lanes 8..20 and consumed on lanes 8..
    let control = |which: usize| {
        let mut program = Program::new();
        let mut kb = KernelBuilder::new("narrow_then_wide_control");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let tid = kb.let_("tid", KernelBuilder::thread_id_x());
        let x = kb.let_("x", kb.load(input, tid.clone()));
        kb.if_(tid.clone().ge(Expr::i32(8)), |kb| {
            let (mut c, mut bound) = (None, None);
            kb.if_(tid.clone().lt(Expr::i32(20)), |kb| {
                c = Some(kb.let_("c", x.clone().gt(Expr::f32(0.0))));
                bound = Some(kb.let_("bound", x.clone().abs() + Expr::f32(2.0)));
            });
            let (c, bound) = (c.unwrap(), bound.unwrap());
            let acc = kb.let_mut("acc", Ty::F32, x.clone());
            match which {
                0 => kb.if_(c, |kb| kb.assign(acc, Expr::Var(acc) + Expr::f32(1.0))),
                1 => kb.assign(acc, c.select(Expr::Var(acc), x.clone())),
                2 => kb.for_loop(
                    "f",
                    Expr::f32(0.0),
                    LoopCond::Lt(bound),
                    LoopStep::Add(Expr::f32(1.0)),
                    |kb, f| kb.assign(acc, Expr::Var(acc) + f),
                ),
                _ => kb.for_loop(
                    "f",
                    Expr::f32(0.0),
                    LoopCond::Lt(Expr::f32(2.0)),
                    LoopStep::Add(bound),
                    |kb, f| kb.assign(acc, Expr::Var(acc) + f),
                ),
            }
            kb.store(output, tid.clone(), Expr::Var(acc));
        });
        let kid = program.add_kernel(kb.finish());
        (program, kid)
    };
    let not_bool = EvalError::TypeMismatch {
        expected: Ty::Bool,
        found: Ty::I32,
    };
    let f32_vs_filler = EvalError::OperandTypeMismatch {
        lhs: Ty::F32,
        rhs: Ty::I32,
    };
    for (which, want) in [
        (0, not_bool.clone()),
        (1, not_bool),
        (2, f32_vs_filler.clone()),
        (3, f32_vs_filler),
    ] {
        let (program, kid) = control(which);
        assert_masked_error(&program, kid, Dim2::linear(lanes), &buffers, want);
    }
}

#[test]
fn active_lanes_of_two_types_go_lane_by_lane_and_agree() {
    // `i` is `u32` on the first 40 lanes of each block and `i32` on the
    // rest: no op over it has one active tag, none is an error. Every op
    // class meets the row — and counts as a per-lane fallback.
    let lanes = 96usize;
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("two_types");
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let flags = kb.buffer("flags", Ty::I32, MemSpace::Global);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let i = kb.let_mut("i", Ty::I32, gid.clone() + Expr::i32(1));
    kb.if_(tid.clone().lt(Expr::i32(40)), |kb| {
        kb.assign(i, Expr::Var(i).cast(Ty::U32));
    });
    kb.if_(tid.rem(Expr::i32(5)).ne_(Expr::i32(0)), |kb| {
        let twice = kb.let_("twice", Expr::Var(i) + Expr::Var(i));
        let inverted = kb.let_("inverted", not(Expr::Var(i)));
        let less = kb.let_("less", Expr::Var(i).lt(twice.clone()));
        let wide = kb.let_("wide", twice.clone().cast(Ty::F32));
        let acc = kb.let_mut(
            "acc",
            Ty::F32,
            less.clone().select(wide, inverted.clone().cast(Ty::F32)),
        );
        // A loop whose variable, bound and step amount are all the mixed
        // row: one trip per lane.
        kb.for_loop(
            "j",
            Expr::Var(i),
            LoopCond::Lt(twice.clone()),
            LoopStep::Add(Expr::Var(i)),
            |kb, j| kb.assign(acc, Expr::Var(acc) + j.cast(Ty::F32)),
        );
        // A select whose arms differ in type per lane group merges lane
        // by lane too.
        let either = kb.let_("either", less.select(twice, inverted));
        kb.store(output, gid.clone(), Expr::Var(acc) + either.cast(Ty::F32));
        kb.store(flags, gid, Expr::Var(i).cast(Ty::I32));
    });
    let kid = program.add_kernel(kb.finish());
    let buffers = [
        Data::F32(vec![0.0; 2 * lanes]),
        Data::I32(vec![0; 2 * lanes]),
    ];
    for reference in assert_masked_agree(
        &program,
        kid,
        Dim2::linear(2),
        Dim2::linear(lanes),
        &buffers,
        &[],
        true,
    ) {
        let (contents, result) = &reference[0];
        assert!(result.is_ok(), "{result:?}");
        for (lane, (&out, &flag)) in contents[0].iter().zip(&contents[1]).enumerate() {
            let active = !(lane % lanes).is_multiple_of(5);
            let i = lane as u32 + 1;
            let want = if active {
                (5.0 * i as f32).to_bits()
            } else {
                0
            };
            assert_eq!(out, want, "lane {lane}");
            assert_eq!(flag, if active { i } else { 0 });
        }
    }
}

// ---------------------------------------------------------------------------
// Partial-mask memory: loads and stores on the masked strips
// ---------------------------------------------------------------------------
//
// A load or store takes the strip path when its index row's *active* lanes
// are all `i32` or all `u32` and (stores) its value row's active lanes all
// have the buffer's type, whatever the inactive lanes hold — so an `f32`
// row written under a guard, which is mixed (`i32` filler outside it),
// stays on the strips. The cases below pit that against the per-lane
// oracle under ragged and divergent masks, with `assert_mem_agree`'s
// engines × 1/2/4 workers × canonical and permuted store order, and count
// the bytecode engine's memory fallbacks: zero on every eligible access.

/// `LaunchStats::mem_fallback_ops` of a successful single-worker bytecode
/// run on the GPU profile.
fn mem_fallbacks(
    program: &Program,
    kid: KernelId,
    shape: (Dim2, Dim2),
    buffers: &[(MemSpace, Data)],
    approx_rate: f64,
    seed: Option<u64>,
) -> u64 {
    let profile = DeviceProfile::gtx560();
    let (_, result) = run_mem(
        profile,
        seed,
        approx_rate,
        program,
        kid,
        shape.0,
        shape.1,
        buffers,
    );
    result.expect("launch succeeds").0.mem_fallback_ops
}

/// (a) An `f32` row computed under the ragged guard `gid < limit`, stored
/// to global memory (`out`) and to shared memory, which is read back under
/// the full mask (`staged`); (b) a `u32` index row computed under
/// `gid % 3 != 0`, loaded and stored through (`perm`, a bijection on
/// `0..total`).
fn partial_mask_memory_program(lanes: usize, limit: i32, total: u32) -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("partial_mask_memory");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let staged = kb.buffer("staged", Ty::F32, MemSpace::Global);
    let perm = kb.buffer("perm", Ty::F32, MemSpace::Global);
    let s = kb.shared_array("s", Ty::F32, lanes);
    let tid = kb.let_("tid", KernelBuilder::thread_id_x());
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.if_(gid.clone().lt(Expr::i32(limit)), |kb| {
        let x = kb.let_(
            "x",
            kb.load(input, gid.clone()) * Expr::f32(2.0) + Expr::f32(1.0),
        );
        kb.store(out, gid.clone(), x.clone());
        kb.store(s, tid.clone(), x);
    });
    kb.sync();
    kb.store(staged, gid.clone(), kb.load(s, tid));
    kb.if_(gid.clone().rem(Expr::i32(3)).ne_(Expr::i32(0)), |kb| {
        let j = kb.let_(
            "j",
            (gid.clone().cast(Ty::U32) * Expr::u32(7) + Expr::u32(3)).rem(Expr::u32(total)),
        );
        let v = kb.let_("v", kb.load(input, j.clone()));
        kb.store(perm, j, v - Expr::f32(0.5));
    });
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

#[test]
fn guarded_f32_stores_and_partial_u32_indices_take_the_strips() {
    // Three 96-lane blocks: two mask words each, the second ragged; the
    // guard ends inside the last block's first word.
    let (lanes, blocks, limit) = (96usize, 3usize, 230usize);
    let total = lanes * blocks;
    let (program, kid) = partial_mask_memory_program(lanes, limit as i32, total as u32);
    let input = mixed_inputs(total);
    let buffers = [
        (MemSpace::Global, Data::F32(input.clone())),
        (MemSpace::Global, Data::F32(vec![0.0; total])),
        (MemSpace::Global, Data::F32(vec![0.0; total])),
        (MemSpace::Global, Data::F32(vec![0.0; total])),
    ];
    let shape = (Dim2::linear(blocks), Dim2::linear(lanes));
    let guarded: Vec<u32> = (0..total)
        .map(|g| {
            if g < limit {
                (input[g] * 2.0 + 1.0).to_bits()
            } else {
                0
            }
        })
        .collect();
    let mut permuted = vec![0; total];
    for g in (0..total).filter(|g| g % 3 != 0) {
        let j = (g * 7 + 3) % total;
        permuted[j] = (input[j] - 0.5).to_bits();
    }
    for reference in assert_mem_agree(&program, kid, shape.0, shape.1, &buffers, 0.0) {
        assert!(reference.1.is_ok(), "{:?}", reference.1);
        assert_eq!(reference.0[1], guarded, "global store under the guard");
        assert_eq!(reference.0[2], guarded, "shared store under the guard");
        assert_eq!(reference.0[3], permuted, "u32 index under a partial mask");
    }
    for seed in [None, Some(0x5EED_0DD5)] {
        assert_eq!(
            mem_fallbacks(&program, kid, shape, &buffers, 0.0, seed),
            0,
            "seed {seed:?}"
        );
    }
}

/// `out[idx[gid]] = v` under `gid % 3 != 0`, where `v` is `in[gid]` except
/// on lane `mistyped`, which holds its `i32` lane id.
fn mistyped_scatter_program(mistyped: Option<i32>) -> (Program, KernelId) {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("mistyped_scatter");
    let idx = kb.buffer("idx", Ty::I32, MemSpace::Global);
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let i = kb.let_("i", kb.load(idx, gid.clone()));
    let v = kb.let_mut("v", Ty::F32, kb.load(input, gid.clone()));
    if let Some(lane) = mistyped {
        kb.if_(gid.clone().eq_(Expr::i32(lane)), |kb| {
            kb.assign(v, gid.clone());
        });
    }
    kb.if_(gid.rem(Expr::i32(3)).ne_(Expr::i32(0)), |kb| {
        kb.store(output, i, Expr::Var(v));
    });
    let kid = program.add_kernel(kb.finish());
    (program, kid)
}

#[test]
fn out_of_bounds_and_mistyped_lanes_under_a_partial_mask_fail_at_the_oracles_lane() {
    use paraprox_ir::EvalError;
    // One block. Lanes 12 and 39 are inactive (multiples of 3), 13, 40
    // and 70 active.
    let n = 96usize;
    let shape = (Dim2::linear(1), Dim2::linear(n));
    let mismatch = EvalError::TypeMismatch {
        expected: Ty::F32,
        found: Ty::I32,
    };
    for bad in [1000i32, -1] {
        let oob = EvalError::OutOfBounds {
            index: i64::from(bad),
            len: n,
        };
        for (bad_lane, mistyped, want) in [
            // Inactive faults only: the strip path, no error.
            (12, None, None),
            (12, Some(39), None),
            // An active out-of-bounds lane on the strip path.
            (13, None, Some(oob.clone())),
            // Active lanes of two types go lane by lane; the lower failing
            // lane decides.
            (13, Some(40), Some(oob.clone())),
            (70, Some(40), Some(mismatch.clone())),
            (12, Some(40), Some(mismatch.clone())),
        ] {
            let (program, kid) = mistyped_scatter_program(mistyped);
            let mut idx = shuffled(n);
            idx[bad_lane] = bad;
            let buffers = [
                (MemSpace::Global, Data::I32(idx)),
                (MemSpace::Global, Data::F32(mixed_inputs(n))),
                (MemSpace::Global, Data::F32(vec![0.0; n])),
            ];
            let refs = assert_mem_agree(&program, kid, shape.0, shape.1, &buffers, 0.0);
            for reference in &refs {
                match &want {
                    None => assert!(reference.1.is_ok(), "{:?}", reference.1),
                    Some(want) => assert_eq!(
                        &eval_error(reference),
                        want,
                        "bad lane {bad_lane}, mistyped {mistyped:?}"
                    ),
                }
            }
            match want {
                None => assert_eq!(mem_fallbacks(&program, kid, shape, &buffers, 0.0, None), 0),
                // The active lanes below the first active fault stored, and
                // the failed launch reverted them.
                Some(_) => {
                    let out = &refs[0].0[2];
                    assert!(out.iter().all(|&b| b == 0), "bad lane {bad_lane}");
                }
            }
        }
    }
}

#[test]
fn approx_injection_and_permuted_stores_under_a_partial_mask_agree() {
    // Every third lane is off; the approximate buffer is read under that
    // mask at rate 1e-2 (per lane by nature), and the schedule seed of
    // `assert_mem_agree` permutes the stores. Neither counts as a fallback.
    let (blocks, lanes) = (8usize, 64usize);
    let n = blocks * lanes;
    let shape = (Dim2::linear(blocks), Dim2::linear(lanes));
    let active = (0..n).filter(|g| g % 3 != 0).count() as u64;
    for scatter in [false, true] {
        let (program, kid) = indirect_program(Ty::I32, scatter, true);
        let buffers = [
            (MemSpace::Global, Data::I32(shuffled(n))),
            (MemSpace::Approx, Data::F32(mixed_inputs(n))),
            (MemSpace::Global, Data::F32(vec![0.0; n])),
        ];
        for reference in assert_mem_agree(&program, kid, shape.0, shape.1, &buffers, 1e-2) {
            let (_, approx_loads, bit_flips) = reference.1.clone().expect("launch succeeds");
            assert_eq!(approx_loads, active, "scatter {scatter}");
            assert!(bit_flips > 0, "scatter {scatter}: no flip at 1e-2");
        }
        for seed in [None, Some(0x5EED_0DD5)] {
            for rate in [0.0, 1e-2] {
                assert_eq!(
                    mem_fallbacks(&program, kid, shape, &buffers, rate, seed),
                    0,
                    "scatter {scatter}, seed {seed:?}, rate {rate}"
                );
            }
        }
    }
}
