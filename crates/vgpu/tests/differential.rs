//! Differential and randomized testing of the SIMT interpreter.
//!
//! The interpreter and the pure evaluator (`paraprox_ir::eval_func`) are
//! two independent implementations of the IR's semantics; running randomly
//! generated pure functions through both and comparing the results guards
//! each against the other. Cases are drawn from the in-repo deterministic
//! PRNG, so every run exercises the same corpus.

use paraprox_ir::{
    eval_func, Expr, Func, FuncId, KernelBuilder, LocalDecl, LoopCond, LoopStep, MemSpace, Param,
    Program, Scalar, Stmt, Ty, VarId,
};
use paraprox_prng::Rng;
use paraprox_vgpu::{Device, DeviceProfile, Dim2};

/// Locals of a generated function: `v0: f32` bound from `x`, `v1: i32`
/// (the digit loop's remainder), `v2: f32` (its accumulator) and the loop
/// counter `v3: i32`.
const X: VarId = VarId(0);
const REST: VarId = VarId(1);
const ACC: VarId = VarId(2);
const I: VarId = VarId(3);

/// A compact generator of pure f32 expression trees over the parameter
/// `x` (`Param(0)`), the local `v0`, and integer subtrees cast to `f32`.
fn gen_expr(r: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || r.random_range(0u32..4) == 0 {
        return match r.random_range(0u32..3) {
            0 => Expr::f32(r.random_range(-4.0f32..4.0)),
            1 => Expr::Param(0),
            _ => Expr::Var(X),
        };
    }
    let a = gen_expr(r, depth - 1);
    match r.random_range(0u32..10) {
        0 => a + gen_expr(r, depth - 1),
        1 => a - gen_expr(r, depth - 1),
        2 => a * gen_expr(r, depth - 1),
        3 => a.min(gen_expr(r, depth - 1)),
        4 => a.max(gen_expr(r, depth - 1)),
        5 => a.abs(),
        6 => (a.abs() + Expr::f32(0.5)).sqrt(),
        7 => a.min(Expr::f32(8.0)).exp(),
        8 => gen_int(r, depth - 1).cast(Ty::F32),
        _ => a
            .lt(Expr::f32(0.0))
            .select(gen_expr(r, depth - 1), gen_expr(r, depth - 1)),
    }
}

/// The `i32` counterpart of [`gen_expr`], over the parameter `k`
/// (`Param(1)`) and the local `v1`. Divisors are forced into `1..=8`, so
/// integer `/` and `%` never trap.
fn gen_int(r: &mut Rng, depth: u32) -> Expr {
    if depth == 0 || r.random_range(0u32..4) == 0 {
        return match r.random_range(0u32..3) {
            0 => Expr::i32(r.random_range(-20i32..20)),
            1 => Expr::Param(1),
            _ => Expr::Var(REST),
        };
    }
    let a = gen_int(r, depth - 1);
    let divisor = |r: &mut Rng| (gen_int(r, depth - 1) & Expr::i32(7)) + Expr::i32(1);
    match r.random_range(0u32..6) {
        0 => a + gen_int(r, depth - 1),
        1 => a - gen_int(r, depth - 1),
        2 => a * gen_int(r, depth - 1),
        3 => a / divisor(r),
        4 => a.rem(divisor(r)),
        _ => gen_expr(r, depth - 1).cast(Ty::I32),
    }
}

/// A pure function `f(x: f32, k: i32) -> f32` built from the constructs
/// memoized functions use: a base-3 digit loop counted by `k & 7` (the
/// quasirandom generator's shape, divergent across lanes), an `if` with an
/// early `return`, and a final `return`.
fn generated_function(r: &mut Rng) -> Func {
    let local = |name: &str, ty| LocalDecl {
        name: name.to_string(),
        ty,
    };
    let digit = Expr::Var(REST).rem(Expr::i32(3)).cast(Ty::F32);
    Func {
        name: "generated".to_string(),
        params: vec![
            Param::Scalar {
                name: "x".to_string(),
                ty: Ty::F32,
            },
            Param::Scalar {
                name: "k".to_string(),
                ty: Ty::I32,
            },
        ],
        ret: Ty::F32,
        locals: vec![
            local("v0", Ty::F32),
            local("v1", Ty::I32),
            local("v2", Ty::F32),
            local("v3", Ty::I32),
        ],
        body: vec![
            Stmt::Let {
                var: X,
                init: Expr::Param(0) * Expr::f32(0.5) + Expr::f32(1.0),
            },
            Stmt::Let {
                var: REST,
                init: Expr::Param(1),
            },
            Stmt::Let {
                var: ACC,
                init: Expr::f32(0.0),
            },
            Stmt::For {
                var: I,
                init: Expr::i32(0),
                cond: LoopCond::Lt(Expr::Param(1) & Expr::i32(7)),
                step: LoopStep::Add(Expr::i32(1)),
                body: vec![
                    Stmt::Assign {
                        var: ACC,
                        value: Expr::Var(ACC) + digit * gen_expr(r, 2),
                    },
                    Stmt::Assign {
                        var: REST,
                        value: Expr::Var(REST) / Expr::i32(3),
                    },
                ],
            },
            Stmt::If {
                cond: gen_expr(r, 2).lt(gen_expr(r, 2)),
                then_body: vec![Stmt::Return(gen_expr(r, 4))],
                else_body: vec![],
            },
            Stmt::Return(gen_expr(r, 4) + Expr::Var(ACC)),
        ],
    }
}

/// The SIMT interpreter and the pure evaluator agree on every lane, bit
/// for bit (NaN equals NaN): memo tables and bit tuning take their values
/// from the interpreter, and the pure evaluator is their reference.
#[test]
fn interpreter_matches_pure_evaluator() {
    for case in 0..64u64 {
        let mut r = Rng::seed_from_u64(0xD1FF ^ case);
        let func = generated_function(&mut r);
        let n = r.random_range(8usize..32);
        let xs: Vec<f32> = (0..n).map(|_| r.random_range(-8.0f32..8.0)).collect();
        let ks: Vec<i32> = (0..n).map(|_| r.random_range(-1000i32..1000)).collect();

        let mut program = Program::new();
        let func_id: FuncId = program.add_func(func.clone());

        // Kernel applying the function to each element.
        let mut kb = KernelBuilder::new("apply");
        let in_x = kb.buffer("in_x", Ty::F32, MemSpace::Global);
        let in_k = kb.buffer("in_k", Ty::I32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let x = kb.let_("x", kb.load(in_x, gid.clone()));
        let k = kb.let_("k", kb.load(in_k, gid.clone()));
        kb.store(
            output,
            gid,
            Expr::Call {
                func: func_id,
                args: vec![x, k],
            },
        );
        let kid = program.add_kernel(kb.finish());

        // Pad to a full block.
        let lanes = n.next_multiple_of(8);
        let (mut data_x, mut data_k) = (xs.clone(), ks.clone());
        data_x.resize(lanes, 0.0);
        data_k.resize(lanes, 0);

        let mut device = Device::new(DeviceProfile::gtx560());
        let x_b = device.alloc_f32(MemSpace::Global, &data_x);
        let k_b = device.alloc_i32(MemSpace::Global, &data_k);
        let out_b = device.alloc_f32(MemSpace::Global, &vec![0.0; lanes]);
        device
            .launch(
                &program,
                kid,
                Dim2::linear(lanes / 8),
                Dim2::linear(8),
                &[x_b.into(), k_b.into(), out_b.into()],
            )
            .expect("launch");
        let simd = device.read_f32(out_b).expect("read");

        for (i, (&x, &k)) in xs.iter().zip(&ks).enumerate() {
            let scalar = eval_func(&program, &func, &[Scalar::F32(x), Scalar::I32(k)])
                .expect("pure eval")
                .as_f32()
                .expect("f32");
            let got = simd[i];
            assert!(
                got.to_bits() == scalar.to_bits() || (scalar.is_nan() && got.is_nan()),
                "case {case} lane {i} (x={x}, k={k}): interpreter {got} vs evaluator {scalar}"
            );
        }
    }
}

/// Warp/block decomposition is semantically invisible: any block shape
/// covering the same global indices produces identical results.
#[test]
fn block_shape_does_not_change_results() {
    for case in 0..16u64 {
        let mut r = Rng::seed_from_u64(0xB10C ^ case);
        let xs: Vec<f32> = (0..64).map(|_| r.random_range(-100.0f32..100.0)).collect();

        let mut program = Program::new();
        let mut kb = KernelBuilder::new("affine");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let x = kb.let_("x", kb.load(input, gid.clone()));
        let even = gid.clone().rem(Expr::i32(2)).eq_(Expr::i32(0));
        kb.store(
            output,
            gid,
            even.select(x.clone() * Expr::f32(3.0), x - Expr::f32(1.0)),
        );
        let kid = program.add_kernel(kb.finish());

        let run = |block: usize| {
            let mut device = Device::new(DeviceProfile::gtx560());
            let in_b = device.alloc_f32(MemSpace::Global, &xs);
            let out_b = device.alloc_f32(MemSpace::Global, &vec![0.0; 64]);
            device
                .launch(
                    &program,
                    kid,
                    Dim2::linear(64 / block),
                    Dim2::linear(block),
                    &[in_b.into(), out_b.into()],
                )
                .expect("launch");
            device.read_f32(out_b).expect("read")
        };
        let reference = run(64);
        for block in [8usize, 16, 32] {
            assert_eq!(run(block), reference, "case {case} block {block}");
        }
    }
}

/// Atomic accumulation is order-insensitive for integer addition: any
/// grid decomposition yields the same total.
#[test]
fn atomic_totals_independent_of_decomposition() {
    for case in 0..16u64 {
        let mut r = Rng::seed_from_u64(0xA70 ^ case);
        let values: Vec<i32> = (0..32).map(|_| r.random_range(0i32..100)).collect();

        let mut program = Program::new();
        let mut kb = KernelBuilder::new("sum");
        let input = kb.buffer("in", Ty::I32, MemSpace::Global);
        let total = kb.buffer("total", Ty::I32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let v = kb.let_("v", kb.load(input, gid.clone()));
        kb.atomic(paraprox_ir::AtomicOp::Add, total, Expr::i32(0), v);
        let kid = program.add_kernel(kb.finish());

        let expected: i32 = values.iter().sum();
        // 32 must be divisible by the block count for full coverage.
        for blocks in [1usize, 2, 4] {
            let mut device = Device::new(DeviceProfile::gtx560());
            let in_b = device.alloc_i32(MemSpace::Global, &values);
            let tot_b = device.alloc_i32(MemSpace::Global, &[0]);
            device
                .launch(
                    &program,
                    kid,
                    Dim2::linear(blocks),
                    Dim2::linear(32 / blocks),
                    &[in_b.into(), tot_b.into()],
                )
                .expect("launch");
            assert_eq!(
                device.read_i32(tot_b).expect("read")[0],
                expected,
                "case {case} blocks {blocks}"
            );
        }
    }
}

/// Cost accounting is deterministic: identical launches report
/// identical statistics.
#[test]
fn stats_are_deterministic() {
    for case in 0..8u64 {
        let mut r = Rng::seed_from_u64(0x57A7 ^ case);
        let xs: Vec<f32> = (0..32).map(|_| r.random_range(-10.0f32..10.0)).collect();

        let mut program = Program::new();
        let mut kb = KernelBuilder::new("k");
        let input = kb.buffer("in", Ty::F32, MemSpace::Global);
        let output = kb.buffer("out", Ty::F32, MemSpace::Global);
        let gid = kb.let_("gid", KernelBuilder::global_id_x());
        let x = kb.let_("x", kb.load(input, gid.clone()));
        kb.store(output, gid, x.exp());
        let kid = program.add_kernel(kb.finish());
        let run = || {
            let mut device = Device::new(DeviceProfile::gtx560());
            let in_b = device.alloc_f32(MemSpace::Global, &xs);
            let out_b = device.alloc_f32(MemSpace::Global, &[0.0; 32]);
            device
                .launch(
                    &program,
                    kid,
                    Dim2::linear(1),
                    Dim2::linear(32),
                    &[in_b.into(), out_b.into()],
                )
                .expect("launch")
        };
        assert_eq!(run(), run(), "case {case}");
    }
}
