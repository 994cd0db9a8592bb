//! Error-path coverage for the device and interpreter: every misuse class
//! must surface a typed, positioned error instead of UB or a panic.

use paraprox_ir::{Expr, KernelBuilder, MemSpace, Program, Scalar, Stmt, Ty, VarId};
use paraprox_vgpu::{Device, DeviceProfile, Dim2, LaunchError};

fn gpu() -> Device {
    Device::new(DeviceProfile::gtx560())
}

#[test]
fn return_in_kernel_body_is_rejected() {
    let mut program = Program::new();
    let kernel = paraprox_ir::Kernel {
        name: "bad".into(),
        params: vec![],
        shared: vec![],
        locals: vec![],
        body: vec![Stmt::Return(Expr::f32(0.0))],
    };
    let kid = program.add_kernel(kernel);
    let err = gpu()
        .launch(&program, kid, Dim2::linear(1), Dim2::linear(1), &[])
        .unwrap_err();
    assert!(err.to_string().contains("return"), "{err}");
}

#[test]
fn uninitialized_local_read_is_rejected() {
    let mut program = Program::new();
    let kernel = paraprox_ir::Kernel {
        name: "uninit".into(),
        params: vec![paraprox_ir::Param::Buffer {
            name: "out".into(),
            ty: Ty::F32,
            space: MemSpace::Global,
        }],
        shared: vec![],
        locals: vec![paraprox_ir::LocalDecl {
            name: "ghost".into(),
            ty: Ty::F32,
        }],
        body: vec![Stmt::Store {
            mem: paraprox_ir::MemRef::Param(0),
            index: Expr::i32(0),
            value: Expr::Var(VarId(0)),
        }],
    };
    let kid = program.add_kernel(kernel);
    let mut d = gpu();
    let out = d.alloc_f32(MemSpace::Global, &[0.0]);
    let err = d
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(1),
            &[out.into()],
        )
        .unwrap_err();
    assert!(err.to_string().contains("uninitialized"), "{err}");
}

#[test]
fn buffer_param_read_as_scalar_is_rejected() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("misuse");
    let buf = kb.buffer("b", Ty::F32, MemSpace::Global);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    // Expr::Param(0) reads the *buffer* parameter as if it were a scalar.
    kb.store(out, Expr::i32(0), Expr::Param(0));
    let _ = buf;
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let b = d.alloc_f32(MemSpace::Global, &[0.0]);
    let o = d.alloc_f32(MemSpace::Global, &[0.0]);
    let err = d
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(1),
            &[b.into(), o.into()],
        )
        .unwrap_err();
    assert!(err.to_string().contains("buffer parameter"), "{err}");
}

#[test]
fn scalar_param_used_as_buffer_is_rejected() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("misuse2");
    let n = kb.scalar("n", Ty::I32);
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    // Loading through the scalar parameter's index.
    let bogus = Expr::Load {
        mem: paraprox_ir::MemRef::Param(0),
        index: Box::new(Expr::i32(0)),
    };
    kb.store(out, Expr::i32(0), bogus);
    let _ = n;
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let o = d.alloc_f32(MemSpace::Global, &[0.0]);
    let err = d
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(1),
            &[Scalar::I32(1).into(), o.into()],
        )
        .unwrap_err();
    assert!(err.to_string().contains("scalar parameter"), "{err}");
}

#[test]
fn store_type_mismatch_is_rejected() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("tymis");
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    kb.store(out, Expr::i32(0), Expr::i32(7)); // i32 into f32 buffer
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let o = d.alloc_f32(MemSpace::Global, &[0.0]);
    let err = d
        .launch(&program, kid, Dim2::linear(1), Dim2::linear(1), &[o.into()])
        .unwrap_err();
    assert!(err.to_string().contains("type mismatch"), "{err}");
}

#[test]
fn store_to_constant_memory_is_rejected() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("wconst");
    let table = kb.buffer("t", Ty::F32, MemSpace::Constant);
    kb.store(table, Expr::i32(0), Expr::f32(1.0));
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let t = d.alloc_f32(MemSpace::Constant, &[0.0]);
    let err = d
        .launch(&program, kid, Dim2::linear(1), Dim2::linear(1), &[t.into()])
        .unwrap_err();
    assert!(err.to_string().contains("constant"), "{err}");
}

#[test]
fn integer_division_by_zero_surfaces() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("div0");
    let out = kb.buffer("out", Ty::I32, MemSpace::Global);
    let zero = kb.scalar("z", Ty::I32);
    kb.store(out, Expr::i32(0), Expr::i32(1) / zero);
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let o = d.alloc_i32(MemSpace::Global, &[0]);
    let err = d
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(1),
            &[o.into(), Scalar::I32(0).into()],
        )
        .unwrap_err();
    assert!(matches!(err, LaunchError::Eval { .. }));
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn negative_index_is_out_of_bounds() {
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("neg");
    let buf = kb.buffer("b", Ty::F32, MemSpace::Global);
    let v = kb.let_("v", kb.load(buf, Expr::i32(-1)));
    kb.store(buf, Expr::i32(0), v);
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let b = d.alloc_f32(MemSpace::Global, &[0.0; 4]);
    let err = d
        .launch(&program, kid, Dim2::linear(1), Dim2::linear(1), &[b.into()])
        .unwrap_err();
    assert!(err.to_string().contains("out of bounds"), "{err}");
}

#[test]
fn inactive_lanes_do_not_trap() {
    // A division by zero in a branch no lane takes must not fire — SIMT
    // semantics say inactive lanes execute nothing.
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("guarded");
    let out = kb.buffer("out", Ty::I32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.if_else(
        gid.clone().lt(Expr::i32(64)), // always true for this launch
        |kb| kb.store(out, gid.clone(), Expr::i32(1)),
        |kb| {
            let boom = Expr::i32(1) / Expr::i32(0);
            kb.store(out, gid.clone(), boom);
        },
    );
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let o = d.alloc_i32(MemSpace::Global, &[0; 32]);
    d.launch(
        &program,
        kid,
        Dim2::linear(1),
        Dim2::linear(32),
        &[o.into()],
    )
    .unwrap();
    assert_eq!(d.read_i32(o).unwrap(), vec![1; 32]);
}

#[test]
fn select_arms_execute_under_refined_masks() {
    // `x != 0 ? 1/x : 0` must not trap on zero lanes — the guard pattern
    // that the §5 safety pass emits.
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("sel");
    let input = kb.buffer("in", Ty::I32, MemSpace::Global);
    let out = kb.buffer("out", Ty::I32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let x = kb.let_("x", kb.load(input, gid.clone()));
    let safe = x
        .clone()
        .ne_(Expr::i32(0))
        .select(Expr::i32(100) / x, Expr::i32(0));
    kb.store(out, gid, safe);
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let i = d.alloc_i32(MemSpace::Global, &[4, 0, 5, 0]);
    let o = d.alloc_i32(MemSpace::Global, &[0; 4]);
    d.launch(
        &program,
        kid,
        Dim2::linear(1),
        Dim2::linear(4),
        &[i.into(), o.into()],
    )
    .unwrap();
    assert_eq!(d.read_i32(o).unwrap(), vec![25, 0, 20, 0]);
}

#[test]
fn partial_warp_blocks_work() {
    // Block of 48 threads = one full warp + one half warp.
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("partial");
    let out = kb.buffer("out", Ty::I32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(out, gid.clone(), gid);
    let kid = program.add_kernel(kb.finish());
    let mut d = gpu();
    let o = d.alloc_i32(MemSpace::Global, &[-1; 48]);
    let stats = d
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(48),
            &[o.into()],
        )
        .unwrap();
    assert_eq!(stats.warps, 2);
    let vals = d.read_i32(o).unwrap();
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v as usize, i);
    }
}

#[test]
fn a_failed_launch_leaves_its_buffers_untouched() {
    // Every thread stores 7.0, then the first thread of the failing block
    // (global id `bad`) stores out of bounds. Whatever the grid, the
    // worker count, and the failing block, the launch reports the fault
    // and `out` keeps its contents: a single block logs and reverts its
    // writes like any other.
    let mut program = Program::new();
    let mut kb = KernelBuilder::new("store_then_fault");
    let out = kb.buffer("out", Ty::F32, MemSpace::Global);
    let bad = kb.scalar("bad", Ty::I32);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    kb.store(out, gid.clone(), Expr::f32(7.0));
    kb.if_(gid.eq_(bad), |kb| {
        kb.store(out, Expr::i32(1000), Expr::f32(1.0))
    });
    let kid = program.add_kernel(kb.finish());
    for workers in [1, 2] {
        for (grid, bad) in [(1usize, 0i32), (2, 0), (2, 32)] {
            let mut d = Device::new(DeviceProfile::gtx560().with_parallelism(workers));
            let o = d.alloc_f32(MemSpace::Global, &vec![0.0; 32 * grid]);
            let err = d
                .launch(
                    &program,
                    kid,
                    Dim2::linear(grid),
                    Dim2::linear(32),
                    &[o.into(), Scalar::I32(bad).into()],
                )
                .unwrap_err();
            assert!(err.to_string().contains("out of bounds"), "{err}");
            assert_eq!(
                d.read_f32(o).unwrap(),
                vec![0.0; 32 * grid],
                "grid {grid}, global id {bad} faults, {workers} workers"
            );
        }
    }
}
