//! Direct tests of the compile pipeline's variant wiring: buffer-table
//! extensions for lookup tables, launch-argument plumbing, knob labeling,
//! the safety-guard option, and the DeviceApp adapter's contract.

use paraprox::{
    compile, latency_table_for, CompileOptions, Device, DeviceApp, DeviceProfile, Knob, Metric,
    Workload,
};
use paraprox_ir::{Expr, FuncBuilder, KernelBuilder, MemSpace, Program, Scalar, Ty};
use paraprox_runtime::{Approximable, RunOutcome};
use paraprox_vgpu::{BufferInit, BufferSpec, Dim2, LaunchPlan, Pipeline, PlanArg};

/// A minimal map workload with a memoizable function and a division that
/// consumes its result.
fn tiny_map_workload() -> Workload {
    let mut program = Program::new();
    let mut fb = FuncBuilder::new("heavy", Ty::F32);
    let x = fb.scalar("x", Ty::F32);
    fb.ret((x.clone().log() / x.clone().sqrt()).exp() / (x + Expr::f32(2.0)));
    let func = program.add_func(fb.finish());

    let mut kb = KernelBuilder::new("map");
    let input = kb.buffer("in", Ty::F32, MemSpace::Global);
    let output = kb.buffer("out", Ty::F32, MemSpace::Global);
    let gid = kb.let_("gid", KernelBuilder::global_id_x());
    let v = kb.let_("v", kb.load(input, gid.clone()));
    let r = kb.let_(
        "r",
        Expr::Call {
            func,
            args: vec![v.clone()],
        },
    );
    // A division by an approximated value, for the safety-guard test.
    kb.store(output, gid, v / r);
    let kernel = program.add_kernel(kb.finish());

    let n = 1024usize;
    let data: Vec<f32> = (0..n).map(|i| 0.5 + i as f32 * 0.1).collect();
    let mut pipeline = Pipeline::default();
    let in_b = pipeline.add_buffer(BufferSpec::global("in", BufferInit::F32(data.clone())));
    let out_b = pipeline.add_buffer(BufferSpec::zeroed_f32("out", n));
    pipeline.launches.push(LaunchPlan {
        kernel,
        grid: Dim2::linear(n / 32),
        block: Dim2::linear(32),
        args: vec![PlanArg::Buffer(in_b), PlanArg::Buffer(out_b)],
    });
    pipeline.outputs = vec![out_b];

    let training: Vec<Vec<Scalar>> = data.iter().map(|&v| vec![Scalar::F32(v)]).collect();
    Workload::new("tiny", program, pipeline, Metric::MeanRelative)
        .with_training(func, training)
        .with_input_slots(vec![in_b])
}

#[test]
fn memo_variant_extends_buffer_table_and_launch_args() {
    let w = tiny_map_workload();
    let table = latency_table_for(&DeviceProfile::gtx560());
    let compiled = compile(&w, &table, &CompileOptions::minimal()).unwrap();
    assert_eq!(compiled.variants.len(), 1);
    let v = &compiled.variants[0];
    assert!(matches!(v.knob, Knob::Memo { bits: 10, .. }));
    assert_eq!(v.label, "memo:10b:nearest:global");
    // One lookup-table buffer appended, bound to the launch.
    assert_eq!(v.pipeline.buffers.len(), w.pipeline.buffers.len() + 1);
    assert_eq!(
        v.pipeline.launches[0].args.len(),
        w.pipeline.launches[0].args.len() + 1
    );
    // The table holds 2^10 entries.
    let lut = v.pipeline.buffers.last().unwrap();
    assert_eq!(lut.init.len(), 1024);
    // Program kernel gained the lut parameter.
    let k = v.program.kernel(paraprox_ir::KernelId(0));
    assert_eq!(k.params.len(), 3);
}

#[test]
fn variants_execute_and_approximate_well() {
    let w = tiny_map_workload();
    let table = latency_table_for(&DeviceProfile::gtx560());
    let compiled = compile(&w, &table, &CompileOptions::minimal()).unwrap();
    let mut device = Device::new(DeviceProfile::gtx560());
    let exact = w.pipeline.execute(&mut device, &w.program).unwrap();
    let v = &compiled.variants[0];
    let approx = v.pipeline.execute(&mut device, &v.program).unwrap();
    let q = Metric::MeanRelative.quality(&exact.flat_output(), &approx.flat_output());
    assert!(q > 95.0, "quality = {q}");
    assert!(approx.stats.total_cycles() < exact.stats.total_cycles());
}

#[test]
fn guard_divisions_option_instruments_variants() {
    let w = tiny_map_workload();
    let table = latency_table_for(&DeviceProfile::gtx560());
    let mut options = CompileOptions::minimal();
    options.guard_divisions = true;
    let compiled = compile(&w, &table, &options).unwrap();
    let v = &compiled.variants[0];
    // The original kernel's division (v / r) must now sit behind a select.
    let mut selects = 0;
    paraprox_ir::for_each_expr_in_stmts(
        &v.program.kernel(paraprox_ir::KernelId(0)).body,
        &mut |e| {
            if matches!(e, paraprox_ir::Expr::Select { .. }) {
                selects += 1;
            }
        },
    );
    assert!(selects >= 1, "guarded division must emit a select");
    // And it still runs.
    let mut device = Device::new(DeviceProfile::gtx560());
    v.pipeline.execute(&mut device, &v.program).unwrap();
}

#[test]
fn device_app_regenerates_inputs_per_seed() {
    let w = tiny_map_workload();
    let table = latency_table_for(&DeviceProfile::gtx560());
    let compiled = compile(&w, &table, &CompileOptions::minimal()).unwrap();
    let gen = Box::new(|seed: u64| {
        let base = seed as f32 * 0.01 + 0.5;
        vec![BufferInit::F32(
            (0..1024).map(|i| base + i as f32 * 0.1).collect(),
        )]
    });
    let mut app = DeviceApp::new(Device::new(DeviceProfile::gtx560()), &compiled, gen);
    let a: RunOutcome = app.run_exact(1).unwrap();
    let b = app.run_exact(1).unwrap();
    let c = app.run_exact(2).unwrap();
    assert_eq!(a, b, "same seed reproduces");
    assert_ne!(a.output, c.output, "different seed differs");
    // Variant runs accept the same seeds.
    let v = app.run_variant(0, 1).unwrap();
    assert_eq!(v.output.len(), a.output.len());
    assert_eq!(app.variant_count(), 1);
    assert_eq!(app.variant_label(0), "memo:10b:nearest:global");
}

#[test]
fn device_app_rejects_wrong_input_arity() {
    let w = tiny_map_workload();
    let table = latency_table_for(&DeviceProfile::gtx560());
    let compiled = compile(&w, &table, &CompileOptions::minimal()).unwrap();
    let gen = Box::new(|_seed: u64| {
        vec![
            BufferInit::F32(vec![0.5; 1024]),
            BufferInit::F32(vec![0.5; 1024]), // one too many
        ]
    });
    let mut app = DeviceApp::new(Device::new(DeviceProfile::gtx560()), &compiled, gen);
    assert!(app.run_exact(0).is_err());
}

#[test]
fn tuner_sweep_compiles_each_candidate_kernel_once() {
    // The tuner runs the exact program and every variant 10 times each;
    // the device's program cache must compile each distinct kernel exactly
    // once for the whole sweep, and a second sweep must add no compiles.
    let w = tiny_map_workload();
    let table = latency_table_for(&DeviceProfile::gtx560());
    let compiled = compile(&w, &table, &CompileOptions::minimal()).unwrap();
    assert!(!compiled.variants.is_empty());
    let gen = Box::new(|seed: u64| {
        let base = seed as f32 * 0.01 + 0.5;
        vec![BufferInit::F32(
            (0..1024).map(|i| base + i as f32 * 0.1).collect(),
        )]
    });
    let mut app = DeviceApp::new(Device::new(DeviceProfile::gtx560()), &compiled, gen);
    let tuner = paraprox::Tuner::paper_default();
    tuner.tune(&mut app).unwrap();
    let after_first = app.device_mut().compile_count();
    // Upper bound: every kernel of the exact program plus every kernel of
    // every variant compiled at most once, despite 10 runs each.
    let distinct: u64 = (w.program.kernel_count()
        + compiled
            .variants
            .iter()
            .map(|v| v.program.kernel_count())
            .sum::<usize>()) as u64;
    assert!(after_first >= 1);
    assert!(
        after_first <= distinct,
        "tuner recompiled kernels: {after_first} compiles for {distinct} distinct kernels"
    );
    // A second identical sweep hits the cache for everything.
    tuner.tune(&mut app).unwrap();
    assert_eq!(app.device_mut().compile_count(), after_first);
}

#[test]
fn empty_options_produce_no_variants() {
    let w = tiny_map_workload();
    let table = latency_table_for(&DeviceProfile::gtx560());
    let options = CompileOptions {
        memo_bits: vec![],
        memo_modes: vec![],
        memo_placements: vec![],
        stencil_schemes: vec![],
        stencil_reaches: vec![],
        reduction_skips: vec![],
        scan_skip_fractions: vec![],
        guard_divisions: false,
    };
    let compiled = compile(&w, &table, &options).unwrap();
    assert!(compiled.variants.is_empty());
    assert!(compiled.pattern_names().contains(&"map"));
}
