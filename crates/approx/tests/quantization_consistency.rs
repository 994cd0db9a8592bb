//! The memoized kernel's IR-level quantization must agree bit-for-bit with
//! the host-side quantization used to build the table — otherwise lookups
//! read the wrong entry near level boundaries.

use paraprox_approx::{
    build_table, memoize_kernel, InputRange, LookupMode, MemoConfig, TablePlacement,
};
use paraprox_ir::{Expr, FuncBuilder, KernelBuilder, MemSpace, Program, Scalar, Ty};
use paraprox_prng::Rng;
use paraprox_vgpu::{Device, DeviceProfile, Dim2};

/// Build a single-input heavy function with a known analytic form.
fn make_program() -> (Program, paraprox_ir::FuncId, paraprox_ir::KernelId) {
    let mut program = Program::new();
    let mut fb = FuncBuilder::new("f", Ty::F32);
    let x = fb.scalar("x", Ty::F32);
    fb.ret((x.clone() * x.clone() + Expr::f32(1.0)).sqrt() / (x + Expr::f32(3.0)));
    let func = program.add_func(fb.finish());

    let mut kb = KernelBuilder::new("map");
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
    let kernel = program.add_kernel(kb.finish());
    (program, func, kernel)
}

/// Every lane's memoized output equals `table[level_of(input)]` exactly.
#[test]
fn kernel_lookup_matches_host_quantization() {
    for case in 0..32u64 {
        let mut r = Rng::seed_from_u64(0x9_0001 ^ case);
        let min = r.random_range(-10.0f32..10.0);
        let width = r.random_range(0.5f32..20.0);
        let q = r.random_range(2u32..10);
        let xs: Vec<f32> = (0..16).map(|_| r.random_range(-40.0f32..40.0)).collect();
        let (program, func, kernel) = make_program();
        let range = InputRange {
            min,
            max: min + width,
        };
        let config = MemoConfig {
            func,
            split: vec![q],
            mode: LookupMode::Nearest,
            placement: TablePlacement::Global,
            ranges: vec![range],
        };
        let table = build_table(&program, &config).expect("table");
        let variant = memoize_kernel(&program, kernel, &config).expect("memoize");

        let mut device = Device::new(DeviceProfile::gtx560());
        let in_b = device.alloc_f32(MemSpace::Global, &xs);
        let out_b = device.alloc_f32(MemSpace::Global, &vec![0.0; xs.len()]);
        let lut_b = device.alloc_f32(MemSpace::Global, &variant.table);
        device
            .launch(
                &variant.program,
                kernel,
                Dim2::linear(1),
                Dim2::linear(xs.len()),
                &[in_b.into(), out_b.into(), lut_b.into()],
            )
            .expect("launch");
        let out = device.read_f32(out_b).expect("read");
        for (i, &x) in xs.iter().enumerate() {
            let expected = table[range.level_of(x, q) as usize];
            assert_eq!(
                out[i],
                expected,
                "lane {} (x={}, level={})",
                i,
                x,
                range.level_of(x, q)
            );
        }
    }
}

/// Linear mode never reads out of the table and interpolates within the
/// two neighboring entries' value range.
#[test]
fn linear_lookup_bounded_by_neighbor_entries() {
    for case in 0..32u64 {
        let mut r = Rng::seed_from_u64(0x9_0002 ^ case);
        let q = r.random_range(3u32..10);
        let xs: Vec<f32> = (0..16).map(|_| r.random_range(0.0f32..1.0)).collect();
        let (program, func, kernel) = make_program();
        let range = InputRange { min: 0.0, max: 1.0 };
        let config = MemoConfig {
            func,
            split: vec![q],
            mode: LookupMode::Linear,
            placement: TablePlacement::Global,
            ranges: vec![range],
        };
        let table = build_table(&program, &config).expect("table");
        let variant = memoize_kernel(&program, kernel, &config).expect("memoize");

        let mut device = Device::new(DeviceProfile::gtx560());
        let in_b = device.alloc_f32(MemSpace::Global, &xs);
        let out_b = device.alloc_f32(MemSpace::Global, &vec![0.0; xs.len()]);
        let lut_b = device.alloc_f32(MemSpace::Global, &variant.table);
        device
            .launch(
                &variant.program,
                kernel,
                Dim2::linear(1),
                Dim2::linear(xs.len()),
                &[in_b.into(), out_b.into(), lut_b.into()],
            )
            .expect("launch");
        let out = device.read_f32(out_b).expect("read");
        for (i, _) in xs.iter().enumerate() {
            let lo = table.iter().cloned().fold(f32::INFINITY, f32::min);
            let hi = table.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert!(
                out[i] >= lo - 1e-6 && out[i] <= hi + 1e-6,
                "lane {}: {} outside table range [{}, {}]",
                i,
                out[i],
                lo,
                hi
            );
        }
    }
}

/// The training-set quality predicted by bit tuning's model (function
/// re-evaluation on representatives) agrees with the actual table-based
/// kernel within a small tolerance.
#[test]
fn predicted_quality_matches_measured() {
    for case in 0..32u64 {
        let mut r = Rng::seed_from_u64(0x9_0003 ^ case);
        let q = r.random_range(4u32..10);
        let seed_vals: Vec<f32> = (0..32).map(|_| r.random_range(0.05f32..0.95)).collect();
        let (program, func, kernel) = make_program();
        let range = InputRange { min: 0.0, max: 1.0 };
        let samples: Vec<Vec<Scalar>> = seed_vals.iter().map(|&v| vec![Scalar::F32(v)]).collect();
        let f = program.func(func).clone();
        let tuned =
            paraprox_approx::bit_tune(&program, func, &samples, &[range], q).expect("bit tune");
        let config = MemoConfig {
            func,
            split: tuned.split.clone(),
            mode: LookupMode::Nearest,
            placement: TablePlacement::Global,
            ranges: vec![range],
        };
        let variant = memoize_kernel(&program, kernel, &config).expect("memoize");

        // Measure on the same training points via the actual kernel.
        let mut device = Device::new(DeviceProfile::gtx560());
        let in_b = device.alloc_f32(MemSpace::Global, &seed_vals);
        let out_b = device.alloc_f32(MemSpace::Global, &vec![0.0; seed_vals.len()]);
        let lut_b = device.alloc_f32(MemSpace::Global, &variant.table);
        device
            .launch(
                &variant.program,
                kernel,
                Dim2::linear(1),
                Dim2::linear(seed_vals.len()),
                &[in_b.into(), out_b.into(), lut_b.into()],
            )
            .expect("launch");
        let approx_out = device.read_f32(out_b).expect("read");
        let exact_out: Vec<f32> = seed_vals
            .iter()
            .map(|&x| {
                paraprox_ir::eval_func(&program, &f, &[Scalar::F32(x)])
                    .expect("eval")
                    .as_f32()
                    .expect("f32")
            })
            .collect();
        let measured = paraprox_quality::Metric::MeanRelative.quality_f32(&exact_out, &approx_out);
        assert!(
            (measured - tuned.quality).abs() < 1.0,
            "predicted {} vs measured {}",
            tuned.quality,
            measured
        );
    }
}
