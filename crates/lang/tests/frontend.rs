//! End-to-end frontend tests: parse CUDA-flavored source, lower to IR,
//! execute on the virtual device, and check against host references —
//! plus pattern-detection checks proving that source-parsed kernels feed
//! the same Paraprox pipeline as builder-constructed ones.

use paraprox_lang::parse_program;
use paraprox_vgpu::{Device, DeviceProfile, Dim2};

fn gpu() -> Device {
    Device::new(DeviceProfile::gtx560())
}

#[test]
fn map_kernel_from_source_runs() {
    let program = parse_program(
        r#"
        __device__ float gamma_correct(float x) {
            float norm = fmaxf(x * 0.00392156f, 1e-6f);
            return 255.0f * powf(norm, 0.4545f);
        }

        __global__ void gamma(float* img, float* out, int n) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            if (gid < n) {
                out[gid] = gamma_correct(img[gid]);
            }
        }
    "#,
    )
    .expect("parses");
    assert_eq!(program.func_count(), 1);
    assert_eq!(program.kernel_count(), 1);

    let kid = program.kernel_by_name("gamma").unwrap();
    let mut device = gpu();
    let data: Vec<f32> = (0..64).map(|i| i as f32 * 4.0).collect();
    let img = device.alloc_f32(paraprox_ir::MemSpace::Global, &data);
    let out = device.alloc_f32(paraprox_ir::MemSpace::Global, &vec![0.0; 64]);
    device
        .launch(
            &program,
            kid,
            Dim2::linear(2),
            Dim2::linear(32),
            &[img.into(), out.into(), paraprox_ir::Scalar::I32(64).into()],
        )
        .unwrap();
    let result = device.read_f32(out).unwrap();
    for (i, &px) in data.iter().enumerate() {
        let expected = 255.0 * (px * 0.00392156f32).max(1e-6).powf(0.4545);
        assert!(
            (result[i] - expected).abs() < 1e-2,
            "pixel {i}: {} vs {expected}",
            result[i]
        );
    }
}

#[test]
fn reduction_kernel_from_source_detected() {
    let program = parse_program(
        r#"
        __global__ void chunk_sum(float* in, float* out, int chunk) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            float acc = 0.0f;
            for (int i = gid * chunk; i < gid * chunk + chunk; i++) {
                acc += in[i];
            }
            out[gid] = acc;
        }
    "#,
    )
    .expect("parses");
    let kid = program.kernel_by_name("chunk_sum").unwrap();
    let loops = paraprox_patterns::reduction::find_reduction_loops(program.kernel(kid));
    assert_eq!(loops.len(), 1, "source-parsed reduction loop detected");

    // And it runs correctly.
    let mut device = gpu();
    let data = vec![1.5f32; 128];
    let input = device.alloc_f32(paraprox_ir::MemSpace::Global, &data);
    let out = device.alloc_f32(paraprox_ir::MemSpace::Global, &[0.0; 32]);
    device
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(32),
            &[input.into(), out.into(), paraprox_ir::Scalar::I32(4).into()],
        )
        .unwrap();
    assert_eq!(device.read_f32(out).unwrap(), vec![6.0; 32]);
}

#[test]
fn shared_memory_scan_from_source_matches_template() {
    let program = parse_program(
        r#"
        __global__ void scan_phase1(float* input, float* partial, float* sums) {
            __shared__ float s_a[64];
            __shared__ float s_b[64];
            int tid = threadIdx.x;
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            s_a[tid] = input[gid];
            __syncthreads();
            for (int d = 1; d < 64; d <<= 1) {
                if (tid >= d) {
                    s_b[tid] = s_a[tid] + s_a[tid - d];
                } else {
                    s_b[tid] = s_a[tid];
                }
                __syncthreads();
                s_a[tid] = s_b[tid];
                __syncthreads();
            }
            partial[gid] = s_a[tid];
            if (tid == 63) {
                sums[blockIdx.x] = s_a[tid];
            }
        }
    "#,
    )
    .expect("parses");
    let kid = program.kernel_by_name("scan_phase1").unwrap();
    let m = paraprox_patterns::scan::match_scan(program.kernel(kid))
        .expect("scan template must match source-parsed kernel");
    assert_eq!(m.subarray_len, 64);
    assert_eq!(m.input_param, 0);
    assert_eq!(m.partial_param, 1);
    assert_eq!(m.sums_param, 2);
}

#[test]
fn atomic_histogram_from_source() {
    let program = parse_program(
        r#"
        __global__ void hist(float* values, int* counts, int n) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            if (gid < n) {
                int bucket = min((int)(values[gid] * 4.0f), 3);
                atomicAdd(&counts[bucket], 1);
            }
        }
    "#,
    )
    .expect("parses");
    let kid = program.kernel_by_name("hist").unwrap();
    let mut device = gpu();
    let values: Vec<f32> = (0..64).map(|i| (i % 4) as f32 / 4.0 + 0.1).collect();
    let v = device.alloc_f32(paraprox_ir::MemSpace::Global, &values);
    let c = device.alloc_i32(paraprox_ir::MemSpace::Global, &[0; 4]);
    device
        .launch(
            &program,
            kid,
            Dim2::linear(2),
            Dim2::linear(32),
            &[v.into(), c.into(), paraprox_ir::Scalar::I32(64).into()],
        )
        .unwrap();
    assert_eq!(device.read_i32(c).unwrap(), vec![16; 4]);
}

#[test]
fn stencil_from_source_detected_and_approximated() {
    let program = parse_program(
        r#"
        __global__ void mean3x3(float* img, float* out, int w, int h) {
            int x = blockIdx.x * blockDim.x + threadIdx.x;
            int y = blockIdx.y * blockDim.y + threadIdx.y;
            if (x > 0 && x < w - 1 && y > 0 && y < h - 1) {
                float sum = 0.0f;
                for (int i = 0; i < 3; i++) {
                    for (int j = 0; j < 3; j++) {
                        sum += img[(y + i - 1) * w + x + j - 1];
                    }
                }
                out[y * w + x] = sum / 9.0f;
            } else {
                out[y * w + x] = img[y * w + x];
            }
        }
    "#,
    )
    .expect("parses");
    let kid = program.kernel_by_name("mean3x3").unwrap();
    let cands = paraprox_patterns::stencil::find_stencils(program.kernel(kid));
    assert_eq!(cands.len(), 1);
    assert_eq!((cands[0].tile_h, cands[0].tile_w), (3, 3));

    // Approximate and verify quality on a smooth ramp image.
    let approx = paraprox_approx::approximate_stencil(
        &program,
        kid,
        &cands[0],
        paraprox_approx::StencilScheme::Center,
        1,
    )
    .expect("stencil rewrite");
    let (w, h) = (32usize, 16usize);
    let img: Vec<f32> = (0..w * h).map(|i| (i % w) as f32).collect();
    let run = |p: &paraprox_ir::Program| {
        let mut device = gpu();
        let i_b = device.alloc_f32(paraprox_ir::MemSpace::Global, &img);
        let o_b = device.alloc_f32(paraprox_ir::MemSpace::Global, &vec![0.0; w * h]);
        device
            .launch(
                p,
                kid,
                Dim2::new(w / 16, h / 8),
                Dim2::new(16, 8),
                &[
                    i_b.into(),
                    o_b.into(),
                    paraprox_ir::Scalar::I32(w as i32).into(),
                    paraprox_ir::Scalar::I32(h as i32).into(),
                ],
            )
            .unwrap();
        device.read_f32(o_b).unwrap()
    };
    let exact = run(&program);
    let approxed = run(&approx);
    let q = paraprox_quality::Metric::MeanRelative.quality_f32(&exact, &approxed);
    assert!(q > 90.0, "quality = {q}");
}

#[test]
fn type_promotion_int_to_float() {
    let program = parse_program(
        r#"
        __global__ void promote(float* out) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            out[gid] = (float)gid * 2.0f + 1.0f;
        }
    "#,
    )
    .expect("parses");
    let kid = program.kernel_by_name("promote").unwrap();
    let mut device = gpu();
    let out = device.alloc_f32(paraprox_ir::MemSpace::Global, &[0.0; 8]);
    device
        .launch(
            &program,
            kid,
            Dim2::linear(1),
            Dim2::linear(8),
            &[out.into()],
        )
        .unwrap();
    assert_eq!(
        device.read_f32(out).unwrap(),
        vec![1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]
    );
}

#[test]
fn lowering_rejects_type_errors() {
    // bool + float
    assert!(parse_program("__device__ float f(float x) { return (x > 0.0f) + 1.0f; }").is_err());
    // unknown identifier
    assert!(parse_program("__device__ float f(float x) { return y; }").is_err());
    // array without index
    assert!(parse_program("__global__ void k(float* a) { float x = a; a[0] = x; }").is_err());
    // specials in device functions
    assert!(
        parse_program("__device__ float f(float x) { return x + (float)threadIdx.x; }").is_err()
    );
    // pointer params on device functions
    assert!(parse_program("__device__ float f(float* a) { return 0.0f; }").is_err());
}

#[test]
fn constant_qualifier_places_buffer_in_constant_space() {
    let program = parse_program(
        r#"
        __global__ void conv(float* img, __constant__ float* coef, float* out) {
            int gid = blockIdx.x * blockDim.x + threadIdx.x;
            out[gid] = img[gid] * coef[0];
        }
    "#,
    )
    .expect("parses");
    let kid = program.kernel_by_name("conv").unwrap();
    let k = program.kernel(kid);
    assert!(matches!(
        &k.params[1],
        paraprox_ir::Param::Buffer {
            space: paraprox_ir::MemSpace::Constant,
            ..
        }
    ));
}

/// The single `return` expression of `__device__ <ret> f(<params>)`.
fn returned(ret: &str, params: &str, expr: &str) -> paraprox_ir::Expr {
    let program = parse_program(&format!(
        "__device__ {ret} f({params}) {{ return {expr}; }}"
    ))
    .expect("parses");
    let body = &program.func(paraprox_ir::FuncId(0)).body;
    let [paraprox_ir::Stmt::Return(e)] = body.as_slice() else {
        panic!("expected one return, got {body:?}");
    };
    e.clone()
}

#[test]
fn minus_before_a_literal_is_part_of_the_literal() {
    use paraprox_ir::{Expr, UnOp};
    assert_eq!(returned("float", "", "-2.0f"), Expr::f32(-2.0));
    assert_eq!(returned("int", "", "-7"), Expr::i32(-7));
    // A parenthesized or spaced constant stays a negation the device
    // charges.
    let neg_two = Expr::Unary(UnOp::Neg, Box::new(Expr::f32(2.0)));
    assert_eq!(returned("float", "", "-(2.0f)"), neg_two);
    assert_eq!(returned("float", "", "- 2.0f"), neg_two);
    assert_eq!(returned("float", "", "-\n2.0f"), neg_two);
    // The literal binds tighter than any binary operator.
    assert_eq!(
        returned("float", "float x", "-2.0f * x"),
        Expr::f32(-2.0) * Expr::Param(0)
    );
}

#[test]
fn binary_minus_stays_a_subtraction() {
    use paraprox_ir::{BinOp, Expr, UnOp};
    let sub = |rhs: Expr| Expr::Binary(BinOp::Sub, Box::new(Expr::Param(0)), Box::new(rhs));
    assert_eq!(returned("int", "int x", "x - 2"), sub(Expr::i32(2)));
    assert_eq!(returned("int", "int x", "x - -2"), sub(Expr::i32(-2)));
    assert_eq!(returned("int", "int x", "x-2"), sub(Expr::i32(2)));
    assert_eq!(
        returned("int", "int x", "x - - 2"),
        sub(Expr::Unary(UnOp::Neg, Box::new(Expr::i32(2))))
    );
}

#[test]
fn negative_literal_reaches_i32_min() {
    use paraprox_ir::Expr;
    assert_eq!(returned("int", "", "-2147483648"), Expr::i32(i32::MIN));
    let err = parse_program("__device__ int f() { return 2147483648; }").unwrap_err();
    assert!(
        err.message.contains("integer literal out of range"),
        "{}",
        err.message
    );
}
