//! Memo tables and bit tuning evaluate the memoized function on the
//! virtual device, a whole table or tuning candidate per launch. This
//! suite holds them to the pure evaluator (`paraprox_ir::eval_func`), one
//! row at a time, bit for bit: every table entry and every explored
//! candidate's quality, for every function with training data in the
//! application registry, at both scales.

use paraprox_approx::{
    bit_tune, build_table, input_ranges, InputRange, LookupMode, MemoConfig, TablePlacement,
};
use paraprox_apps::{registry, Scale};
use paraprox_ir::{eval_func, Func, Program, Scalar, Ty};

/// The compiler's default table sizes (`CompileOptions::default`).
const TABLE_BITS: [u32; 3] = [8, 11, 13];

fn eval(program: &Program, func: &Func, args: &[Scalar]) -> Scalar {
    eval_func(program, func, args).expect("training rows evaluate")
}

/// The argument of type `ty` standing for representative value `rep`.
fn arg_of(ty: Ty, rep: f32) -> Scalar {
    match ty {
        Ty::F32 => Scalar::F32(rep),
        Ty::I32 => Scalar::I32(rep.round() as i32),
        Ty::U32 => Scalar::U32(rep.round() as u32),
        Ty::Bool => Scalar::Bool(rep != 0.0),
    }
}

/// Bit tuning's quality of `split`, one sample at a time: exact output
/// against the output on quantized-then-reconstructed inputs.
fn split_quality_per_row(
    program: &Program,
    func: &Func,
    samples: &[Vec<Scalar>],
    ranges: &[InputRange],
    split: &[u32],
) -> f64 {
    let mut err_sum = 0.0f64;
    for sample in samples {
        let exact = eval(program, func, sample).to_f64_lossy();
        let quantized: Vec<Scalar> = sample
            .iter()
            .zip(ranges)
            .zip(split)
            .map(|((&arg, range), &q)| {
                if arg.ty() == Ty::Bool {
                    return arg;
                }
                let v = arg.to_f64_lossy() as f32;
                arg_of(arg.ty(), range.rep_of(range.level_of(v, q), q))
            })
            .collect();
        let approx = eval(program, func, &quantized).to_f64_lossy();
        let denom = exact.abs().max(1e-9);
        err_sum += ((approx - exact).abs() / denom).min(1.0);
    }
    100.0 * (1.0 - err_sum / samples.len() as f64)
}

/// Table entry `addr`, input 0 in the most significant address bits.
fn table_entry_per_row(program: &Program, func: &Func, config: &MemoConfig, addr: usize) -> f32 {
    let mut shift = config.total_bits();
    let args: Vec<Scalar> = config
        .split
        .iter()
        .zip(&config.ranges)
        .zip(&func.params)
        .map(|((&q, range), param)| {
            shift -= q;
            let level = if q == 0 {
                0
            } else {
                ((addr >> shift) & ((1usize << q) - 1)) as u32
            };
            arg_of(param.ty(), range.rep_of(level, q))
        })
        .collect();
    eval(program, func, &args)
        .as_f32()
        .expect("memoized functions return f32")
}

#[test]
fn device_evaluated_tables_and_tuning_match_the_pure_evaluator_bit_for_bit() {
    let mut functions = 0;
    for app in registry() {
        for scale in [Scale::Test, Scale::Paper] {
            let workload = (app.build)(scale, 0);
            let program = &workload.program;
            for (func_id, samples) in &workload.memo_training {
                functions += 1;
                let func = program.func(*func_id);
                let ranges = input_ranges(samples).expect("training data");
                let at = |bits: u32| format!("{} {scale:?} `{}` {bits}b", app.spec.name, func.name);
                for bits in TABLE_BITS {
                    let tuned = bit_tune(program, *func_id, samples, &ranges, bits)
                        .unwrap_or_else(|e| panic!("{}: {e}", at(bits)));
                    for (split, quality) in &tuned.explored {
                        let reference =
                            split_quality_per_row(program, func, samples, &ranges, split);
                        assert_eq!(
                            quality.to_bits(),
                            reference.to_bits(),
                            "{}: quality of {split:?} is {quality}, per row {reference}",
                            at(bits)
                        );
                    }
                    let config = MemoConfig {
                        func: *func_id,
                        split: tuned.split,
                        mode: LookupMode::Nearest,
                        placement: TablePlacement::Global,
                        ranges: ranges.clone(),
                    };
                    let table = build_table(program, &config)
                        .unwrap_or_else(|e| panic!("{}: {e}", at(bits)));
                    assert_eq!(table.len(), config.table_len());
                    for (addr, entry) in table.iter().enumerate() {
                        let reference = table_entry_per_row(program, func, &config, addr);
                        assert!(
                            entry.to_bits() == reference.to_bits()
                                || (entry.is_nan() && reference.is_nan()),
                            "{}: entry {addr} is {entry}, per row {reference}",
                            at(bits)
                        );
                    }
                }
            }
        }
    }
    assert!(functions >= 8, "only {functions} trained functions found");
}
