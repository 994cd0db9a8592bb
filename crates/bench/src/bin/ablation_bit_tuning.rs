//! Ablation: bit tuning (hill climbing) vs a naive even split of the
//! table-address bits (paper §3.1.3 — "naively dividing the quantization
//! bits equally amongst all inputs does not necessarily yield ideal
//! results").
//!
//! Uses a function with deliberately skewed input sensitivity alongside
//! BlackScholes (whose inputs turn out to be nearly balanced on uniform
//! CUDA-SDK-style input ranges).
//!
//! ```sh
//! cargo run --release -p paraprox-bench --bin ablation_bit_tuning
//! ```

use paraprox_approx::{bit_tune, input_ranges};
use paraprox_apps::{black_scholes, Scale};
use paraprox_ir::{Expr, FuncBuilder, FuncId, Program, Scalar, Ty};

fn skewed_program() -> (Program, FuncId, Vec<Vec<Scalar>>) {
    // g(a, b) = exp(4a) + b/50 : `a` deserves nearly all the bits.
    let mut p = Program::new();
    let mut fb = FuncBuilder::new("skewed", Ty::F32);
    let a = fb.scalar("a", Ty::F32);
    let b = fb.scalar("b", Ty::F32);
    fb.ret((a * Expr::f32(4.0)).exp() + b * Expr::f32(0.02));
    let f = p.add_func(fb.finish());
    let samples: Vec<Vec<Scalar>> = (0..256)
        .map(|i| {
            let t = i as f32 / 255.0;
            vec![Scalar::F32(t * 2.0), Scalar::F32((t * 97.0) % 1.0 * 50.0)]
        })
        .collect();
    (p, f, samples)
}

fn main() {
    println!("Ablation: bit tuning vs even split\n");
    for bits in [6u32, 8, 10, 12] {
        // Skewed-sensitivity function.
        let (p, f, samples) = skewed_program();
        let ranges = input_ranges(&samples).expect("ranges");
        let tuned = bit_tune(&p, f, &samples, &ranges, bits).expect("tune");
        let even_quality = tuned.explored[0].1; // the root node IS the even split
        println!(
            "skewed    {bits:>2} bits: even split {:?} -> {:6.2}%   tuned {:?} -> {:6.2}%  ({:+.2} points)",
            tuned.explored[0].0,
            even_quality,
            tuned.split,
            tuned.quality,
            tuned.quality - even_quality
        );
    }
    println!();
    // BlackScholes (three variable inputs + two constants).
    let workload = black_scholes::build(Scale::Paper, 0);
    let (func, samples) = workload.memo_training.first().expect("training");
    let ranges = input_ranges(samples).expect("ranges");
    for bits in [9u32, 12, 15] {
        let tuned = bit_tune(&workload.program, *func, samples, &ranges, bits).expect("tune");
        println!(
            "bs_call   {bits:>2} bits: even split {:?} -> {:6.2}%   tuned {:?} -> {:6.2}%  ({:+.2} points, {} nodes)",
            tuned.explored[0].0,
            tuned.explored[0].1,
            tuned.split,
            tuned.quality,
            tuned.quality - tuned.explored[0].1,
            tuned.explored.len()
        );
    }
    println!(
        "\nConstant inputs always receive zero bits; hill climbing matters most\n\
         when input sensitivities are skewed."
    );
}
