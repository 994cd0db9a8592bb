//! Figure 4: bit tuning's steepest-ascent hill climb on the
//! BlackScholes body function. The paper's example uses a 32768-entry
//! table (15 address bits) split across the three variable inputs (S, X,
//! T); the constant inputs R and V receive zero bits.
//!
//! ```sh
//! cargo run --release -p paraprox-bench --bin fig04_bit_tuning
//! ```

use paraprox_approx::{bit_tune, input_ranges};
use paraprox_apps::{black_scholes, Scale};

fn main() {
    let workload = black_scholes::build(Scale::Paper, 0);
    let (func, samples) = workload.memo_training.first().expect("training data");
    let ranges = input_ranges(samples).expect("ranges");
    let f = workload.program.func(*func);
    println!(
        "Figure 4: bit tuning for `{}` with a 32768-entry table (15 bits)\n",
        f.name
    );
    println!("input ranges (constant inputs get zero bits):");
    for (i, r) in ranges.iter().enumerate() {
        println!(
            "  input {i} ({}): [{:.4}, {:.4}]{}",
            f.params[i].name(),
            r.min,
            r.max,
            if r.is_constant() { "  <- constant" } else { "" }
        );
    }
    let result = bit_tune(&workload.program, *func, samples, &ranges, 15).expect("bit tune");
    println!("\nexplored nodes (split of 15 bits -> output quality):");
    for (split, quality) in &result.explored {
        let marker = if *split == result.split {
            "  <== selected"
        } else {
            ""
        };
        println!("  {split:?} -> {quality:6.2}%{marker}");
    }
    println!(
        "\nselected division: {:?} at {:.2}% output quality ({} nodes explored)",
        result.split,
        result.quality,
        result.explored.len()
    );
    let root = &result.explored[0];
    println!(
        "root (even split) quality: {:.2}%  -> hill climbing gained {:+.2} points",
        root.1,
        result.quality - root.1
    );

    // On our uniform CUDA-SDK-style input ranges the 15-bit even split is
    // already locally optimal; at 12 bits the climb moves a bit from T to
    // X, the analogue of the paper's (5,6,4) selection.
    let result12 = bit_tune(&workload.program, *func, samples, &ranges, 12).expect("bit tune");
    println!(
        "\nat 12 bits: even {:?} ({:.2}%) -> tuned {:?} ({:.2}%)",
        result12.explored[0].0, result12.explored[0].1, result12.split, result12.quality
    );
}
