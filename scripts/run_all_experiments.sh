#!/usr/bin/env bash
# Regenerate every table/figure/ablation of EXPERIMENTS.md into results/,
# or into the directory given as the first argument (scripts/verify.sh
# writes a fresh copy there and compares it with results/).
#
# usage: scripts/run_all_experiments.sh [out-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-results}"
mkdir -p "$out"
bins=(table1 fig04_bit_tuning fig05_pixel_similarity fig11_speedup fig12_tradeoff
      fig13_error_cdf fig14_one_size fig15_nearest_linear fig16_table_location
      fig17_serialization fig18_scan_cascade ablation_adjustment ablation_cse
      ablation_bit_tuning)
for b in "${bins[@]}"; do
    echo "== $b"
    cargo run --release -q -p paraprox-bench --bin "$b" | tee "$out/$b.txt"
done
echo "all experiment outputs written to $out/"
