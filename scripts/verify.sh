#!/usr/bin/env bash
# Full local verification, in the order it runs:
#   1. check_lint_fixtures.sh (every error-severity lint has fixtures)
#   2. check_docs.sh (every file, bin, workload, subcommand and `Type::member` the docs cite exists)
#   3. eval_func guard (the pure evaluator is named only by tests)
#   4. front-door guard (every app kernel is source lowered by paraprox-lang)
#   5. oracle guard (no shipped binary builds the tree-walking oracle)
#   6. cargo fmt --check
#   7. cargo build --release
#   8. cargo test -q (tier-1, root package)
#   9. cargo test --workspace -q (every invariant is asserted here)
#  10. cargo clippy --workspace --all-targets -D warnings
#  11. the 14 experiment bins of scripts/run_all_experiments.sh regenerate
#      results/*.txt byte-identically (~5 s)
#  12. paraprox-cli analyze --json on all 13 apps
#  13. paraprox-cli inspect --schedule on every preset of both iterative apps
#  14. paraprox-cli serve on both profiles (drift, back-off, re-promotion),
#      list, tune, run (exact and iterative), inspect --rungs, and bad-input
#      probes that must exit exactly 1 (no panic, no abort)
#  15. paraprox-benchmark smokes: iter_converge, kernel_exec, serve_open_drift
#      (the only place a host timing is taken; none is gated here)
# Everything runs offline (the workspace has no external dependencies),
# so this works in sandboxed CI.
#
# usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> check_lint_fixtures (every error-severity lint has a fixture pair)"
# Meta-lint: each code in error_lint_codes() must have a positive and a
# negative fixture marker in crates/analysis/tests/lints.rs, so an
# error-severity lint can never ship untested in either direction.
scripts/check_lint_fixtures.sh

echo "==> check_docs (every path, bin, workload, CLI subcommand and Type::member the docs cite resolves)"
scripts/check_docs.sh

echo "==> eval_func guard (the pure evaluator is a test reference, not a production path)"
# Memo tables and bit tuning evaluate functions on the virtual device; the
# pure evaluator paraprox_ir::eval_func is the independent reference the
# differential suites hold it to. No crate source may name it above its
# first #[cfg(test)], except its definition and the `pub use` exporting it.
guard=0
for f in $(find crates/*/src -name '*.rs' | sort); do
  [ "$f" = crates/ir/src/eval.rs ] && continue
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nw eval_func | grep -v ':pub use ' >&2; then
    echo "FAIL: $f names eval_func outside its tests (lines above)" >&2
    guard=1
  fi
done
[ "$guard" -eq 0 ]

echo "==> front-door guard (every application kernel is kernel source, lowered by paraprox-lang)"
# The applications are written as CUDA-flavored source, as the paper's
# input is; building IR by hand is for tests. No crates/apps/src file may
# name the IR builders above its first #[cfg(test)].
for f in $(find crates/apps/src -name '*.rs' | sort); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nwE 'KernelBuilder|FuncBuilder' >&2; then
    echo "FAIL: $f builds kernel IR by hand (lines above)" >&2
    guard=1
  fi
done
[ "$guard" -eq 0 ]

echo "==> oracle guard (the tree-walking oracle is built for tests, never for a shipped binary)"
# The AST interpreter lives behind paraprox-vgpu's dev-only `oracle`
# feature, which only [dev-dependencies] enable. Neither shipped binary
# may pull it in through a normal or build dependency.
for pkg in paraprox-cli paraprox-benchmark; do
  if cargo tree -q --offline -e normal,build,features -p "$pkg" |
    grep -F 'paraprox-vgpu feature "oracle"' >&2; then
    echo "FAIL: $pkg builds paraprox-vgpu with the oracle feature (line above)" >&2
    exit 1
  fi
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1, root package)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> experiment outputs (every table, figure and ablation regenerates results/*.txt byte-identically)"
# Every experiment is deterministic (seeded inputs, simulated cycles), so
# a change that moves any simulated number, or any printed digit, shows
# here as a differing file; regenerate with scripts/run_all_experiments.sh
# only when the change means to move it.
fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT
scripts/run_all_experiments.sh "$fresh" >/dev/null
if ! diff -r results "$fresh" >&2; then
  echo "FAIL: an experiment output differs from results/ (diff above)" >&2
  exit 1
fi

echo "==> paraprox-cli analyze smoke (13 apps, test scale, JSON partition gate)"
# Machine-readable pass over every app: the analyze command itself exits
# non-zero on error-severity findings, and the JSON is additionally
# asserted to report zero findings of any severity and zero Critical
# buffers placed in approximate memory.
for app in "Black" "Quasi" "Gamma" "Box" "HotSpot" "Convolution" "Gaussian" "Mean" "Matrix" "Image" "Naive" "Kernel Density" "Cumulative"; do
  out="$(cargo run --release -q -p paraprox-cli -- analyze "$app" --scale test --json)"
  case "$out" in
    *'"findings":[],"errors":0,"warnings":0,"misplaced":0'*) ;;
    *)
      echo "FAIL: analyze --json for '$app' reports findings or misplacements:" >&2
      echo "$out" >&2
      exit 1
      ;;
  esac
done

echo "==> paraprox-cli inspect-schedule smoke (iterative apps: every preset admitted by the gate)"
# inspect --schedule prints the per-iteration plan and then runs the
# static-analysis gate under the loop's launch contexts; it exits
# non-zero on a refusal, so a gating regression on any preset rung of
# any iterative app fails verification here.
for app in jacobi sobel; do
  for sched in exact sampled-check trend-exit; do
    cargo run --release -q -p paraprox-cli -- inspect "$app" --schedule "$sched" --scale test >/dev/null
  done
done

echo "==> paraprox-cli serve smoke (drift -> back-off -> re-promotion, both profiles)"
for dev in gpu cpu; do
  cargo run --release -q -p paraprox-cli -- serve --device "$dev" --scale test \
    --requests 40 --drift-at 10 --drift-len 12 --check-every 4 --promote-after 2 \
    --shards 2 --batch-window 8
done

echo "==> paraprox-cli subcommand smokes (list, tune, run, run --iters, inspect --rungs)"
cli="${CARGO_TARGET_DIR:-target}/release/paraprox-cli"   # built by the release build above
"$cli" list >/dev/null
"$cli" tune gamma --scale test --seeds 2 >/dev/null
"$cli" run gamma --scale test >/dev/null
"$cli" run jacobi --iters 8 --scale test --schedule trend-exit >/dev/null
"$cli" inspect hotspot --rungs --scale test >/dev/null

echo "==> paraprox-cli bad-input probes (each must exit 1: not 0, not a panic's 101, not an abort's 134)"
# Each argv reaches the parser from outside the program; a value that
# would size an allocation or a thread count, overflow the request seeds
# or poison the drift gain must be refused there with usage and exit 1.
max=18446744073709551615
while read -r probe; do
  status=0
  # $probe is unquoted on purpose: each line is one whitespace-split argv.
  "$cli" $probe >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: \`paraprox-cli $probe\` exited $status, expected 1" >&2
    exit 1
  fi
done <<EOF
tune gamma --scale test --seeds $max
tune gamma --scale test --seeds 4000000000
serve --scale test --seeds $max
serve --scale test --drift-at $max
serve --scale test --drift-gain nan
serve --scale test --workers 1000000
serve --scale test --shards 1000000
serve --scale test --inflight $max
tune gamma --toq 150
tune gamma --bogus
EOF

echo "==> paraprox-benchmark smokes (iter_converge, kernel_exec, serve_open_drift: outputs vs host references, simulated values repeat)"
# The end-to-end benchmark checks every output against the apps'
# hand-written host reference() functions and exits non-zero when any
# simulated or counted value differs between a run's repetitions. The
# first two workloads spend their time in the virtual device's memory
# pipeline (~3 s of repetitions each, ~5 s with set-up), so a change that
# breaks its bit-identity fails here, not only under the tree-walking
# oracle; serve_open_drift serves every request as a batch of one, with
# the calibration re-run fused in on check boundaries.
for workload in iter_converge kernel_exec serve_open_drift; do
  cargo run --release -q -p paraprox-benchmark -- --workload "$workload" --seconds 3 --trace 0
done

echo "==> verify OK"
