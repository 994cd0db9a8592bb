#!/usr/bin/env bash
# Full local verification, in the order it runs:
#   1. check_lint_fixtures.sh (every error-severity lint has fixtures)
#   2. cargo fmt --check
#   3. cargo build --release
#   4. cargo test -q (tier-1, root package)
#   5. cargo test --workspace -q
#   6. cargo clippy --workspace --all-targets -D warnings
#   7. paraprox-cli analyze --json on all 13 apps
#   8. bench_interp --smoke (engine bit-identity, geomean >= 1.0x)
#   9. bench_approxmem --smoke
#  10. bench_errorprop --smoke
#  11. paraprox-cli inspect --schedule on every preset of both iterative apps
#  12. bench_iter --smoke (best schedule >= 1.3x within TOQ)
#  13. paraprox-cli serve on both profiles (drift, back-off, re-promotion)
#  14. bench_serve --smoke (batched >= 0.90x window 1)
#  15. paraprox-benchmark smokes: iter_converge, kernel_exec, serve_open_drift
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

echo "==> bench_interp --smoke (engine bit-identity + perf gate: geomean >= 1.0x)"
# bench_interp --smoke exits non-zero when the bytecode engine's geomean
# host speedup over the tree-walker drops below parity, so an interpreter
# performance regression fails verification here.
(cd target && cargo run --release -p paraprox-bench --bin bench_interp -- --smoke)

echo "==> bench_approxmem --smoke (tolerant auto-placement lint-clean + rate-0 bit-identity)"
# bench_approxmem --smoke exits non-zero when the partition-driven
# auto-placement trips the approx-placement lint on any app, or when the
# approximate placement at rate 0 is not bit-identical to the all-exact
# run — either would mean the criticality partition or the injection
# path regressed.
(cd target && cargo run --release -p paraprox-bench --bin bench_approxmem -- --smoke)

echo "==> bench_errorprop --smoke (static bounds sound on all apps, >= 1 app prunes calibration)"
# bench_errorprop --smoke exits non-zero when any measured rung error
# exceeds its static error-propagation bound (a soundness violation of
# the abstract interpreter), when a static prune would lose a rung that
# dynamic tuning deploys, or when no app prunes at least one rung before
# measurement — the analysis must stay sound *and* keep paying for
# itself in skipped calibration launches.
(cd target && cargo run --release -p paraprox-bench --bin bench_errorprop -- --smoke)

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

echo "==> bench_iter --smoke (iterative loops: exact converges + replays bit-identical, best schedule >= 1.3x within TOQ)"
# bench_iter --smoke exits non-zero when the exact convergence loop hits
# the iteration cap, when replaying a schedule on the same seed is not
# bit-identical, or when no approximate schedule reaches 1.3x fewer
# cycles than the exact loop within the default 90% TOQ.
(cd target && cargo run --release -p paraprox-bench --bin bench_iter -- --smoke)

echo "==> paraprox-cli serve smoke (drift -> back-off -> re-promotion, both profiles)"
for dev in gpu cpu; do
  cargo run --release -q -p paraprox-cli -- serve --device "$dev" --scale test \
    --requests 40 --drift-at 10 --drift-len 12 --check-every 4 --promote-after 2 \
    --shards 2 --batch-window 8
done

echo "==> bench_serve --smoke (serving engine perf gate: batched >= 0.90x window 1)"
# bench_serve --smoke exits non-zero when the sharded engine's
# closed-loop throughput at batch window 8 drops below 0.90x of the
# single-shard window-1 baseline (the same code, one request a batch) on
# the same seeded stream — headroom for wall-clock noise on small hosts,
# while a real serving-path performance regression still fails
# verification here.
(cd target && cargo run --release -p paraprox-bench --bin bench_serve -- --smoke)

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
