#!/usr/bin/env bash
# Captures step-kernel benchmark numbers to BENCH_step_kernel.json at
# the repository root — the machine-readable perf trajectory for the
# zero-rebuild step kernel (incremental vs rebuild-and-diff, n in
# {256, 1000, 4000} x {low, mid, high} mobility, plus the
# density-preserving n=20000/n=100000 scaling rows). Every row runs
# the serial kernel.
#
# Usage:
#   scripts/capture_step_kernel.sh               # full capture (committed numbers)
#   scripts/capture_step_kernel.sh --quick       # reduced grid, 1 repeat (CI smoke)
#   scripts/capture_step_kernel.sh --large-smoke # one n=20000 pair, skin auto vs off (CI)
#   scripts/capture_step_kernel.sh --skin-sweep  # Verlet skin cost curve at n=4000
#   scripts/capture_step_kernel.sh --out PATH    # write elsewhere
#   scripts/capture_step_kernel.sh --profile     # span-timer breakdown on stderr
#
# Each JSON row pairs ns/step with the kernel's deterministic path
# counters (incremental/bulk/cache-verify/fallback fractions, rescan
# and verify candidate volumes, cache rebuilds and arena sizes, grid
# cells touched, edge events) — identical across machines for a given
# grid, so only the timing columns move between captures. Rows over
# the same trajectory must fold the same checksum at every skin.
#
# The full capture also acts as a regression gate: it fails loudly if
# the kernel's speedup at n=4000 on the low-churn scenario drops below
# 3x the rebuild path, or if the Verlet cache stops beating its own
# skin-off kernel on the all-moving mid regime (verify>rebuild counter
# check, the auto/off within-run ratio, and coarse absolute ceilings
# at 3 ms/step for mid n=4000 and 140 ms/step for n=100000).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="BENCH_step_kernel.json"
ARGS=()
while [ $# -gt 0 ]; do
  case "$1" in
    --quick) ARGS+=("--quick") ;;
    --large-smoke) ARGS+=("--large-smoke") ;;
    --skin-sweep) ARGS+=("--skin-sweep") ;;
    --profile) ARGS+=("--profile") ;;
    --out) OUT="$2"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

cargo build --release -p manet-bench --bin step_kernel_capture
./target/release/step_kernel_capture "${ARGS[@]:-}" --out "$OUT"
