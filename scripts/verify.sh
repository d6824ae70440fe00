#!/usr/bin/env bash
# Full verification sweep: every preset, plus explicit chaos and DST passes.
#
#   scripts/verify.sh            # default + asan + tsan, then the seeded labels under asan
#   scripts/verify.sh default    # just one preset
#   FLUX_CHAOS_SEEDS=200 scripts/verify.sh   # dial up the seeded schedules
#   FLUX_DST_SEEDS=500 scripts/verify.sh     # dial up the simulation sweeps
#   FLUX_PERSIST_SEEDS=200 scripts/verify.sh # dial up the persistence matrix
#
# The chaos, dst and persist suites (ctest -L chaos|dst|persist) are sweeps
# of one harness, the DST explorer (src/check/explorer.hpp): each cell runs
# seeded fault schedules through the consistency oracle and the post-run
# recovery checks (270 dst schedules and 50 chaos schedules at the default
# widths). A failing schedule prints "dst: seed N FAILED" (or "seed N:" in
# the gtest failure) with its violations and fault plan. Replay that one
# schedule by setting FLUX_TEST_SEED so the cell's
# base seed (FLUX_TEST_SEED plus the offset in the cell's source) is N, with
# the suite's seed count at 1:
#
#   FLUX_TEST_SEED=<N - offset> FLUX_CHAOS_SEEDS=1 \
#     build-asan/tests/flux_chaos_tests --gtest_filter='Chaos.CrashRestartSeeds'
#
# or commit it as a Repro under tests/repro/ (check/shrink.hpp), which
# DstRepro.CommittedReprosStillReproduce replays on every run. See DESIGN.md §5.
# ctest stops any case after 120 s (TIMEOUT, tests/CMakeLists.txt); under
# asan a sweep widened past ~5x its default takes longer, so soak it by
# running the suite binary (build-asan/tests/flux_*_tests) directly.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
[ ${#presets[@]} -eq 0 ] && presets=(default asan tsan)

jobs=$(nproc 2>/dev/null || echo 4)

for p in "${presets[@]}"; do
  echo "=== [$p] configure + build + test ==="
  cmake --preset "$p"
  cmake --build --preset "$p" -j "$jobs"
  # The tsan test preset filters to the threaded suites (^Thread); the sim
  # suites are single-threaded by construction and covered by default/asan.
  ctest --preset "$p"
done

# Explicit chaos pass under the sanitizer that catches lifetime bugs the
# schedules are designed to provoke (use-after-free in callbacks, doubled
# settles). Skipped if asan wasn't among the requested presets.
for p in "${presets[@]}"; do
  if [ "$p" = asan ]; then
    echo "=== [asan] chaos label (seeded fault schedules) ==="
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
      ctest --test-dir build-asan -L chaos --output-on-failure
    echo "=== [asan] dst label (simulation sweeps + oracle + repros) ==="
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
      ctest --test-dir build-asan -L dst --output-on-failure
    echo "=== [asan] jobs label (lifecycle pipeline + crash-mid-dispatch) ==="
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
      ctest --test-dir build-asan -L jobs --output-on-failure
    echo "=== [asan] persist label (durable log recovery + restart matrix) ==="
    ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
      ctest --test-dir build-asan -L persist --output-on-failure
  fi
done

# Bench smoke: quick-grid run of the Fig. 2/3/4 + saturation + micro benches
# into a scratch dir, so a perf-path regression that crashes or hangs a bench
# is caught here rather than at the next trajectory recording. Only part of
# the full sweep (no preset args). With FLUX_BENCH_GATE=1 (the default) the
# fresh sidecars are then diffed against bench/results/baseline by
# scripts/bench_gate.py — a regression past the tolerance band fails verify.
if [ $# -eq 0 ]; then
  echo "=== bench smoke (FLUX_BENCH_QUICK=1) ==="
  bench_out="$(mktemp -d)"
  FLUX_BENCH_QUICK=1 scripts/bench.sh "$bench_out"
  if [ "${FLUX_BENCH_GATE:-1}" = 1 ]; then
    echo "=== bench gate (fresh quick grid vs bench/results/baseline) ==="
    python3 scripts/bench_gate.py "$bench_out" bench/results/baseline
  fi
fi

echo "verify: all requested presets green"
