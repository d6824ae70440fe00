#!/usr/bin/env bash
# Where does hostbench's host time go? Sample one workload with a SIGPROF
# backtrace sampler and attribute the samples to functions and source files.
#
#   scripts/hostprof/hostprof.sh WORKLOAD [SEED] [SECONDS] [OUT_DIR]
#   scripts/hostprof/report.py OUT_DIR/WORKLOAD.raw --under ResourcePool::feasible
#
# Builds hostbench from this checkout with the benchmark's optimization
# (Release) plus -g into OUT_DIR (default ${TMPDIR:-/tmp}/hostprof, outside
# the checkout), builds sampler.c as an LD_PRELOAD library, runs the workload
# untraced and prints report.py's table. hostbench itself is not changed.
# The build is configured on every run: CMake refuses an OUT_DIR whose build
# tree was configured from another checkout, so a shared OUT_DIR cannot
# silently profile the wrong tree.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
workload="${1:?usage: hostprof.sh WORKLOAD [SEED] [SECONDS] [OUT_DIR]}"
seed="${2:-1}"
seconds="${3:-8}"
out="${4:-${TMPDIR:-/tmp}/hostprof}"
mkdir -p "$out/work"

cmake -S "$root/hostbench" -B "$out/build" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-g >"$out/build.log"
cmake --build "$out/build" -j "$(nproc 2>/dev/null || echo 2)" >>"$out/build.log"
cc -O2 -g -shared -fPIC -o "$out/libhostprof.so" "$here/sampler.c"

rm -rf "$out/work"/*
HOSTPROF_OUT="$out/$workload.raw" LD_PRELOAD="$out/libhostprof.so" \
  "$out/build/hostbench" --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace 0 --work-dir "$out/work" | tail -1
python3 "$here/report.py" "$out/$workload.raw"
