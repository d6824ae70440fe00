#!/usr/bin/env bash
# Record the perf trajectory: run the paper-figure benches (Fig. 2 put,
# Fig. 3 fence, Fig. 4a/4b get), the jobs/saturation/restart benches, the
# §VII distributed-master and §III scheduling-hierarchy ablations, plus the
# codec micro-benchmarks and emit machine-readable BENCH_*.json sidecars.
#
#   scripts/bench.sh                          # full grids into bench/results/
#   FLUX_BENCH_QUICK=1 scripts/bench.sh       # smoke grids (CI / verify.sh)
#   scripts/bench.sh /some/dir                # alternate output directory
#
# The fig benches print their tables to stdout and write <name>.metrics.json
# via bench_util's MetricsSidecar; this script collects those under the
# committed BENCH_<name>.json names. bench_micro is google-benchmark and
# writes its own JSON report.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-bench/results}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
jobs=$(nproc 2>/dev/null || echo 4)

cmake --preset bench
cmake --build --preset bench -j "$jobs" --target \
  bench_fig2_put bench_fig3_fence bench_fig4a_get_singledir \
  bench_fig4b_get_multidir bench_jobs_throughput bench_saturation \
  bench_restart bench_abl_distributed_master bench_abl_sched_hierarchy \
  bench_micro

for b in fig2_put fig3_fence fig4a_get_singledir fig4b_get_multidir \
         jobs_throughput saturation restart abl_distributed_master \
         abl_sched_hierarchy; do
  echo "=== bench_$b ==="
  FLUX_BENCH_METRICS_DIR="$out" "build-bench/bench/bench_$b"
  mv "$out/$b.metrics.json" "$out/BENCH_$b.json"
done

echo "=== bench_micro (SHA1 / codec / KVS micro-cases) ==="
micro_args=(--benchmark_filter='BM_Sha1|BM_Json|BM_Message|BM_KvsApply'
            --benchmark_out="$out/BENCH_micro_codec.json"
            --benchmark_out_format=json)
if [ "${FLUX_BENCH_QUICK:-0}" = 1 ]; then
  micro_args+=(--benchmark_min_time=0.05)
fi
build-bench/bench/bench_micro "${micro_args[@]}"

echo "bench: sidecars written to $out/"
ls -1 "$out"/BENCH_*.json
