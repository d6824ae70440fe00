#!/usr/bin/env python3
"""Perf-regression gate: diff fresh BENCH_*.json against a baseline set.

Usage: scripts/bench_gate.py FRESH_DIR [BASELINE_DIR]

Compares every BENCH_<name>.json present in both directories and prints a
one-line verdict per bench. Two formats are understood:

  - bench_util sidecars: {"bench": ..., "rows": [...]} — rows are matched
    by their identity fields (config knobs) and compared metric by metric;
    a fresh or baseline row with no partner of the same identity fails.
  - google-benchmark reports (BENCH_micro_codec.json): entries matched by
    benchmark name, compared on cpu_time.

Tolerances are per-metric-class, not per-bench: virtual-time metrics and
simulated traffic are deterministic (discrete-event sim, the same value on
every run of the same code) and gate as equal-or-better, so any worsening
fails and a change that moves them re-records the baseline; host wall-clock
metrics are noisy on shared CI hardware and get a loose band. Improvements
always pass. A few metrics also have an absolute limit (LIMITS) that every
fresh row must meet, with or without a baseline row. Exit status is non-zero
iff any metric regresses past its band or limit — the gate fails loudly, it
does not average away a regression.
"""
import json
import math
import os
import sys

# Allowed worsening factor of a deterministic field: none. A JSON round trip
# of the same double compares equal, so this is exact equality or better.
EXACT = 1.0

# metric field -> (direction, allowed_worsening_factor)
#   "lower"  = smaller is better;  fresh > base * factor  ==> FAIL
#   "higher" = bigger is better;   fresh < base / factor  ==> FAIL
METRICS = {
    # Virtual-time (deterministic sim clock): equal or better.
    "wireup_us": ("lower", EXACT),
    "producer_max_ms": ("lower", EXACT),
    "sync_max_ms": ("lower", EXACT),
    "consumer_max_ms": ("lower", EXACT),
    "makespan_ms": ("lower", EXACT),
    "virtual_ms": ("lower", EXACT),
    "alloc_mean_us": ("lower", EXACT),
    "jobs_per_sec": ("higher", EXACT),
    "ops_per_sec_virtual": ("higher", EXACT),
    "fence_ms": ("lower", EXACT),
    # Deterministic traffic volume and completed work: equal or better.
    "net_messages": ("lower", EXACT),
    "jobs_completed": ("higher", EXACT),
    # Host wall-clock: noisy, loose band. Still catches the 2x+ cliffs the
    # gate exists for.
    "host_seconds": ("lower", 2.0),
    "ops_per_sec_host": ("higher", 2.0),
    # Persistence costs (bench_restart) are host wall-clock too: the content
    # log lives on the real filesystem, not the sim clock.
    "recover_ms": ("lower", 2.0),
    "restart_to_serving_ms": ("lower", 2.0),
    "gc_pause_ms": ("lower", 2.0),
    "compact_ms": ("lower", 2.0),
}
MICRO_TOL = 2.0  # google-benchmark cpu_time band (host time)

# metric field -> largest allowed value, checked on every fresh row.
LIMITS = {
    # bench_jobs_throughput long session: root KVS store bytes per job over
    # the last 1k jobs / over the first 1k. Deterministic, so a tight limit;
    # a job namespace whose commits rewrite a directory of every job run so
    # far reads far above it.
    "store_bytes_growth": 1.10,
}


# Config knobs that identify a grid cell. Everything else in a row is a
# measurement (possibly an integer one, like cache_hits) and must not
# contribute to identity, or a shifted counter silently unpairs the rows.
IDENTITY = frozenset({
    "mode", "nnodes", "brokers", "procs_per_node", "value_size",
    "gets_per_consumer", "redundant_values", "single_directory",
    "access_stride", "window", "jobs", "clients", "rounds", "shards",
    "arity", "commits", "producers",
})


def identity(row):
    return tuple(sorted((k, v) for k, v in row.items() if k in IDENTITY))


def load(path):
    with open(path) as f:
        return json.load(f)


def row_label(row):
    return ",".join("%s=%s" % (k, v) for k, v in identity(row)
                    if k not in ("bench", "quick"))


def check_limits(fresh):
    """Absolute limits on fresh rows; returns (checked, failures)."""
    checked, fails = 0, []
    for row in fresh.get("rows", []):
        for field, limit in LIMITS.items():
            if field not in row:
                continue
            checked += 1
            value = float(row[field])
            if not (math.isfinite(value) and 0 < value <= limit):
                fails.append("%s %.3f @%s (limit %.2f)"
                             % (field, value, row_label(row), limit))
    return checked, fails


def compare_sidecar(name, base, fresh):
    base_rows = {identity(r): r for r in base.get("rows", [])}
    fresh_ids = {identity(r) for r in fresh.get("rows", [])}
    # A row without a partner is a failure, not a skip: a cell that vanished,
    # or one whose identity moved, would otherwise leave the gate silent.
    fails = ["fresh row @%s has no baseline row" % row_label(r)
             for r in fresh.get("rows", []) if identity(r) not in base_rows]
    fails += ["baseline row @%s has no fresh row" % row_label(r)
              for key, r in base_rows.items() if key not in fresh_ids]
    worst = (0.0, "")
    compared = 0
    for row in fresh.get("rows", []):
        b = base_rows.get(identity(row))
        if b is None:
            continue
        for field, (direction, tol) in METRICS.items():
            if field not in row or field not in b:
                continue
            fv, bv = float(row[field]), float(b[field])
            if not (math.isfinite(fv) and math.isfinite(bv)) or bv <= 0:
                continue
            compared += 1
            ratio = fv / bv if direction == "lower" else bv / fv
            delta = (fv / bv - 1.0) * 100.0
            label = "%s %+.0f%% @%s" % (field, delta, row_label(row))
            if ratio > worst[0]:
                worst = (ratio, label)
            if ratio > tol:
                fails.append("%s (band %.2fx)" % (label, tol))
    return compared, fails, worst


def compare_micro(name, base, fresh):
    base_by_name = {b["name"]: b for b in base.get("benchmarks", [])
                    if b.get("run_type") != "aggregate"}
    fails, worst = [], (0.0, "")
    compared = 0
    for b in fresh.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        ref = base_by_name.get(b["name"])
        if ref is None:
            continue
        fv, bv = float(b.get("cpu_time", 0)), float(ref.get("cpu_time", 0))
        if bv <= 0 or fv <= 0:
            continue
        compared += 1
        ratio = fv / bv
        label = "%s cpu_time %+.0f%%" % (b["name"], (ratio - 1.0) * 100.0)
        if ratio > worst[0]:
            worst = (ratio, label)
        if ratio > MICRO_TOL:
            fails.append("%s (band %.2fx)" % (label, MICRO_TOL))
    return compared, fails, worst


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    fresh_dir = sys.argv[1]
    base_dir = sys.argv[2] if len(sys.argv) > 2 else "bench/results/baseline"

    failed = False
    names = sorted(n for n in os.listdir(fresh_dir)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    if not names:
        print("bench_gate: no BENCH_*.json in %s" % fresh_dir)
        return 2
    for fname in names:
        name = fname[len("BENCH_"):-len(".json")]
        fresh = load(os.path.join(fresh_dir, fname))
        compared, fails = check_limits(fresh)
        worst = (0.0, "limits")
        base_path = os.path.join(base_dir, fname)
        if os.path.exists(base_path):
            compare = compare_micro if "benchmarks" in fresh else compare_sidecar
            n, more, worst = compare(name, load(base_path), fresh)
            compared += n
            fails += more
        elif not fails:
            print("gate: %-22s SKIP (no baseline)" % name)
            continue
        if fails:
            failed = True
            print("gate: %-22s FAIL  %s" % (name, "; ".join(fails)))
        elif compared == 0:
            print("gate: %-22s SKIP (no comparable rows)" % name)
        else:
            print("gate: %-22s OK    (%d metrics, worst %s)"
                  % (name, compared, worst[1]))
    if failed:
        print("bench_gate: REGRESSION — fresh results in %s, baseline in %s"
              % (fresh_dir, base_dir))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
