// DST schedule explorer: run a standard KVS workload on a simulated session
// under a 64-bit seed and hand the recorded history to the consistency
// oracle. It is the repo's one fault-exploration harness: the dst, persist
// and chaos suites are all sweeps of run_schedule() over DstOptions cells.
//
// One seed fixes everything about a run — the SimNet delivery-jitter stream
// (NetParams::jitter_seed, the tie-break hook), the composed FaultPlan (when
// any fault category is on), and the workload itself — so a failing seed
// replays bit-for-bit. explore() sweeps N consecutive seeds and returns the
// failures; the shrinker (check/shrink.hpp) minimizes one failure into a
// committed repro, which replay() runs again.
//
// The workload exercises every checked property: per-client solo commits and
// read-backs (read-your-writes), collective fences with own- and peer-key
// reads after completion (fence atomicity), a watched key one client
// rewrites each round while unrelated commits churn the root (watch order),
// and the setroot/version-vector observations every op samples (monotonic
// reads, setroot sequence). After the workload, every run with a fault plan
// also checks that the session recovered from it
// (DstResult::recovery_violations).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "exec/executor.hpp"
#include "exec/task.hpp"
#include "json/json.hpp"

namespace flux {
class ContentStore;
class Handle;
class Sha1;
}  // namespace flux

namespace flux::check {

struct DstOptions {
  std::uint32_t size = 4;    ///< session size
  std::uint32_t arity = 2;   ///< tree arity
  std::uint32_t shards = 1;  ///< >1 = sharded KVS masters
  bool failover = false;     ///< hb-driven shard-master failover
  int clients = 3;           ///< client handles, spread over ranks 1..size-1
  int rounds = 2;            ///< workload rounds

  /// SimNet delivery perturbation bound; 0 disables the tie-break hook and
  /// the network model is byte-identical to the unperturbed baseline.
  Duration jitter_max{2000};

  /// Fault categories of the FaultPlan synthesized from the run seed; the
  /// run composes a plan when any of them (or master_crash) is set.
  /// Corruption is deliberately not one of them: a decodable-but-corrupted
  /// setroot event would make the oracle flag the *transport*, not the KVS
  /// contract. A corruption schedule is replayed as an explicit plan and
  /// judged on liveness only (no stalled client, no untyped escape).
  bool crashes = false;
  bool restarts = false;
  bool drops = false;
  bool delays = false;
  int max_crashes = 1;

  /// Persistence matrix dimension: give every KVS master a durable content
  /// backend (file-log, unique temp path per run, removed afterwards) and,
  /// after the session tears down, run the offline durability audit — reopen
  /// the log(s), recover into a fresh store, and require every acked commit's
  /// data to be reachable under the recovered root. Crashes automatically
  /// compose a torn-write rule so unsynced tails are lost realistically.
  bool persist = false;
  /// Crash the session root mid-run and restart it (composed into the fault
  /// plan even when no category above is set). Requires `persist`: without
  /// a durable backend the master's state is unrecoverable by design. This
  /// is the kill-and-restart scenario: the audit then proves no acked commit
  /// from before the crash was lost.
  bool master_crash = false;

  /// Add a job-lifecycle workload (submit / cancel / complete through the
  /// full ingest -> job-manager -> resvc -> wexec pipeline) alongside the
  /// KVS clients, with its own oracles: jobids are per-client monotone and
  /// globally unique, every job reaches a terminal state, no node is
  /// allocated to two jobs at once (per-rank busy intervals from the
  /// committed eventlogs are disjoint), and the run ends with no orphaned
  /// allocation in resvc.
  bool jobs = false;
  int jobs_per_client = 2;  ///< submissions per job client per run
};

struct DstResult {
  std::uint64_t seed = 0;
  OracleReport report;
  std::size_t history_len = 0;
  /// Workload coroutines that never completed (a hang is a failure too).
  int stalled_clients = 0;
  /// An untyped exception escaped the workload (always a bug).
  bool workload_error = false;
  std::string error;
  /// The fault plan the run composed or replayed (null when it had none).
  Json fault_plan;
  /// Violations of the job-lifecycle oracles (empty when opt.jobs is false).
  std::vector<std::string> job_violations;
  /// Violations of the post-run durability audit (empty when opt.persist is
  /// false): acked commits whose data is not recoverable from the on-disk
  /// log, or a log that fails to recover at all.
  std::vector<std::string> durability_violations;
  /// Violations of the post-run recovery checks, which run on every
  /// schedule with a fault plan: a rank whose last plan event is a restart
  /// is online and not failed; with failover, every shard whose first
  /// master crashed has a new master that every live rank agrees on; and a
  /// fresh handle on each restarted rank reads back every single-writer key
  /// acked before its restart.
  std::vector<std::string> recovery_violations;

  [[nodiscard]] bool failed() const noexcept {
    return !report.ok() || stalled_clients > 0 || workload_error ||
           !job_violations.empty() || !durability_violations.empty() ||
           !recovery_violations.empty();
  }
};

/// The post-run job oracles (DstOptions::jobs), read through `h` from the
/// committed KVS record and the live resvc, not from client bookkeeping:
/// every acked job in `ids` that can be read ended terminal, no rank was
/// busy for two jobs at once, resvc holds no allocation, and at least one
/// acked job could be read at all. Appends each violation to `out`.
Task<void> jobs_post_check(Handle* h, const std::vector<std::uint64_t>* ids,
                           std::vector<std::string>* out);

/// Resolve `key` under `root` in `store` by walking directory objects, as the
/// KVS master would. nullopt = not reachable.
std::optional<Json> resolve_key(const ContentStore& store, const Sha1& root,
                                const std::string& key);

/// Run one schedule under `seed` (jitter stream + synthesized fault plan +
/// workload all derive from it).
DstResult run_schedule(std::uint64_t seed, const DstOptions& opt);

/// Same, but replay an explicit fault-plan JSON (FaultPlan::from_json
/// format; pass a null Json for no faults). The shrinker's path.
DstResult run_schedule(std::uint64_t seed, const DstOptions& opt,
                       const Json& fault_plan);

/// Run seeds [first, first + n); returns only the failing results. Each
/// failure's seed is printed to stderr so a human can replay it.
std::vector<DstResult> explore(std::uint64_t first, int n,
                               const DstOptions& opt);

}  // namespace flux::check
