// Client-side observability API.
//
// aggregate_stats wraps the "<service>.stats.get" RPC family: it sweeps every rank
// on the ring plane and merges the snapshots (counters sum, histogram
// buckets add) into the session-wide view the `flux stats` sub-command
// prints. Services: "cmb" reaches the broker core on every rank; a module
// name reaches that module where it is loaded (ranks without it are
// skipped in aggregation).
#pragma once

#include <string>

#include "api/handle.hpp"
#include "exec/task.hpp"

namespace flux::obs {

/// Sweep all ranks and merge: {"counters":{...},"histograms":{...},
/// "ranks":<responding>}. Ranks where the service is not loaded (ENOSYS)
/// and ranks whose snapshot is malformed (errc::proto) are skipped.
Task<Json> aggregate_stats(Handle& h, std::string service, bool all = false);

/// Render a merged snapshot for terminal output: counters first (sorted),
/// then one line per histogram (count/mean/p50/p90/p99/max).
std::string format_snapshot(const Json& snapshot);

}  // namespace flux::obs
