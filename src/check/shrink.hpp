// Schedule shrinker: minimize a failing DST run to a smallest-known repro.
//
// A Repro is everything needed to replay one schedule bit-for-bit: the seed
// (jitter stream + workload), the scenario shape, an explicit fault-plan
// JSON (FaultPlan::from_json format), and any test-only mutations that were
// enabled. shrink() greedily deletes fault-plan components (node events,
// link policies, nth rules), zeroes the jitter, and trims workload rounds,
// keeping each deletion only if the run still fails — the classic
// delta-debugging loop, converging on a local minimum.
//
// Repros serialize to JSON (every DstOptions field) so a schedule can be
// committed under tests/repro/ and replayed deterministically by a ctest
// forever after: a failure with the violations in `expect`, or, with an
// empty `expect` and no mutations, a fixed bug that must replay clean.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "json/json.hpp"

namespace flux::check {

struct Repro {
  std::uint64_t seed = 1;
  DstOptions opt;                      ///< scenario shape, every field kept
  Json fault_plan;                     ///< explicit plan; null = none
  std::vector<std::string> mutations;  ///< check/mutation.hpp names to enable
  std::vector<std::string> expect;     ///< properties violated when captured

  [[nodiscard]] Json to_json() const;
  static Repro from_json(const Json& j);  ///< throws FluxException(inval)
};

/// Replay a repro (enabling its mutations for the duration of the run).
DstResult replay(const Repro& r);

/// Greedily minimize `failing` (which must currently fail — replay() first).
/// Runs at most `max_rounds` full passes over the component list; each kept
/// deletion re-replays, so cost is O(components * rounds) runs. The result's
/// `expect` is refreshed from the minimized run's actual violations.
Repro shrink(Repro failing, int max_rounds = 4);

}  // namespace flux::check
