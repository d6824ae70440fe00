// Shared helpers of the seeded explorer suites (dst, persist, chaos): sweep
// widths from an environment knob, a one-line verdict per failing schedule,
// and the "every seed in the sweep passes" assertion.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "check/explorer.hpp"
#include "test_seed.hpp"

namespace flux::check {

/// Sweep width: `$env` when it parses to a positive count (e.g.
/// FLUX_DST_SEEDS=500 for a soak), else `dflt`.
inline int sweep(const char* env, int dflt) {
  if (const char* v = std::getenv(env)) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return dflt;
}

/// Everything a failing schedule reports, plan included, so the seed and the
/// output are enough to replay it.
inline std::string describe(const DstResult& r) {
  std::ostringstream os;
  os << "seed " << r.seed << ": ";
  if (r.workload_error) os << "workload error: " << r.error << "; ";
  if (r.stalled_clients > 0) os << r.stalled_clients << " stalled; ";
  os << r.report.to_string();
  for (const std::string& v : r.job_violations) os << "\n  job oracle: " << v;
  for (const std::string& v : r.durability_violations)
    os << "\n  durability: " << v;
  for (const std::string& v : r.recovery_violations)
    os << "\n  recovery: " << v;
  if (!r.fault_plan.is_null()) os << "\nfault plan: " << r.fault_plan.dump();
  return os.str();
}

/// Every seed in [base, base + n) must pass under `opt`.
inline void expect_all_pass(std::uint64_t base, int n, const DstOptions& opt) {
  const std::vector<DstResult> failures = explore(base, n, opt);
  for (const DstResult& f : failures) ADD_FAILURE() << describe(f);
  EXPECT_TRUE(failures.empty())
      << failures.size() << "/" << n << " schedules failed (replay with "
      << "FLUX_TEST_SEED; first failing seed printed above)";
}

}  // namespace flux::check
