// Deterministic-simulation tests (ctest -L dst).
//
// Three layers, matching DESIGN.md §5:
//   1. exploration — sweep seeds through the standard DST workload (clean,
//      sharded, fault-injected) and require the consistency oracle to pass
//      every schedule. FLUX_DST_SEEDS scales the per-config sweep width;
//      FLUX_TEST_SEED shifts the base seed of every sweep.
//   2. teeth — for each property the oracle claims to check, enable the one
//      test-only mutation that breaks exactly that property and require the
//      oracle to flag it. An oracle that passes a mutated run is blind.
//   3. repro — the shrinker minimizes a seeded failure to a small Repro, and
//      every JSON repro committed under tests/repro/ replays forever: as a
//      failure with its recorded violations, or, for a fixed bug, clean.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/job_client.hpp"
#include "broker/session.hpp"
#include "check/explorer.hpp"
#include "check/mutation.hpp"
#include "check/shrink.hpp"
#include "dst_harness.hpp"
#include "exec/sim_executor.hpp"
#include "fault/plan.hpp"

namespace flux::check {
namespace {

using flux::testing::test_seed;

/// Per-config sweep width; FLUX_DST_SEEDS overrides (e.g. 500 for a soak).
int dst_seeds(int dflt) { return sweep("FLUX_DST_SEEDS", dflt); }

// -- 1. exploration -----------------------------------------------------------

TEST(DstExplore, CleanSchedulesPass) {
  DstOptions opt;
  expect_all_pass(test_seed(), dst_seeds(80), opt);
}

TEST(DstExplore, ShardedSchedulesPass) {
  DstOptions opt;
  opt.size = 5;
  opt.shards = 2;
  expect_all_pass(test_seed() + 0x10000, dst_seeds(80), opt);
}

TEST(DstExplore, FaultedSchedulesPass) {
  DstOptions opt;
  opt.drops = true;
  opt.delays = true;
  expect_all_pass(test_seed() + 0x20000, dst_seeds(60), opt);
}

TEST(DstExplore, CrashSchedulesPass) {
  DstOptions opt;
  opt.crashes = true;
  opt.restarts = true;
  opt.delays = true;
  expect_all_pass(test_seed() + 0x30000, dst_seeds(20), opt);
}

TEST(DstExplore, JobLifecycleSchedulesPass) {
  // Submit / cancel / complete through the full pipeline concurrently with
  // the KVS workload; the jobid-monotonicity, terminal-state, disjoint
  // per-rank allocation, and no-orphan oracles must hold on every schedule.
  DstOptions opt;
  opt.jobs = true;
  opt.size = 6;
  expect_all_pass(test_seed() + 0x60000, dst_seeds(20), opt);
}

TEST(DstExplore, JobLifecycleSurvivesBrokerCrashes) {
  // The chaos acceptance run: a broker crash mid-dispatch (victim chosen by
  // the seeded plan, never rank 0) must end every affected job in Failed or
  // re-queued-then-terminal, with its allocation returned — never an
  // orphaned allocation in resvc or a never-terminal job in the KVS.
  DstOptions opt;
  opt.jobs = true;
  opt.size = 6;
  opt.crashes = true;
  expect_all_pass(test_seed() + 0x70000, dst_seeds(10), opt);
}

TEST(DstExplore, SameSeedIsDeterministic) {
  // Lossy links, a crash schedule, and a replayed corruption plan: the same
  // seed gives the same history, verdict and plan every time.
  const auto expect_same = [](const char* what, const auto& run) {
    SCOPED_TRACE(what);
    const DstResult a = run();
    const DstResult b = run();
    EXPECT_EQ(a.history_len, b.history_len);
    EXPECT_EQ(a.failed(), b.failed());
    EXPECT_EQ(a.report.to_string(), b.report.to_string());
    EXPECT_EQ(a.recovery_violations, b.recovery_violations);
    EXPECT_EQ(a.fault_plan.dump(), b.fault_plan.dump());
  };
  const std::uint64_t base = test_seed();
  DstOptions lossy;
  lossy.drops = true;
  lossy.delays = true;
  expect_same("lossy", [&] { return run_schedule(base + 0x40000, lossy); });
  DstOptions crashing;
  crashing.size = 10;
  crashing.crashes = true;
  crashing.restarts = true;
  expect_same("crashing", [&] { return run_schedule(base + 12, crashing); });
  DstOptions corrupted;
  corrupted.size = 10;
  fault::FaultPlan::RandomOptions corruption;
  corruption.size = corrupted.size;
  corruption.corruption = true;
  const Json plan = fault::FaultPlan::random(base + 36, corruption).to_json();
  expect_same("corrupted",
              [&] { return run_schedule(base + 36, corrupted, plan); });
}

// -- 2. mutation teeth --------------------------------------------------------

/// Enable `name` and require some schedule in a short sweep to violate
/// exactly the property the mutation targets. Most mutations fire on the
/// first seed; the small sweep keeps the assertion robust to workload timing.
void expect_mutation_caught(const char* name, const char* property,
                            const DstOptions& opt) {
  SCOPED_TRACE(name);
  const MutationGuard guard(name);
  const std::uint64_t base = test_seed() + 0x50000;
  std::ostringstream seen;
  for (int i = 0; i < 8; ++i) {
    const DstResult r = run_schedule(base + static_cast<std::uint64_t>(i), opt);
    if (r.report.violates(property)) return;  // caught — oracle has teeth
    seen << "  " << describe(r) << "\n";
  }
  ADD_FAILURE() << "oracle never flagged '" << property
                << "' under mutation '" << name << "' (8 seeds):\n"
                << seen.str();
}

TEST(DstMutation, RegressedRootIsCaughtAsMonotonicReads) {
  expect_mutation_caught("kvs.regress_root", "monotonic-reads", DstOptions{});
}

TEST(DstMutation, SkippedApplyIsCaughtAsReadYourWrites) {
  expect_mutation_caught("kvs.skip_apply", "read-your-writes", DstOptions{});
}

TEST(DstMutation, EarlyFenceFuseIsCaughtAsFenceAtomicity) {
  DstOptions opt;
  opt.size = 5;
  opt.shards = 2;
  expect_mutation_caught("kvs.fence_fuse_early", "fence-atomicity", opt);
}

TEST(DstMutation, SkippedVersionBumpIsCaughtAsSetrootSequence) {
  expect_mutation_caught("kvs.skip_version_bump", "setroot-sequence",
                         DstOptions{});
}

TEST(DstMutation, WatchRefireIsCaughtAsWatchOrder) {
  expect_mutation_caught("kvs.watch_refire", "watch-order", DstOptions{});
}

TEST(DstJobsOracle, AckedJobsWithNoRecordsAreAViolation) {
  // A job may lose its record to a fault, so the oracle skips an unreadable
  // one; but if no acked job can be read, the oracles checked nothing (a
  // stale job path would look exactly like this) and the run must fail.
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = 4;
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();
  auto h = session->attach(0);
  std::vector<std::uint64_t> real;
  co_spawn(ex, [](Handle* hd, std::vector<std::uint64_t>* out) -> Task<void> {
    JobHandle jh = co_await hd->job().nnodes(2).submit();
    (void)co_await jh.wait();
    out->push_back(jh.id());
  }(h.get(), &real));
  ex.run();
  ASSERT_EQ(real.size(), 1u);

  std::vector<std::string> clean;
  co_spawn(ex, jobs_post_check(h.get(), &real, &clean));
  ex.run();
  EXPECT_EQ(clean, std::vector<std::string>{});

  const std::vector<std::uint64_t> ghosts{real[0] + 1000, real[0] + 1001};
  std::vector<std::string> violations;
  co_spawn(ex, jobs_post_check(h.get(), &ghosts, &violations));
  ex.run();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("no eventlog of the 2 acked jobs"),
            std::string::npos)
      << violations[0];
}

// -- 3. shrinker + committed repros ------------------------------------------

TEST(DstRepro, JsonRoundTripKeepsEveryOption) {
  // Every DstOptions field set off its default: a repro that dropped one
  // (the job workload, say) would replay a different run than it captured.
  Repro r;
  r.seed = 77;
  r.opt.size = 7;
  r.opt.arity = 3;
  r.opt.shards = 2;
  r.opt.failover = true;
  r.opt.clients = 5;
  r.opt.rounds = 4;
  r.opt.jitter_max = Duration{1234};
  r.opt.crashes = true;
  r.opt.restarts = true;
  r.opt.drops = true;
  r.opt.delays = true;
  r.opt.max_crashes = 3;
  r.opt.persist = true;
  r.opt.master_crash = true;
  r.opt.jobs = true;
  r.opt.jobs_per_client = 6;
  r.mutations = {"kvs.skip_apply"};
  r.expect = {"read-your-writes"};
  const Repro back = Repro::from_json(r.to_json());
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.opt.size, r.opt.size);
  EXPECT_EQ(back.opt.arity, r.opt.arity);
  EXPECT_EQ(back.opt.shards, r.opt.shards);
  EXPECT_EQ(back.opt.failover, r.opt.failover);
  EXPECT_EQ(back.opt.clients, r.opt.clients);
  EXPECT_EQ(back.opt.rounds, r.opt.rounds);
  EXPECT_EQ(back.opt.jitter_max, r.opt.jitter_max);
  EXPECT_EQ(back.opt.crashes, r.opt.crashes);
  EXPECT_EQ(back.opt.restarts, r.opt.restarts);
  EXPECT_EQ(back.opt.drops, r.opt.drops);
  EXPECT_EQ(back.opt.delays, r.opt.delays);
  EXPECT_EQ(back.opt.max_crashes, r.opt.max_crashes);
  EXPECT_EQ(back.opt.persist, r.opt.persist);
  EXPECT_EQ(back.opt.master_crash, r.opt.master_crash);
  EXPECT_EQ(back.opt.jobs, r.opt.jobs);
  EXPECT_EQ(back.opt.jobs_per_client, r.opt.jobs_per_client);
  EXPECT_EQ(back.mutations, r.mutations);
  EXPECT_EQ(back.expect, r.expect);
}

std::size_t plan_components(const Json& plan) {
  if (!plan.is_object()) return 0;
  return plan.at("events").size() + plan.at("links").size() +
         plan.at("nth").size();
}

TEST(DstShrink, MinimizesASeededFailure) {
  // Seed a real failure: a faulted sharded run with the early-fuse mutation
  // enabled. The mutation (not the fault plan) causes the violation, so the
  // shrinker should strip the plan down and drop the jitter.
  DstOptions opt;
  opt.size = 5;
  opt.shards = 2;
  opt.drops = true;
  opt.delays = true;

  const std::uint64_t base = test_seed() + 0x60000;
  Repro failing;
  bool found = false;
  {
    const MutationGuard guard("kvs.fence_fuse_early");
    for (int i = 0; i < 8 && !found; ++i) {
      const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
      const DstResult r = run_schedule(seed, opt);
      if (!r.failed()) continue;
      failing.seed = seed;
      failing.opt = opt;
      failing.fault_plan = r.fault_plan;
      failing.mutations = {"kvs.fence_fuse_early"};
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no failing seed in 8 tries";

  const std::size_t before = plan_components(failing.fault_plan);
  ASSERT_TRUE(replay(failing).failed());

  const Repro small = shrink(failing);
  const DstResult r = replay(small);
  EXPECT_TRUE(r.failed()) << "shrunk repro no longer fails";
  EXPECT_LE(plan_components(small.fault_plan), before);
  // The mutation alone causes this failure, so the shrinker must make real
  // progress on at least one axis.
  const bool progressed = plan_components(small.fault_plan) < before ||
                          small.opt.rounds < opt.rounds ||
                          small.opt.jitter_max.count() == 0;
  EXPECT_TRUE(progressed) << "shrinker made no progress at all";
  EXPECT_FALSE(small.expect.empty());

  // The repro round-trips through its JSON form.
  const Repro reloaded = Repro::from_json(small.to_json());
  EXPECT_TRUE(replay(reloaded).failed());

  // FLUX_UPDATE_REPRO=1 commits this run's shrunk repro under tests/repro/
  // (the FLUX_UPDATE_GOLDEN idiom), where DstRepro replays it forever.
  if (std::getenv("FLUX_UPDATE_REPRO") != nullptr) {
    const std::filesystem::path path =
        std::filesystem::path(FLUX_REPRO_DIR) / "fence_fuse_early.json";
    std::ofstream out(path);
    out << small.to_json().dump_pretty() << "\n";
    ASSERT_TRUE(out.good()) << "failed writing " << path;
  }
}

TEST(DstRepro, CommittedReprosStillReproduce) {
  const std::filesystem::path dir(FLUX_REPRO_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    SCOPED_TRACE(entry.path().filename().string());
    ++n;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    auto parsed = Json::parse(buf.str());
    ASSERT_TRUE(parsed.has_value()) << parsed.error().to_string();
    const Repro repro = Repro::from_json(*parsed);
    const DstResult r = replay(repro);
    // One rule: a repro that names violations must still fail with them; a
    // repro of a fixed bug (no expect, no mutation) must replay clean.
    if (repro.expect.empty()) {
      EXPECT_TRUE(repro.mutations.empty())
          << "a mutation repro must name the violations it expects";
      EXPECT_FALSE(r.failed()) << "fixed-bug repro fails: " << describe(r);
      continue;
    }
    EXPECT_TRUE(r.failed()) << "committed repro no longer fails";
    for (const std::string& property : repro.expect)
      EXPECT_TRUE(r.report.violates(property))
          << "expected violation '" << property << "' missing: "
          << r.report.to_string();
  }
  EXPECT_GE(n, 1) << "no committed repros under " << dir;
}

}  // namespace
}  // namespace flux::check
