// Scheduling policies and the per-instance event-driven scheduler.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "exec/sim_executor.hpp"
#include "resource/pool.hpp"
#include "sched/scheduler.hpp"

namespace flux {
namespace {

/// A scheduler over a 16-node pool, owned the way job-manager owns one: the
/// fixture hands out job ids, records each start, and finishes every
/// started job once its walltime has passed (job-manager does so when the
/// job's wexec run ends).
struct SchedFixture {
  SchedFixture(std::string policy, std::uint32_t nnodes = 16)
      : graph(ResourceGraph::build_center("c", 1, 1, nnodes, 16, 32, 350, 100)),
        pool(graph),
        sched(ex, pool, make_policy(policy), sched_stats) {
    sched.on_start([this](std::uint64_t id, const Allocation&) {
      started.push_back(id);
      ex.post_after(walltimes.at(id), [this, id] { sched.finish(id); });
    });
  }

  /// Submit the next job id; returns it.
  std::uint64_t submit(const ResourceRequest& req, Duration walltime) {
    const std::uint64_t id = walltimes.size() + 1;
    walltimes.emplace(id, walltime);
    EXPECT_TRUE(sched.submit(id, req, walltime).has_value());
    return id;
  }

  /// The scheduler's counter `sched.<name>`.
  [[nodiscard]] std::uint64_t count(const std::string& name) const {
    return stats.counter_value("sched." + name);
  }

  SimExecutor ex;
  ResourceGraph graph;
  ResourcePool pool;
  obs::StatsRegistry stats;
  SchedStats sched_stats{stats, "sched"};
  Scheduler sched;
  std::map<std::uint64_t, Duration> walltimes;
  std::vector<std::uint64_t> started;
};

TEST(Scheduler, FcfsRunsJobsInOrder) {
  SchedFixture f("fcfs");
  ResourceRequest req;
  req.nnodes = 4;
  for (int i = 0; i < 6; ++i) f.submit(req, std::chrono::milliseconds(1));
  f.ex.run();
  ASSERT_EQ(f.started.size(), 6u);
  EXPECT_TRUE(std::is_sorted(f.started.begin(), f.started.end()));
  EXPECT_EQ(f.count("completed"), 6u);
  EXPECT_EQ(f.pool.free_nodes(), 16u);
}

TEST(Scheduler, InfeasibleSubmissionRejected) {
  SchedFixture f("fcfs");
  ResourceRequest req;
  req.nnodes = 999;
  EXPECT_FALSE(f.sched.submit(1, req, std::chrono::milliseconds(1)).has_value());
  EXPECT_EQ(f.count("submitted"), 0u);
}

TEST(Scheduler, CancelPendingJob) {
  SchedFixture f("fcfs");
  ResourceRequest wide;
  wide.nnodes = 16;
  f.submit(wide, std::chrono::milliseconds(5));
  const std::uint64_t second = f.submit(wide, std::chrono::milliseconds(5));
  f.ex.run_for(std::chrono::milliseconds(1));  // first started, second queued
  ASSERT_TRUE(f.sched.cancel(second).has_value());
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 1u);
  EXPECT_EQ(f.count("canceled"), 1u);
}

TEST(Scheduler, StrictFcfsHeadBlocksQueue) {
  SchedFixture f("fcfs");
  ResourceRequest half;
  half.nnodes = 8;
  ResourceRequest full;
  full.nnodes = 16;
  ResourceRequest small;
  small.nnodes = 1;
  f.submit(half, std::chrono::milliseconds(10));
  // b is the blocked head; c waits behind it.
  const std::uint64_t b = f.submit(full, std::chrono::milliseconds(1));
  f.submit(small, std::chrono::milliseconds(1));
  f.ex.run_for(std::chrono::milliseconds(5));
  // Under strict FCFS, c must NOT jump ahead of the blocked b.
  EXPECT_EQ(f.started.size(), 1u);
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 3u);
  EXPECT_EQ(f.started[1], b);
}

TEST(Scheduler, EasyBackfillsShortNarrowJobs) {
  SchedFixture f("easy");
  ResourceRequest half;
  half.nnodes = 8;
  ResourceRequest full;
  full.nnodes = 16;
  ResourceRequest small;
  small.nnodes = 2;
  f.submit(half, std::chrono::milliseconds(10));
  f.submit(full, std::chrono::milliseconds(1));
  // Short job fits in the hole and finishes before the shadow time.
  const std::uint64_t c = f.submit(small, std::chrono::milliseconds(2));
  f.ex.run_for(std::chrono::milliseconds(5));
  ASSERT_GE(f.started.size(), 2u);
  EXPECT_EQ(f.started[1], c);  // backfilled ahead of the blocked head
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 3u);
}

TEST(Scheduler, EasyDoesNotDelayReservation) {
  SchedFixture f("easy");
  ResourceRequest half;
  half.nnodes = 8;
  ResourceRequest full;
  full.nnodes = 16;
  ResourceRequest long_narrow;
  long_narrow.nnodes = 10;  // would collide with the head's reservation
  f.submit(half, std::chrono::milliseconds(10));
  const std::uint64_t b = f.submit(full, std::chrono::milliseconds(1));
  f.submit(long_narrow, std::chrono::milliseconds(100));
  f.ex.run_for(std::chrono::milliseconds(5));
  // c is long and wide enough to delay b: it must not have started.
  EXPECT_EQ(f.started.size(), 1u);
  f.ex.run();
  // Eventually order is a, b, c.
  ASSERT_EQ(f.started.size(), 3u);
  EXPECT_EQ(f.started[1], b);
}

TEST(Scheduler, FirstFitStartsAnythingThatFits) {
  SchedFixture f("firstfit");
  ResourceRequest half;
  half.nnodes = 8;
  ResourceRequest full;
  full.nnodes = 16;
  ResourceRequest small;
  small.nnodes = 2;
  f.submit(half, std::chrono::milliseconds(10));
  f.submit(full, std::chrono::milliseconds(1));  // blocked head
  const std::uint64_t tiny = f.submit(small, std::chrono::milliseconds(30));
  f.ex.run_for(std::chrono::milliseconds(5));
  // first-fit skips the blocked full-size head and starts the tiny job.
  ASSERT_EQ(f.started.size(), 2u);
  EXPECT_EQ(f.started[1], tiny);
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 3u);
}

TEST(Scheduler, WaitTimeAccounting) {
  SchedFixture f("fcfs");
  ResourceRequest full;
  full.nnodes = 16;
  f.submit(full, std::chrono::milliseconds(4));
  f.submit(full, std::chrono::milliseconds(4));
  f.ex.run();
  // Second job waited ~4ms for the first to finish.
  const obs::Histogram wait = f.stats.histogram_value("sched.wait_ns");
  EXPECT_GE(Duration(static_cast<Duration::rep>(wait.sum())),
            std::chrono::milliseconds(3));
  EXPECT_EQ(f.count("completed"), 2u);
}

TEST(Scheduler, PassesCostVirtualTimeAndSerialize) {
  SchedFixture f("fcfs");
  ResourceRequest one;
  one.nnodes = 1;
  for (int i = 0; i < 50; ++i) f.submit(one, std::chrono::microseconds(10));
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 50u);
  EXPECT_GT(f.count("passes"), 0u);
  EXPECT_GT(f.count("busy_ns"), 0u);
}

TEST(Scheduler, JobRunsUntilOwnerFinishes) {
  // The scheduler never ends a job itself: past its walltime a started job
  // still holds its nodes until the owner calls finish().
  SchedFixture f("fcfs");
  std::uint64_t started_id = 0;
  f.sched.on_start([&](std::uint64_t id, const Allocation&) { started_id = id; });
  ASSERT_TRUE(
      f.sched.submit(7, {.nnodes = 2}, std::chrono::milliseconds(1)).has_value());
  f.ex.run();
  EXPECT_EQ(started_id, 7u);
  EXPECT_EQ(f.sched.running_count(), 1u);  // walltime elapsed but still alive
  EXPECT_EQ(f.pool.free_nodes(), 14u);
  f.sched.finish(7);
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 1u);
  EXPECT_EQ(f.pool.free_nodes(), 16u);
  EXPECT_TRUE(f.sched.idle());
}

TEST(PolicyFactory, KnownAndUnknownNames) {
  EXPECT_EQ(make_policy("fcfs")->name(), "fcfs");
  EXPECT_EQ(make_policy("firstfit")->name(), "firstfit");
  EXPECT_EQ(make_policy("easy")->name(), "easy");
  EXPECT_THROW(make_policy("sjf"), std::invalid_argument);
}

}  // namespace
}  // namespace flux
