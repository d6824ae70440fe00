// Scheduling policies and the per-instance event-driven scheduler.
#include <gtest/gtest.h>

#include "exec/sim_executor.hpp"
#include "resource/pool.hpp"
#include "sched/scheduler.hpp"

namespace flux {
namespace {

struct SchedFixture {
  SchedFixture(std::string policy, std::uint32_t nnodes = 16)
      : graph(ResourceGraph::build_center("c", 1, 1, nnodes, 16, 32, 350, 100)),
        pool(graph),
        sched(ex, pool, make_policy(policy), sched_stats) {}

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
};

TEST(Scheduler, FcfsRunsJobsInOrder) {
  SchedFixture f("fcfs");
  std::vector<std::uint64_t> started;
  f.sched.on_start([&](std::uint64_t id, const Allocation&) {
    started.push_back(id);
  });
  ResourceRequest req;
  req.nnodes = 4;
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(f.sched.submit(req, std::chrono::milliseconds(1)).has_value());
  f.ex.run();
  ASSERT_EQ(started.size(), 6u);
  EXPECT_TRUE(std::is_sorted(started.begin(), started.end()));
  EXPECT_EQ(f.count("completed"), 6u);
  EXPECT_EQ(f.pool.free_nodes(), 16u);
}

TEST(Scheduler, InfeasibleSubmissionRejected) {
  SchedFixture f("fcfs");
  ResourceRequest req;
  req.nnodes = 999;
  EXPECT_FALSE(f.sched.submit(req, std::chrono::milliseconds(1)).has_value());
}

TEST(Scheduler, CancelPendingJob) {
  SchedFixture f("fcfs");
  ResourceRequest wide;
  wide.nnodes = 16;
  ResourceRequest blocked = wide;
  auto first = f.sched.submit(wide, std::chrono::milliseconds(5));
  auto second = f.sched.submit(blocked, std::chrono::milliseconds(5));
  ASSERT_TRUE(first.has_value() && second.has_value());
  f.ex.run_for(std::chrono::milliseconds(1));  // first started, second queued
  ASSERT_TRUE(f.sched.cancel(*second).has_value());
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
  std::vector<std::uint64_t> started;
  f.sched.on_start([&](std::uint64_t id, const Allocation&) {
    started.push_back(id);
  });
  auto a = f.sched.submit(half, std::chrono::milliseconds(10));
  auto b = f.sched.submit(full, std::chrono::milliseconds(1));   // blocked head
  auto c = f.sched.submit(small, std::chrono::milliseconds(1));  // behind it
  (void)a; (void)c;
  f.ex.run_for(std::chrono::milliseconds(5));
  // Under strict FCFS, c must NOT jump ahead of the blocked b.
  EXPECT_EQ(started.size(), 1u);
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 3u);
  EXPECT_EQ(started[1], *b);
}

TEST(Scheduler, EasyBackfillsShortNarrowJobs) {
  SchedFixture f("easy");
  ResourceRequest half;
  half.nnodes = 8;
  ResourceRequest full;
  full.nnodes = 16;
  ResourceRequest small;
  small.nnodes = 2;
  std::vector<std::uint64_t> started;
  f.sched.on_start([&](std::uint64_t id, const Allocation&) {
    started.push_back(id);
  });
  auto a = f.sched.submit(half, std::chrono::milliseconds(10));
  auto b = f.sched.submit(full, std::chrono::milliseconds(1));
  // Short job fits in the hole and finishes before the shadow time.
  auto c = f.sched.submit(small, std::chrono::milliseconds(2));
  (void)a; (void)b;
  f.ex.run_for(std::chrono::milliseconds(5));
  ASSERT_GE(started.size(), 2u);
  EXPECT_EQ(started[1], *c);  // backfilled ahead of the blocked head
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
  std::vector<std::uint64_t> started;
  f.sched.on_start([&](std::uint64_t id, const Allocation&) {
    started.push_back(id);
  });
  auto a = f.sched.submit(half, std::chrono::milliseconds(10));
  auto b = f.sched.submit(full, std::chrono::milliseconds(1));
  auto c = f.sched.submit(long_narrow, std::chrono::milliseconds(100));
  (void)a; (void)c;
  f.ex.run_for(std::chrono::milliseconds(5));
  // c is long and wide enough to delay b: it must not have started.
  EXPECT_EQ(started.size(), 1u);
  f.ex.run();
  // Eventually order is a, b, c.
  ASSERT_EQ(started.size(), 3u);
  EXPECT_EQ(started[1], *b);
}

TEST(Scheduler, FirstFitStartsAnythingThatFits) {
  SchedFixture f("firstfit");
  ResourceRequest half;
  half.nnodes = 8;
  ResourceRequest full;
  full.nnodes = 16;
  ResourceRequest small;
  small.nnodes = 2;
  std::vector<std::uint64_t> started;
  f.sched.on_start([&](std::uint64_t id, const Allocation&) {
    started.push_back(id);
  });
  (void)f.sched.submit(half, std::chrono::milliseconds(10));
  auto blocked_head = f.sched.submit(full, std::chrono::milliseconds(1));
  auto tiny = f.sched.submit(small, std::chrono::milliseconds(30));
  (void)blocked_head;
  f.ex.run_for(std::chrono::milliseconds(5));
  // first-fit skips the blocked full-size head and starts the tiny job.
  ASSERT_EQ(started.size(), 2u);
  EXPECT_EQ(started[1], *tiny);
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 3u);
}

TEST(Scheduler, WaitTimeAccounting) {
  SchedFixture f("fcfs");
  ResourceRequest full;
  full.nnodes = 16;
  (void)f.sched.submit(full, std::chrono::milliseconds(4));
  (void)f.sched.submit(full, std::chrono::milliseconds(4));
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
  for (int i = 0; i < 50; ++i)
    (void)f.sched.submit(one, std::chrono::microseconds(10));
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 50u);
  EXPECT_GT(f.count("passes"), 0u);
  EXPECT_GT(f.count("busy_ns"), 0u);
}

TEST(Scheduler, IdleCallbackFiresWhenDrained) {
  SchedFixture f("fcfs");
  int idle_events = 0;
  f.sched.on_idle([&] { ++idle_events; });
  ResourceRequest one;
  one.nnodes = 1;
  (void)f.sched.submit(one, std::chrono::microseconds(5));
  f.ex.run();
  EXPECT_GE(idle_events, 1);
  EXPECT_TRUE(f.sched.idle());
}

TEST(Scheduler, ManualCompletionJobs) {
  SchedFixture f("fcfs");
  std::uint64_t started_id = 0;
  f.sched.on_start([&](std::uint64_t id, const Allocation&) {
    started_id = id;
  });
  auto id = f.sched.submit({.nnodes = 2}, std::chrono::milliseconds(1), 0,
                           /*manual_completion=*/true);
  ASSERT_TRUE(id.has_value());
  f.ex.run();
  EXPECT_EQ(started_id, *id);
  EXPECT_EQ(f.sched.running_count(), 1u);  // walltime elapsed but still alive
  f.sched.finish(*id);
  f.ex.run();
  EXPECT_EQ(f.count("completed"), 1u);
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
