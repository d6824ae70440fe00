// Executors, coroutine tasks, futures.
#include <gtest/gtest.h>

#include <atomic>

#include "exec/future.hpp"
#include "exec/sim_executor.hpp"
#include "exec/task.hpp"
#include "exec/thread_executor.hpp"

namespace flux {
namespace {

TEST(SimExecutor, RunsInTimeThenFifoOrder) {
  SimExecutor ex;
  std::vector<int> order;
  ex.post_at(TimePoint{30}, [&] { order.push_back(3); });
  ex.post_at(TimePoint{10}, [&] { order.push_back(1); });
  ex.post_at(TimePoint{10}, [&] { order.push_back(2); });  // FIFO tie-break
  ex.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now(), TimePoint{30});
}

TEST(SimExecutor, PostAtPastClampsToNow) {
  SimExecutor ex;
  ex.post_at(TimePoint{100}, [] {});
  ex.run();
  TimePoint seen{};
  ex.post_at(TimePoint{5}, [&] { seen = ex.now(); });
  ex.run();
  EXPECT_EQ(seen, TimePoint{100});
}

TEST(SimExecutor, RunUntilAdvancesClockToDeadline) {
  SimExecutor ex;
  int fired = 0;
  ex.post_at(TimePoint{50}, [&] { ++fired; });
  ex.post_at(TimePoint{150}, [&] { ++fired; });
  ex.run_until(TimePoint{100});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ex.now(), TimePoint{100});
  ex.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimExecutor, DaemonEventsDontKeepRunAlive) {
  SimExecutor ex;
  int daemon_fired = 0;
  int normal_fired = 0;
  // A self-rearming daemon (like the hb module's tick).
  std::function<void()> tick = [&] {
    ++daemon_fired;
    ex.post_daemon_after(Duration{10}, tick);
  };
  ex.post_daemon_after(Duration{10}, tick);
  ex.post_at(TimePoint{35}, [&] { ++normal_fired; });
  ex.run();
  EXPECT_EQ(normal_fired, 1);
  EXPECT_EQ(daemon_fired, 3);  // ticks at 10, 20, 30 ran before t=35
  EXPECT_TRUE(ex.idle());
  ex.run_for(Duration{20});  // run_until executes daemons
  EXPECT_EQ(daemon_fired, 5);
}

TEST(Task, ValueChainPropagates) {
  SimExecutor ex;
  auto inner = [](Executor& e) -> Task<int> {
    co_await sleep_for(e, Duration{5});
    co_return 21;
  };
  auto outer = [&](Executor& e) -> Task<int> {
    const int a = co_await inner(e);
    const int b = co_await inner(e);
    co_return a + b;
  };
  int result = 0;
  co_spawn(ex, [](Task<int> t, int* out) -> Task<void> {
    *out = co_await std::move(t);
  }(outer(ex), &result));
  ex.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(ex.now(), TimePoint{10});
}

TEST(Task, ExceptionsPropagateThroughAwait) {
  SimExecutor ex;
  auto thrower = []() -> Task<int> {
    throw FluxException(Error(errc::noent, "gone"));
    co_return 0;  // unreachable
  };
  bool caught = false;
  co_spawn(ex, [](Task<int> t, bool* c) -> Task<void> {
    try {
      (void)co_await std::move(t);
    } catch (const FluxException& e) {
      *c = (e.error().code == errc::noent);
    }
  }(thrower(), &caught));
  ex.run();
  EXPECT_TRUE(caught);
}

TEST(Task, DetachedExceptionIsSwallowedAndLogged) {
  SimExecutor ex;
  co_spawn(ex, []() -> Task<void> {
    throw std::runtime_error("boom");
    co_return;
  }(), "exploder");
  EXPECT_NO_THROW(ex.run());
}

TEST(Future, ResolveBeforeAwait) {
  SimExecutor ex;
  Promise<int> p(ex);
  p.set_value(5);
  int got = 0;
  co_spawn(ex, [](Future<int> f, int* out) -> Task<void> {
    *out = co_await f;
  }(p.future(), &got));
  ex.run();
  EXPECT_EQ(got, 5);
}

TEST(Future, ResolveAfterAwait) {
  SimExecutor ex;
  Promise<int> p(ex);
  int got = 0;
  co_spawn(ex, [](Future<int> f, int* out) -> Task<void> {
    *out = co_await f;
  }(p.future(), &got));
  ex.post_at(TimePoint{10}, [p] { p.set_value(6); });
  ex.run();
  EXPECT_EQ(got, 6);
}

TEST(Future, MultipleAwaitersAllResume) {
  SimExecutor ex;
  Promise<int> p(ex);
  int sum = 0;
  for (int i = 0; i < 5; ++i) {
    co_spawn(ex, [](Future<int> f, int* out) -> Task<void> {
      *out += co_await f;
    }(p.future(), &sum));
  }
  ex.post_at(TimePoint{1}, [p] { p.set_value(10); });
  ex.run();
  EXPECT_EQ(sum, 50);
}

TEST(Future, FirstSettleWins) {
  SimExecutor ex;
  Promise<int> p(ex);
  p.set_value(1);
  p.set_value(2);
  p.set_error(Error(errc::timeout));
  int got = 0;
  co_spawn(ex, [](Future<int> f, int* out) -> Task<void> {
    *out = co_await f;
  }(p.future(), &got));
  ex.run();
  EXPECT_EQ(got, 1);
}

TEST(Future, ErrorThrowsOnAwait) {
  SimExecutor ex;
  Promise<int> p(ex);
  p.set_error(Error(errc::timeout, "deadline"));
  errc seen = errc::ok;
  co_spawn(ex, [](Future<int> f, errc* out) -> Task<void> {
    try {
      (void)co_await f;
    } catch (const FluxException& e) {
      *out = e.error().code;
    }
  }(p.future(), &seen));
  ex.run();
  EXPECT_EQ(seen, errc::timeout);
}

TEST(ThreadExecutor, PostAndTimersRun) {
  ThreadExecutor ex;
  ex.start();
  std::atomic<int> count{0};
  Promise<int> p(ex);
  ex.post([&] { ++count; });
  ex.post_after(std::chrono::milliseconds(5), [&, p] {
    ++count;
    p.set_value(count.load());
  });
  EXPECT_EQ(p.future().wait(), 2);
  ex.stop();
}

TEST(ThreadExecutor, BlockingWaitFromForeignThread) {
  ThreadExecutor ex;
  ex.start();
  Promise<std::string> p(ex);
  ex.post_after(std::chrono::milliseconds(1), [p] { p.set_value("done"); });
  EXPECT_EQ(p.future().wait(), "done");
  ex.stop();
}

TEST(ThreadExecutor, InLoopThreadDetection) {
  ThreadExecutor ex;
  ex.start();
  Promise<bool> p(ex);
  ex.post([&ex, p] { p.set_value(ex.in_loop_thread()); });
  EXPECT_TRUE(p.future().wait());
  EXPECT_FALSE(ex.in_loop_thread());
  ex.stop();
}

}  // namespace
}  // namespace flux
