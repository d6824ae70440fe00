// Execution through the job pipeline: bulk launch, stdio capture into the
// KVS, cancellation, exit aggregation — all via the fluent h.job() API
// (ingest -> queue -> schedule -> wexec -> KVS fold-back).
#include <gtest/gtest.h>

#include "api/job_client.hpp"
#include "modules/wexec.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

/// Submit through the fluent builder and wait for the terminal result.
Task<JobResult> run_job(Handle* h, std::string cmd, Json args,
                        std::int64_t nnodes) {
  JobHandle jh = co_await h->job()
                     .command(std::move(cmd), std::move(args))
                     .nnodes(nnodes)
                     .submit();
  JobResult r = co_await jh.wait();
  co_return r;
}

TEST(Wexec, BulkLaunchOnAllRanks) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(3);
  JobResult r = s.run(run_job(h.get(), "hostname", Json::object(), 8));
  EXPECT_EQ(r.ntasks, 8);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.state, JobState::Complete);
}

TEST(Wexec, StdioCapturedInKvs) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  JobResult r = s.run(run_job(h.get(), "hostname", Json::object(), 4));
  ASSERT_TRUE(r.success);
  const std::string base = job_kvs_path(r.id) + ".stdio.";
  s.run([](Handle* hd, std::string prefix) -> Task<void> {
    KvsClient kvs(*hd);
    for (int rk = 0; rk < 4; ++rk) {
      Json out = co_await kvs.get(prefix + std::to_string(rk) + ".stdout");
      if (out.as_array().at(0) != Json("node" + std::to_string(rk)))
        throw FluxException(Error(errc::proto, "wrong stdout"));
      Json code = co_await kvs.get(prefix + std::to_string(rk) + ".exitcode");
      if (code != Json(0))
        throw FluxException(Error(errc::proto, "nonzero exit"));
    }
  }(h.get(), base));
}

TEST(Wexec, AllocatedSubsetGetsTasks) {
  // A 3-node job on an 8-broker session: exactly the allocated ranks (from
  // the job's ranks key) run tasks; non-allocated ranks have no stdio
  // entries.
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(0);
  JobResult r = s.run(run_job(h.get(), "hostname", Json::object(), 3));
  EXPECT_EQ(r.ntasks, 3);
  s.run([](Handle* hd, std::uint64_t id) -> Task<void> {
    KvsClient kvs(*hd);
    Json ranks = co_await kvs.get(job_kvs_path(id) + ".ranks");
    if (ranks.size() != 3)
      throw FluxException(Error(errc::proto, "wrong allocation width"));
    const std::string base = job_kvs_path(id) + ".stdio.";
    for (const Json& rk : ranks.as_array())
      (void)co_await kvs.get(base + std::to_string(rk.as_int()) + ".stdout");
    // Find a rank outside the allocation; it must have no capture.
    for (std::int64_t cand = 7; cand >= 0; --cand) {
      bool allocated = false;
      for (const Json& rk : ranks.as_array())
        if (rk.as_int() == cand) allocated = true;
      if (allocated) continue;
      try {
        (void)co_await kvs.get(base + std::to_string(cand) + ".stdout");
        throw FluxException(Error(errc::proto, "unexpected entry"));
      } catch (const FluxException& e) {
        if (e.error().code != errc::noent) throw;
      }
      break;
    }
  }(h.get(), r.id));
}

TEST(Wexec, NonzeroExitCodesAggregated) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  Json args = Json::object({{"code", 3}});
  JobResult r = s.run(run_job(h.get(), "exit", std::move(args), 4));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.state, JobState::Failed);
  EXPECT_EQ(r.exits.get_int("3"), 4);
}

TEST(Wexec, UnknownCommandIs127) {
  SimSession s(SimSession::default_config(2));
  auto h = s.attach(0);
  JobResult r = s.run(run_job(h.get(), "not-a-command", Json::object(), 2));
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.exits.get_int("127"), 2);
  // stderr explains the failure.
  s.run([](Handle* hd, std::uint64_t id) -> Task<void> {
    KvsClient kvs(*hd);
    Json err = co_await kvs.get(job_kvs_path(id) + ".stdio.0.stderr");
    if (err.as_array().empty())
      throw FluxException(Error(errc::proto, "no stderr captured"));
  }(h.get(), r.id));
}

TEST(Wexec, JobidsMonotonicallyIncrease) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  std::vector<std::uint64_t> ids = s.run([](Handle* hd)
                                             -> Task<std::vector<std::uint64_t>> {
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 3; ++i) {
      JobHandle jh = co_await hd->job().nnodes(1).submit();
      out.push_back(jh.id());
      (void)co_await jh.wait();
    }
    co_return out;
  }(h.get()));
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_LT(ids[0], ids[1]);
  EXPECT_LT(ids[1], ids[2]);
}

TEST(Wexec, CancelTerminatesSpinners) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(0);
  JobResult r = s.run([](Handle* hd) -> Task<JobResult> {
    // Spinners only exit when signalled; cancel delivers SIGTERM.
    JobHandle jh = co_await hd->job().command("spin").nnodes(4).submit();
    while (co_await jh.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(100));
    co_await jh.cancel();
    JobResult out = co_await jh.wait();
    co_return out;
  }(h.get()));
  EXPECT_EQ(r.state, JobState::Canceled);
  // All tasks exited 143 (128 + SIGTERM).
  EXPECT_EQ(r.exits.get_int("143"), 4);
}

TEST(Wexec, ProcessesUseKvsThroughTheirOwnHandle) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  Json args = Json::object({{"key", "fromproc.v"}, {"value", "written"}});
  JobResult r = s.run(run_job(h.get(), "kvsput", std::move(args), 1));
  EXPECT_TRUE(r.success);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    Json v = co_await kvs.get("fromproc.v");
    if (v != Json("written"))
      throw FluxException(Error(errc::proto, "kvsput did not stick"));
  }(h.get()));
}

TEST(Wexec, CustomRegisteredCommand) {
  modules::CommandRegistry::instance().add(
      "answer", [](modules::ProcessCtx& p) -> Task<int> {
        p.out("42");
        co_return 0;
      });
  SimSession s(SimSession::default_config(2));
  auto h = s.attach(0);
  JobResult r = s.run(run_job(h.get(), "answer", Json::object(), 2));
  EXPECT_TRUE(r.success);
  s.run([](Handle* hd, std::uint64_t id) -> Task<void> {
    KvsClient kvs(*hd);
    Json out = co_await kvs.get(job_kvs_path(id) + ".stdio.1.stdout");
    if (out.as_array().at(0) != Json("42"))
      throw FluxException(Error(errc::proto, "custom command output wrong"));
  }(h.get(), r.id));
}

}  // namespace
}  // namespace flux
