// Execution through the job pipeline: bulk launch, stdio capture into the
// KVS, cancellation, exit aggregation — all via the fluent h.job() API
// (ingest -> queue -> schedule -> wexec -> KVS fold-back) — and raw
// wexec.run, whose answer carries the capture.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/job_client.hpp"
#include "fault/injector.hpp"
#include "modules/wexec.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

using namespace std::chrono_literals;

using Link = std::pair<NodeId, NodeId>;  // (from, to)

/// Pass-through injector that records the link of every message on one
/// topic.
class TopicLinks final : public fault::Injector {
 public:
  explicit TopicLinks(std::string topic) : topic_(std::move(topic)) {}
  fault::Verdict on_send(NodeId from, NodeId to, const Message& msg) override {
    if (msg.topic == topic_) links.emplace_back(from, to);
    return fault::Verdict::deliver_v();
  }
  /// The recorded links, sorted.
  [[nodiscard]] std::vector<Link> sorted() const {
    auto out = links;
    std::sort(out.begin(), out.end());
    return out;
  }
  std::vector<Link> links;

 private:
  std::string topic_;
};

/// A raw wexec.run request (no job pipeline) with a 50 ms deadline.
RequestBuilder wexec_run(Handle& h, const std::string& jobid, std::string cmd,
                         Json ranks) {
  return std::move(
      h.request("wexec.run")
          .payload(Json::object({{"jobid", jobid},
                                 {"cmd", std::move(cmd)},
                                 {"args", Json::object()},
                                 {"ranks", std::move(ranks)}}))
          .timeout(50ms));
}

RequestBuilder wexec_kill(Handle& h, const std::string& jobid) {
  return std::move(
      h.request("wexec.kill").payload(Json::object({{"jobid", jobid}})));
}

Task<Message> wexec_run_raw(Handle* h, std::string jobid, std::string cmd,
                            Json ranks) {
  co_return co_await wexec_run(*h, jobid, std::move(cmd), std::move(ranks));
}

/// hb/live at a 100 µs period: a failed broker is declared down within
/// about half a millisecond.
SessionConfig fast_liveness_config(std::uint32_t size) {
  SessionConfig cfg = SimSession::default_config(size);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 100}})},
                    {"live", Json::object({{"missed_max", 3}})}});
  return cfg;
}

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

TEST(Wexec, RunRejectsABadRankList) {
  // Out of range, duplicated, not an integer, not a list, empty: each is
  // refused before anything is sent, instead of a run that never completes.
  TopicLinks execs("wexec.exec");  // outlives the session
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(2);
  s.session().set_fault_injector(&execs);
  const std::vector<Json> bad = {
      Json::array({99}), Json::array({3, 3}), Json::array({"x"}),
      Json::array({-1}), Json(3),           Json::array()};
  for (const Json& ranks : bad) {
    Message r = s.run(wexec_run_raw(h.get(), "bad", "hostname", ranks));
    EXPECT_EQ(r.error(), errc::inval) << ranks.dump();
  }
  EXPECT_TRUE(execs.links.empty());
  // No rejected run kept the jobid: a good run may use it.
  Message ok =
      s.run(wexec_run_raw(h.get(), "bad", "hostname", Json::array({3})));
  ASSERT_TRUE(ok.ok()) << ok.payload().dump();
  EXPECT_EQ(ok.payload().get_int("ntasks"), 1);
}

TEST(Wexec, RunOnADeadRankFailsHostDown) {
  // An exec sent to a broker already declared dead would be lost with it.
  TopicLinks execs("wexec.exec");
  SimSession s(fast_liveness_config(8));
  auto h = s.attach(2);
  s.settle(1ms);
  s.session().fail(5);
  s.settle(2ms);  // detection + live.down
  ASSERT_TRUE(s.session().broker(0).dead_ranks().contains(5));
  s.session().set_fault_injector(&execs);
  Message r =
      s.run(wexec_run_raw(h.get(), "late", "hostname", Json::array({3, 5})));
  EXPECT_EQ(r.error(), errc::host_down);
  EXPECT_TRUE(execs.links.empty());
}

TEST(Wexec, LaunchReachesOnlyAllocatedRanks) {
  // The launch goes root -> rank, once per allocated rank; no other broker
  // sees it.
  TopicLinks execs("wexec.exec");
  SimSession s(SimSession::default_config(16));
  auto h = s.attach(9);
  s.session().set_fault_injector(&execs);
  Message r =
      s.run(wexec_run_raw(h.get(), "j1", "hostname", Json::array({5, 11})));
  ASSERT_TRUE(r.ok()) << r.payload().dump();
  EXPECT_EQ(r.payload().get_int("ntasks"), 2);
  EXPECT_TRUE(r.payload().at("success").as_bool());
  EXPECT_EQ(execs.sorted(), (std::vector<Link>{{0, 5}, {0, 11}}));
}

TEST(Wexec, KillReachesOnlyTheJobsRanks) {
  TopicLinks signals("wexec.signal");
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(4);
  s.session().set_fault_injector(&signals);
  Message r = s.run([](Handle* hd, Json ranks) -> Task<Message> {
    Future<Message> run =
        wexec_run(*hd, "spinner", "spin", std::move(ranks)).send();
    co_await hd->sleep(1ms);  // both spinners are running
    (void)co_await wexec_kill(*hd, "spinner").call();  // SIGTERM
    co_return co_await run;
  }(h.get(), Json::array({3, 7})));
  ASSERT_TRUE(r.ok()) << r.payload().dump();
  EXPECT_EQ(r.payload().at("exits").get_int("143"), 2);
  EXPECT_EQ(signals.sorted(), (std::vector<Link>{{0, 3}, {0, 7}}));

  // The job is finished: a kill answers ok and signals nobody.
  signals.links.clear();
  Message again = s.run([](Handle* hd) -> Task<Message> {
    co_return co_await wexec_kill(*hd, "spinner").call();
  }(h.get()));
  EXPECT_TRUE(again.ok());
  EXPECT_TRUE(signals.links.empty());
}

/// Submit `cmd` on `nnodes`, fail the highest allocated rank once the job
/// runs, and wait for the job's end.
Task<JobResult> fail_a_rank_of(SimSession* sim, Handle* hd, std::string cmd,
                               Json args, std::int64_t nnodes,
                               std::vector<NodeId>* ranks, NodeId* victim) {
  JobHandle j = co_await hd->job()
                    .command(std::move(cmd), std::move(args))
                    .nnodes(nnodes)
                    .submit();
  while (co_await j.state() != JobState::Running)
    co_await hd->sleep(std::chrono::microseconds(100));
  KvsClient kvs(*hd);
  Json allocated = co_await kvs.get(j.kvs_dir() + ".ranks");
  for (const Json& rk : allocated.as_array())
    ranks->push_back(static_cast<NodeId>(rk.as_int()));
  *victim = *std::max_element(ranks->begin(), ranks->end());
  sim->session().fail(*victim);
  Json finish = Json::object();
  JobResult r = co_await j.wait();
  Json log = co_await j.events();
  for (const Json& e : log.as_array())
    if (e.get_string("name") == "finish") finish = e;
  if (finish.get_string("why") != "node_down")
    throw FluxException(Error(errc::proto, "job did not end node_down: " +
                                               log.dump()));
  co_return r;
}

TEST(Wexec, KilledSleepEndsAtOnce) {
  // A 1,000 h sleep whose job loses a rank: the SIGKILL wexec sends the
  // survivors ends their sleeps, so nothing keeps the simulator busy.
  SimSession s(fast_liveness_config(4));
  auto h = s.attach(0);
  s.settle(1ms);
  std::vector<NodeId> ranks;
  NodeId victim = 0;
  const Json args = Json::object({{"us", std::int64_t{3'600'000'000'000}}});
  JobResult r = s.run(
      fail_a_rank_of(&s, h.get(), "sleep", args, 4, &ranks, &victim));
  EXPECT_EQ(r.state, JobState::Failed);
  EXPECT_EQ(victim, 3u);
  EXPECT_LT(s.ex().now(), TimePoint{std::chrono::milliseconds(20)});
}

TEST(Wexec, RunThatLosesARankLeavesNoTaskBehind) {
  // No survivor of a run that lost a rank waits on anything: each ends on
  // its SIGKILL.
  SimSession s(fast_liveness_config(8));
  auto h = s.attach(0);
  s.settle(1ms);
  std::vector<NodeId> ranks;
  NodeId victim = 0;
  JobResult r = s.run(fail_a_rank_of(&s, h.get(), "spin", Json::object(), 4,
                                     &ranks, &victim));
  EXPECT_EQ(r.state, JobState::Failed);
  ASSERT_EQ(ranks.size(), 4u);
  for (NodeId rank : ranks) {
    if (rank == victim) continue;
    auto* wexec = dynamic_cast<modules::Wexec*>(
        s.session().broker(rank).find_module("wexec"));
    ASSERT_NE(wexec, nullptr);
    EXPECT_EQ(wexec->running(), 0u) << "rank " << rank;
  }
}

/// What a completed `echo hi` job's record holds at `key`.
Json echo_hi_record(const std::string& key) {
  if (key.ends_with(".state")) return Json("complete");
  if (key.ends_with(".stdout")) return Json::array({"hi"});
  if (key.ends_with(".stderr")) return Json::array();
  return Json(0);  // exitcode
}

/// A job's state key and the stdio keys of each rank in `ranks`.
std::vector<std::string> record_keys(const std::string& base,
                                     const std::vector<std::string>& ranks) {
  std::vector<std::string> keys{base + ".state"};
  for (const std::string& rk : ranks)
    for (const char* leaf : {".stdout", ".stderr", ".exitcode"})
      keys.push_back(base + ".stdio." + rk + leaf);
  return keys;
}

/// Run two 2-node `echo hi` jobs and, right after each wait(), read the
/// job's state and every stdio.<rank>.* key; push each key that is missing
/// or wrong onto `miss`.
Task<void> read_after_wait(Handle* h, int* checked,
                           std::vector<std::string>* miss) {
  for (int i = 0; i < 2; ++i) {
    Json args = Json::object({{"text", "hi"}});
    JobHandle jh =
        co_await h->job().command("echo", std::move(args)).nnodes(2).submit();
    (void)co_await jh.wait();
    KvsClient kvs(*h);
    const std::string base = jh.kvs_dir();
    const std::vector<std::string> keys =
        record_keys(base, co_await kvs.list_dir(base + ".stdio"));
    if (keys.size() != 7) miss->push_back(base + ".stdio");
    for (const std::string& key : keys)
      if (co_await kvs.get(key) != echo_hi_record(key)) miss->push_back(key);
    ++*checked;
  }
}

TEST(Wexec, CaptureCommitsWithTheTerminalState) {
  // job-manager commits the capture with the job's state and answers wait()
  // once that commit is back: a reader on any broker that reads right after
  // wait() sees "complete" and every rank's stdout, stderr and exit code.
  // 32 clients on 64 brokers keep the root busy, so an answer that raced
  // the commit would reach a reader's broker before the new root does.
  SimSession s(SimSession::default_config(64));
  std::vector<std::unique_ptr<Handle>> handles;
  int checked = 0;
  std::vector<std::string> misses;
  for (NodeId rank = 1; rank < 64; rank += 2) {
    handles.push_back(s.attach(rank));
    co_spawn(s.ex(), read_after_wait(handles.back().get(), &checked, &misses));
  }
  s.ex().run();
  EXPECT_EQ(checked, 64);
  EXPECT_TRUE(misses.empty()) << misses.size() << " stale reads, first "
                              << misses.front();
}

}  // namespace
}  // namespace flux
