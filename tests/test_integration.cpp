// Cross-module integration scenarios on larger sessions: the full stack
// (PMI + wexec + mon + log + KVS) exercised concurrently, event ordering
// under concurrent publishers, and a center-scale KVS sweep.
#include <gtest/gtest.h>

#include "api/job_client.hpp"
#include "api/pmi.hpp"
#include "modules/logmod.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

TEST(Integration, FullStackConcurrentWorkloads) {
  SessionConfig cfg = SimSession::default_config(32);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 200}})},
                    {"mon", Json::object({{"interval_epochs", 2}})}});
  SimSession s(cfg);

  int pmi_done = 0, wexec_done = 0, log_done = 0;

  // Workload 1: a 32-rank PMI bootstrap.
  std::vector<std::unique_ptr<Handle>> pmi_handles;
  for (int p = 0; p < 32; ++p) {
    pmi_handles.push_back(s.attach(static_cast<NodeId>(p)));
    co_spawn(s.ex(), [](Handle* h, int rank, int* d) -> Task<void> {
      Pmi pmi(*h, "intjob", rank, 32);
      co_await pmi.init();
      co_await pmi.put("c" + std::to_string(rank), std::to_string(rank));
      co_await pmi.barrier();
      std::string peer =
          co_await pmi.get("c" + std::to_string((rank + 7) % 32));
      if (peer != std::to_string((rank + 7) % 32))
        throw FluxException(Error(errc::proto, "bad peer card"));
      ++*d;
    }(pmi_handles.back().get(), p, &pmi_done), "pmi");
  }

  // Workload 2: a full-width job through the pipeline with KVS-captured
  // output.
  auto wh = s.attach(17);
  std::uint64_t wexec_jobid = 0;
  co_spawn(s.ex(), [](Handle* h, int* d, std::uint64_t* id) -> Task<void> {
    JobHandle jh =
        co_await h->job().name("intwx").command("hostname").nnodes(32).submit();
    *id = jh.id();
    JobResult r = co_await jh.wait();
    if (!r.success)
      throw FluxException(Error(errc::proto, "job failed"));
    ++*d;
  }(wh.get(), &wexec_done, &wexec_jobid), "wexec");

  // Workload 3: mon sampling activated through the KVS + log traffic.
  auto mh = s.attach(9);
  co_spawn(s.ex(), [](Handle* h, int* d) -> Task<void> {
    KvsClient kvs(*h);
    Json samplers = Json::array({"load", "mem"});
    co_await kvs.put("mon.samplers", std::move(samplers));
    co_await kvs.commit();
    for (int i = 0; i < 5; ++i) {
      Json rec = Json::object({{"level", 4},
                               {"component", "integration"},
                               {"text", "tick " + std::to_string(i)}});
      co_await h->request("log.append").payload(std::move(rec)).call();
      co_await h->sleep(std::chrono::microseconds(300));
    }
    ++*d;
  }(mh.get(), &log_done), "monlog");

  s.ex().run();
  s.settle(std::chrono::milliseconds(3));  // let mon epochs land

  EXPECT_EQ(pmi_done, 32);
  EXPECT_EQ(wexec_done, 1);
  EXPECT_EQ(log_done, 1);

  // Everything observable landed where it should.
  auto check = s.attach(0);
  s.run([](Handle* h, std::uint64_t jobid) -> Task<void> {
    KvsClient kvs(*h);
    const std::string base = job_kvs_path(jobid);
    (void)co_await kvs.get(base + ".stdio.31.stdout");  // wexec capture
    Json st = co_await kvs.get(base + ".state");
    if (st != Json("complete"))
      throw FluxException(Error(errc::proto, "job state not folded back"));
    auto mon = co_await kvs.list_dir("mon.data.load");  // mon aggregates
    if (mon.empty()) throw FluxException(Error(errc::proto, "no samples"));
  }(check.get(), wexec_jobid));
  auto* root_log =
      dynamic_cast<modules::Log*>(s.session().broker(0).find_module("log"));
  int integration_records = 0;
  for (const auto& rec : root_log->session_log())
    if (rec.component == "integration") ++integration_records;
  EXPECT_EQ(integration_records, 5);
}

TEST(Integration, EventOrderIsIdenticalEverywhere) {
  SimSession s(SimSession::default_config(16));
  // Three concurrent publishers on different ranks; every subscriber must
  // observe the exact same global order (root sequencing).
  std::vector<std::unique_ptr<Handle>> pubs;
  std::vector<std::unique_ptr<Handle>> subs;
  std::vector<Subscription> guards;
  std::vector<std::vector<std::string>> seen(4);
  for (int i = 0; i < 4; ++i) {
    subs.push_back(s.attach(static_cast<NodeId>(15 - i * 4)));
    auto* sink = &seen[static_cast<std::size_t>(i)];
    guards.push_back(subs.back()->subscribe("race", [sink](const Message& ev) {
      sink->push_back(ev.topic);
    }));
  }
  for (int p = 0; p < 3; ++p) {
    pubs.push_back(s.attach(static_cast<NodeId>(p * 5 + 1)));
    co_spawn(s.ex(), [](Handle* h, int publisher) -> Task<void> {
      for (int i = 0; i < 10; ++i) {
        h->publish("race.p" + std::to_string(publisher) + "." +
                   std::to_string(i));
        co_await yield_to(h->executor());
      }
    }(pubs.back().get(), p), "publisher");
  }
  s.ex().run();
  ASSERT_EQ(seen[0].size(), 30u);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0]);
  // Per-publisher order preserved within the global order.
  for (int p = 0; p < 3; ++p) {
    int last = -1;
    for (const auto& topic : seen[0]) {
      if (topic.find("race.p" + std::to_string(p) + ".") != 0) continue;
      const int idx = std::stoi(topic.substr(topic.rfind('.') + 1));
      EXPECT_GT(idx, last);
      last = idx;
    }
  }
}

TEST(Integration, CenterScaleKvsSweep) {
  // 128 brokers, binary tree: writers on every 8th rank, one fence, then a
  // full cross-read from the deepest leaves — a miniature KAP inline.
  SimSession s(SimSession::default_config(128));
  std::vector<std::unique_ptr<Handle>> handles;
  int done = 0;
  constexpr int kWriters = 16;
  for (int w = 0; w < kWriters; ++w) {
    handles.push_back(s.attach(static_cast<NodeId>(w * 8)));
    co_spawn(s.ex(), [](Handle* h, int id, int* d) -> Task<void> {
      KvsClient kvs(*h);
      co_await kvs.put("sweep.w" + std::to_string(id),
                       std::string(static_cast<std::size_t>(64 + id), '#'));
      co_await kvs.fence("sweep", kWriters);
      ++*d;
    }(handles.back().get(), w, &done), "writer");
  }
  s.ex().run();
  ASSERT_EQ(done, kWriters);
  for (NodeId leaf : {127u, 96u, 64u}) {
    auto reader = s.attach(leaf);
    s.run([](Handle* h) -> Task<void> {
      KvsClient kvs(*h);
      for (int w = 0; w < kWriters; ++w) {
        Json v = co_await kvs.get("sweep.w" + std::to_string(w));
        if (v.as_string().size() != static_cast<std::size_t>(64 + w))
          throw FluxException(Error(errc::proto, "bad sweep value"));
      }
    }(reader.get()));
  }
}

TEST(Integration, WatchDrivenToolReactsToJobCompletion) {
  // A "tool" watches the job directory; launching a job must wake it
  // (hash-tree property: a directory changes when anything below changes,
  // here four levels below, where job_kvs_path puts the job).
  SimSession s(SimSession::default_config(8));
  auto tool = s.attach(5);
  KvsClient tool_kvs(*tool);
  int wakes = 0;
  WatchHandle watch =
      tool_kvs.watch("job", [&](const std::optional<Json>&) { ++wakes; });
  s.ex().run();
  EXPECT_EQ(wakes, 1);  // initial (absent)

  auto launcher = s.attach(2);
  s.run([](Handle* h) -> Task<void> {
    JobHandle jh =
        co_await h->job().name("watched").command("hostname").nnodes(2).submit();
    (void)co_await jh.wait();
  }(launcher.get()));
  s.ex().run();
  EXPECT_GE(wakes, 2);  // the job's commits changed the job dir
}

}  // namespace
}  // namespace flux
