// Threaded sessions: the same broker/module/KVS code on real reactor
// threads with wire-codec transport, driven through the blocking SyncHandle.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <thread>

#include "api/sync_handle.hpp"
#include "broker/session.hpp"
#include "fault/plan.hpp"
#include "kvs/kvs_client.hpp"

namespace flux {
namespace {

SessionConfig threaded_config(std::uint32_t size) {
  SessionConfig cfg;
  cfg.size = size;
  // Generous liveness bound: under sanitizers (tsan slows execution ~10x) a
  // reactor can miss several 2ms heartbeats, and a falsely-declared broker
  // never rejoins (split-brain recovery is future work) — these are not
  // failure tests, so make false positives impossible.
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 2000}})},
                    {"live", Json::object({{"missed_max", 1 << 20}})}});
  return cfg;
}

TEST(Threaded, SessionComesOnline) {
  auto session = Session::create_threaded(threaded_config(8));
  EXPECT_TRUE(session->wait_online());
}

TEST(Threaded, KvsPutCommitGetAcrossBrokers) {
  auto session = Session::create_threaded(threaded_config(8));
  ASSERT_TRUE(session->wait_online());
  SyncHandle writer(*session, 7);
  SyncHandle reader(*session, 4);
  writer.kvs_put("t.key", Json::object({{"n", 5}}));
  const CommitResult r = writer.kvs_commit();
  EXPECT_GT(r.version, 1u);
  reader.kvs_wait_version(r.version);
  Json v = reader.kvs_get("t.key");
  EXPECT_EQ(v.get_int("n"), 5);
}

TEST(Threaded, RingPingAndEvents) {
  auto session = Session::create_threaded(threaded_config(4));
  ASSERT_TRUE(session->wait_online());
  SyncHandle h(*session, 1);
  Json pong = h.ping(3);
  EXPECT_EQ(pong.get_int("rank"), 3);
}

TEST(Threaded, ConcurrentClientsFence) {
  auto session = Session::create_threaded(threaded_config(4));
  ASSERT_TRUE(session->wait_online());
  constexpr int kProcs = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int p = 0; p < kProcs; ++p) {
    threads.emplace_back([&session, p, &ok] {
      SyncHandle h(*session, static_cast<NodeId>(p % 4));
      h.kvs_put("thr.k" + std::to_string(p), p);
      h.kvs_fence("thr-fence", kProcs);
      // After the fence every peer's value is visible.
      for (int q = 0; q < kProcs; ++q) {
        Json v = h.kvs_get("thr.k" + std::to_string(q));
        if (v != Json(q)) return;
      }
      ++ok;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kProcs);
}

TEST(Threaded, BarrierAcrossThreads) {
  auto session = Session::create_threaded(threaded_config(4));
  ASSERT_TRUE(session->wait_online());
  constexpr int kProcs = 6;
  std::atomic<int> entered{0};
  std::atomic<int> released{0};
  std::atomic<bool> early{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProcs; ++p) {
    threads.emplace_back([&] {
      SyncHandle h(*session, 2);
      entered.fetch_add(1);
      h.barrier("thr-barrier", kProcs);
      // Nobody may exit before everyone entered.
      if (entered.load() < kProcs) early.store(true);
      released.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(released.load(), kProcs);
  EXPECT_FALSE(early.load());
}

TEST(Threaded, RpcErrorsSurfaceAsExceptions) {
  auto session = Session::create_threaded(threaded_config(2));
  ASSERT_TRUE(session->wait_online());
  SyncHandle h(*session, 1);
  try {
    (void)h.kvs_get("missing.key");
    FAIL() << "expected ENOENT";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::noent);
  }
}

TEST(Threaded, BlockingRequestTerminals) {
  // A request is built off the reactor with the async API's RequestBuilder
  // and sent through a blocking terminal: send() hands back an error
  // response as-is, call() throws it.
  auto session = Session::create_threaded(threaded_config(4));
  ASSERT_TRUE(session->wait_online());
  SyncHandle h(*session, 1);

  Message info = h.call(h.request("cmb.info").to(3));
  EXPECT_EQ(info.payload().get_int("rank"), 3);

  Message raw = h.send(h.request("nosuch.method"));
  EXPECT_EQ(raw.errnum, ENOSYS);

  try {
    (void)h.call(h.request("nosuch.method"));
    FAIL() << "expected flux::errc::nosys";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::nosys);
  }

  Message traced = h.call(h.request("cmb.ping").to(3).trace());
  EXPECT_FALSE(traced.trace.empty());
}

TEST(Threaded, FaultInjectorCoversWireTransport) {
  // The injector hooks Session::send, which both transports share — so a
  // drop-everything policy toward one rank makes a retried RPC from a real
  // client thread resolve with a typed timeout instead of blocking forever.
  // (Deterministic despite threads: drop probability 1.0 needs no RNG order.)
  fault::FaultPlan plan(7);  // declared before the session: must outlive it
  fault::LinkPolicy lossy;
  lossy.to = 3;
  lossy.drop = 1.0;
  plan.link(lossy);

  SessionConfig cfg = threaded_config(4);
  cfg.rpc = RetryPolicy{std::chrono::milliseconds(50), 1,
                        std::chrono::milliseconds(1)};
  auto session = Session::create_threaded(cfg);
  ASSERT_TRUE(session->wait_online());
  plan.arm(*session);

  SyncHandle h(*session, 1);
  try {
    (void)h.ping(3);
    FAIL() << "expected flux::errc::timeout";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::timeout);
  }
  EXPECT_GT(plan.faults_injected(), 0u);
}

TEST(Threaded, TargetedLaunchRunsOverTheWire) {
  // wexec's exec requests and completion reduction cross the codec and the
  // per-destination inboxes; ranks 1 and 3 are both remote from the root.
  auto session = Session::create_threaded(threaded_config(4));
  ASSERT_TRUE(session->wait_online());
  SyncHandle h(*session, 2);
  Message r = h.call(h.request("wexec.run")
                         .payload(Json::object({{"jobid", "thr-job"},
                                                {"cmd", "hostname"},
                                                {"args", Json::object()},
                                                {"ranks", Json::array({1, 3})}})));
  EXPECT_EQ(r.payload().get_int("ntasks"), 2);
  EXPECT_TRUE(r.payload().at("success").as_bool());
  // Each rank's capture rode the completion reduction into the answer.
  const Json& stdio = r.payload().at("stdio");
  EXPECT_EQ(stdio.size(), 2u);
  for (const char* rank : {"1", "3"}) {
    EXPECT_EQ(stdio.at(rank).at("stdout"),
              Json::array({std::string("node") + rank}));
    EXPECT_EQ(stdio.at(rank).at("stderr"), Json::array());
    EXPECT_EQ(stdio.at(rank).at("exitcode"), Json(0));
  }
}

TEST(Threaded, KilledSleepOutlivesItsTimer) {
  // A reactor thread cannot cancel a timer: the timer of a sleep a kill
  // ended still fires, and must find the task already resumed and gone.
  auto session = Session::create_threaded(threaded_config(4));
  ASSERT_TRUE(session->wait_online());
  Message run;
  std::thread client([&session, &run] {
    SyncHandle h(*session, 2);
    run = h.call(h.request("wexec.run")
                     .payload(Json::object(
                         {{"jobid", "thr-sleep"},
                          {"cmd", "sleep"},
                          {"args", Json::object({{"us", 200'000}})},
                          {"ranks", Json::array({1, 3})}}))
                     .timeout(std::chrono::seconds(5)));
  });
  SyncHandle killer(*session, 0);
  for (NodeId rank : {1u, 3u})
    while (killer.call(killer.request("wexec.ps").to(rank))
               .payload()
               .at("running")
               .size() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  (void)killer.call(killer.request("wexec.kill").payload(
      Json::object({{"jobid", "thr-sleep"}})));
  client.join();
  EXPECT_EQ(run.payload().at("exits").get_int("143"), 2);
  // Let both uncanceled timers fire before the session goes.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (NodeId rank : {1u, 3u})
    EXPECT_EQ(killer.call(killer.request("wexec.ps").to(rank))
                  .payload()
                  .at("running")
                  .size(),
              0u);
}

/// Parks every kvs.load rank 1 sends (a delay no test outlives).
class ParkLoadsFromRank1 final : public fault::Injector {
 public:
  fault::Verdict on_send(NodeId from, NodeId, const Message& msg) override {
    if (from != 1 || msg.topic != "kvs.load") return fault::Verdict::deliver_v();
    ++parked;
    return fault::Verdict::delay_v(std::chrono::hours(1));
  }
  std::atomic<int> parked{0};
};

TEST(Threaded, TeardownSettlesAGetParkedInKvsLoad) {
  // A get on rank 1 faults its objects from rank 0 and parks in kvs.load.
  // Teardown settles it, and the client retries: a reactor keeps running
  // after its broker's shutdown until the session stops it, and the retry
  // must be refused, not parked in a second kvs.load nothing settles (its
  // frames, and the handle they own, would leak).
  ParkLoadsFromRank1 park;  // must outlive the session
  SessionConfig cfg = threaded_config(2);
  std::erase_if(cfg.modules, [](const std::string& m) { return m == "mon"; });
  auto session = Session::create_threaded(cfg);
  ASSERT_TRUE(session->wait_online());
  {
    SyncHandle writer(*session, 0);
    writer.kvs_put("park.k", 1);
    const CommitResult r = writer.kvs_commit();
    SyncHandle(*session, 1).kvs_wait_version(r.version);
  }
  session->set_fault_injector(&park);

  std::atomic<int> tries{0};
  std::atomic<bool> finished{false};
  Session* sp = session.get();
  sp->executor(1).post([sp, &tries, &finished] {
    co_spawn(
        sp->executor(1),
        [](std::unique_ptr<Handle> h, std::atomic<int>* n,
           std::atomic<bool>* done) -> Task<void> {
          KvsClient kvs(*h);
          for (;;) {
            ++*n;
            try {
              (void)co_await kvs.get("park.k");
              break;
            } catch (const FluxException&) {
              if (*n >= 3) break;
            }
          }
          *done = true;
        }(sp->attach(1), &tries, &finished),
        "parked-get");
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (park.parked == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(park.parked, 1) << "the get never faulted through kvs.load";
  session.reset();
  EXPECT_TRUE(finished) << "a retried get stayed parked past teardown";
  EXPECT_EQ(tries, 3);
  EXPECT_EQ(park.parked, 1) << "a kvs.load went out after shutdown";
}

TEST(Threaded, WireCodecCarriesAttachments) {
  // Fences ship ObjectBundles; in threaded mode they cross the codec.
  auto session = Session::create_threaded(threaded_config(4));
  ASSERT_TRUE(session->wait_online());
  SyncHandle h(*session, 3);
  h.kvs_put("att.k", std::string(4096, 'x'));
  h.kvs_commit();
  Json v = h.kvs_get("att.k");
  EXPECT_EQ(v.as_string().size(), 4096u);
}

}  // namespace
}  // namespace flux
