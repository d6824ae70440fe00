// Observability subsystem: StatsRegistry instruments, broker/module stats
// RPCs, per-message route tracing, and the KvsTxn client transaction API.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <functional>
#include <limits>

#include "broker/broker.hpp"
#include "obs/stats.hpp"
#include "obs/stats_client.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

// ---------------------------------------------------------------------------
// Instruments (no session required)
// ---------------------------------------------------------------------------

TEST(ObsCounter, IncrementsByArbitraryAmounts) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsHistogram, BasicStatistics) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  for (std::uint64_t v : {100u, 200u, 400u, 800u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 800u);
  EXPECT_EQ(h.sum(), 1500u);
  EXPECT_DOUBLE_EQ(h.mean(), 375.0);
  // Percentiles are bucket-resolution but must be ordered and clamped.
  EXPECT_LE(h.percentile(0.0), h.percentile(0.5));
  EXPECT_LE(h.percentile(0.5), h.percentile(0.99));
  EXPECT_GE(h.percentile(0.01), h.min());
  EXPECT_LE(h.percentile(0.99), h.max());
}

TEST(ObsHistogram, JsonRoundTripAndMerge) {
  obs::Histogram a;
  for (std::uint64_t v : {10u, 1000u, 100000u}) a.record(v);
  const Json j = a.to_json();
  EXPECT_EQ(j.get_int("count"), 3);
  EXPECT_EQ(j.get_int("min"), 10);
  EXPECT_EQ(j.get_int("max"), 100000);
  ASSERT_TRUE(j.contains("buckets"));

  // Merging a histogram's own JSON doubles every statistic.
  obs::Histogram b;
  ASSERT_TRUE(b.merge_json(j));
  ASSERT_TRUE(b.merge_json(j));
  EXPECT_EQ(b.count(), 6u);
  EXPECT_EQ(b.min(), 10u);
  EXPECT_EQ(b.max(), 100000u);
  EXPECT_EQ(b.sum(), 2u * a.sum());
}

TEST(ObsRegistry, SnapshotFiltersByServicePrefix) {
  obs::StatsRegistry reg;
  reg.counter("kvs.puts").inc(3);
  reg.counter("kvsx.other").inc(7);
  reg.histogram("kvs.commit_ns").record(500u);

  const Json all = reg.snapshot();
  EXPECT_EQ(all.at("counters").size(), 2u);

  // "kvs" must match "kvs.puts" but not "kvsx.other".
  const Json kvs = reg.snapshot("kvs");
  EXPECT_EQ(kvs.at("counters").size(), 1u);
  EXPECT_EQ(kvs.at("counters").get_int("kvs.puts"), 3);
  EXPECT_EQ(kvs.at("histograms").size(), 1u);
}

TEST(ObsRegistry, MergeSnapshotSumsAndMerges) {
  obs::StatsRegistry reg;
  reg.counter("svc.ops").inc(5);
  reg.histogram("svc.lat").record(100u);
  const Json snap = reg.snapshot();

  Json agg;
  ASSERT_TRUE(obs::StatsRegistry::merge_snapshot(agg, snap));
  ASSERT_TRUE(obs::StatsRegistry::merge_snapshot(agg, snap));
  EXPECT_EQ(agg.at("counters").get_int("svc.ops"), 10);
  EXPECT_EQ(agg.at("histograms").at("svc.lat").get_int("count"), 2);
}

// Snapshots arrive from other ranks over RPC, so a merge must treat them as
// untrusted input: a malformed one is a typed errc::proto, never a throw,
// and it leaves the aggregate exactly as it was.
TEST(ObsRegistry, MergeRejectsMalformedPeerSnapshots) {
  obs::StatsRegistry reg;
  reg.counter("svc.ops").inc(5);
  reg.histogram("svc.lat").record(100u);
  Json agg;
  ASSERT_TRUE(obs::StatsRegistry::merge_snapshot(agg, reg.snapshot()));
  const Json before = agg;

  const auto counter = [](Json v) {
    return Json::object(
        {{"counters", Json::object({{"svc.ops", std::move(v)}})}});
  };
  const auto histogram = [&reg](const std::function<void(Json&)>& edit) {
    Json h = reg.snapshot().at("histograms").at("svc.lat");
    edit(h);
    return Json::object({{"histograms", Json::object({{"svc.lat", h}})}});
  };
  const auto buckets = [&histogram](Json pair) {
    return histogram([&pair](Json& h) { h["buckets"] = Json::array({pair}); });
  };
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::vector<Json> bad = {
      Json(42),
      Json::object({{"counters", Json::array()}}),
      Json::object({{"histograms", "svc.lat"}}),
      counter(1.5),
      counter("7"),
      counter(-1),
      counter(Json::array({1})),
      counter(max),  // 5 + max leaves the JSON integer range
      histogram([](Json& h) { h["count"] = -3; }),
      histogram([](Json& h) { h["count"] = 1.0; }),
      histogram([](Json& h) { h["count"] = 2; }),  // one bucketed sample
      histogram([](Json& h) { h["sum"] = "100"; }),
      histogram([max](Json& h) { h["sum"] = max; }),  // 100 + max overflows
      histogram([](Json& h) { h["buckets"] = Json::object(); }),
      buckets(Json::array({1.0, 1})),
      buckets(Json::array({-1, 1})),
      buckets(Json::array({64, 1})),
      buckets(Json::array({7, "1"})),
      buckets(Json::array({7, -1})),
      buckets(Json::array({7})),
      buckets(Json(7)),
      buckets(Json::array({7, max})),
  };
  for (const Json& snap : bad) {
    SCOPED_TRACE(snap.dump());
    Status st;
    EXPECT_NO_THROW(st = obs::StatsRegistry::merge_snapshot(agg, snap));
    EXPECT_FALSE(st);
    EXPECT_EQ(st.error().code, errc::proto);
    EXPECT_EQ(agg, before);
  }
  // The aggregate still merges a well-formed snapshot afterwards.
  ASSERT_TRUE(obs::StatsRegistry::merge_snapshot(agg, reg.snapshot()));
  EXPECT_EQ(agg.at("counters").get_int("svc.ops"), 10);

  obs::Histogram h;
  h.record(3u);
  EXPECT_FALSE(h.merge_json(Json::object({{"count", -1}})));
  EXPECT_EQ(h.count(), 1u);
}

// ---------------------------------------------------------------------------
// Route tracing
// ---------------------------------------------------------------------------

TEST(ObsTrace, TracedKvsGetHopCountMatchesTopologyDepth) {
  // kvs pinned to the root: a traced get from the deepest leaf must cross
  // every broker on the path up (d tree hops + the local client hop) and
  // every broker on the way back down (d hops): 2*depth + 1 stamps.
  SessionConfig cfg = SimSession::default_config(16);
  cfg.module_max_depth["kvs"] = 0;
  SimSession s(cfg);
  const NodeId leaf = 15;
  const unsigned depth = s.session().broker(leaf).depth();
  ASSERT_GT(depth, 0u);

  auto h = s.attach(leaf);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("trace.k", 7);
    co_await kvs.commit();
  }(h.get()));

  Message resp = s.run([](Handle* hd) -> Task<Message> {
    Json payload = Json::object({{"key", "trace.k"}});
    Message r = co_await hd->request("kvs.get")
                    .payload(std::move(payload))
                    .trace()
                    .send();
    co_return r;
  }(h.get()));

  EXPECT_EQ(resp.errnum, 0);
  ASSERT_EQ(resp.trace.size(), 2 * depth + 1);
  // First stamp: this broker receiving its own client's request.
  EXPECT_EQ(resp.trace.front().rank, leaf);
  EXPECT_EQ(resp.trace.front().plane, TraceHop::Plane::Local);
  // The turnaround is the root; the last stamp is back at the leaf.
  EXPECT_EQ(resp.trace[depth].rank, 0u);
  EXPECT_EQ(resp.trace.back().rank, leaf);
  // Timestamps are monotone along the path.
  for (std::size_t i = 1; i < resp.trace.size(); ++i)
    EXPECT_GE(resp.trace[i].t_ns, resp.trace[i - 1].t_ns) << "hop " << i;
}

TEST(ObsTrace, UntracedRequestsCarryNoHops) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  Message resp = s.run([](Handle* hd) -> Task<Message> {
    Message r = co_await hd->request("cmb.info").send();
    co_return r;
  }(h.get()));
  EXPECT_EQ(resp.errnum, 0);
  EXPECT_TRUE(resp.trace.empty());
}

// ---------------------------------------------------------------------------
// Stats RPCs
// ---------------------------------------------------------------------------

TEST(ObsStats, CmbStatsGetReflectsBrokerActivity) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(2);
  (void)s.run(h->ping(5));  // generate ring traffic + one matched rpc

  Message resp = s.run(h->request("cmb.stats.get").to(2).call());
  EXPECT_EQ(resp.payload().get_int("rank"), 2);
  const Json& counters = resp.payload().at("counters");
  EXPECT_GT(counters.get_int("cmb.net.rx_msgs"), 0);
  EXPECT_GT(counters.get_int("cmb.net.tx_bytes"), 0);
  // The ping's response was matched on this broker -> a latency sample.
  EXPECT_GE(resp.payload().at("histograms").at("cmb.rpc_ns").get_int("count"), 1);
  // The ping provoked no timeout.
  EXPECT_EQ(counters.get_int("cmb.rpc_timeouts", -1), 0);
}

TEST(ObsStats, ModuleStatsGetCountsRequests) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("m.k", 1);
    co_await kvs.commit();
    (void)co_await kvs.get("m.k");
  }(h.get()));

  Message resp = s.run(h->request("kvs.stats.get").call());
  const Json& counters = resp.payload().at("counters");
  EXPECT_GE(counters.get_int("kvs.requests"), 2);
}

TEST(ObsStats, KvsCacheCountersTrackHitsAndMisses) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);  // leaf: gets fault through the cache, not the store
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("cache.k", 11);
    co_await kvs.commit();
    (void)co_await kvs.get("cache.k");  // faults objects in (misses)
    (void)co_await kvs.get("cache.k");  // served locally (hits)
  }(h.get()));

  Message resp = s.run(h->request("cmb.stats.get")
                           .payload(Json::object({{"all", true}}))
                           .to(3)
                           .call());
  const Json& counters = resp.payload().at("counters");
  EXPECT_GT(counters.get_int("kvs.cache.misses"), 0);
  EXPECT_GT(counters.get_int("kvs.cache.hits"), 0);
}

TEST(ObsStats, AggregateSweepsEveryRank) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(3);
  (void)s.run(h->ping(6));

  Json agg = s.run([](Handle* hd) -> Task<Json> {
    Json merged = co_await obs::aggregate_stats(*hd, "cmb");
    co_return merged;
  }(h.get()));
  EXPECT_EQ(agg.get_int("ranks"), 8);
  // Session-wide rx must cover at least the wire-up hellos of every broker.
  EXPECT_GE(agg.at("counters").get_int("cmb.net.rx_msgs"), 8);
}

TEST(ObsStats, RpcTimeoutCountsAndLateResponseIsDropped) {
  SimSession s(SimSession::default_config(4));
  auto h1 = s.attach(1);
  auto h2 = s.attach(2);

  // h1 enters a 2-party barrier alone with a short timeout.
  bool timed_out = false;
  s.run([](Handle* hd, bool* out) -> Task<void> {
    Json payload = Json::object({{"name", "late"}, {"nprocs", 2}});
    try {
      (void)co_await hd->request("barrier.enter")
          .payload(std::move(payload))
          .timeout(std::chrono::milliseconds(5));
    } catch (const FluxException& e) {
      *out = (e.error().code == errc::timeout);
    }
  }(h1.get(), &timed_out));
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(s.stats(1).counter_value("cmb.rpc_timeouts"), 1u);

  // h2 completes the barrier; the release response for h1's long-gone entry
  // arrives at broker 1 with no pending match and must be counted, not leak.
  s.run([](Handle* hd) -> Task<void> {
    co_await hd->barrier("late", 2);
  }(h2.get()));
  s.ex().run();
  EXPECT_GE(s.stats(1).counter_value("cmb.responses_dropped"), 1u);
}

// A module whose stats.get reply is well formed on every rank but one.
class PeerStatsModule final : public Module {
 public:
  PeerStatsModule(Broker& b, NodeId bad_rank) : Module(b), bad_(bad_rank) {}
  [[nodiscard]] std::string_view name() const override { return "peer"; }
  [[nodiscard]] Json stats_json() const override {
    const bool bad = broker().rank() == bad_;
    return Json::object(
        {{"counters", Json::object({{"peer.x", bad ? Json(1.5) : Json(1)}})}});
  }

 private:
  NodeId bad_;
};

TEST(ObsStats, AggregateSkipsARankWithAMalformedSnapshot) {
  SimSession s(SimSession::default_config(4));
  for (NodeId r = 0; r < 4; ++r)
    s.session().broker(r).add_module(
        std::make_unique<PeerStatsModule>(s.session().broker(r), 2));
  auto h = s.attach(1);
  Json agg = s.run([](Handle* hd) -> Task<Json> {
    co_return co_await obs::aggregate_stats(*hd, "peer");
  }(h.get()));
  EXPECT_EQ(agg.get_int("ranks"), 3);
  EXPECT_EQ(agg.at("counters").get_int("peer.x"), 3);
}

// kvs.stats.get on a persisting shard master: the content log's durability
// counters and the KVS state fields ride in the one stats response.
TEST(ObsStats, KvsStatsGetCarriesDurabilityCountersAndState) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("flux-obs-persist-" + std::to_string(::getpid()) + ".log"))
          .string();
  SessionConfig cfg = SimSession::default_config(8);
  cfg.module_config = Json::object(
      {{"kvs", Json::object({{"shards", 2},
                             {"persist", Json::object({{"path", path}})}})}});
  {
    SimSession s(cfg);
    auto h = s.attach(3);
    s.run([](Handle* hd) -> Task<void> {
      KvsClient kvs(*hd);
      for (int i = 0; i < 4; ++i) {
        co_await kvs.put("d" + std::to_string(i) + ".k", i);
        co_await kvs.commit();
      }
    }(h.get()));
    for (const NodeId master : {NodeId{0}, NodeId{4}}) {
      SCOPED_TRACE(::testing::Message() << "shard master " << master);
      Message resp = s.run(h->request("kvs.stats.get").to(master).call());
      const Json& p = resp.payload();
      const Json& counters = p.at("counters");
      EXPECT_TRUE(p.get_bool("persist"));
      EXPECT_TRUE(p.get_bool("shard_master"));
      EXPECT_GE(counters.get_int("kvs.persist.roots_appended"), 1);
      EXPECT_GE(counters.get_int("kvs.persist.syncs"), 1);
      EXPECT_GT(counters.get_int("kvs.persist.synced_bytes"), 0);
      EXPECT_TRUE(counters.contains("kvs.persist.checkpoints"));
      EXPECT_GE(p.get_int("version"), 2);
      EXPECT_GT(p.get_int("store_bytes"), 0);
      ASSERT_TRUE(p.at("vv").is_array());
      EXPECT_EQ(p.at("vv").size(), 2u);
    }
  }
  for (const char* suffix : {".s0", ".s1", ".s0.tmp", ".s1.tmp"})
    std::filesystem::remove(path + suffix);
}

// Each event is counted once: N commits read N in the session-wide sum of
// kvs.commits, and the root's apply-batch histogram covers exactly the N
// fences it applied (its count is the number of applies).
TEST(ObsStats, EachCommitIsCountedOnce) {
  constexpr int kCommits = 6;
  SessionConfig cfg = SimSession::default_config(8);
  cfg.modules = {"hb", "live", "barrier", "kvs"};  // nothing else commits
  SimSession s(cfg);
  std::vector<std::unique_ptr<Handle>> handles;
  for (int i = 0; i < kCommits; ++i) {
    handles.push_back(s.attach(static_cast<NodeId>(i % 8)));
    s.run([](Handle* hd, int n) -> Task<void> {
      KvsClient kvs(*hd);
      co_await kvs.put("once.k" + std::to_string(n), n);
      co_await kvs.commit();
    }(handles.back().get(), i));
  }
  Json agg = s.run([](Handle* hd) -> Task<Json> {
    co_return co_await obs::aggregate_stats(*hd, "kvs");
  }(handles.front().get()));
  EXPECT_EQ(agg.get_int("ranks"), 8);
  EXPECT_EQ(agg.at("counters").get_int("kvs.commits"), kCommits);
  const obs::Histogram applied = s.stats(0).histogram_value("kvs.apply.batch_size");
  EXPECT_EQ(applied.sum(), static_cast<std::uint64_t>(kCommits));
  EXPECT_GE(applied.count(), 1u);
  EXPECT_LE(applied.count(), applied.sum());
}

// ---------------------------------------------------------------------------
// KvsTxn
// ---------------------------------------------------------------------------

TEST(KvsTxn, ExplicitTransactionCommitsAtomically) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    KvsTxn txn;
    txn.put("txn.a", 1).put("txn.b", 2).mkdir("txn.dir");
    if (txn.size() != 3)
      throw FluxException(Error(errc::proto, "expected 3 staged ops"));
    CommitResult r = co_await kvs.commit(std::move(txn));
    if (r.version == 0)
      throw FluxException(Error(errc::proto, "commit did not advance root"));
    Json a = co_await kvs.get("txn.a");
    Json b = co_await kvs.get("txn.b");
    if (a != Json(1) || b != Json(2))
      throw FluxException(Error(errc::proto, "txn values lost"));
    (void)co_await kvs.list_dir("txn.dir");
  }(h.get()));
}

TEST(KvsTxn, StagedWritesInvisibleUntilCommit) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("inv.k", 9);  // staged in the default txn only
    if (kvs.txn().size() != 1)
      throw FluxException(Error(errc::proto, "put did not stage"));
    try {
      (void)co_await kvs.get("inv.k");
      throw FluxException(Error(errc::proto, "uncommitted put visible"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::noent) throw;
    }
    co_await kvs.commit();
    if (!kvs.txn().empty())
      throw FluxException(Error(errc::proto, "commit left txn non-empty"));
    Json v = co_await kvs.get("inv.k");
    if (v != Json(9)) throw FluxException(Error(errc::proto, "lost put"));
  }(h.get()));
}

TEST(KvsTxn, UnlinkStagesTombstone) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("del.k", "x");
    co_await kvs.commit();
    KvsTxn txn;
    txn.unlink("del.k");
    co_await kvs.commit(std::move(txn));
    try {
      (void)co_await kvs.get("del.k");
      throw FluxException(Error(errc::proto, "unlinked key still readable"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::noent) throw;
    }
  }(h.get()));
}

TEST(KvsTxn, EmptyKeyRejectedAtStagingTime) {
  KvsTxn txn;
  try {
    txn.put("", 1);
    FAIL() << "expected EINVAL";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::inval);
  }
  EXPECT_TRUE(txn.empty());
}

TEST(KvsTxn, ClearDiscardsStagedOps) {
  KvsTxn txn;
  txn.put("a", 1).unlink("b");
  EXPECT_EQ(txn.size(), 2u);
  txn.clear();
  EXPECT_TRUE(txn.empty());
}

}  // namespace
}  // namespace flux
