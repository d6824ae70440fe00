// Chaos suite: seed-driven deterministic fault schedules against live
// sessions. Every seeded run must terminate — each fence/commit/get either
// completes or fails with a typed FluxException (errc::timeout, host_down,
// ...) — and replaying a seed must reproduce the run bit-for-bit.
//
// Categories (50 distinct seeds total, based at FLUX_TEST_SEED, default 1):
//   base+0..9    broker crashes (no recovery)
//   base+10..19  crashes + restarts with tree rejoin and KVS resync
//   base+20..29  lossy links (probabilistic drop + delay)
//   base+30..39  message corruption
//   base+40..49  sharded-KVS master crash with hb-driven failover
//
// A hang shows up as SimSession::run/ex().run() never finishing a writer
// (`completed == false`) rather than wedging the harness: every client RPC
// runs under the session-wide RetryPolicy deadline.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "fault/plan.hpp"
#include "kvs/kvs_module.hpp"
#include "sim_fixture.hpp"
#include "test_seed.hpp"

namespace flux {
namespace {

using fault::FaultPlan;
using testing::SimSession;

constexpr int kWriters = 4;
constexpr int kRounds = 4;

/// Seeds per category (50 total at the default of 10). FLUX_CHAOS_SEEDS dials
/// the sweep up for soak runs; seed values are just RNG keys, so ranges from
/// different categories overlapping is harmless.
/// Category ranges are based at FLUX_TEST_SEED (test_seed.hpp), so one knob
/// re-rolls every seeded suite; each failure's SCOPED_TRACE names the exact
/// seed to replay.
std::uint64_t chaos_base(std::uint64_t offset) {
  return testing::test_seed() + offset;
}

std::uint64_t seeds_per_category() {
  if (const char* env = std::getenv("FLUX_CHAOS_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return 10;
}

/// Everything observable about one chaos run; two runs of the same seed must
/// compare equal (the determinism contract).
struct ChaosOutcome {
  bool completed = false;  ///< all writers finished (no hang)
  int ok = 0;
  int failed = 0;
  int unexpected = 0;  ///< non-FluxException escapes (always a bug)
  std::vector<std::string> codes;
  std::uint64_t injected = 0;
  std::uint64_t version = 0;

  bool operator==(const ChaosOutcome&) const = default;
};

SessionConfig chaos_config(std::uint32_t size, Json kvs = Json::object()) {
  SessionConfig cfg = SimSession::default_config(size);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 100}})},
                    {"live", Json::object({{"missed_max", 3}})},
                    {"kvs", std::move(kvs)}});
  // The no-hang safety net: every client RPC gets a deadline plus retries
  // unless a request overrides it.
  cfg.rpc = RetryPolicy{std::chrono::milliseconds(2), 3,
                        std::chrono::microseconds(100)};
  return cfg;
}

Task<void> chaos_writer(Handle* h, int id, ChaosOutcome* out, int* done) {
  KvsClient kvs(*h);
  for (int round = 0; round < kRounds; ++round) {
    try {
      co_await h->sleep(std::chrono::microseconds(400 + 150 * id));
      co_await kvs.put(
          "chaos.w" + std::to_string(id) + ".r" + std::to_string(round),
          id * 100 + round);
      co_await kvs.fence("chaos.r" + std::to_string(round), kWriters);
      Json peer = co_await kvs.get("chaos.w" + std::to_string((id + 1) % kWriters) +
                                   ".r" + std::to_string(round));
      (void)peer;
      ++out->ok;
    } catch (const FluxException& e) {
      // Clean taint: the operation failed with a typed error instead of
      // hanging or corrupting state.
      ++out->failed;
      out->codes.push_back(std::string(errc_name(e.error().code)));
    } catch (const std::exception&) {
      ++out->unexpected;
    }
  }
  ++*done;
}

/// Arm `plan` on a wired-up session, run the standard writer workload to
/// completion, let hb-driven recovery land, and collect the outcome.
ChaosOutcome run_chaos_workload(SimSession& s, FaultPlan& plan) {
  plan.arm(s.session());
  const std::uint32_t size = s.session().broker(0).size();
  ChaosOutcome out;
  int done = 0;
  std::vector<std::unique_ptr<Handle>> handles;
  for (int w = 0; w < kWriters; ++w) {
    handles.push_back(
        s.attach(static_cast<NodeId>(static_cast<std::uint32_t>(w) * 5 + 1) % size));
    co_spawn(s.ex(), chaos_writer(handles.back().get(), w, &out, &done),
             "chaos-writer");
  }
  s.ex().run();
  out.completed = (done == kWriters);
  s.settle(std::chrono::milliseconds(5));  // heal / failover promotion epochs
  s.ex().run();                            // late restarts, rejoin traffic
  out.injected = plan.faults_injected();

  // Final authoritative KVS version from the root (never crashed by plans).
  auto reader = s.attach(0);
  try {
    out.version = s.run([](Handle* h) -> Task<std::uint64_t> {
      KvsClient kvs(*h);
      co_return co_await kvs.get_version();
    }(reader.get()));
  } catch (const FluxException& e) {
    out.codes.push_back("final:" + std::string(errc_name(e.error().code)));
  }
  return out;
}

void expect_clean(const ChaosOutcome& out) {
  EXPECT_TRUE(out.completed) << "writer workload hung";
  EXPECT_EQ(out.unexpected, 0) << "untyped exception escaped";
  EXPECT_EQ(out.ok + out.failed, kWriters * kRounds);
}

/// Every broker the schedule restarted must have rejoined the session.
void expect_restarts_rejoined(SimSession& s, const FaultPlan& plan) {
  for (const fault::NodeEvent& ev : plan.events()) {
    if (ev.kind != fault::NodeEvent::Kind::restart) continue;
    EXPECT_TRUE(s.session().broker(ev.rank).online())
        << "rank " << ev.rank << " did not rejoin";
    EXPECT_FALSE(s.session().broker(ev.rank).failed());
  }
}

// ---------------------------------------------------------------------------
// Seeded schedule categories
// ---------------------------------------------------------------------------

TEST(Chaos, CrashOnlySeeds) {
  for (std::uint64_t seed = chaos_base(0); seed < chaos_base(0) + seeds_per_category(); ++seed) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    FaultPlan::RandomOptions opt;
    opt.size = 12;
    opt.horizon = std::chrono::milliseconds(8);
    opt.crashes = true;
    opt.max_crashes = 2;
    SimSession s(chaos_config(opt.size));
    FaultPlan plan = FaultPlan::random(seed, opt);
    const ChaosOutcome out = run_chaos_workload(s, plan);
    expect_clean(out);
  }
}

TEST(Chaos, CrashRestartSeeds) {
  for (std::uint64_t seed = chaos_base(10); seed < chaos_base(10) + seeds_per_category(); ++seed) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    FaultPlan::RandomOptions opt;
    opt.size = 12;
    opt.horizon = std::chrono::milliseconds(8);
    opt.crashes = true;
    opt.restarts = true;
    opt.max_crashes = 2;
    SimSession s(chaos_config(opt.size));
    FaultPlan plan = FaultPlan::random(seed, opt);
    const ChaosOutcome out = run_chaos_workload(s, plan);
    expect_clean(out);
    expect_restarts_rejoined(s, plan);
  }
}

// Shrunk chaos schedules committed under tests/repro/chaos/, each
// {"size": N, "plan": <FaultPlan JSON>}. Unlike the DST repros one level up
// (mutation-driven failures that must keep failing), these are fixed bugs:
// every one must replay clean, with every restarted broker back online.
TEST(Chaos, CommittedPlansReplayClean) {
  const std::filesystem::path dir =
      std::filesystem::path(FLUX_REPRO_DIR) / "chaos";
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
    const auto size = static_cast<std::uint32_t>(parsed->get_int("size", 0));
    ASSERT_GT(size, 0u);
    SimSession s(chaos_config(size));
    FaultPlan plan = FaultPlan::from_json(parsed->at("plan"));
    const ChaosOutcome out = run_chaos_workload(s, plan);
    expect_clean(out);
    expect_restarts_rejoined(s, plan);
  }
  EXPECT_GE(n, 1) << "no committed chaos plans under " << dir;
}

TEST(Chaos, LossyLinkSeeds) {
  for (std::uint64_t seed = chaos_base(20); seed < chaos_base(20) + seeds_per_category(); ++seed) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    FaultPlan::RandomOptions opt;
    opt.size = 10;
    opt.drops = true;
    opt.delays = true;
    SimSession s(chaos_config(opt.size));
    FaultPlan plan = FaultPlan::random(seed, opt);
    const ChaosOutcome out = run_chaos_workload(s, plan);
    expect_clean(out);
    EXPECT_GT(plan.messages_seen(), 0u);
  }
}

TEST(Chaos, CorruptionSeeds) {
  for (std::uint64_t seed = chaos_base(30); seed < chaos_base(30) + seeds_per_category(); ++seed) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    FaultPlan::RandomOptions opt;
    opt.size = 10;
    opt.corruption = true;
    SimSession s(chaos_config(opt.size));
    FaultPlan plan = FaultPlan::random(seed, opt);
    const ChaosOutcome out = run_chaos_workload(s, plan);
    expect_clean(out);
  }
}

TEST(Chaos, ShardMasterFailoverSeeds) {
  for (std::uint64_t seed = chaos_base(40); seed < chaos_base(40) + seeds_per_category(); ++seed) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    SimSession s(chaos_config(
        12, Json::object({{"shards", 3}, {"failover", true}})));
    auto* kvs0 =
        dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
    ASSERT_NE(kvs0, nullptr);
    const std::vector<NodeId> before = kvs0->shard_masters();
    std::vector<NodeId> candidates;
    for (NodeId m : before)
      if (m != 0 &&
          std::find(candidates.begin(), candidates.end(), m) == candidates.end())
        candidates.push_back(m);
    ASSERT_FALSE(candidates.empty());

    // The schedule itself is seed-derived: which master dies, when, and
    // whether it comes back.
    Rng pick(seed);
    const NodeId victim = candidates[pick.below(candidates.size())];
    FaultPlan plan(seed);
    plan.crash_at(victim, std::chrono::microseconds(
                              1500 + static_cast<std::int64_t>(pick.below(1500))));
    if (pick.uniform() < 0.4)
      plan.restart_at(victim, std::chrono::milliseconds(8));

    const ChaosOutcome out = run_chaos_workload(s, plan);
    expect_clean(out);

    // Every shard the victim mastered must have a new master.
    const std::vector<NodeId>& after = kvs0->shard_masters();
    for (std::size_t sh = 0; sh < before.size(); ++sh) {
      if (before[sh] != victim) continue;
      EXPECT_NE(after[sh], victim) << "shard " << sh << " not failed over";
    }
    // Live ranks agree on the post-failover master map.
    for (NodeId r : {1u, 6u, 11u}) {
      if (s.session().broker(r).failed()) continue;
      auto* k =
          dynamic_cast<KvsModule*>(s.session().broker(r).find_module("kvs"));
      ASSERT_NE(k, nullptr);
      EXPECT_EQ(k->shard_masters(), after) << "rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(Chaos, SameSeedSynthesizesSameSchedule) {
  FaultPlan::RandomOptions opt;
  opt.size = 12;
  opt.crashes = true;
  opt.restarts = true;
  opt.drops = true;
  opt.delays = true;
  opt.corruption = true;
  opt.max_crashes = 3;
  for (std::uint64_t seed : {testing::test_seed() + 2, testing::test_seed() + 98,
                             testing::test_seed() + 12344}) {
    const FaultPlan a = FaultPlan::random(seed, opt);
    const FaultPlan b = FaultPlan::random(seed, opt);
    ASSERT_EQ(a.events().size(), b.events().size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.events().size(); ++i) {
      EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
      EXPECT_EQ(a.events()[i].rank, b.events()[i].rank);
      EXPECT_EQ(a.events()[i].at.count(), b.events()[i].at.count());
    }
    // Different seeds must not collide on the same schedule.
    const FaultPlan c = FaultPlan::random(seed + 1, opt);
    bool differs = c.events().size() != a.events().size();
    for (std::size_t i = 0; !differs && i < a.events().size(); ++i)
      differs = c.events()[i].rank != a.events()[i].rank ||
                c.events()[i].at.count() != a.events()[i].at.count();
    EXPECT_TRUE(differs) << "seed " << seed;
  }
}

TEST(Chaos, SameSeedReplaysIdentically) {
  const std::uint64_t base = testing::test_seed();
  for (std::uint64_t seed : {base + 12, base + 24, base + 36}) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    const auto once = [seed, base] {
      FaultPlan::RandomOptions opt;
      opt.size = 10;
      opt.horizon = std::chrono::milliseconds(8);
      opt.crashes = seed == base + 12;
      opt.restarts = seed == base + 12;
      opt.drops = seed == base + 24;
      opt.delays = seed == base + 24;
      opt.corruption = seed == base + 36;
      SimSession s(chaos_config(opt.size));
      FaultPlan plan = FaultPlan::random(seed, opt);
      return run_chaos_workload(s, plan);
    };
    const ChaosOutcome first = once();
    const ChaosOutcome second = once();
    EXPECT_TRUE(first == second)
        << "seed " << seed << " diverged: ok " << first.ok << "/" << second.ok
        << " failed " << first.failed << "/" << second.failed << " injected "
        << first.injected << "/" << second.injected << " version "
        << first.version << "/" << second.version;
  }
}

// ---------------------------------------------------------------------------
// Directed recovery scenarios
// ---------------------------------------------------------------------------

TEST(Chaos, RpcToCrashedRankResolvesTimeoutAfterRetries) {
  SimSession s(chaos_config(8));
  s.session().fail(5);
  s.settle(std::chrono::microseconds(10));
  auto h = s.attach(1);
  const TimePoint t0 = s.ex().now();
  try {
    s.run([](Handle* hd) -> Task<void> {
      co_await hd->request("cmb.ping")
          .to(5)
          .timeout(std::chrono::milliseconds(1))
          .retry(2, std::chrono::microseconds(50))
          .call();
      ADD_FAILURE() << "rpc to crashed rank succeeded";
    }(h.get()));
    FAIL() << "expected FluxException";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::timeout) << e.what();
    EXPECT_EQ(e.code(), make_error_code(errc::timeout));
  }
  // Three attempts (1 + 2 retries), each under a 1ms deadline.
  EXPECT_GE(s.ex().now() - t0, std::chrono::milliseconds(3));
}

TEST(Chaos, SurgicalNthDropIsRetriedToSuccess) {
  SimSession s(chaos_config(4));
  FaultPlan plan(7);
  // Ranks 1 -> 2 only ever talk over the ring plane here, so the first such
  // message is exactly the forwarded ping below.
  plan.drop_nth(1, 2, 1);
  plan.arm(s.session());
  auto h = s.attach(1);
  Json pong = s.run([](Handle* hd) -> Task<Json> {
    co_return co_await hd->ping(3);
  }(h.get()));
  EXPECT_EQ(pong.get_int("rank", -1), 3);
  EXPECT_EQ(plan.faults_injected(), 1u);
}

// ---------------------------------------------------------------------------
// Batched kvs.load under fire: a dropped or corrupted batch fault must be
// retried by the module's session RetryPolicy or surface as a typed taint —
// never hang the reader.
// ---------------------------------------------------------------------------

TEST(Chaos, DroppedBatchedLoadIsRetried) {
  SimSession s(chaos_config(4));
  auto w = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("batch.a.b", "survives");
    co_await kvs.commit();
  }(w.get()));

  FaultPlan plan(11);
  // Swallow the leaf's first batched chain fault (3 -> tree parent 1).
  plan.drop_nth(3, 1, 1, "kvs.load");
  plan.arm(s.session());

  auto reader = s.attach(3);
  Json v = s.run([](Handle* hd) -> Task<Json> {
    KvsClient kvs(*hd);
    co_return co_await kvs.get("batch.a.b");
  }(reader.get()));
  EXPECT_EQ(v.as_string(), "survives");
  EXPECT_EQ(plan.faults_injected(), 1u);
  // The lost batch shows up as an extra upstream round-trip, not a hang.
  EXPECT_GE(s.stats(3).counter_value("kvs.faults_issued"), 2u);
}

TEST(Chaos, CorruptedBatchedLoadIsRetried) {
  SimSession s(chaos_config(4));
  auto w = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("batch.c.d", 99);
    co_await kvs.commit();
  }(w.get()));

  FaultPlan plan(12);
  plan.corrupt_nth(3, 1, 1, "kvs.load");
  plan.arm(s.session());

  auto reader = s.attach(3);
  // A mangled frame either fails to decode (link drop -> module retry, get
  // succeeds) or decodes to an altered request whose useless answer taints
  // the get with a typed error. Both terminate; neither may hang.
  try {
    Json v = s.run([](Handle* hd) -> Task<Json> {
      KvsClient kvs(*hd);
      co_return co_await kvs.get("batch.c.d");
    }(reader.get()));
    EXPECT_EQ(v, Json(99));
  } catch (const FluxException& e) {
    EXPECT_TRUE(e.error().code == errc::timeout ||
                e.error().code == errc::noent ||
                e.error().code == errc::proto)
        << "untyped corruption fallout: " << e.error().to_string();
  }
  EXPECT_EQ(plan.faults_injected(), 1u);
}

TEST(Chaos, FullyDroppedBatchedLoadTaintsNeverHangs) {
  SimSession s(chaos_config(4));
  auto w = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("batch.e.f", "unreachable");
    co_await kvs.commit();
  }(w.get()));

  FaultPlan plan(13);
  // Swallow every batched fault the leaf can issue within its retry budget
  // (module attempts plus client-retry-triggered reissues). A fired rule
  // consumes its message before later rules count it, so 32 first-match
  // rules drop the first 32 kvs.load sends on the link.
  for (int n = 0; n < 32; ++n) plan.drop_nth(3, 1, 1, "kvs.load");
  plan.arm(s.session());

  auto reader = s.attach(3);
  bool typed_taint = false;
  try {
    (void)s.run([](Handle* hd) -> Task<Json> {
      KvsClient kvs(*hd);
      co_return co_await kvs.get("batch.e.f");
    }(reader.get()));
  } catch (const FluxException& e) {
    typed_taint = e.error().code == errc::timeout ||
                  e.error().code == errc::noent;
  }
  // The run() returning at all proves no hang; the error must be typed.
  EXPECT_TRUE(typed_taint) << "expected timeout/noent taint";
}

TEST(Chaos, RestartedBrokerRejoinsAndResyncsKvs) {
  SimSession s(chaos_config(8));
  auto w = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("boot.key", "v1");
    co_await kvs.commit();
  }(w.get()));

  s.session().fail(5);
  s.settle(std::chrono::milliseconds(2));  // detection + heal
  s.session().restart(5);
  s.settle(std::chrono::milliseconds(3));  // rejoin + resync

  EXPECT_TRUE(s.session().broker(5).online());
  EXPECT_FALSE(s.session().broker(5).failed());

  auto back = s.attach(5);
  Json v = s.run([](Handle* hd) -> Task<Json> {
    KvsClient kvs(*hd);
    co_return co_await kvs.get("boot.key");
  }(back.get()));
  EXPECT_EQ(v.as_string(), "v1");

  auto* k5 = dynamic_cast<KvsModule*>(s.session().broker(5).find_module("kvs"));
  auto* k0 = dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
  ASSERT_NE(k5, nullptr);
  ASSERT_NE(k0, nullptr);
  EXPECT_EQ(k5->root_version(), k0->root_version());
}

// ---------------------------------------------------------------------------
// Master crash vs. the apply batch
// ---------------------------------------------------------------------------

/// Resolve `key` in the hash tree at `root` using only `store`; nullopt when
/// any component is missing. Lets the test audit the master's final tree
/// directly, after the broker serving reads has been crashed.
std::optional<Json> resolve_in_store(const ContentStore& store,
                                     const Sha1& root, std::string_view key) {
  ObjPtr cur = store.get(root);
  for (const std::string& part : split_key(key)) {
    if (!cur || cur->doc.get_string("t") != "dir") return std::nullopt;
    const Json& entries = cur->doc.at("e");
    if (!entries.contains(part)) return std::nullopt;
    auto ref = Sha1::parse(entries.at(part).as_string());
    if (!ref) return std::nullopt;
    cur = store.get(*ref);
  }
  if (!cur || cur->doc.get_string("t") != "val") return std::nullopt;
  return cur->doc.at("d");
}

constexpr int kKeysPerTxn = 3;

Task<void> batch_txn_writer(Handle* h, int id, ChaosOutcome* out,
                            bool (*acked)[kRounds], int* done) {
  KvsClient kvs(*h);
  for (int round = 0; round < kRounds; ++round) {
    try {
      co_await h->sleep(std::chrono::microseconds(150 + 20 * id));
      const std::string base =
          "batch.w" + std::to_string(id) + ".r" + std::to_string(round);
      for (int k = 0; k < kKeysPerTxn; ++k)
        co_await kvs.put(base + ".k" + std::to_string(k),
                         id * 1000 + round * 10 + k);
      co_await kvs.commit();
      acked[id][round] = true;
      ++out->ok;
    } catch (const FluxException& e) {
      ++out->failed;
      out->codes.push_back(std::string(errc_name(e.error().code)));
    } catch (const std::exception&) {
      ++out->unexpected;
    }
  }
  ++*done;
}

TEST(Chaos, MasterCrashMidBatchNeverHalfApplies) {
  // The master coalesces same-turn commits into one apply batch; a crash
  // landing anywhere around that window — before the flush, mid-fence
  // accumulation, after the ack — must leave every transaction all-or-none
  // in the master's tree and every unacked committer with a typed error.
  // The crash instant is seed-swept across the commit window so some
  // schedules hit each phase.
  std::uint64_t batches_seen = 0;
  for (std::uint64_t seed = chaos_base(50);
       seed < chaos_base(50) + seeds_per_category(); ++seed) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    SimSession s(chaos_config(6));
    Rng rng(seed);
    const auto crash_at = std::chrono::microseconds(100 + rng.below(2400));

    ChaosOutcome out;
    int done = 0;
    bool acked[kWriters][kRounds] = {};
    std::vector<std::unique_ptr<Handle>> handles;
    for (int w = 0; w < kWriters; ++w) {
      handles.push_back(s.attach(static_cast<NodeId>(1 + w)));
      co_spawn(s.ex(),
               batch_txn_writer(handles.back().get(), w, &out, acked, &done),
               "batch-writer");
    }
    auto killer = s.attach(1);
    co_spawn(s.ex(),
             [](Handle* h, Session* sess, Duration at) -> Task<void> {
               co_await h->sleep(at);
               sess->fail(0);
             }(killer.get(), &s.session(), crash_at),
             "master-killer");
    s.ex().run();

    EXPECT_EQ(done, kWriters) << "writer hung after master crash";
    EXPECT_EQ(out.unexpected, 0) << "untyped exception escaped";
    EXPECT_EQ(out.ok + out.failed, kWriters * kRounds);

    // fail() settles RPCs but keeps module state (only restart destroys
    // it), so the master's final tree is still auditable in-process.
    auto* k0 =
        dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
    ASSERT_NE(k0, nullptr);
    batches_seen += s.stats(0).histogram_value("kvs.apply.batch_size").count();
    for (int w = 0; w < kWriters; ++w) {
      for (int r = 0; r < kRounds; ++r) {
        const std::string base =
            "batch.w" + std::to_string(w) + ".r" + std::to_string(r);
        int present = 0;
        for (int k = 0; k < kKeysPerTxn; ++k)
          if (resolve_in_store(k0->store(), k0->root_ref(),
                               base + ".k" + std::to_string(k)))
            ++present;
        EXPECT_TRUE(present == 0 || present == kKeysPerTxn)
            << base << ": " << present << "/" << kKeysPerTxn
            << " keys applied (half-applied transaction)";
        if (acked[w][r]) {
          EXPECT_EQ(present, kKeysPerTxn)
              << base << ": acked commit missing from the master tree";
        }
      }
    }
  }
  EXPECT_GT(batches_seen, 0u) << "sweep never exercised the apply batch";
}

TEST(Chaos, WindowedApplyCoalescesWithoutLosingAckedCommits) {
  // With an explicit coalescing window, commits landing at distinct sim
  // instants share one deferred apply flush and one root announce on every
  // shard master — the single master (k = 1) and each of k = 4 alike. The
  // batching must be visible in the stats AND invisible to the oracle:
  // every acked transaction is present whole in its shard master's tree.
  for (const std::int64_t shards : {std::int64_t{1}, std::int64_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    SimSession s(chaos_config(
        6, Json::object({{"announce_window_us", 60}, {"shards", shards}})));
    ChaosOutcome out;
    int done = 0;
    bool acked[kWriters][kRounds] = {};
    std::vector<std::unique_ptr<Handle>> handles;
    for (int w = 0; w < kWriters; ++w) {
      handles.push_back(s.attach(static_cast<NodeId>(1 + w)));
      co_spawn(s.ex(),
               batch_txn_writer(handles.back().get(), w, &out, acked, &done),
               "windowed-writer");
    }
    s.ex().run();

    EXPECT_EQ(done, kWriters);
    EXPECT_EQ(out.unexpected, 0);
    EXPECT_EQ(out.ok, kWriters * kRounds) << "no faults injected, no failures";

    auto kvs_at = [&s](NodeId rank) {
      return dynamic_cast<KvsModule*>(s.session().broker(rank).find_module("kvs"));
    };
    const KvsModule* k0 = kvs_at(0);
    ASSERT_NE(k0, nullptr);
    ASSERT_EQ(k0->shards(), static_cast<std::uint32_t>(shards));
    for (const NodeId rank : k0->shard_masters()) {
      SCOPED_TRACE(::testing::Message() << "shard master rank " << rank);
      // Histograms of fences per batch: count = batches, sum = fences.
      const obs::Histogram apply =
          s.stats(rank).histogram_value("kvs.apply.batch_size");
      const obs::Histogram announce =
          s.stats(rank).histogram_value("kvs.announce.batch_size");
      // All 16 writer commits (plus any module boot-time commit) flowed
      // through this master's batch path — every fence carries a part, empty
      // or not, to every shard — and the window must have merged concurrent
      // ones: strictly fewer root transitions and announces than fences.
      EXPECT_GE(apply.sum(), static_cast<std::uint64_t>(kWriters) * kRounds);
      EXPECT_LT(apply.count(), apply.sum()) << "window never coalesced an apply";
      EXPECT_LT(announce.count(), announce.sum())
          << "window never coalesced an announce";
    }
    for (int w = 0; w < kWriters; ++w) {
      for (int r = 0; r < kRounds; ++r) {
        ASSERT_TRUE(acked[w][r]);
        const std::string base =
            "batch.w" + std::to_string(w) + ".r" + std::to_string(r);
        const std::uint32_t shard = k0->shard_map().shard_of(base);
        const KvsModule* master = kvs_at(k0->shard_masters()[shard]);
        for (int k = 0; k < kKeysPerTxn; ++k)
          EXPECT_TRUE(resolve_in_store(master->store(),
                                       master->shard_roots()[shard],
                                       base + ".k" + std::to_string(k)))
              << base << ".k" << k << ": acked key missing";
      }
    }
  }
}

TEST(Chaos, WindowedApplyCrashRestartLeavesNoStaleTimer) {
  // A root bounce while the apply/announce timer is armed destroys the
  // KvsModule instance with the timer still due: the stale callback must
  // degrade to a no-op (weak liveness token — ThreadExecutor timers are not
  // cancelable) and the pending batch dies whole. The restart lands INSIDE
  // the window (30 µs after the crash, window 60 µs) so seeds split between
  // timer-fires-on-failed-broker and timer-fires-after-destruction; ASan
  // turns any stale-timer dereference into a hard failure. Root restart is
  // session-fatal by design (plans spare rank 0), so no post-restart
  // service is asserted — only typed settlement and no-UAF.
  for (std::uint64_t seed = chaos_base(60);
       seed < chaos_base(60) + seeds_per_category(); ++seed) {
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    SimSession s(chaos_config(6, Json::object({{"announce_window_us", 60}})));
    Rng rng(seed);
    const auto crash_at = std::chrono::microseconds(120 + rng.below(600));

    ChaosOutcome out;
    int done = 0;
    bool acked[kWriters][kRounds] = {};
    std::vector<std::unique_ptr<Handle>> handles;
    for (int w = 0; w < kWriters; ++w) {
      handles.push_back(s.attach(static_cast<NodeId>(1 + w)));
      co_spawn(s.ex(),
               batch_txn_writer(handles.back().get(), w, &out, acked, &done),
               "windowed-writer");
    }
    auto killer = s.attach(1);
    co_spawn(s.ex(),
             [](Handle* h, Session* sess, Duration at) -> Task<void> {
               co_await h->sleep(at);
               sess->fail(0);
               co_await h->sleep(std::chrono::microseconds(30));
               sess->restart(0);
             }(killer.get(), &s.session(), crash_at),
             "master-bouncer");
    s.ex().run();

    EXPECT_EQ(done, kWriters) << "writer hung across master bounce";
    EXPECT_EQ(out.unexpected, 0) << "untyped exception escaped";
    EXPECT_EQ(out.ok + out.failed, kWriters * kRounds);
  }
}

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

TEST(Chaos, FaultPlanFromJsonParsesSchedule) {
  Json crash = Json::object({{"kind", "crash"}, {"rank", 3}, {"at_us", 2000}});
  Json restart =
      Json::object({{"kind", "restart"}, {"rank", 3}, {"at_us", 9000}});
  Json link = Json::object({{"from", -1}, {"to", -1}, {"drop", 0.5}});
  Json nth = Json::object(
      {{"from", 0}, {"to", 1}, {"n", 7}, {"action", "drop"}});
  Json j = Json::object({{"events", Json::array({crash, restart})},
                         {"links", Json::array({link})},
                         {"nth", Json::array({nth})}});
  const FaultPlan plan = FaultPlan::from_json(j);
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, fault::NodeEvent::Kind::crash);
  EXPECT_EQ(plan.events()[0].rank, 3u);
  EXPECT_EQ(plan.events()[0].at, std::chrono::microseconds(2000));
  EXPECT_EQ(plan.events()[1].kind, fault::NodeEvent::Kind::restart);
  EXPECT_EQ(plan.events()[1].at, std::chrono::microseconds(9000));
}

TEST(Chaos, FaultPlanFromJsonRejectsMalformed) {
  try {
    FaultPlan::from_json(Json::object({{"events", Json("nope")}}));
    FAIL() << "events-not-an-array accepted";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::inval);
  }
  Json bad_kind = Json::object({{"kind", "explode"}, {"rank", 1}});
  Json j = Json::object({{"events", Json::array({bad_kind})}});
  try {
    FaultPlan::from_json(j);
    FAIL() << "unknown event kind accepted";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::inval);
  }
}

}  // namespace
}  // namespace flux
