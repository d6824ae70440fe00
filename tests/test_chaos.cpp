// Chaos suite (ctest -L chaos): seeded fault schedules against live sessions.
//
// The five seeded sweeps are cells of the DST explorer (check/explorer.hpp):
// each runs the explorer's standard workload under a synthesized or targeted
// FaultPlan, and the explorer's post-run recovery checks judge every
// schedule. The consistency oracle judges the crash, restart and lossy
// cells too; the corruption and failover cells say why it cannot judge
// theirs. Seeds per cell default to 10 (FLUX_CHAOS_SEEDS widens them), based
// at FLUX_TEST_SEED plus a per-cell offset; a failing schedule prints its
// seed, violations and plan.
//
//   base+0..    broker crashes (no recovery)
//   base+10..   crashes + restarts with tree rejoin and KVS resync
//   base+20..   lossy links (probabilistic drop + delay)
//   base+30..   message corruption
//   base+40..   sharded-KVS master crash with hb-driven failover
//
// The directed cases below pin single recovery paths: RPC timeouts to a dead
// rank, surgical drops and corruptions of batched loads, a restarted broker's
// resync, and master crashes around the apply batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "dst_harness.hpp"
#include "fault/plan.hpp"
#include "kvs/kvs_module.hpp"
#include "kvs/shard_map.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using check::DstOptions;
using check::DstResult;
using check::describe;
using check::expect_all_pass;
using fault::FaultPlan;
using testing::SimSession;
using testing::test_seed;

constexpr int kWriters = 4;
constexpr int kRounds = 4;

/// Seeds per cell; FLUX_CHAOS_SEEDS widens every sweep for soak runs.
int chaos_seeds() { return check::sweep("FLUX_CHAOS_SEEDS", 10); }

/// A chaos cell on a `size`-rank session. Four clients over eight rounds keep
/// the explorer's workload running through the first ~4 ms of the schedule,
/// where synthesized crashes land; on these sessions its default two rounds
/// end at ~0.85 ms.
DstOptions chaos_cell(std::uint32_t size) {
  DstOptions opt;
  opt.size = size;
  opt.clients = 4;
  opt.rounds = 8;
  return opt;
}

/// The verdict on a schedule the oracle cannot judge: no stalled client, no
/// untyped escape, and every post-run recovery check holds.
void expect_live(const DstResult& r) {
  EXPECT_EQ(r.stalled_clients, 0) << describe(r);
  EXPECT_FALSE(r.workload_error) << describe(r);
  EXPECT_TRUE(r.recovery_violations.empty()) << describe(r);
}

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

// ---------------------------------------------------------------------------
// Seeded schedule cells
// ---------------------------------------------------------------------------

TEST(Chaos, CrashOnlySeeds) {
  DstOptions opt = chaos_cell(12);
  opt.crashes = true;
  opt.max_crashes = 2;
  expect_all_pass(test_seed(), chaos_seeds(), opt);
}

TEST(Chaos, CrashRestartSeeds) {
  DstOptions opt = chaos_cell(12);
  opt.crashes = true;
  opt.restarts = true;
  opt.max_crashes = 2;
  expect_all_pass(test_seed() + 10, chaos_seeds(), opt);
}

TEST(Chaos, LossyLinkSeeds) {
  DstOptions opt = chaos_cell(10);
  opt.drops = true;
  opt.delays = true;
  expect_all_pass(test_seed() + 20, chaos_seeds(), opt);
}

TEST(Chaos, CorruptionSeeds) {
  // Liveness only (explorer.hpp): a corrupted frame that still decodes can
  // hand the oracle a root nobody stored, so the oracle does not judge it.
  const DstOptions opt = chaos_cell(10);
  FaultPlan::RandomOptions fo;
  fo.size = opt.size;
  fo.corruption = true;
  const std::uint64_t base = test_seed() + 30;
  for (int i = 0; i < chaos_seeds(); ++i) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
    expect_live(
        check::run_schedule(seed, opt, FaultPlan::random(seed, fo).to_json()));
  }
}

TEST(Chaos, ShardMasterFailoverSeeds) {
  // A targeted schedule per seed: which non-root shard master dies, when,
  // and whether it comes back. The explorer's post-run checks require a new
  // master for its shards that every live rank agrees on, and a restarted
  // victim back online. The oracle judges only setroot-sequence here: the
  // promoted master restarts the shard from an empty root, losing acked data
  // by design (DESIGN §4c), which the oracle reads as read-your-writes or
  // fence-atomicity violations. Versions still only rise: a restarted
  // victim announces nothing until its resync adopts the current ones.
  DstOptions opt = chaos_cell(12);
  opt.shards = 3;
  opt.failover = true;
  const ShardMap sm(opt.size, opt.shards, opt.arity);
  std::vector<NodeId> candidates;
  for (std::uint32_t sh = 0; sh < opt.shards; ++sh) {
    const NodeId m = sm.master_rank(sh);
    if (m != 0 &&
        std::find(candidates.begin(), candidates.end(), m) == candidates.end())
      candidates.push_back(m);
  }
  ASSERT_FALSE(candidates.empty());

  const std::uint64_t base = test_seed() + 40;
  for (int i = 0; i < chaos_seeds(); ++i) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
    Rng pick(seed);
    const NodeId victim = candidates[pick.below(candidates.size())];
    FaultPlan plan(seed);
    plan.crash_at(victim, std::chrono::microseconds(
                              1500 + static_cast<std::int64_t>(pick.below(1500))));
    if (pick.uniform() < 0.4)
      plan.restart_at(victim, std::chrono::milliseconds(8));
    const DstResult r = check::run_schedule(seed, opt, plan.to_json());
    expect_live(r);
    EXPECT_FALSE(r.report.violates("setroot-sequence")) << describe(r);
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
  for (std::uint64_t seed : {test_seed() + 2, test_seed() + 98,
                             test_seed() + 12344}) {
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

constexpr int kKeysPerTxn = 3;

/// How a batched writer's commits ended.
struct Tally {
  int ok = 0;
  int failed = 0;
  int unexpected = 0;  ///< non-FluxException escapes (always a bug)
};

Task<void> batch_txn_writer(Handle* h, int id, Tally* out,
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
    } catch (const FluxException&) {
      ++out->failed;
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
  for (int i = 0; i < chaos_seeds(); ++i) {
    const std::uint64_t seed = test_seed() + 50 + static_cast<std::uint64_t>(i);
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    SimSession s(chaos_config(6));
    Rng rng(seed);
    const auto crash_at = std::chrono::microseconds(100 + rng.below(2400));

    Tally out;
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
          if (check::resolve_key(k0->store(), k0->root_ref(),
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
  // Where the apply window is open (size × shards >= 48), commits landing at
  // distinct sim instants share one deferred apply and one root announce on
  // every shard master — the single master (k = 1, 48 brokers) and each of
  // k = 4 (12 brokers) alike. The batching must be visible in the stats AND
  // invisible to the oracle: every acked transaction is present whole in
  // its shard master's tree, and every applied root is announced — each
  // shard's kvs.setroot* versions step by exactly 1, one announce per apply.
  struct Cell {
    std::uint32_t size;
    std::int64_t shards;
  };
  for (const Cell cell : {Cell{48, 1}, Cell{12, 4}}) {
    const std::int64_t shards = cell.shards;
    SCOPED_TRACE(::testing::Message() << "shards " << shards);
    SimSession s(chaos_config(cell.size, Json::object({{"shards", shards}})));
    s.ex().run();  // settle boot-time commits before observing

    auto kvs_at = [&s](NodeId rank) {
      return dynamic_cast<KvsModule*>(s.session().broker(rank).find_module("kvs"));
    };
    const KvsModule* k0 = kvs_at(0);
    ASSERT_NE(k0, nullptr);
    ASSERT_EQ(k0->shards(), static_cast<std::uint32_t>(shards));
    const NodeId observer_rank = cell.size - 1;
    std::vector<std::uint64_t> version = kvs_at(observer_rank)->shard_versions();
    std::vector<std::uint64_t> applies_before;
    for (const NodeId rank : k0->shard_masters())
      applies_before.push_back(
          s.stats(rank).histogram_value("kvs.apply.batch_size").count());
    std::vector<std::uint64_t> announces(version.size(), 0);
    auto observer = s.attach(observer_rank);
    Subscription sub = observer->subscribe("kvs.setroot", [&](const Message& ev) {
      const std::size_t shard =
          ev.topic == "kvs.setroot" ? 0 : std::stoul(ev.topic.substr(12));
      const auto v = static_cast<std::uint64_t>(ev.payload().get_int("version"));
      EXPECT_EQ(v, version[shard] + 1) << "shard " << shard
                                       << " setroot version jumped";
      version[shard] = v;
      ++announces[shard];
    });

    Tally out;
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

    for (std::uint32_t shard = 0; shard < k0->shards(); ++shard) {
      const NodeId rank = k0->shard_masters()[shard];
      SCOPED_TRACE(::testing::Message() << "shard master rank " << rank);
      // A histogram of fences per batch: count = batches, sum = fences.
      const obs::Histogram apply =
          s.stats(rank).histogram_value("kvs.apply.batch_size");
      // All 16 writer commits flowed through this master's batch path —
      // every fence carries a part, empty or not, to every shard — and the
      // window must have merged concurrent ones: strictly fewer root
      // transitions than fences, each announced once.
      EXPECT_GE(apply.sum(), static_cast<std::uint64_t>(kWriters) * kRounds);
      EXPECT_LT(apply.count(), apply.sum()) << "window never coalesced an apply";
      EXPECT_EQ(announces[shard], apply.count() - applies_before[shard])
          << "an applied root went unannounced";
    }
    for (int w = 0; w < kWriters; ++w) {
      for (int r = 0; r < kRounds; ++r) {
        ASSERT_TRUE(acked[w][r]);
        const std::string base =
            "batch.w" + std::to_string(w) + ".r" + std::to_string(r);
        const std::uint32_t shard = k0->shard_map().shard_of(base);
        const KvsModule* master = kvs_at(k0->shard_masters()[shard]);
        for (int k = 0; k < kKeysPerTxn; ++k)
          EXPECT_TRUE(check::resolve_key(master->store(),
                                       master->shard_roots()[shard],
                                       base + ".k" + std::to_string(k)))
              << base << ".k" << k << ": acked key missing";
      }
    }
  }
}

TEST(Chaos, WindowedApplyCrashRestartLeavesNoStaleTimer) {
  // A root bounce while the apply timer is armed destroys the KvsModule
  // instance with the timer still due: the stale callback must degrade to
  // a no-op (weak liveness token — ThreadExecutor timers are not
  // cancelable) and the pending batch dies whole. On 48 brokers the window
  // is open (40 µs), and the restart lands INSIDE it (30 µs after the
  // crash), so seeds split between timer-fires-on-failed-broker and
  // timer-fires-after-destruction; ASan turns any stale-timer dereference
  // into a hard failure. Root restart is session-fatal by design (plans
  // spare rank 0), so no post-restart service is asserted — only typed
  // settlement and no-UAF.
  for (int i = 0; i < chaos_seeds(); ++i) {
    const std::uint64_t seed = test_seed() + 60 + static_cast<std::uint64_t>(i);
    SCOPED_TRACE(::testing::Message() << "chaos seed " << seed);
    SimSession s(chaos_config(48));
    Rng rng(seed);
    const auto crash_at = std::chrono::microseconds(120 + rng.below(600));

    Tally out;
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
