// Persistence suite (ctest -L persist): durability under crashes, proven at
// two levels.
//
//   1. Backend level — a seeded torn-crash suite: random append/sync/crash
//      schedules against FileLogBackend, where a crash keeps a random torn
//      prefix of the unsynced tail. Recovery must always come back at or
//      past the last synced root with every synced object intact, across
//      several crash generations of the same file.
//   2. Session level — the DST persistence matrix: the standard workload and
//      consistency oracle with persistence on, across clean, sharded,
//      faulted, and crash schedules — including the kill-and-restart
//      scenario (opt.master_crash): the root broker, which is the persisting
//      KVS master, crashes mid-run with a torn tail and restarts; the
//      offline durability audit in run_schedule then proves every acked
//      commit is recoverable from the on-disk log.
//
// FLUX_PERSIST_SEEDS scales the sweep widths; FLUX_TEST_SEED shifts every
// base seed. Failing seeds are printed for replay (dst_harness.hpp).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "check/explorer.hpp"
#include "check/mutation.hpp"
#include "dst_harness.hpp"
#include "kvs/content_backend.hpp"
#include "kvs/content_store.hpp"
#include "kvs/treeobj.hpp"

namespace flux::check {
namespace {

using flux::testing::test_seed;

/// Sweep width; FLUX_PERSIST_SEEDS overrides (e.g. 500 for a soak).
int persist_seeds(int dflt) { return sweep("FLUX_PERSIST_SEEDS", dflt); }

// -- 1. backend-level torn-crash suite ---------------------------------------

TEST(PersistTornCrash, RecoveryNeverLosesASyncedRoot) {
  // 50 seeds by default (FLUX_PERSIST_SEEDS scales). Each seed drives three
  // crash generations of one log file: random appends and syncs, then a
  // crash keeping a random torn prefix of the unsynced tail. The invariant
  // is exactly the ack contract: recovery comes back at a version >= the
  // last synced ("acked") root, with that version's exact root ref and every
  // object synced before the crash intact.
  const std::uint64_t base = test_seed() + 0x9e0000;
  const int seeds = persist_seeds(50);
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
    SCOPED_TRACE(::testing::Message() << "torn-crash seed " << seed);
    Rng rng(seed);
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("flux-torn-" + std::to_string(::getpid()) + "-" +
          std::to_string(seed) + ".log"))
            .string();

    std::map<std::uint64_t, Sha1> root_of_version;
    std::set<Sha1> synced_objects;  // durable before the last crash
    std::uint64_t synced_version = 0;
    std::uint64_t version = 0;

    for (int generation = 0; generation < 3; ++generation) {
      ContentStore store;
      FileLogBackend backend(path);
      const FileLogBackend::Recovered rec = backend.recover(store);

      // The recovered state honors every past ack.
      const std::uint64_t recovered = rec.has_root(0) ? rec.versions[0] : 0;
      ASSERT_GE(recovered, synced_version)
          << "recovery lost acked version " << synced_version;
      if (recovered != 0) {
        ASSERT_TRUE(root_of_version.count(recovered))
            << "recovered unknown version " << recovered;
        EXPECT_EQ(rec.roots[0], root_of_version[recovered]);
      }
      for (const Sha1& id : synced_objects)
        EXPECT_TRUE(store.contains(id))
            << "synced object " << id.hex() << " lost";

      // Resume appending past the recovered state (the recovery epoch).
      version = recovered;
      std::vector<Sha1> appended_unsynced;
      std::uint64_t appended_version = version;
      const auto nops = 4 + rng.below(12);
      for (std::uint64_t op = 0; op < nops; ++op) {
        switch (rng.below(3)) {
          case 0:
          case 1: {
            ObjPtr obj = make_val_object(Json::object(
                {{"seed", static_cast<std::int64_t>(seed)},
                 {"n", static_cast<std::int64_t>(rng())}}));
            appended_unsynced.push_back(obj->id);
            backend.append_object(*obj);
            backend.append_root(0, ++appended_version, obj->id);
            root_of_version[appended_version] = obj->id;
            break;
          }
          default:
            backend.sync();
            // Everything appended so far is now acked.
            for (const Sha1& id : appended_unsynced)
              synced_objects.insert(id);
            appended_unsynced.clear();
            synced_version = appended_version;
            break;
        }
      }
      // Crash with a random torn prefix of whatever is still unsynced.
      const std::uint64_t unsynced = backend.unsynced_bytes();
      backend.crash(unsynced == 0 ? 0 : rng.below(unsynced + 1));
    }
    std::filesystem::remove(path);
  }
}

// -- 2. DST persistence matrix -----------------------------------------------

TEST(PersistDst, CleanSchedulesPass) {
  DstOptions opt;
  opt.persist = true;
  expect_all_pass(test_seed() + 0xa00000, persist_seeds(25), opt);
}

TEST(PersistDst, ShardedSchedulesPass) {
  // Every shard master persists to its own log (path + ".s<k>"); the audit
  // routes each acked key to its shard's recovered root.
  DstOptions opt;
  opt.persist = true;
  opt.size = 5;
  opt.shards = 2;
  expect_all_pass(test_seed() + 0xa10000, persist_seeds(15), opt);
}

TEST(PersistDst, FaultedSchedulesPass) {
  DstOptions opt;
  opt.persist = true;
  opt.drops = true;
  opt.delays = true;
  expect_all_pass(test_seed() + 0xa20000, persist_seeds(15), opt);
}

TEST(PersistDst, NonRootCrashSchedulesPass) {
  // Crashing slave brokers must never disturb the master's durable state.
  DstOptions opt;
  opt.persist = true;
  opt.crashes = true;
  opt.restarts = true;
  opt.delays = true;
  expect_all_pass(test_seed() + 0xa30000, persist_seeds(10), opt);
}

TEST(PersistDst, MasterKillAndRestartRecoversEveryAckedCommit) {
  // The headline scenario: the root broker (the persisting master) crashes
  // mid-run — losing a random torn prefix of its unsynced tail — and
  // restarts in place. Clients ride out the outage with typed errors; the
  // restarted master recovers from its log and re-announces one version
  // above the recovered one. The consistency oracle checks the live session;
  // the offline audit then checks the on-disk log serves every acked commit.
  DstOptions opt;
  opt.persist = true;
  opt.master_crash = true;
  opt.rounds = 3;
  expect_all_pass(test_seed() + 0xa40000, persist_seeds(20), opt);
}

TEST(PersistDst, MasterCrashUnderMessageChurnPass) {
  DstOptions opt;
  opt.persist = true;
  opt.master_crash = true;
  opt.drops = true;
  opt.delays = true;
  expect_all_pass(test_seed() + 0xa50000, persist_seeds(10), opt);
}

TEST(PersistDst, ShardedMasterCrashSchedulesPass) {
  // The root masters shard 0 and crashes while fences over both shards are
  // in flight. Every broker completes those fences from the shard announces
  // it receives, so the crash must neither hang them nor let one complete
  // with only the surviving shard's part applied.
  DstOptions opt;
  opt.persist = true;
  opt.size = 5;
  opt.shards = 2;
  opt.master_crash = true;
  opt.rounds = 3;
  expect_all_pass(test_seed() + 0xa80000, persist_seeds(10), opt);
}

TEST(PersistDst, SameSeedIsDeterministicWithPersistence) {
  // The file-system layer lives outside the simulation; it must not leak
  // nondeterminism back in. Same seed, same history, same verdict.
  DstOptions opt;
  opt.persist = true;
  opt.master_crash = true;
  const std::uint64_t seed = test_seed() + 0xa60000;
  const DstResult a = run_schedule(seed, opt);
  const DstResult b = run_schedule(seed, opt);
  EXPECT_EQ(a.history_len, b.history_len);
  EXPECT_EQ(a.failed(), b.failed());
  EXPECT_EQ(a.report.to_string(), b.report.to_string());
  EXPECT_EQ(a.fault_plan.dump(), b.fault_plan.dump());
}

TEST(PersistDst, AuditHasTeeth) {
  // Blind-oracle guard, the test_dst.cpp mutation idiom: kvs.skip_sync makes
  // the master ack commits while the log tail is still buffered — breaking
  // exactly the ack-after-sync invariant the audit checks — so a master
  // crash must surface a durability violation on some nearby seed. An audit
  // that passes every mutated schedule is blind.
  const MutationGuard guard("kvs.skip_sync");
  DstOptions opt;
  opt.persist = true;
  opt.master_crash = true;
  opt.rounds = 3;
  const std::uint64_t base = test_seed() + 0xa70000;
  for (int i = 0; i < 12; ++i) {
    const DstResult r =
        run_schedule(base + static_cast<std::uint64_t>(i), opt);
    if (!r.durability_violations.empty()) return;  // caught — audit has teeth
  }
  ADD_FAILURE() << "durability audit never flagged a lost acked commit "
                   "under the kvs.skip_sync mutation (12 seeds)";
}

}  // namespace
}  // namespace flux::check
