// KVS: hash-tree semantics, commit/fence, faulting, watch, versions.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fault/plan.hpp"
#include "kvs/kvs_module.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

Task<void> put_commit(Handle* h, std::string key, Json value) {
  KvsClient kvs(*h);
  co_await kvs.put(std::move(key), std::move(value));
  co_await kvs.commit();
}

TEST(Kvs, PutCommitGetAcrossRanks) {
  SimSession s(SimSession::default_config(8));
  auto writer = s.attach(7);
  auto reader = s.attach(4);
  s.run(put_commit(writer.get(), "a.b.c", 42));
  Json v = s.run([](Handle* h) -> Task<Json> {
    KvsClient kvs(*h);
    co_return co_await kvs.get("a.b.c");
  }(reader.get()));
  EXPECT_EQ(v, Json(42));
}

TEST(Kvs, GetMissingKeyIsEnoent) {
  SimSession s;
  auto h = s.attach(3);
  try {
    s.run([](Handle* hd) -> Task<void> {
      KvsClient kvs(*hd);
      (void)co_await kvs.get("no.such.key");
    }(h.get()));
    FAIL() << "expected ENOENT";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::noent);
  }
}

TEST(Kvs, PathAcrossValueIsEnotdir) {
  SimSession s;
  auto h = s.attach(1);
  s.run(put_commit(h.get(), "x.v", 1));
  try {
    s.run([](Handle* hd) -> Task<void> {
      KvsClient kvs(*hd);
      (void)co_await kvs.get("x.v.deeper");
    }(h.get()));
    FAIL() << "expected ENOTDIR";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::not_dir);
  }
}

TEST(Kvs, GetDirectoryIsEisdir) {
  SimSession s;
  auto h = s.attach(2);
  s.run(put_commit(h.get(), "dir.sub.leaf", 1));
  try {
    s.run([](Handle* hd) -> Task<void> {
      KvsClient kvs(*hd);
      (void)co_await kvs.get("dir.sub");
    }(h.get()));
    FAIL() << "expected EISDIR";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::is_dir);
  }
}

TEST(Kvs, ListDirAndRootDir) {
  SimSession s;
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("top.a", 1);
    co_await kvs.put("top.b", 2);
    co_await kvs.put("other", 3);
    co_await kvs.commit();
    auto top = co_await kvs.list_dir("top");
    if (top != std::vector<std::string>{"a", "b"})
      throw FluxException(Error(errc::proto, "bad top listing"));
    auto root = co_await kvs.list_dir(".");
    bool has_top = false, has_other = false;
    for (const auto& name : root) {
      has_top |= (name == "top");
      has_other |= (name == "other");
    }
    if (!has_top || !has_other)
      throw FluxException(Error(errc::proto, "bad root listing"));
  }(h.get()));
}

TEST(Kvs, UnlinkRemovesKey) {
  SimSession s;
  auto h = s.attach(1);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("gone.soon", "x");
    co_await kvs.commit();
    co_await kvs.unlink("gone.soon");
    co_await kvs.commit();
    try {
      (void)co_await kvs.get("gone.soon");
      throw FluxException(Error(errc::proto, "key still present"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::noent) throw;
    }
  }(h.get()));
}

TEST(Kvs, MkdirCreatesEmptyDirectory) {
  SimSession s;
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.mkdir("empty.dir");
    co_await kvs.commit();
    auto names = co_await kvs.list_dir("empty.dir");
    if (!names.empty())
      throw FluxException(Error(errc::proto, "expected empty dir"));
  }(h.get()));
}

TEST(Kvs, OverwriteReplacesValueAndBumpsVersion) {
  SimSession s;
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("k", 1);
    auto r1 = co_await kvs.commit();
    co_await kvs.put("k", 2);
    auto r2 = co_await kvs.commit();
    if (r2.version <= r1.version)
      throw FluxException(Error(errc::proto, "version not monotonic"));
    if (r2.rootref == r1.rootref)
      throw FluxException(Error(errc::proto, "root ref did not change"));
    Json v = co_await kvs.get("k");
    if (v != Json(2)) throw FluxException(Error(errc::proto, "stale value"));
  }(h.get()));
}

TEST(Kvs, ValueReplacedByDirectoryAndBack) {
  SimSession s;
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("morph", 1);
    co_await kvs.commit();
    co_await kvs.put("morph.child", 2);  // morph becomes a directory
    co_await kvs.commit();
    Json v = co_await kvs.get("morph.child");
    if (v != Json(2)) throw FluxException(Error(errc::proto, "bad child"));
    co_await kvs.put("morph", 3);  // and back to a value
    co_await kvs.commit();
    Json w = co_await kvs.get("morph");
    if (w != Json(3)) throw FluxException(Error(errc::proto, "bad morph"));
  }(h.get()));
}

TEST(Kvs, ReadYourWrites) {
  // Commit returns only after the local root has been applied: an immediate
  // get on the same handle must see the write (paper's RYW property).
  SimSession s(SimSession::default_config(16));
  auto h = s.attach(15);  // deep leaf, far from the master
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    for (int i = 0; i < 5; ++i) {
      co_await kvs.put("ryw", i);
      co_await kvs.commit();
      Json v = co_await kvs.get("ryw");
      if (v != Json(i))
        throw FluxException(Error(errc::proto, "stale read-your-write"));
    }
  }(h.get()));
}

TEST(Kvs, MonotonicReadsAcrossVersions) {
  // A reader polling a key must never observe an older value after a newer
  // one (paper's monotonic-read property).
  SimSession s(SimSession::default_config(8));
  auto writer = s.attach(7);
  auto reader = s.attach(6);
  std::vector<std::int64_t> observed;
  // Writer bumps the key 10 times; reader polls between sim slices.
  co_spawn(s.ex(), [](Handle* h) -> Task<void> {
    KvsClient kvs(*h);
    for (int i = 1; i <= 10; ++i) {
      co_await kvs.put("mono", i);
      co_await kvs.commit();
    }
  }(writer.get()), "writer");
  co_spawn(s.ex(), [](Handle* h, std::vector<std::int64_t>* obs) -> Task<void> {
    KvsClient kvs(*h);
    for (int i = 0; i < 50; ++i) {
      try {
        Json v = co_await kvs.get("mono");
        obs->push_back(v.as_int());
      } catch (const FluxException&) {
        // not yet written
      }
      co_await sleep_for(h->executor(), std::chrono::microseconds(50));
    }
  }(reader.get(), &observed), "reader");
  s.ex().run();
  for (std::size_t i = 1; i < observed.size(); ++i)
    EXPECT_GE(observed[i], observed[i - 1]) << "at poll " << i;
  ASSERT_FALSE(observed.empty());
  EXPECT_EQ(observed.back(), 10);
}

TEST(Kvs, CausalConsistencyViaWaitVersion) {
  // Process A writes and passes the version to process B out-of-band; B
  // waits for that version and must see the value (paper's causal property).
  SimSession s(SimSession::default_config(16));
  auto a = s.attach(9);
  auto b = s.attach(14);
  std::uint64_t version = 0;
  s.run([](Handle* h, std::uint64_t* out) -> Task<void> {
    KvsClient kvs(*h);
    co_await kvs.put("causal", "payload");
    auto r = co_await kvs.commit();
    *out = r.version;
  }(a.get(), &version));
  ASSERT_GT(version, 0u);
  s.run([](Handle* h, std::uint64_t v) -> Task<void> {
    KvsClient kvs(*h);
    co_await kvs.wait_version(v);
    Json value = co_await kvs.get("causal");
    if (value != Json("payload"))
      throw FluxException(Error(errc::proto, "causal read failed"));
  }(b.get(), version));
}

TEST(Kvs, FenceIsCollectiveCommit) {
  SimSession s(SimSession::default_config(8));
  std::vector<std::unique_ptr<Handle>> handles;
  std::vector<CommitResult> results(8);
  int done = 0;
  for (NodeId r = 0; r < 8; ++r) {
    handles.push_back(s.attach(r));
    co_spawn(s.ex(),
             [](Handle* h, NodeId rank, CommitResult* out, int* d) -> Task<void> {
               KvsClient kvs(*h);
               co_await kvs.put("fence.r" + std::to_string(rank), rank);
               *out = co_await kvs.fence("f1", 8);
               ++*d;
             }(handles.back().get(), r, &results[r], &done),
             "fencer");
  }
  s.ex().run();
  ASSERT_EQ(done, 8);
  // One root update covers all eight writes; everyone sees one version.
  for (NodeId r = 1; r < 8; ++r) {
    EXPECT_EQ(results[r].version, results[0].version);
    EXPECT_EQ(results[r].rootref, results[0].rootref);
  }
  // All values visible everywhere afterwards.
  auto h = s.attach(5);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    for (NodeId r = 0; r < 8; ++r) {
      Json v = co_await kvs.get("fence.r" + std::to_string(r));
      if (v != Json(r)) throw FluxException(Error(errc::proto, "bad value"));
    }
  }(h.get()));
}

TEST(Kvs, FenceDoesNotCompleteEarly) {
  SimSession s(SimSession::default_config(4));
  auto h0 = s.attach(0);
  int done = 0;
  co_spawn(s.ex(), [](Handle* h, int* d) -> Task<void> {
    KvsClient kvs(*h);
    co_await kvs.put("early", 1);
    co_await kvs.fence("f2", 3);
    ++*d;
  }(h0.get(), &done));
  s.ex().run();
  EXPECT_EQ(done, 0);  // 1 of 3
}

TEST(Kvs, RedundantValuesDeduplicateInStore) {
  // Identical values share one content address: the master stores one
  // object regardless of producer count (Figure 3's reduction effect).
  SimSession s(SimSession::default_config(8));
  std::vector<std::unique_ptr<Handle>> handles;
  int done = 0;
  for (NodeId r = 0; r < 8; ++r) {
    handles.push_back(s.attach(r));
    co_spawn(s.ex(), [](Handle* h, NodeId rank, int* d) -> Task<void> {
      KvsClient kvs(*h);
      co_await kvs.put("dedup.k" + std::to_string(rank),
                       "identical-payload-for-everyone");
      co_await kvs.fence("f3", 8);
      ++*d;
    }(handles.back().get(), r, &done));
  }
  s.ex().run();
  ASSERT_EQ(done, 8);
  auto* master =
      dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
  ASSERT_NE(master, nullptr);
  // Objects: 1 shared value + directories. With 8 keys in one dir: empty
  // root, old root, "dedup" dir, new root, and exactly ONE value object.
  std::set<std::string> refs;
  auto h = s.attach(0);
  s.run([](Handle* hd, std::set<std::string>* out) -> Task<void> {
    KvsClient kvs(*hd);
    for (int r = 0; r < 8; ++r)
      out->insert(co_await kvs.lookup_ref("dedup.k" + std::to_string(r)));
  }(h.get(), &refs));
  EXPECT_EQ(refs.size(), 1u);  // all keys reference the same object
}

TEST(Kvs, WatchFiresOnChangeAndOnlyOnChange) {
  SimSession s(SimSession::default_config(4));
  auto watcher = s.attach(3);
  auto writer = s.attach(1);
  std::vector<std::optional<Json>> seen;
  auto kvs_watcher = std::make_unique<KvsClient>(*watcher);
  WatchHandle watch = kvs_watcher->watch(
      "watched.key", [&](const std::optional<Json>& v) { seen.push_back(v); });
  s.ex().run();
  ASSERT_EQ(seen.size(), 1u);  // initial callback: absent
  EXPECT_FALSE(seen[0].has_value());

  s.run(put_commit(writer.get(), "watched.key", "v1"));
  s.ex().run();
  ASSERT_EQ(seen.size(), 2u);
  ASSERT_TRUE(seen[1].has_value());
  EXPECT_EQ(*seen[1], Json("v1"));

  // An unrelated commit must NOT fire the watch.
  s.run(put_commit(writer.get(), "unrelated.key", 1));
  s.ex().run();
  EXPECT_EQ(seen.size(), 2u);

  s.run(put_commit(writer.get(), "watched.key", "v2"));
  s.ex().run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(*seen[2], Json("v2"));
}

TEST(Kvs, WatchOnDirectorySeesDeepChanges) {
  // Hash-tree property: "a watched directory changes if keys under it at
  // any path depth change."
  SimSession s(SimSession::default_config(4));
  auto watcher = s.attach(2);
  auto writer = s.attach(1);
  int fires = 0;
  KvsClient kvs_watcher(*watcher);
  WatchHandle watch =
      kvs_watcher.watch("tree", [&](const std::optional<Json>&) { ++fires; });
  s.ex().run();
  EXPECT_EQ(fires, 1);  // initial (absent)
  s.run(put_commit(writer.get(), "tree.a.b.c.deep", 1));
  s.ex().run();
  EXPECT_EQ(fires, 2);
  s.run(put_commit(writer.get(), "tree.a.b.c.deep", 2));
  s.ex().run();
  EXPECT_EQ(fires, 3);
}

TEST(Kvs, SlaveCachesFaultThroughTree) {
  SimSession s(SimSession::default_config(16));
  auto writer = s.attach(0);
  s.run(put_commit(writer.get(), "faulty.key", "data"));
  // A reader at a deep leaf faults the objects through interior caches.
  auto reader = s.attach(15);
  s.run([](Handle* h) -> Task<void> {
    KvsClient kvs(*h);
    (void)co_await kvs.get("faulty.key");
  }(reader.get()));
  EXPECT_GT(s.stats(15).counter_value("kvs.faults_issued"), 0u);
  // The interior parent (rank 7 -> 3 -> 1) served and now caches the object.
  auto* interior =
      dynamic_cast<KvsModule*>(s.session().broker(7).find_module("kvs"));
  ASSERT_NE(interior, nullptr);
  EXPECT_GT(s.stats(7).counter_value("kvs.loads_served"), 0u);
  EXPECT_GT(interior->cache().count(), 0u);
}

// Acceptance for the batched read path: a cold-cache get of a depth-8 path
// must cost at least 2x fewer upstream round-trips than the sequential
// fault model (one RPC per chain object = path length + 1).
TEST(Kvs, BatchedColdGetReducesUpstreamRoundTrips) {
  SessionConfig cfg = SimSession::default_config(16);
  // No mon module: its periodic KVS polls would add background faults and
  // make the exact round-trip count nondeterministic.
  cfg.modules = {"hb", "live", "barrier", "kvs"};
  SimSession s(cfg);
  const std::string key = "d1.d2.d3.d4.d5.d6.d7.leaf";  // 8 components
  auto writer = s.attach(0);
  s.run(put_commit(writer.get(), key, "deep"));

  auto reader = s.attach(15);
  Json v = s.run([&key](Handle* h) -> Task<Json> {
    KvsClient kvs(*h);
    co_return co_await kvs.get(key);
  }(reader.get()));
  EXPECT_EQ(v, Json("deep"));

  const obs::StatsRegistry& leaf = s.stats(15);
  // Sequential model: root dir + 7 intermediate dirs + value = 9 RPCs.
  const std::uint64_t sequential_model = 8 + 1;
  EXPECT_LE(leaf.counter_value("kvs.faults_issued") * 2, sequential_model);
  // The walk prefetch bundles the whole chain into the first round-trip.
  EXPECT_EQ(leaf.counter_value("kvs.faults_issued"), 1u);
  EXPECT_EQ(leaf.counter_value("kvs.objects_faulted"), sequential_model);
}

// Equivalence: the batched chain fetch must deliver exactly the objects N
// sequential faults would have (the path's chain, bit-identical to the
// master's authoritative copies) — batching changes round-trips, not state.
TEST(Kvs, BatchedLoadEquivalentToSequentialFaults) {
  SessionConfig cfg = SimSession::default_config(8);
  cfg.modules = {"hb", "live", "barrier", "kvs"};
  SimSession s(cfg);
  const std::string key = "eq.x.y.z";
  auto writer = s.attach(0);
  s.run(put_commit(writer.get(), key, Json::object({{"v", 7}})));

  auto reader = s.attach(7);
  (void)s.run([&key](Handle* h) -> Task<Json> {
    KvsClient kvs(*h);
    co_return co_await kvs.get(key);
  }(reader.get()));

  auto* master =
      dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
  auto* leaf =
      dynamic_cast<KvsModule*>(s.session().broker(7).find_module("kvs"));
  ASSERT_NE(master, nullptr);
  ASSERT_NE(leaf, nullptr);

  // Walk the authoritative chain root->...->value; the slave cache must hold
  // every link, serialized identically (content addressing makes identity
  // equality), exactly as per-object faults would have produced.
  Sha1 cur = master->root_ref();
  std::vector<std::string> path = {"eq", "x", "y", "z"};
  std::size_t chain_len = 0;
  for (std::size_t i = 0;; ++i) {
    ObjPtr truth = master->store().get(cur);
    ASSERT_NE(truth, nullptr);
    ObjPtr cached = leaf->cache().peek(cur);
    ASSERT_NE(cached, nullptr) << "chain object " << i << " not cached";
    EXPECT_EQ(cached->id, truth->id);
    EXPECT_EQ(cached->bytes, truth->bytes);
    ++chain_len;
    if (i == path.size()) break;
    ASSERT_TRUE(truth->is_dir());
    auto next = truth->child(path[i]);
    ASSERT_TRUE(next.has_value());
    cur = *next;
  }
  EXPECT_EQ(chain_len, path.size() + 1);
  // And the whole chain arrived in one batched round-trip.
  EXPECT_EQ(s.stats(7).counter_value("kvs.faults_issued"), 1u);
  EXPECT_EQ(s.stats(7).counter_value("kvs.objects_faulted"), chain_len);
}

TEST(Kvs, ConcurrentFaultsCoalesce) {
  SimSession s(SimSession::default_config(4));
  auto writer = s.attach(0);
  s.run(put_commit(writer.get(), "hot.key", std::string(2048, 'x')));
  // Many clients on one broker read simultaneously; the broker must issue
  // far fewer upstream faults than readers.
  std::vector<std::unique_ptr<Handle>> handles;
  int done = 0;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(s.attach(3));
    co_spawn(s.ex(), [](Handle* h, int* d) -> Task<void> {
      KvsClient kvs(*h);
      (void)co_await kvs.get("hot.key");
      ++*d;
    }(handles.back().get(), &done));
  }
  s.ex().run();
  ASSERT_EQ(done, 16);
  // Root dir + value object: at most a handful of faults, not 16x2.
  EXPECT_LE(s.stats(3).counter_value("kvs.faults_issued"), 4u);
}

TEST(Kvs, CacheExpiryAfterDisuse) {
  SessionConfig cfg = SimSession::default_config(4);
  // No mon module: its periodic KVS polls would keep the root directory
  // object warm and defeat the disuse check.
  cfg.modules = {"hb", "live", "barrier", "kvs"};
  cfg.module_config =
      Json::object({{"kvs", Json::object({{"expiry_epochs", 3}})},
                    {"hb", Json::object({{"period_us", 100}})}});
  SimSession s(cfg);
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("exp.k", "v");
    co_await kvs.commit();
    (void)co_await kvs.get("exp.k");
  }(h.get()));
  auto* leaf =
      dynamic_cast<KvsModule*>(s.session().broker(3).find_module("kvs"));
  EXPECT_GT(leaf->cache().count(), 0u);
  // Let many heartbeats pass with no access: entries expire.
  s.settle(std::chrono::milliseconds(2));
  EXPECT_EQ(leaf->cache().count(), 0u);
}

TEST(Kvs, StatsReportShape) {
  SimSession s;
  auto h = s.attach(1);
  s.run(put_commit(h.get(), "stats.k", 5));
  Message resp = s.run(h->request("kvs.stats.get").call());
  const Json& p = resp.payload();
  EXPECT_EQ(p.get_int("rank", -1), 1);
  EXPECT_TRUE(p.contains("cache_objects"));
  EXPECT_GE(p.at("counters").get_int("kvs.puts"), 1);
  EXPECT_FALSE(p.get_bool("master"));  // rank 1 is a slave
  // The state that is not a counter rides in the same response.
  EXPECT_GE(p.get_int("version"), 2);  // bootstrap root + the commit
  EXPECT_TRUE(p.at("store_bytes").is_int());
  EXPECT_TRUE(p.at("histograms").contains("kvs.apply.batch_size"));
}

TEST(Kvs, EmptyKeyRejected) {
  SimSession s;
  auto h = s.attach(0);
  try {
    s.run([](Handle* hd) -> Task<void> {
      KvsClient kvs(*hd);
      co_await kvs.put("", 1);
    }(h.get()));
    FAIL() << "expected EINVAL";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::inval);
  }
}

TEST(Kvs, CommitWithoutPutsStillAdvances) {
  SimSession s;
  auto h = s.attach(2);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    auto r = co_await kvs.commit();
    if (r.version == 0)
      throw FluxException(Error(errc::proto, "no version returned"));
  }(h.get()));
}


// ---------------------------------------------------------------------------
// Sharded masters (paper §VII, module config {"shards": k})
// ---------------------------------------------------------------------------

SessionConfig sharded_config(std::uint32_t size, std::uint32_t shards) {
  SessionConfig cfg = SimSession::default_config(size);
  cfg.module_config = Json::object(
      {{"kvs",
        Json::object({{"shards", static_cast<std::int64_t>(shards)}})}});
  return cfg;
}

TEST(KvsSharded, CommitGetAcrossRanksAndShards) {
  SimSession s(sharded_config(8, 4));
  auto writer = s.attach(7);
  CommitResult res = s.run([](Handle* h) -> Task<CommitResult> {
    KvsClient kvs(*h);
    // Distinct top-level directories scatter across the four shards.
    for (int d = 0; d < 8; ++d)
      co_await kvs.put("dir" + std::to_string(d) + ".k", d);
    co_return co_await kvs.commit();
  }(writer.get()));
  ASSERT_EQ(res.vv.size(), 4u);
  std::uint64_t sum = 0;
  for (std::uint64_t v : res.vv) sum += v;
  EXPECT_EQ(res.version, sum);  // scalar version mirrors the vector

  auto reader = s.attach(5);
  s.run([](Handle* h) -> Task<void> {
    KvsClient kvs(*h);
    for (int d = 0; d < 8; ++d) {
      Json v = co_await kvs.get("dir" + std::to_string(d) + ".k");
      if (v != Json(d)) throw FluxException(Error(errc::proto, "bad value"));
    }
    // Root listing is the union of every shard's top level (plus what the
    // resvc module publishes).
    auto names = co_await kvs.list_dir(".");
    for (int d = 0; d < 8; ++d) {
      const std::string want = "dir" + std::to_string(d);
      if (std::find(names.begin(), names.end(), want) == names.end())
        throw FluxException(Error(errc::proto, "missing " + want));
    }
  }(reader.get()));
}

TEST(KvsSharded, TuplesLandOnOwningShardsOnly) {
  SimSession s(sharded_config(8, 4));
  auto h = s.attach(6);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    for (int d = 0; d < 12; ++d)
      co_await kvs.put("t" + std::to_string(d) + ".v", d);
    co_await kvs.commit();
  }(h.get()));
  auto* root =
      dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
  ASSERT_NE(root, nullptr);
  ASSERT_TRUE(root->sharded());
  const ShardMap& map = root->shard_map();
  // Each shard master's store holds exactly its own top-level dirs: its root
  // object lists precisely the keys the ShardMap routes to it.
  for (std::uint32_t sh = 0; sh < 4; ++sh) {
    auto* master = dynamic_cast<KvsModule*>(
        s.session().broker(map.master_rank(sh)).find_module("kvs"));
    ASSERT_NE(master, nullptr);
    ASSERT_EQ(master->my_shard(), std::optional<std::uint32_t>(sh));
  }
  std::set<std::uint32_t> owners;
  for (int d = 0; d < 12; ++d)
    owners.insert(
        map.shard_of(std::string("t").append(std::to_string(d)).append(".v")));
  EXPECT_GT(owners.size(), 1u) << "12 dirs all hashed to one shard";
}

TEST(KvsSharded, FenceCrossShardVisibility) {
  // One completion rule serves every shard count, so one test covers them.
  for (const std::uint32_t k : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards " + std::to_string(k));
    SimSession s(sharded_config(8, k));
    std::vector<std::unique_ptr<Handle>> handles;
    std::vector<CommitResult> results(8);
    int done = 0;
    for (NodeId r = 0; r < 8; ++r) {
      handles.push_back(s.attach(r));
      co_spawn(
          s.ex(),
          [](Handle* h, NodeId rank, CommitResult* out, int* d) -> Task<void> {
            KvsClient kvs(*h);
            co_await kvs.put("sf" + std::to_string(rank) + ".val", rank);
            *out = co_await kvs.fence("shard-fence", 8);
            ++*d;
          }(handles.back().get(), r, &results[r], &done),
          "fencer");
    }
    s.ex().run();
    ASSERT_EQ(done, 8);
    // Responses carry the version vector only when k > 1, and it is
    // identical for every participant.
    for (NodeId r = 0; r < 8; ++r)
      ASSERT_EQ(results[r].vv.size(), k == 1 ? 0u : k);
    for (NodeId r = 1; r < 8; ++r) {
      EXPECT_EQ(results[r].vv, results[0].vv);
      EXPECT_EQ(results[r].version, results[0].version);
    }
    // After the fence response, every rank sees EVERY shard's writes
    // (read-your-writes + cross-shard fence visibility) without settling.
    for (NodeId r = 0; r < 8; ++r) {
      s.run([](Handle* h, NodeId rank) -> Task<void> {
        KvsClient kvs(*h);
        for (NodeId w = 0; w < 8; ++w) {
          Json v = co_await kvs.get("sf" + std::to_string(w) + ".val");
          if (v != Json(w))
            throw FluxException(
                Error(errc::proto, "rank " + std::to_string(rank) +
                                       " missed write " + std::to_string(w)));
        }
      }(handles[r].get(), r));
    }
  }
}

TEST(KvsSharded, ShardAnnouncesAloneCompleteACommit) {
  // Every shard announce names the fences its root includes, and those
  // announces are all a commit needs: no completion event of its own.
  SimSession s(sharded_config(8, 2));
  s.settle(std::chrono::milliseconds(10));
  auto h = s.attach(5);
  std::vector<Message> seen;
  Subscription sub =
      h->subscribe("kvs", [&seen](const Message& ev) { seen.push_back(ev); });
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("a.k", 1);
    co_await kvs.put("b.k", 2);
    co_await kvs.commit();
  }(h.get()));
  s.settle(std::chrono::milliseconds(10));
  std::vector<std::string> topics;
  for (const Message& ev : seen) topics.push_back(ev.topic);
  std::sort(topics.begin(), topics.end());
  ASSERT_EQ(topics,
            (std::vector<std::string>{"kvs.setroot.0", "kvs.setroot.1"}));
  std::string fence;
  for (const Message& ev : seen) {
    const Json& fences = ev.payload().at("fences");
    ASSERT_TRUE(fences.is_array()) << ev.topic;
    ASSERT_EQ(fences.size(), 1u) << ev.topic;
    const std::string name = fences.as_array()[0].as_string();
    EXPECT_TRUE(name.starts_with("#commit.")) << name;
    if (fence.empty()) fence = name;
    EXPECT_EQ(name, fence) << "the shards named different fences";
  }
}

TEST(KvsSharded, RelayThatSeesAnAnnounceFirstStillCompletesTheFence) {
  // Rank `p` fences alone; its shard-1 flush to relay `x` (on no other path
  // of the fence) is held back until shard 0 has already announced the
  // fence. `x` must still complete it from both announces, or it keeps a
  // stale half-announced fence under that name, and reusing the name later
  // completes the new fence at `x` before shard 1 has applied it.
  SimSession s(sharded_config(8, 2));
  s.settle(std::chrono::milliseconds(1));
  auto* root =
      dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
  const ShardMap& map = root->shard_map();
  const Topology& topo = s.session().broker(0).topology();
  std::string key;  // a key on shard 1
  for (int i = 0; key.empty(); ++i)
    if (const std::string r = std::string("r").append(std::to_string(i));
        map.shard_of(r) == 1)
      key = r;
  NodeId p = 0;
  NodeId x = 0;
  for (NodeId r = 1; r < 8 && x == 0; ++r) {
    const auto up = map.parent(1, r);
    if (!up || *up == 0 || *up == map.master_rank(1)) continue;
    bool ancestor = false;  // on r's shard-0 (session tree) path
    for (auto a = topo.parent(r); a; a = topo.parent(*a)) ancestor |= *a == *up;
    if (!ancestor) {
      p = r;
      x = *up;
    }
  }
  ASSERT_NE(x, 0u) << "no relay off the session-tree path";

  fault::FaultPlan plan;
  plan.delay_nth(p, x, 1, std::chrono::milliseconds(1), "kvs.flush");
  plan.arm(s.session());
  auto fence_put = [](Handle* h, std::string k, int v) -> Task<Json> {
    KvsClient kvs(*h);
    co_await kvs.put(k + ".v", v);
    co_await kvs.fence("reused", 1);
    co_return co_await kvs.get(k + ".v");
  };
  auto hp = s.attach(p);
  EXPECT_EQ(s.run(fence_put(hp.get(), key, 1)), Json(1));
  s.settle(std::chrono::milliseconds(2));
  auto hx = s.attach(x);
  EXPECT_EQ(s.run(fence_put(hx.get(), key, 2)), Json(2))
      << "rank " << x << " completed the reused fence before shard 1 applied";
}

TEST(KvsSharded, PerShardMonotonicReads) {
  SimSession s(sharded_config(8, 4));
  auto writer = s.attach(3);
  // Commit the same shard repeatedly; every observer's view of that shard
  // must move through versions in order (never backwards).
  std::vector<std::uint64_t> seen;
  auto* leaf =
      dynamic_cast<KvsModule*>(s.session().broker(6).find_module("kvs"));
  ASSERT_NE(leaf, nullptr);
  const std::uint32_t shard = leaf->shard_map().shard_of("mono.k");
  for (int i = 0; i < 5; ++i) {
    s.run([](Handle* h, int val) -> Task<void> {
      KvsClient kvs(*h);
      co_await kvs.put("mono.k", val);
      co_await kvs.commit();
    }(writer.get(), i));
    s.settle(std::chrono::microseconds(500));
    seen.push_back(leaf->shard_versions()[shard]);
  }
  for (std::size_t i = 1; i < seen.size(); ++i)
    EXPECT_LE(seen[i - 1], seen[i]) << "shard version went backwards";
  EXPECT_GE(seen.back(), 5u);  // bootstrap + 5 commits reached rank 6
}

TEST(KvsSharded, SingleShardConfigMatchesLegacy) {
  // shards=1 must degrade to the classic single-master layout: no vv in
  // responses, same stats shape, master on the session root.
  SimSession s(sharded_config(8, 1));
  auto h = s.attach(4);
  CommitResult res = s.run([](Handle* hd) -> Task<CommitResult> {
    KvsClient kvs(*hd);
    co_await kvs.put("legacy.k", 1);
    co_return co_await kvs.commit();
  }(h.get()));
  EXPECT_TRUE(res.vv.empty());
  Message stats = s.run(h->request("kvs.stats.get").call());
  EXPECT_FALSE(stats.payload().contains("vv"));
  EXPECT_FALSE(stats.payload().contains("shards"));
  auto* root =
      dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
  EXPECT_FALSE(root->sharded());
  EXPECT_TRUE(root->is_master());
}

TEST(KvsSharded, CausalAcrossShardsViaWaitVersion) {
  SimSession s(sharded_config(8, 4));
  auto w = s.attach(1);
  // Writer commits, passes the resulting scalar version to a reader on
  // another rank; the reader waits for it, then must see the write.
  CommitResult res = s.run([](Handle* h) -> Task<CommitResult> {
    KvsClient kvs(*h);
    co_await kvs.put("causal.x", 99);
    co_return co_await kvs.commit();
  }(w.get()));
  auto r = s.attach(6);
  s.run([](Handle* h, std::uint64_t version) -> Task<void> {
    KvsClient kvs(*h);
    co_await kvs.wait_version(version);
    Json v = co_await kvs.get("causal.x");
    if (v != Json(99))
      throw FluxException(Error(errc::proto, "stale read after wait"));
  }(r.get(), res.version));
}

}  // namespace
}  // namespace flux
