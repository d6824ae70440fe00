// Fault injection: dead-broker detection, tree self-healing, and service
// continuity (paper §IV-A: planes "can self-heal when interior nodes fail").
#include <gtest/gtest.h>

#include "kvs/kvs_module.hpp"
#include "modules/live.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

SessionConfig failure_config(std::uint32_t size) {
  SessionConfig cfg = SimSession::default_config(size);
  cfg.module_config = Json::object(
      {{"hb", Json::object({{"period_us", 100}})},
       {"live", Json::object({{"missed_max", 3}})}});
  return cfg;
}

TEST(Failure, InteriorDeathHealsTopologyEverywhere) {
  SimSession s(failure_config(15));  // rank 1 is interior: children 3,4
  s.settle(std::chrono::milliseconds(1));
  s.session().fail(1);
  s.settle(std::chrono::milliseconds(2));
  // Every live broker's topology replica healed: 3 and 4 under root now.
  for (NodeId r : {0u, 2u, 3u, 4u, 7u, 14u}) {
    const Topology& topo = s.session().broker(r).topology();
    EXPECT_EQ(*topo.parent(3), 0u) << "rank " << r;
    EXPECT_EQ(*topo.parent(4), 0u) << "rank " << r;
  }
}

TEST(Failure, KvsServesAfterInteriorDeath) {
  SimSession s(failure_config(15));
  auto writer = s.attach(0);
  s.run([](Handle* h) -> Task<void> {
    KvsClient kvs(*h);
    co_await kvs.put("pre.fail", "survives");
    co_await kvs.commit();
  }(writer.get()));

  s.session().fail(1);
  s.settle(std::chrono::milliseconds(2));  // detection + healing

  // A client below the dead broker (rank 3's subtree hangs off rank 1
  // originally) can still read AND write through the healed tree.
  auto survivor = s.attach(7);  // old path: 7 -> 3 -> 1(dead) -> 0
  s.run([](Handle* h) -> Task<void> {
    KvsClient kvs(*h);
    Json v = co_await kvs.get("pre.fail");
    if (v != Json("survives"))
      throw FluxException(Error(errc::proto, "lost committed data"));
    co_await kvs.put("post.fail", "written after heal");
    co_await kvs.commit();
    Json w = co_await kvs.get("post.fail");
    if (w != Json("written after heal"))
      throw FluxException(Error(errc::proto, "post-heal write failed"));
  }(survivor.get()));
}

TEST(Failure, EventsReachOrphansAfterHeal) {
  SimSession s(failure_config(15));
  s.settle(std::chrono::milliseconds(1));
  s.session().fail(2);  // children 5, 6
  s.settle(std::chrono::milliseconds(2));
  auto sub = s.attach(6);
  auto pub = s.attach(0);
  int got = 0;
  Subscription watch =
      sub->subscribe("heal.test", [&](const Message&) { ++got; });
  pub->publish("heal.test");
  s.ex().run();
  EXPECT_EQ(got, 1);
}

TEST(Failure, ResvcTakesDeadNodeOutOfThePool) {
  SimSession s(failure_config(8));
  s.settle(std::chrono::milliseconds(1));
  s.session().fail(5);
  s.settle(std::chrono::milliseconds(3));
  auto h = s.attach(0);
  Message st = s.run(h->request("resvc.status").call());
  EXPECT_EQ(st.payload().get_int("down"), 1);
  EXPECT_EQ(st.payload().get_int("free"), 7);
  // The KVS enumeration reflects the death.
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    Json n5 = co_await kvs.get("resource.nodes.n5");
    if (n5.get_string("state") != "down")
      throw FluxException(Error(errc::proto, "node not marked down"));
  }(h.get()));
}

TEST(Failure, LeafDeathIsDetectedButHarmless) {
  SimSession s(failure_config(8));
  s.settle(std::chrono::milliseconds(1));
  s.session().fail(7);  // leaf
  s.settle(std::chrono::milliseconds(2));
  auto* live =
      dynamic_cast<modules::Live*>(s.session().broker(3).find_module("live"));
  ASSERT_NE(live, nullptr);
  EXPECT_TRUE(live->dead().contains(7));
  // The rest of the session is fully functional.
  auto h = s.attach(6);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("after.leaf.death", 1);
    co_await kvs.commit();
    co_await hd->barrier("leafdeath", 1);
  }(h.get()));
}

TEST(Failure, MultipleDeaths) {
  SimSession s(failure_config(31));
  s.settle(std::chrono::milliseconds(1));
  s.session().fail(5);
  s.settle(std::chrono::milliseconds(2));
  s.session().fail(2);
  s.settle(std::chrono::milliseconds(2));
  // 5's children (11, 12) first moved under 2; when 2 died they... were
  // re-homed under 2's parent along with 2's other children.
  auto h = s.attach(11);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("multi.death", "ok");
    co_await kvs.commit();
    Json v = co_await kvs.get("multi.death");
    if (v != Json("ok")) throw FluxException(Error(errc::proto, "broken"));
  }(h.get()));
}

TEST(Failure, PendingRpcOnFailedBrokerSettles) {
  SimSession s(failure_config(8));
  auto h = s.attach(3);
  errc seen = errc::ok;
  co_spawn(s.ex(), [](Handle* hd, errc* out) -> Task<void> {
    try {
      // A barrier that will never complete while the broker dies.
      co_await hd->barrier("doomed", 999);
    } catch (const FluxException& e) {
      *out = e.error().code;
    }
  }(h.get(), &seen), "doomed");
  s.settle(std::chrono::microseconds(500));
  s.session().fail(3);
  s.ex().run();
  EXPECT_EQ(seen, errc::host_down);
}


// ---------------------------------------------------------------------------
// Sharded KVS masters under failure (paper §VII)
// ---------------------------------------------------------------------------

SessionConfig sharded_failure_config(std::uint32_t size, std::uint32_t shards) {
  SessionConfig cfg = failure_config(size);
  Json mc = cfg.module_config;
  mc["kvs"] = Json::object({{"shards", static_cast<std::int64_t>(shards)}});
  cfg.module_config = std::move(mc);
  return cfg;
}

TEST(Failure, ShardMasterDeathHealsAndOtherShardsKeepServing) {
  // size 8, shards 4: masters at ranks 0, 2, 4, 6. Rank 2 is interior
  // (children 5, 6) and masters a non-root shard.
  SimSession s(sharded_failure_config(8, 4));
  auto h = s.attach(7);
  auto* leaf =
      dynamic_cast<KvsModule*>(s.session().broker(7).find_module("kvs"));
  ASSERT_NE(leaf, nullptr);
  const ShardMap& map = leaf->shard_map();
  const std::uint32_t dead_shard = *map.shard_of_master(2);

  // Find keys per shard, commit one to every shard pre-death.
  std::vector<std::string> key_on(4);
  for (int i = 0; key_on[0].empty() || key_on[1].empty() ||
                  key_on[2].empty() || key_on[3].empty();
       ++i) {
    const std::string key = std::string("d").append(std::to_string(i));
    key_on[map.shard_of(key)] = key;
  }
  s.run([](Handle* hd, const std::vector<std::string>* keys) -> Task<void> {
    KvsClient kvs(*hd);
    for (const std::string& k : *keys) co_await kvs.put(k + ".v", k);
    co_await kvs.commit();
  }(h.get(), &key_on));

  s.session().fail(2);
  s.settle(std::chrono::milliseconds(2));  // detection + heal + live.down

  // Topology healed around the dead broker everywhere.
  for (NodeId r : {0u, 1u, 5u, 6u, 7u}) {
    const Topology& topo = s.session().broker(r).topology();
    EXPECT_EQ(*topo.parent(5), 0u) << "rank " << r;
    EXPECT_EQ(*topo.parent(6), 0u) << "rank " << r;
  }

  s.run([](Handle* hd, const std::vector<std::string>* keys,
           std::uint32_t dead) -> Task<void> {
    KvsClient kvs(*hd);
    for (std::uint32_t sh = 0; sh < 4; ++sh) {
      const std::string key = (*keys)[sh] + ".v";
      if (sh == dead) {
        // The dead shard's data is gone; reads fail fast with EHOSTDOWN.
        try {
          (void)co_await kvs.get(key);
          throw FluxException(Error(errc::proto, "read of dead shard passed"));
        } catch (const FluxException& e) {
          if (e.error().code != errc::host_down) throw;
        }
      } else {
        // Live shards keep serving reads...
        Json v = co_await kvs.get(key);
        if (v != Json((*keys)[sh]))
          throw FluxException(Error(errc::proto, "live shard lost data"));
        // ...and writes.
        co_await kvs.put(key, "rewritten");
        auto r = co_await kvs.commit();
        if (r.vv.size() != 4)
          throw FluxException(Error(errc::proto, "no vv after death"));
        Json w = co_await kvs.get(key);
        if (w != Json("rewritten"))
          throw FluxException(Error(errc::proto, "post-death write lost"));
      }
    }
    // Writes destined to the dead shard are refused, not hung.
    try {
      co_await kvs.put((*keys)[dead] + ".w", 1);
      co_await kvs.commit();
      throw FluxException(Error(errc::proto, "write to dead shard passed"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::host_down) throw;
    }
  }(h.get(), &key_on, dead_shard));
}

TEST(Failure, ShardMasterDeathSettlesInFlightFence) {
  SimSession s(sharded_failure_config(8, 4));
  s.settle(std::chrono::milliseconds(1));
  auto* leaf =
      dynamic_cast<KvsModule*>(s.session().broker(7).find_module("kvs"));
  const ShardMap& map = leaf->shard_map();
  // A key owned by rank 2's shard.
  std::string key;
  for (int i = 0;; ++i) {
    key = std::string("f").append(std::to_string(i));
    if (map.master_rank(map.shard_of(key)) == 2) break;
  }

  auto h = s.attach(7);
  std::optional<errc> seen;
  int done = 0;
  co_spawn(s.ex(),
           [](Handle* hd, std::string k, std::optional<errc>* out,
              int* d) -> Task<void> {
             KvsClient kvs(*hd);
             co_await kvs.put(k + ".v", 1);
             try {
               // nprocs=2 with one participant: still pending at death.
               co_await kvs.fence("doomed", 2);
             } catch (const FluxException& e) {
               *out = e.error().code;
             }
             ++*d;
           }(h.get(), key, &seen, &done),
           "doomed-fencer");
  s.settle(std::chrono::milliseconds(1));  // contribution reaches masters
  EXPECT_EQ(done, 0);                      // fence pending (1 of 2)

  s.session().fail(2);
  s.settle(std::chrono::milliseconds(3));

  // The second participant arrives after the death; the fence settles with
  // an error at the writer whose tuples went to the dead shard.
  auto h2 = s.attach(5);
  int done2 = 0;
  co_spawn(s.ex(),
           [](Handle* hd, int* d) -> Task<void> {
             KvsClient kvs(*hd);
             try {
               co_await kvs.fence("doomed", 2);
             } catch (const FluxException&) {
             }
             ++*d;
           }(h2.get(), &done2),
           "second-fencer");
  s.settle(std::chrono::milliseconds(3));
  EXPECT_EQ(done, 1) << "fence waiter hung after shard master death";
  EXPECT_EQ(done2, 1);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(*seen, errc::host_down);
}

TEST(Failure, ShardMasterDeathAfterAnnouncesFailsTheFence) {
  // Rank 2 masters a shard and dies after every participant contributed but
  // before its death is declared: the other shards apply and announce the
  // fence, rank 2's shard never does. Its live.down must drop it from the
  // fence's completion set and fail the fence everywhere, even for writers
  // whose own tuples went to live shards only.
  SimSession s(sharded_failure_config(8, 4));
  s.settle(std::chrono::milliseconds(1));
  auto* leaf =
      dynamic_cast<KvsModule*>(s.session().broker(7).find_module("kvs"));
  const ShardMap& map = leaf->shard_map();
  std::string key;
  for (int i = 0;; ++i) {
    key = std::string("g").append(std::to_string(i));
    if (map.master_rank(map.shard_of(key)) != 2) break;
  }

  auto h7 = s.attach(7);
  auto h3 = s.attach(3);
  int announced = 0;
  Subscription sub = h7->subscribe("kvs.setroot", [&](const Message& ev) {
    for (const Json& name : ev.payload().at("fences").as_array())
      if (name == Json("half")) ++announced;
  });
  std::vector<std::optional<errc>> seen(2);
  int done = 0;
  auto fencer = [](Handle* hd, std::string k, std::optional<errc>* out,
                   int* d) -> Task<void> {
    KvsClient kvs(*hd);
    if (!k.empty()) co_await kvs.put(k + ".v", 1);
    try {
      co_await kvs.fence("half", 2);
    } catch (const FluxException& e) {
      *out = e.error().code;
    }
    ++*d;
  };
  co_spawn(s.ex(), fencer(h7.get(), key, &seen[0], &done), "fencer-7");
  s.settle(std::chrono::milliseconds(1));  // first contribution is in
  s.session().fail(2);
  co_spawn(s.ex(), fencer(h3.get(), "", &seen[1], &done), "fencer-3");
  s.settle(std::chrono::microseconds(200));
  EXPECT_GE(announced, 1) << "no live shard announced the fence";
  EXPECT_LT(announced, 4);
  EXPECT_EQ(done, 0) << "fence completed without the dead shard's part";

  s.settle(std::chrono::milliseconds(3));  // detection + live.down
  ASSERT_EQ(done, 2) << "fence waiter hung after shard master death";
  EXPECT_EQ(seen[0], errc::host_down);
  EXPECT_EQ(seen[1], errc::host_down);
}

TEST(Failure, ShardMasterDeathMidFenceLeavesNoFenceOnSurvivors) {
  // k = 4 on 16 brokers, masters at ranks 0, 4, 8, 12. Three brokers
  // fence together and rank 12 dies after the first has contributed: the
  // other shards announce the fence, rank 12's shard never does. Its
  // live.down fails the waiters, and relays drop their parts on the dead
  // shard, so no survivor keeps the fence ("fences" in the kvs stats_json).
  // Rank 12 is a leaf of the session tree, so every survivor hears every
  // announce.
  SimSession s(sharded_failure_config(16, 4));
  s.settle(std::chrono::milliseconds(1));
  auto* leaf =
      dynamic_cast<KvsModule*>(s.session().broker(15).find_module("kvs"));
  const ShardMap& map = leaf->shard_map();
  const NodeId dead = 12;
  const std::uint32_t dead_shard = 3;
  ASSERT_EQ(map.master_rank(dead_shard), dead);
  const Topology& topo = s.session().broker(0).topology();
  for (NodeId r = 0; r < 16; ++r) ASSERT_NE(topo.parent(r), dead);
  std::vector<std::string> keys;  // one top-level directory per shard
  for (std::uint32_t sh = 0; sh < 4; ++sh)
    for (int i = 0;; ++i)
      if (std::string d = std::string("m").append(std::to_string(i));
          map.shard_of(d) == sh) {
        keys.push_back(std::move(d));
        break;
      }

  // Fencers whose part on the dead shard crosses a relay (which must drop
  // it at live.down) and whose other parts climb no tree through the dead
  // rank: a flush lost in a dead relay before its death is declared is the
  // client's retry to settle, not the announce path's.
  std::vector<NodeId> fencers;
  for (NodeId r = 15; r > 0 && fencers.size() < 3; --r) {
    if (map.shard_of_master(r) || map.parent(dead_shard, r) == dead) continue;
    bool via_dead = false;
    for (std::uint32_t sh = 0; sh < 4; ++sh)
      for (auto up = map.parent(sh, r); up && sh != dead_shard;
           up = map.parent(sh, *up))
        via_dead |= *up == dead;
    if (!via_dead) fencers.push_back(r);
  }
  ASSERT_EQ(fencers.size(), 3u);
  std::vector<std::unique_ptr<Handle>> handles;
  std::vector<std::optional<errc>> seen(fencers.size());
  int done = 0;
  auto fencer = [](Handle* hd, std::vector<std::string> ks, NodeId rank,
                   std::optional<errc>* out, int* d) -> Task<void> {
    KvsClient kvs(*hd);
    for (const std::string& k : ks)
      co_await kvs.put(k + ".r" + std::to_string(rank), 1);
    try {
      co_await kvs.fence("torn", 3);
    } catch (const FluxException& e) {
      *out = e.error().code;
    }
    ++*d;
  };
  for (std::size_t i = 0; i < fencers.size(); ++i)
    handles.push_back(s.attach(fencers[i]));
  co_spawn(s.ex(), fencer(handles[0].get(), keys, fencers[0], &seen[0], &done),
           "fencer-0");
  s.settle(std::chrono::milliseconds(1));  // first contribution is in
  s.session().fail(dead);
  for (std::size_t i = 1; i < fencers.size(); ++i)
    co_spawn(s.ex(),
             fencer(handles[i].get(), keys, fencers[i], &seen[i], &done),
             "fencer");
  s.settle(std::chrono::microseconds(200));
  EXPECT_EQ(done, 0) << "fence completed without the dead shard's part";

  s.settle(std::chrono::milliseconds(3));  // detection + live.down
  ASSERT_EQ(done, 3) << "fence waiter hung after shard master death";
  for (const auto& code : seen) EXPECT_EQ(code, errc::host_down);
  for (NodeId r = 0; r < 16; ++r) {
    if (r == dead) continue;
    const auto fences =
        s.session().broker(r).find_module("kvs")->stats_json().get_int(
            "fences", -1);
    EXPECT_EQ(fences, 0) << "rank " << r;
  }
}

TEST(Failure, DirectRpcToDeadBrokerSettles) {
  // In-flight direct RPCs (the sharded overlay edges) settle with EHOSTDOWN
  // when the target dies instead of hanging the coroutine.
  SimSession s(sharded_failure_config(8, 4));
  s.settle(std::chrono::milliseconds(1));
  s.session().fail(2);
  s.settle(std::chrono::milliseconds(3));
  // Faulting an object of the dead shard from a rank whose per-shard parent
  // IS the dead master exercises the settled-error path end to end.
  auto h = s.attach(6);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    try {
      (void)co_await kvs.get("anything.here");  // any key: walk needs roots
      co_return;  // NoEnt/HostDown both acceptable shapes below
    } catch (const FluxException& e) {
      if (e.error().code != errc::host_down && e.error().code != errc::noent)
        throw;
    }
  }(h.get()));
}

TEST(Failure, WatchRefiresAcrossShardMasterFailover) {
  // A KvsClient::watch survives its shard master dying: the hb-driven
  // failover promotes a successor, the successor's "kvs.setroot.<s>"
  // announcement re-fires the watch (value lost: empty-root bootstrap), and
  // writes through the new master fire it again with the new value.
  SessionConfig cfg = sharded_failure_config(8, 2);
  Json mc = cfg.module_config;
  mc["kvs"] = Json::object({{"shards", 2}, {"failover", true}});
  cfg.module_config = std::move(mc);
  cfg.rpc = RetryPolicy{std::chrono::milliseconds(2), 3,
                        std::chrono::microseconds(100)};
  SimSession s(cfg);

  auto* kvs0 =
      dynamic_cast<KvsModule*>(s.session().broker(0).find_module("kvs"));
  ASSERT_NE(kvs0, nullptr);
  const ShardMap& map = kvs0->shard_map();
  // The shard mastered off-root, and a key living on it.
  std::uint32_t shard = 0;
  for (std::uint32_t sh = 0; sh < 2; ++sh)
    if (map.master_rank(sh) != 0) shard = sh;
  const NodeId master = map.master_rank(shard);
  ASSERT_NE(master, 0u);
  std::string key;
  for (int i = 0; key.empty(); ++i)
    if (map.shard_of("wf" + std::to_string(i)) == shard)
      key = "wf" + std::to_string(i) + ".x";

  auto watcher = s.attach(6);
  KvsClient wkvs(*watcher);
  std::vector<bool> fires;  // true = value present at fire time
  WatchHandle watch = wkvs.watch(
      key, [&](const std::optional<Json>& v) { fires.push_back(v.has_value()); });
  s.ex().run();
  ASSERT_EQ(fires.size(), 1u);  // initial: absent
  EXPECT_FALSE(fires[0]);

  auto writer = s.attach(2);
  s.run([](Handle* hd, std::string k) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put(k, "v1");
    co_await kvs.commit();
  }(writer.get(), key));
  s.ex().run();
  ASSERT_GE(fires.size(), 2u);
  EXPECT_TRUE(fires.back());  // saw the committed value

  const std::size_t before = fires.size();
  s.session().fail(master);
  s.settle(std::chrono::milliseconds(5));  // detect, promote, announce
  ASSERT_GT(fires.size(), before)
      << "watch did not re-fire on the successor's setroot announcement";
  EXPECT_FALSE(fires.back());  // successor bootstraps empty: value lost
  const std::vector<NodeId>& masters = kvs0->shard_masters();
  EXPECT_NE(masters[shard], master) << "no successor promoted";

  s.run([](Handle* hd, std::string k) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put(k, "v2");
    co_await kvs.commit();
  }(writer.get(), key));
  s.ex().run();
  EXPECT_TRUE(fires.back());  // re-fired with the post-failover value
  EXPECT_TRUE(watch.active());
}

}  // namespace
}  // namespace flux
