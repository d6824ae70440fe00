// CMB broker: wire-up, routing on all three planes, events, module depth.
#include <gtest/gtest.h>

#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

TEST(Session, WiresUpAndReportsOnline) {
  SimSession s(SimSession::default_config(16));
  EXPECT_TRUE(s.session().all_online());
  EXPECT_GT(s.wireup().count(), 0);
  for (NodeId r = 0; r < 16; ++r)
    EXPECT_TRUE(s.session().broker(r).online()) << "rank " << r;
}

TEST(Session, WireupScalesSubLinearly) {
  auto wireup_of = [](std::uint32_t n) {
    SimSession s(SimSession::default_config(n));
    return s.wireup();
  };
  const auto w16 = wireup_of(16);
  const auto w256 = wireup_of(256);
  // 16x the brokers should cost far less than 16x the wire-up time
  // (tree-parallel hello reduction).
  EXPECT_LT(w256.count(), w16.count() * 16);
}

TEST(Broker, RingAddressedPing) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(2);
  Json pong = s.run(h->ping(5));
  EXPECT_EQ(pong.get_int("rank"), 5);
  EXPECT_EQ(pong.get_int("from"), 2);
  EXPECT_GT(s.stats(3).counter_value("cmb.ring_forwarded"), 0u);
}

TEST(Broker, PingUnknownRankFails) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(0);
  EXPECT_THROW(s.run(h->ping(99)), FluxException);
}

TEST(Broker, CmbInfo) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(6);
  Message resp = s.run(h->request("cmb.info").call());
  EXPECT_EQ(resp.payload().get_int("rank"), 6);
  EXPECT_EQ(resp.payload().get_int("size"), 8);
  EXPECT_EQ(resp.payload().get_int("depth"), 2);
  EXPECT_TRUE(resp.payload().get_bool("online"));
}

TEST(Broker, CmbLsmodListsTableOneModules) {
  SimSession s;
  auto h = s.attach(0);
  Message resp = s.run(h->request("cmb.lsmod").call());
  std::set<std::string> mods;
  for (const Json& m : resp.payload().at("modules").as_array())
    mods.insert(m.as_string());
  for (const char* want :
       {"hb", "live", "log", "mon", "group", "barrier", "kvs", "wexec", "resvc"})
    EXPECT_TRUE(mods.contains(want)) << want;
}

TEST(Broker, UnmatchedServiceGetsEnosysFromRoot) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(7);
  Message resp = s.run([](Handle* hd) -> Task<Message> {
    Message r = co_await hd->request("nosuch.service").send();
    co_return r;
  }(h.get()));
  EXPECT_EQ(resp.errnum, static_cast<int>(errc::nosys));
}

TEST(Broker, UnknownMethodGetsEnosysFromModule) {
  SimSession s;
  auto h = s.attach(0);
  Message resp = s.run([](Handle* hd) -> Task<Message> {
    Message r = co_await hd->request("kvs.frobnicate").send();
    co_return r;
  }(h.get()));
  EXPECT_EQ(resp.errnum, static_cast<int>(errc::nosys));
}

TEST(Broker, RpcTimeoutFires) {
  // barrier.enter with an impossible nprocs never completes -> timeout.
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  bool timed_out = false;
  s.run([](Handle* hd, bool* out) -> Task<void> {
    Json payload = Json::object({{"name", "never"}, {"nprocs", 9999}});
    try {
      (void)co_await hd->request("barrier.enter")
          .payload(std::move(payload))
          .timeout(std::chrono::milliseconds(10));
    } catch (const FluxException& e) {
      *out = (e.error().code == errc::timeout);
    }
  }(h.get(), &timed_out));
  EXPECT_TRUE(timed_out);
}

TEST(Broker, InlineAnsweredDeadlineLeavesNoTimer) {
  // A Module-origin request to a service on its own broker is answered
  // inside rpc(). Its deadline is armed before the request leaves and
  // canceled with the answer, so the simulation ends at the response's
  // virtual time, not 5 s later at a dead deadline.
  SimSession s(SimSession::default_config(4));
  Broker& b = s.session().broker(0);
  const RouteHop origin{RouteHop::Kind::Module, b.rank(),
                        b.find_module("kvs")->endpoint_id()};
  const TimePoint t0 = s.ex().now();
  Message resp = s.run([](Broker* br, RouteHop from) -> Task<Message> {
    Message r = co_await br->rpc(from, Message::request("cmb.info"),
                                 std::chrono::seconds(5));
    co_return r;
  }(&b, origin));
  EXPECT_EQ(resp.payload().get_int("rank"), 0);
  EXPECT_EQ(s.ex().now(), t0);
  EXPECT_TRUE(s.ex().idle());
  EXPECT_EQ(s.stats(0).counter_value("cmb.rpc_timeouts"), 0u);
}

TEST(Broker, EventsAreGloballySequencedAndOrdered) {
  SimSession s(SimSession::default_config(8));
  auto pub = s.attach(5);
  auto sub = s.attach(3);
  std::vector<std::uint64_t> seqs;
  std::vector<std::string> topics;
  Subscription watch = sub->subscribe("test", [&](const Message& ev) {
    seqs.push_back(ev.seq);
    topics.push_back(ev.topic);
  });
  for (int i = 0; i < 5; ++i)
    pub->publish("test.ev" + std::to_string(i));
  s.ex().run();
  ASSERT_EQ(topics.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(topics[static_cast<std::size_t>(i)], "test.ev" + std::to_string(i));
  for (std::size_t i = 1; i < seqs.size(); ++i)
    EXPECT_GT(seqs[i], seqs[i - 1]);
}

TEST(Broker, EventsReachEveryRankAndPrefixFilter) {
  SimSession s(SimSession::default_config(8));
  std::vector<std::unique_ptr<Handle>> handles;
  std::vector<Subscription> subs;
  int hits = 0, misses = 0;
  for (NodeId r = 0; r < 8; ++r) {
    handles.push_back(s.attach(r));
    subs.push_back(
        handles.back()->subscribe("aaa", [&](const Message&) { ++hits; }));
    subs.push_back(
        handles.back()->subscribe("zzz", [&](const Message&) { ++misses; }));
  }
  handles[4]->publish("aaa.hello");
  s.ex().run();
  EXPECT_EQ(hits, 8);
  EXPECT_EQ(misses, 0);
}

TEST(Broker, UnsubscribeStopsDelivery) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  int count = 0;
  Subscription sub = h->subscribe("t", [&](const Message&) { ++count; });
  h->publish("t.one");
  s.ex().run();
  sub.reset();
  h->publish("t.two");
  s.ex().run();
  EXPECT_EQ(count, 1);
}

TEST(Broker, ModuleDepthLimitedStillServes) {
  // kvs loaded only at depth <= 1 of a 16-broker binary tree; leaves route
  // kvs requests upstream transparently (paper: "loaded at a configurable
  // tree depth").
  SessionConfig cfg = SimSession::default_config(16);
  cfg.module_max_depth["kvs"] = 1;
  SimSession s(cfg);
  EXPECT_EQ(s.session().broker(15).find_module("kvs"), nullptr);
  EXPECT_NE(s.session().broker(1).find_module("kvs"), nullptr);

  auto h = s.attach(15);  // a leaf without local kvs
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("depth.test", 99);
    co_await kvs.commit();
    Json v = co_await kvs.get("depth.test");
    if (v != Json(99))
      throw FluxException(Error(errc::proto, "unexpected value"));
  }(h.get()));
}

TEST(Broker, BarrierAcrossAllRanks) {
  SimSession s(SimSession::default_config(8));
  std::vector<std::unique_ptr<Handle>> handles;
  int done = 0;
  for (NodeId r = 0; r < 8; ++r) {
    handles.push_back(s.attach(r));
    co_spawn(s.ex(), [](Handle* hd, int* d) -> Task<void> {
      co_await hd->barrier("b1", 8);
      ++*d;
    }(handles.back().get(), &done));
  }
  s.ex().run();
  EXPECT_EQ(done, 8);
}

TEST(Broker, BarrierDoesNotReleaseEarly) {
  SimSession s(SimSession::default_config(4));
  auto h0 = s.attach(0);
  auto h1 = s.attach(1);
  int done = 0;
  co_spawn(s.ex(), [](Handle* hd, int* d) -> Task<void> {
    co_await hd->barrier("b2", 2);
    ++*d;
  }(h0.get(), &done));
  s.ex().run();
  EXPECT_EQ(done, 0);  // only 1 of 2 entered
  co_spawn(s.ex(), [](Handle* hd, int* d) -> Task<void> {
    co_await hd->barrier("b2", 2);
    ++*d;
  }(h1.get(), &done));
  s.ex().run();
  EXPECT_EQ(done, 2);
}

TEST(Broker, BarrierNameReusableAfterCompletion) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    co_await hd->barrier("again", 1);
    co_await hd->barrier("again", 1);
    co_await hd->barrier("again", 1);
  }(h.get()));
}

class BrokerArity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BrokerArity, KvsAndBarrierWorkAtEveryArity) {
  SessionConfig cfg = SimSession::default_config(27, GetParam());
  SimSession s(cfg);
  auto h = s.attach(26);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("arity.x", "v");
    co_await kvs.commit();
    Json v = co_await kvs.get("arity.x");
    if (v != Json("v")) throw FluxException(Error(errc::proto, "bad value"));
    co_await hd->barrier("arity", 1);
  }(h.get()));
}

INSTANTIATE_TEST_SUITE_P(Arities, BrokerArity,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u));

}  // namespace
}  // namespace flux
