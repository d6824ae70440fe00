// Session-level behavior: configuration plumbing, attach lifecycle, stats,
// and broker bookkeeping not covered by the routing/module suites.
#include <gtest/gtest.h>

#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

TEST(Session, SingleBrokerSessionWorks) {
  SimSession s(SimSession::default_config(1));
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("solo", 1);
    co_await kvs.commit();
    Json v = co_await kvs.get("solo");
    if (v != Json(1)) throw FluxException(Error(errc::proto, "bad"));
    co_await hd->barrier("solo", 1);
    (void)co_await hd->ping(0);
  }(h.get()));
}

TEST(Session, AttachOutOfRangeThrows) {
  SimSession s(SimSession::default_config(4));
  EXPECT_THROW((void)s.attach(4), std::out_of_range);
}

TEST(Session, ModuleConfigReachesModules) {
  SessionConfig cfg = SimSession::default_config(2);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 12345}})}});
  SimSession s(cfg);
  auto h = s.attach(0);
  Message resp = s.run(h->request("hb.get").call());
  EXPECT_EQ(resp.payload().get_int("period_us"), 12345);
}

TEST(Session, CustomModuleSetHonored) {
  SessionConfig cfg = SimSession::default_config(4);
  cfg.modules = {"hb", "kvs"};
  SimSession s(cfg);
  EXPECT_NE(s.session().broker(1).find_module("kvs"), nullptr);
  EXPECT_EQ(s.session().broker(1).find_module("barrier"), nullptr);
  // A request for an unloaded service errors at the root.
  auto h = s.attach(3);
  Message resp = s.run([](Handle* hd) -> Task<Message> {
    Message r = co_await hd->request("barrier.enter").send();
    co_return r;
  }(h.get()));
  EXPECT_EQ(resp.errnum, static_cast<int>(errc::nosys));
}

TEST(Session, UnknownModuleNameThrows) {
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = 2;
  cfg.modules = {"hb", "frobnicator"};
  EXPECT_THROW((void)Session::create_sim(ex, cfg), std::invalid_argument);
}

TEST(Session, BrokerStatsAccumulate) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(7);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("stat.k", 1);
    co_await kvs.commit();
    (void)co_await kvs.get("stat.k");
    hd->publish("stats.test");
  }(h.get()));
  s.ex().run();
  const obs::StatsRegistry& leaf = s.stats(7);
  EXPECT_GT(leaf.counter_value("cmb.requests_dispatched"), 0u);
  EXPECT_GT(leaf.counter_value("cmb.events_delivered"), 0u);
  EXPECT_GT(leaf.counter_value("cmb.responses_routed"), 0u);
  // setroot events sequenced at root
  EXPECT_GT(s.stats(0).counter_value("cmb.events_published"), 0u);
}

TEST(Session, NetStatsCountTraffic) {
  SimSession s(SimSession::default_config(8));
  const auto before = s.session().simnet()->stats().messages;
  auto h = s.attach(5);
  s.run(h->request("cmb.info").call());
  EXPECT_GT(s.session().simnet()->stats().messages, before);
}

TEST(Session, LargeSessionWiresUp) {
  SimSession s(SimSession::default_config(512));
  EXPECT_TRUE(s.session().all_online());
  // Deepest leaf can reach services.
  auto h = s.attach(511);
  Message resp = s.run(h->request("cmb.info").call());
  EXPECT_EQ(resp.payload().get_int("depth"), 9);  // heap path 511 -> ... -> 0
}

TEST(Session, KeepaliveMessagesAreIgnored) {
  SimSession s(SimSession::default_config(2));
  Message keepalive;
  keepalive.type = MsgType::Keepalive;
  s.session().send(1, 0, std::move(keepalive));
  EXPECT_NO_THROW(s.ex().run());
}

}  // namespace
}  // namespace flux
