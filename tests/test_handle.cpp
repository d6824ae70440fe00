// Client handle API surface: rpc variants, subscriptions, endpoint
// lifecycle, and multi-handle interactions on one broker.
#include <gtest/gtest.h>

#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

TEST(Handle, RpcCheckThrowsTypedErrors) {
  SimSession s;
  auto h = s.attach(2);
  try {
    s.run([](Handle* hd) -> Task<void> {
      Json payload = Json::object({{"key", "missing.key"}});
      (void)co_await hd->request("kvs.get").payload(std::move(payload)).call();
    }(h.get()));
    FAIL() << "expected throw";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::noent);
    // The message carries both the topic and the module's explanation.
    EXPECT_NE(std::string(e.what()).find("kvs.get"), std::string::npos);
  }
}

TEST(Handle, RawRpcReturnsErrnumWithoutThrowing) {
  SimSession s;
  auto h = s.attach(1);
  Message resp = s.run([](Handle* hd) -> Task<Message> {
    Json payload = Json::object({{"key", "missing.key"}});
    Message r = co_await hd->request("kvs.get").payload(std::move(payload)).send();
    co_return r;
  }(h.get()));
  EXPECT_EQ(resp.errnum, static_cast<int>(errc::noent));
}

TEST(Handle, ManyHandlesOnOneBrokerAreIndependent) {
  SimSession s(SimSession::default_config(4));
  auto a = s.attach(3);
  auto b = s.attach(3);
  // Transactions are per-handle: a's uncommitted puts don't leak through
  // b's commit... they are distinct endpoints, so b's commit must NOT
  // publish a's pending put.
  s.run([](Handle* ha, Handle* hb) -> Task<void> {
    KvsClient ka(*ha), kb(*hb);
    co_await ka.put("iso.a", 1);
    co_await kb.commit();  // b has nothing pending
    try {
      (void)co_await kb.get("iso.a");
      throw FluxException(Error(errc::proto, "a's put leaked through b"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::noent) throw;
    }
    co_await ka.commit();  // now a's put becomes visible
    Json v = co_await kb.get("iso.a");
    if (v != Json(1)) throw FluxException(Error(errc::proto, "lost put"));
  }(a.get(), b.get()));
}

TEST(Handle, SubscriptionCallbacksMayResubscribe) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  int first = 0, second = 0;
  Subscription sub2;
  Subscription sub1 = h->subscribe("re", [&](const Message&) {
    ++first;
    if (!sub2)
      sub2 = h->subscribe("re", [&](const Message&) { ++second; });
  });
  h->publish("re.1");
  s.ex().run();
  h->publish("re.2");
  s.ex().run();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(second, 1);  // second sub active from the second event on
}

TEST(Handle, DestroyedHandleStopsReceiving) {
  SimSession s(SimSession::default_config(4));
  auto pub = s.attach(0);
  int count = 0;
  {
    auto h = s.attach(2);
    Subscription sub = h->subscribe("gone", [&](const Message&) { ++count; });
    pub->publish("gone.1");
    s.ex().run();
    EXPECT_EQ(count, 1);
  }  // handle destroyed, endpoint removed
  pub->publish("gone.2");
  s.ex().run();
  EXPECT_EQ(count, 1);
}

TEST(Handle, SleepAdvancesVirtualTime) {
  SimSession s;
  auto h = s.attach(0);
  const TimePoint before = s.ex().now();
  s.run([](Handle* hd) -> Task<void> {
    co_await hd->sleep(std::chrono::milliseconds(7));
  }(h.get()));
  EXPECT_GE(s.ex().now() - before, std::chrono::milliseconds(7));
}

TEST(Handle, ConcurrentRpcsMatchIndependently) {
  // Interleaved in-flight rpcs on one handle resolve to the right callers.
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(7);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    for (int i = 0; i < 10; ++i) co_await kvs.put("c.k" + std::to_string(i), i);
    co_await kvs.commit();
    // Fire ten gets without awaiting between them.
    std::vector<Future<Message>> pending;
    for (int i = 0; i < 10; ++i) {
      Json payload = Json::object({{"key", "c.k" + std::to_string(i)}});
      pending.push_back(hd->request("kvs.get").payload(std::move(payload)).send());
    }
    for (int i = 0; i < 10; ++i) {
      Message resp = co_await pending[static_cast<std::size_t>(i)];
      Handle::check(resp);
      ObjPtr obj = parse_object(*resp.data());
      if (obj->value() != Json(i))
        throw FluxException(Error(errc::proto, "responses cross-matched"));
    }
  }(h.get()));
}

TEST(Handle, UpstreamAddressingSkipsLocalModule) {
  // kNodeUpstream: the local kvs module is skipped; the parent's answers.
  SimSession s(SimSession::default_config(4));
  auto writer = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    KvsClient kvs(*hd);
    co_await kvs.put("ups.k", 5);
    co_await kvs.commit();
  }(writer.get()));
  auto h = s.attach(3);
  Message resp = s.run([](Handle* hd) -> Task<Message> {
    Message r = co_await hd->request("kvs.stats.get").upstream();
    co_return r;
  }(h.get()));
  EXPECT_EQ(resp.errnum, 0);
  EXPECT_NE(resp.payload().get_int("rank"), 3);  // answered upstream of us
}

}  // namespace
}  // namespace flux
