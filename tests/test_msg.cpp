// Message model and wire codec.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "kvs/object_bundle.hpp"
#include "msg/codec.hpp"
#include "msg/message.hpp"

namespace flux {
namespace {

TEST(Message, ServiceAndMethod) {
  Message m = Message::request("kvs.put");
  EXPECT_EQ(m.service(), "kvs");
  EXPECT_EQ(m.method(), "put");

  Message bare = Message::request("hb");
  EXPECT_EQ(bare.service(), "hb");
  EXPECT_EQ(bare.method(), "");

  Message deep = Message::request("a.b.c");
  EXPECT_EQ(deep.service(), "a");
  EXPECT_EQ(deep.method(), "b.c");
}

TEST(Message, TopicMatching) {
  EXPECT_TRUE(Message::topic_matches("hb", "hb"));
  EXPECT_TRUE(Message::topic_matches("hb", "hb.pulse"));
  EXPECT_FALSE(Message::topic_matches("hb", "hbx"));
  EXPECT_FALSE(Message::topic_matches("hb.pulse", "hb"));
  EXPECT_TRUE(Message::topic_matches("", "anything"));
  EXPECT_TRUE(Message::topic_matches("kvs.setroot", "kvs.setroot"));
}

TEST(Message, RespondCopiesRoutingState) {
  Message req = Message::request("kvs.get", Json::object({{"key", "a"}}));
  req.matchtag = 77;
  req.route.push_back(RouteHop{RouteHop::Kind::Client, 3, 12});
  req.route.push_back(RouteHop{RouteHop::Kind::Broker, 1, 0});

  Message ok = req.respond(Json::object({{"x", 1}}));
  EXPECT_TRUE(ok.is_response());
  EXPECT_EQ(ok.matchtag, 77u);
  EXPECT_EQ(ok.errnum, 0);
  EXPECT_EQ(ok.route, req.route);
  EXPECT_EQ(ok.topic, "kvs.get");

  Message err = req.respond_error(errc::noent, "no such key");
  EXPECT_EQ(err.errnum, static_cast<int>(errc::noent));
  EXPECT_EQ(err.payload().get_string("errmsg"), "no such key");
}

TEST(Codec, RoundTripAllFields) {
  Message m = Message::request("kvs.fence",
                               Json::object({{"name", "f"}, {"nprocs", 12}}));
  m.matchtag = 0xdeadbeef;
  m.nodeid = 42;
  m.seq = 0x1122334455667788ULL;
  m.errnum = 2;
  m.route = {RouteHop{RouteHop::Kind::Client, 9, 101},
             RouteHop{RouteHop::Kind::Broker, 4, 0},
             RouteHop{RouteHop::Kind::Module, 2, 7}};
  m.set_data(std::make_shared<const std::string>("bulk\0bytes\xff ok", 14));

  auto wire = encode(m);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
  EXPECT_EQ(decoded->type, m.type);
  EXPECT_EQ(decoded->topic, m.topic);
  EXPECT_EQ(decoded->matchtag, m.matchtag);
  EXPECT_EQ(decoded->nodeid, m.nodeid);
  EXPECT_EQ(decoded->seq, m.seq);
  EXPECT_EQ(decoded->errnum, m.errnum);
  EXPECT_EQ(decoded->route, m.route);
  EXPECT_EQ(decoded->payload(), m.payload());
  ASSERT_TRUE(decoded->data());
  EXPECT_EQ(*decoded->data(), *m.data());
}

TEST(Codec, WireSizeMatchesEncodedSize) {
  Message m = Message::event("kvs.setroot",
                             Json::object({{"version", 3},
                                           {"rootref", std::string(40, 'a')}}));
  m.seq = 17;
  m.route.push_back(RouteHop{RouteHop::Kind::Broker, 1, 0});
  m.set_data(std::make_shared<const std::string>(std::string(100, 'z')));
  EXPECT_EQ(m.wire_size(), encode(m).size());
}

TEST(Codec, RejectsCorruptInput) {
  Message m = Message::request("x.y");
  auto wire = encode(m);

  // Truncations at every length are rejected (never crash).
  for (std::size_t len = 0; len < wire.size(); ++len) {
    auto r = decode(std::span(wire.data(), len));
    EXPECT_FALSE(r.has_value()) << "truncated to " << len;
  }
  // Bad magic.
  auto bad = wire;
  bad[0] ^= 0xff;
  EXPECT_FALSE(decode(bad).has_value());
  // Bad type.
  bad = wire;
  bad[4] = 99;
  EXPECT_FALSE(decode(bad).has_value());
  // Trailing garbage.
  bad = wire;
  bad.push_back(0);
  EXPECT_FALSE(decode(bad).has_value());
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> junk(rng.below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    (void)decode(junk);  // must not crash; result may rarely succeed
  }
}

// -- cached body encoding ----------------------------------------------------

namespace {

std::string random_string(Rng& rng, std::size_t max_len) {
  std::string s(rng.below(max_len + 1), '\0');
  for (auto& c : s) c = static_cast<char>('a' + rng.below(26));
  return s;
}

Message random_message(Rng& rng) {
  Message m = Message::request(
      "svc." + random_string(rng, 12),
      Json::object({{"k", random_string(rng, 32)},
                    {"n", static_cast<std::int64_t>(rng.below(1 << 20))},
                    {"flag", rng.below(2) == 0}}));
  m.type = static_cast<MsgType>(1 + rng.below(3));  // request/response/event
  m.matchtag = static_cast<std::uint32_t>(rng.below(1u << 31));
  m.nodeid = static_cast<NodeId>(rng.below(4096));
  m.seq = rng.below(1u << 30);
  m.errnum = static_cast<int>(rng.below(3));
  const std::size_t nroute = rng.below(5);
  for (std::size_t i = 0; i < nroute; ++i)
    m.route.push_back(RouteHop{static_cast<RouteHop::Kind>(rng.below(4)),
                               static_cast<NodeId>(rng.below(64)),
                               rng.below(1000)});
  const std::size_t ntrace = rng.below(4);
  for (std::size_t i = 0; i < ntrace; ++i)
    m.trace.push_back(TraceHop{static_cast<NodeId>(rng.below(64)),
                               static_cast<TraceHop::Plane>(rng.below(4)),
                               static_cast<std::int64_t>(rng.below(1u << 30))});
  if (rng.below(2) == 0)
    // Never empty: a zero-length data frame decodes as "no data".
    m.set_data(std::make_shared<const std::string>(
        std::string("d").append(random_string(rng, 200))));
  if (rng.below(3) == 0) {
    std::vector<ObjPtr> objs;
    const std::size_t nobj = 1 + rng.below(3);
    for (std::size_t i = 0; i < nobj; ++i)
      objs.push_back(make_val_object(Json(random_string(rng, 24))));
    m.set_attachment(std::make_shared<ObjectBundle>(std::move(objs)));
  }
  return m;
}

void expect_same_message(const Message& a, const Message& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.topic, b.topic);
  EXPECT_EQ(a.matchtag, b.matchtag);
  EXPECT_EQ(a.nodeid, b.nodeid);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.errnum, b.errnum);
  EXPECT_EQ(a.route, b.route);
  EXPECT_EQ(a.payload().dump(), b.payload().dump());
  ASSERT_EQ(!!a.data(), !!b.data());
  if (a.data()) {
    EXPECT_EQ(*a.data(), *b.data());
  }
  ASSERT_EQ(!!a.attachment(), !!b.attachment());
  if (a.attachment()) {
    EXPECT_EQ(a.attachment()->serialize(), b.attachment()->serialize());
  }
}

}  // namespace

// Property: any message survives encode->decode in every cached-encoding
// state (fresh, already-encoded, decoded-and-reencoded), and the cached body
// never changes the bytes the codec produces.
TEST(Codec, PropertyRoundTripCachedStates) {
  ObjectBundle::register_codec();
  Rng rng(1234);
  for (int iter = 0; iter < 200; ++iter) {
    Message m = random_message(rng);

    // State 1: fresh message, no cached body.
    EXPECT_FALSE(m.has_encoded_body());
    const auto wire = encode(m);
    EXPECT_EQ(m.wire_size(), wire.size());

    // State 2: cached body present; bytes must be identical.
    EXPECT_TRUE(m.has_encoded_body());
    EXPECT_EQ(encode(m), wire);

    auto decoded = decode(wire);
    ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
    expect_same_message(*decoded, m);

    // State 3: a decoded message re-encodes (next forwarding hop) to the
    // same bytes, via its seeded body cache.
    EXPECT_TRUE(decoded->has_encoded_body());
    EXPECT_EQ(encode(*decoded), wire);
    EXPECT_EQ(decoded->wire_size(), wire.size());

    // Shared-frame path agrees with the span path.
    const WireFrame frame = encode_shared(m);
    EXPECT_EQ(*frame, wire);
    auto decoded2 = decode_shared(frame);
    ASSERT_TRUE(decoded2.has_value());
    expect_same_message(*decoded2, m);
  }
}

// Property: every body mutation after an encode invalidates the cached
// encoding, and the re-encode reflects the mutation.
TEST(Codec, MutationAfterEncodeInvalidates) {
  ObjectBundle::register_codec();
  Rng rng(99);
  for (int iter = 0; iter < 50; ++iter) {
    Message m = random_message(rng);
    (void)encode(m);
    ASSERT_TRUE(m.has_encoded_body());

    switch (rng.below(4)) {
      case 0:
        m.mutable_payload()["mut"] = static_cast<std::int64_t>(iter);
        break;
      case 1:
        m.set_payload(Json::object({{"replaced", true}}));
        break;
      case 2:
        m.set_data(std::make_shared<const std::string>("mutated data"));
        break;
      default:
        m.set_attachment(std::make_shared<ObjectBundle>(
            std::vector<ObjPtr>{make_val_object(Json("mutated"))}));
        break;
    }
    EXPECT_FALSE(m.has_encoded_body());

    auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value());
    expect_same_message(*decoded, m);
    EXPECT_EQ(m.wire_size(), encode(m).size());
  }
}

// Header mutation (route/trace push per hop) must NOT invalidate the body
// cache: a forwarded message is header-rewritten but body-reused.
TEST(Codec, RouteMutationKeepsBodyCache) {
  Message m = Message::request("kvs.load", Json::object({{"x", 1}}));
  (void)encode(m);
  ASSERT_TRUE(m.has_encoded_body());
  m.route.push_back(RouteHop{RouteHop::Kind::Broker, 5, 0});
  m.trace.push_back(TraceHop{5, TraceHop::Plane::Tree, 123});
  EXPECT_TRUE(m.has_encoded_body());
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->route.size(), 1u);
  EXPECT_EQ(decoded->payload().get_int("x", 0), 1);
}

// A message forwarded across N hops serializes its body exactly once: every
// hop's encode() reuses the cache seeded by decode() at the previous hop.
TEST(Codec, ForwardingChainBuildsBodyOnce) {
  codec_stats().reset();
  Message m = Message::request(
      "kvs.load", Json::object({{"refs", Json::array()}}));
  m.set_data(std::make_shared<const std::string>(std::string(512, 'b')));

  constexpr int kHops = 6;
  WireFrame frame = encode_shared(m);  // hop 0: the one true body build
  for (int hop = 1; hop < kHops; ++hop) {
    auto decoded = decode_shared(frame);
    ASSERT_TRUE(decoded.has_value());
    decoded->route.push_back(
        RouteHop{RouteHop::Kind::Broker, static_cast<NodeId>(hop), 0});
    frame = encode_shared(*decoded);
  }

  const CodecStats& st = codec_stats();
  EXPECT_EQ(st.encodes.load(), static_cast<std::uint64_t>(kHops));
  EXPECT_EQ(st.body_builds.load(), 1u);
  EXPECT_EQ(st.body_reuses.load(), static_cast<std::uint64_t>(kHops - 1));
}

TEST(Codec, EmptyEverything) {
  Message m;
  m.type = MsgType::Keepalive;
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, MsgType::Keepalive);
  EXPECT_TRUE(decoded->topic.empty());
  EXPECT_TRUE(decoded->route.empty());
  EXPECT_FALSE(decoded->data());
  EXPECT_FALSE(decoded->attachment());
}

}  // namespace
}  // namespace flux
