// Malformed-input decode tests: hostile bytes must come back as typed errors
// (errc::proto), never crash or over-read. Complements the basic truncation /
// bad-magic coverage in test_msg.cpp with the structured frames it skips:
// ObjectBundle bodies, oversized length fields deep inside a rich frame, the
// attachment-registry path, and exhaustive byte-corruption sweeps. The whole
// file is most valuable under the asan preset, where an over-read is a hard
// failure instead of a silent lucky pass. It builds as its own binary with
// an allocation cap (alloc_cap.cpp), so a decoder that reserves a size read
// off the wire fails here on every host, overcommitting or not. The last
// cases drive job.submit on a live simulated session with nested jobspecs
// that went through the codec.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_cap.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "kvs/object_bundle.hpp"
#include "kvs/treeobj.hpp"
#include "msg/codec.hpp"
#include "msg/message.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void patch_u16le(std::vector<std::uint8_t>& wire, std::size_t off,
                 std::uint16_t v) {
  wire[off] = static_cast<std::uint8_t>(v & 0xff);
  wire[off + 1] = static_cast<std::uint8_t>(v >> 8);
}

void patch_u32le(std::vector<std::uint8_t>& wire, std::size_t off,
                 std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    wire[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

std::string bundle_bytes() {
  const ObjectBundle b(std::vector<ObjPtr>{
      make_val_object(Json::object({{"v", std::int64_t{1}}})),
      empty_dir_object()});
  return b.serialize();
}

void expect_proto(const Expected<std::shared_ptr<const Attachment>>& r,
                  const char* what) {
  ASSERT_FALSE(r.has_value()) << what;
  EXPECT_EQ(r.error().code, errc::proto) << r.error().to_string();
}

TEST(DecodeAllocCap, OversizedAllocationThrows) {
  // The cap itself: without it the sweeps below cannot catch an
  // input-sized reserve on a host that overcommits.
  std::vector<char> v;
  EXPECT_THROW(v.reserve(testing::kAllocCap + 1), std::bad_alloc);
}

// -- ObjectBundle::deserialize ------------------------------------------------

TEST(BundleMalformed, EmptyBodyIsTruncatedCount) {
  expect_proto(ObjectBundle::deserialize(""), "empty body");
}

TEST(BundleMalformed, EveryTruncationIsRejected) {
  const std::string body = bundle_bytes();
  for (std::size_t len = 0; len < body.size(); ++len) {
    SCOPED_TRACE(len);
    expect_proto(ObjectBundle::deserialize(body.substr(0, len)), "truncation");
  }
}

TEST(BundleMalformed, OversizedLengthsAreRejected) {
  std::string body = bundle_bytes();
  // Object count far beyond the body.
  std::string bad = body;
  bad[0] = '\xff';
  bad[1] = '\xff';
  expect_proto(ObjectBundle::deserialize(bad), "oversized count");
  // First object's length field claims 4 GiB.
  bad = body;
  for (std::size_t i = 4; i < 8; ++i) bad[i] = '\xff';
  expect_proto(ObjectBundle::deserialize(bad), "oversized object length");
}

TEST(BundleMalformed, TrailingBytesAreRejected) {
  expect_proto(ObjectBundle::deserialize(bundle_bytes() + "x"),
               "trailing bytes");
}

TEST(BundleMalformed, MalformedObjectDocumentsAreRejected) {
  // Well-formed framing around bytes that are not a treeobj document.
  for (const std::string& obj : {std::string("not json at all"),
                                std::string(R"({"t":"bogus"})"),
                                std::string(R"([1,2,3])")}) {
    SCOPED_TRACE(obj);
    std::string body;
    put_u32le(body, 1);
    put_u32le(body, static_cast<std::uint32_t>(obj.size()));
    body += obj;
    expect_proto(ObjectBundle::deserialize(body), "malformed object");
  }
}

TEST(BundleMalformed, DirectoryRefsMustBeFortyHexDigits) {
  // parse_object is the one place a directory ref is decoded; a directory
  // with a ref that is not a string of exactly 40 hex digits never becomes
  // an object, alone or inside a bundle.
  const std::string hex = Sha1::of("x").hex();
  for (const std::string& ref :
       {std::string("7"), std::string("null"), std::string("[]"),
        std::string("{}"), "\"" + hex.substr(1) + "\"",
        "\"" + hex + "0\"", "\"" + hex.substr(1) + "g\"", std::string("\"\"")}) {
    SCOPED_TRACE(ref);
    const std::string obj = R"({"e":{"k":)" + ref + R"(},"t":"dir"})";
    EXPECT_EQ(parse_object(obj), nullptr);
    std::string body;
    put_u32le(body, 1);
    put_u32le(body, static_cast<std::uint32_t>(obj.size()));
    body += obj;
    expect_proto(ObjectBundle::deserialize(body), "bad directory ref");
  }
  EXPECT_NE(parse_object(R"({"e":{"k":")" + hex + R"("},"t":"dir"})"),
            nullptr);
}

TEST(BundleMalformed, ByteCorruptionSweepNeverCrashes) {
  const std::string body = bundle_bytes();
  for (std::size_t i = 0; i < body.size(); ++i) {
    std::string bad = body;
    bad[i] = static_cast<char>(bad[i] ^ 0xff);
    // Must not crash or over-read; a typed error (or, for a flip that lands
    // harmlessly inside a value, success) are both acceptable.
    auto r = ObjectBundle::deserialize(bad);
    if (!r.has_value()) {
      EXPECT_NE(r.error().code, errc::ok);
    }
  }
}

// -- wire-frame length fields -------------------------------------------------

// A message exercising every frame: topic, route, trace, payload, data,
// attachment.
Message rich_message() {
  ObjectBundle::register_codec();
  Message m = Message::request(
      "kvs.stage", Json::object({{"k", "a.b"}, {"n", std::int64_t{2}}}));
  m.matchtag = 9;
  m.flags = kMsgFlagTrace;
  m.route = {RouteHop{RouteHop::Kind::Client, 1, 7},
             RouteHop{RouteHop::Kind::Broker, 1, 0}};
  m.trace = {TraceHop{1, TraceHop::Plane::Local, 100}};
  m.set_data(std::make_shared<const std::string>("bulk"));
  m.set_attachment(std::make_shared<const ObjectBundle>(
      std::vector<ObjPtr>{make_val_object(Json("x"))}));
  return m;
}

// Offsets per the layout in codec.hpp (fixed header is 26 bytes).
struct FrameOffsets {
  std::size_t topic_len;  // u16
  std::size_t route_len;  // u16
  std::size_t trace_len;  // u16
  std::size_t json_len;   // u32
  std::size_t data_len;   // u32
  std::size_t att_len;    // u32
  std::size_t att_tag;    // tag bytes
};

FrameOffsets offsets_of(const Message& m) {
  FrameOffsets o{};
  o.topic_len = 26;
  o.route_len = o.topic_len + 2 + m.topic.size();
  o.trace_len = o.route_len + 2 + 13 * m.route.size();
  o.json_len = o.trace_len + 2 + 13 * m.trace.size();
  o.data_len = o.json_len + 4 + m.payload().dump().size();
  const std::size_t tag_len_off = o.data_len + 4 + m.data_size();
  o.att_tag = tag_len_off + 1;
  o.att_len = o.att_tag + m.attachment()->tag().size();
  return o;
}

void expect_proto_decode(std::span<const std::uint8_t> wire, const char* what) {
  auto r = decode(wire);
  ASSERT_FALSE(r.has_value()) << what;
  EXPECT_EQ(r.error().code, errc::proto) << r.error().to_string();
}

TEST(WireMalformed, OversizedLengthFieldsAreRejected) {
  const Message m = rich_message();
  const std::vector<std::uint8_t> wire = encode(m);
  const FrameOffsets o = offsets_of(m);

  // Sanity: the offset map is consistent with the real frame (the attachment
  // tag sits where we computed it).
  ASSERT_EQ(std::string(wire.begin() + static_cast<std::ptrdiff_t>(o.att_tag),
                        wire.begin() + static_cast<std::ptrdiff_t>(o.att_len)),
            "kvsobj");

  auto bad = wire;
  patch_u16le(bad, o.topic_len, 0xffff);
  expect_proto_decode(bad, "oversized topic length");

  bad = wire;
  patch_u16le(bad, o.route_len, 0xffff);
  expect_proto_decode(bad, "oversized route length");

  bad = wire;
  patch_u16le(bad, o.trace_len, 0xffff);
  expect_proto_decode(bad, "oversized trace length");

  bad = wire;
  patch_u32le(bad, o.json_len, 0xffffffffu);
  expect_proto_decode(bad, "oversized json length");

  bad = wire;
  patch_u32le(bad, o.data_len, 0xffffffffu);
  expect_proto_decode(bad, "oversized data length");

  bad = wire;
  patch_u32le(bad, o.att_len, 0xffffffffu);
  expect_proto_decode(bad, "oversized attachment length");
}

TEST(WireMalformed, UnknownAttachmentTagIsRejected) {
  const Message m = rich_message();
  std::vector<std::uint8_t> wire = encode(m);
  const FrameOffsets o = offsets_of(m);
  for (std::size_t i = o.att_tag; i < o.att_len; ++i) wire[i] = 'z';
  expect_proto_decode(wire, "unknown attachment tag");
}

TEST(WireMalformed, ShortenedAttachmentLeavesTrailingBytes) {
  const Message m = rich_message();
  std::vector<std::uint8_t> wire = encode(m);
  const FrameOffsets o = offsets_of(m);
  const std::uint32_t att_len =
      static_cast<std::uint32_t>(m.attachment()->serialize().size());
  ASSERT_GT(att_len, 0u);
  patch_u32le(wire, o.att_len, att_len - 1);
  expect_proto_decode(wire, "shortened attachment");
}

TEST(WireMalformed, ByteCorruptionSweepNeverCrashes) {
  const std::vector<std::uint8_t> wire = encode(rich_message());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    auto bad = wire;
    bad[i] ^= 0xff;
    auto r = decode(bad);
    if (!r.has_value()) {
      EXPECT_NE(r.error().code, errc::ok);
    }
  }
}

TEST(WireMalformed, RandomBitFlipsNeverCrash) {
  const std::vector<std::uint8_t> wire = encode(rich_message());
  Rng rng(0x5eed);
  for (int n = 0; n < 500; ++n) {
    auto bad = wire;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f)
      bad[rng.below(bad.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    (void)decode(bad);  // typed error or lucky success; never a crash
  }
}

TEST(WireMalformed, DecodeSharedRejectsTruncatedFrame) {
  const Message m = rich_message();
  const WireFrame full = encode_shared(m);
  // decode_shared on the intact frame works...
  auto ok = decode_shared(full);
  ASSERT_TRUE(ok.has_value()) << ok.error().to_string();
  // ...and every truncation comes back as a typed error.
  for (std::size_t len : {std::size_t{0}, std::size_t{10}, full->size() - 1}) {
    auto frame = std::make_shared<const std::vector<std::uint8_t>>(
        full->begin(), full->begin() + static_cast<std::ptrdiff_t>(len));
    auto r = decode_shared(frame);
    ASSERT_FALSE(r.has_value()) << "truncated to " << len;
    EXPECT_EQ(r.error().code, errc::proto);
  }
}

// -- job.submit: nested jobspecs from the wire --------------------------------
//
// An instance jobspec nests its subjobs, and JobSpec::from_json recurses
// into them, so the submit path is a decoder of arbitrarily deep input.

/// `levels` instances, each wrapping the next, around an invalid leaf.
Json nested_jobspec(int levels) {
  Json spec = Json::object({{"name", "leaf"},
                            {"type", "app"},
                            {"request", Json::object({{"nnodes", 0}})}});
  for (int i = 0; i < levels; ++i) {
    Json subs = Json::array();
    subs.push_back(std::move(spec));
    spec = Json::object({{"type", "instance"},
                         {"request", Json::object({{"nnodes", 1}})},
                         {"subjobs", std::move(subs)}});
  }
  return spec;
}

/// Submit `payload` raw; the response's errc.
Task<errc> submit_raw(Handle* hd, Json payload) {
  Message resp =
      co_await hd->request("job.submit").payload(std::move(payload));
  co_return static_cast<errc>(resp.errnum);
}

void expect_refused(errc code, const std::string& what) {
  EXPECT_TRUE(code == errc::job_rejected || code == errc::proto)
      << what << ": " << static_cast<int>(code);
}

TEST(JobSubmitMalformed, NestedSubjobsUpToTheDepthLimit) {
  testing::SimSession s(testing::SimSession::default_config(4));
  auto h = s.attach(1);
  int decoded = 0, refused_at_decode = 0;
  for (int levels : {1, 10, 50, 95, 99, 100, 101, 150, 400}) {
    const std::string what = std::to_string(levels) + " levels";
    const Message m = Message::request(
        "job.submit", Json::object({{"jobspec", nested_jobspec(levels)}}));
    auto r = decode(encode(m));
    if (!r.has_value()) {
      EXPECT_EQ(r.error().code, errc::proto) << what;
      ++refused_at_decode;
      continue;
    }
    ++decoded;
    expect_refused(s.run(submit_raw(h.get(), r->payload())), what);
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(refused_at_decode, 0);  // past the parser's depth limit
  EXPECT_EQ(s.stats(0).counter_value("job-manager.submitted"), 0u);
}

TEST(JobSubmitMalformed, SubjobsOfTheWrongTypeAreRefused) {
  testing::SimSession s(testing::SimSession::default_config(4));
  auto h = s.attach(2);
  const Json bad_subjobs[] = {
      Json::array({Json(5)}),         // a number
      Json::array({Json("x")}),       // a string
      Json::array({Json()}),          // null
      Json::array({Json::array()}),   // an array
      Json::object({{"a", 1}}),       // not an array
      Json(7),                        // not an array
      Json("subjobs"),                // not an array
  };
  for (const Json& subs : bad_subjobs) {
    Json spec = Json::object({{"type", "instance"},
                              {"request", Json::object({{"nnodes", 1}})},
                              {"subjobs", subs}});
    const Message m =
        Message::request("job.submit", Json::object({{"jobspec", spec}}));
    auto r = decode(encode(m));
    ASSERT_TRUE(r.has_value()) << r.error().to_string();
    expect_refused(s.run(submit_raw(h.get(), r->payload())), subs.dump());
  }
  // An app job carrying subjobs, and a jobspec that is not an object.
  Json app = Json::object(
      {{"type", "app"},
       {"request", Json::object({{"nnodes", 1}})},
       {"subjobs", Json::array({nested_jobspec(0)})}});
  expect_refused(s.run(submit_raw(h.get(), Json::object({{"jobspec", app}}))),
                 "app with subjobs");
  expect_refused(
      s.run(submit_raw(h.get(), Json::object({{"jobspec", Json(3)}}))),
      "numeric jobspec");
  EXPECT_EQ(s.stats(0).counter_value("job-manager.submitted"), 0u);
}

}  // namespace
}  // namespace flux
