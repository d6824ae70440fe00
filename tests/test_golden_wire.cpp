// Golden wire-format vectors.
//
// Each case is a fully-populated message (route stack, trace hops, payload,
// bulk data, attachment) whose encoded bytes are committed as a hex dump
// under tests/golden/. The tests pin three things:
//
//   1. byte stability — encode(case) matches the committed dump, so any
//      codec layout change is a deliberate, reviewed golden update;
//   2. decode(encode(m)) == m for every case;
//   3. the committed frames still decode to the expected field values, so
//      old captured traffic stays readable.
//
// Regenerate the dumps after an intentional layout change with:
//   FLUX_UPDATE_GOLDEN=1 ./flux_tests --gtest_filter='GoldenWire.*'

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/hex.hpp"
#include "kvs/object_bundle.hpp"
#include "kvs/treeobj.hpp"
#include "msg/codec.hpp"
#include "msg/message.hpp"

namespace flux {
namespace {

struct GoldenCase {
  std::string name;
  Message msg;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;

  {
    // A traced request mid-flight: client origin on the route stack, two
    // brokers already stamped on the trace.
    Message m = Message::request(
        "kvs.get", Json::object({{"key", "a.b"}, {"flags", std::int64_t{0}}}));
    m.matchtag = 7;
    m.nodeid = kNodeAny;
    m.flags = kMsgFlagTrace;
    m.route = {RouteHop{RouteHop::Kind::Client, 1, 42},
               RouteHop{RouteHop::Kind::Broker, 1, 0}};
    m.trace = {TraceHop{1, TraceHop::Plane::Local, 1500},
               TraceHop{0, TraceHop::Plane::Tree, 4500}};
    cases.push_back({"request_traced", std::move(m)});
  }
  {
    // An error response unwinding toward its originating client.
    Message m;
    m.type = MsgType::Response;
    m.topic = "kvs.get";
    m.matchtag = 7;
    m.nodeid = 1;
    m.errnum = static_cast<int>(errc::noent);
    m.route = {RouteHop{RouteHop::Kind::Client, 1, 42}};
    m.set_payload(Json::object({{"errmsg", "no such key"}}));
    cases.push_back({"response_error", std::move(m)});
  }
  {
    // A globally-sequenced pub-sub event.
    Message m = Message::event(
        "kvs.setroot",
        Json::object({{"rootref", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
                      {"version", std::int64_t{9}}}));
    m.seq = 9;
    m.nodeid = 0;
    cases.push_back({"event_setroot", std::move(m)});
  }
  {
    // A commit flush carrying all three body frames: JSON payload, raw data,
    // and an ObjectBundle attachment.
    Message m = Message::request(
        "kvs.stage", Json::object({{"client", std::int64_t{3}},
                                   {"n", std::int64_t{2}}}));
    m.matchtag = 11;
    m.route = {RouteHop{RouteHop::Kind::Client, 2, 5}};
    m.set_data(std::make_shared<const std::string>("raw-frame-bytes"));
    m.set_attachment(std::make_shared<const ObjectBundle>(std::vector<ObjPtr>{
        make_val_object(Json::object({{"v", "hello"}})), empty_dir_object()}));
    cases.push_back({"request_bundle", std::move(m)});
  }
  return cases;
}

std::filesystem::path golden_path(const std::string& name) {
  return std::filesystem::path(FLUX_GOLDEN_DIR) / (name + ".hex");
}

std::string read_golden(const std::string& name) {
  std::ifstream in(golden_path(name));
  std::string hex;
  in >> hex;  // single token; ignores the trailing newline
  return hex;
}

void expect_same_message(const Message& got, const Message& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.topic, want.topic);
  EXPECT_EQ(got.matchtag, want.matchtag);
  EXPECT_EQ(got.nodeid, want.nodeid);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.errnum, want.errnum);
  EXPECT_EQ(got.flags, want.flags);
  EXPECT_EQ(got.route, want.route);
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.payload().dump(), want.payload().dump());
  ASSERT_EQ(static_cast<bool>(got.data()), static_cast<bool>(want.data()));
  if (want.data()) {
    EXPECT_EQ(*got.data(), *want.data());
  }
  ASSERT_EQ(static_cast<bool>(got.attachment()),
            static_cast<bool>(want.attachment()));
  if (want.attachment()) {
    EXPECT_EQ(got.attachment()->tag(), want.attachment()->tag());
    EXPECT_EQ(got.attachment()->serialize(), want.attachment()->serialize());
  }
}

class GoldenWire : public ::testing::Test {
 protected:
  void SetUp() override { ObjectBundle::register_codec(); }
};

TEST_F(GoldenWire, EncodedBytesAreStable) {
  const bool update = std::getenv("FLUX_UPDATE_GOLDEN") != nullptr;
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const std::string hex = hex_encode(encode(c.msg));
    if (update) {
      std::ofstream out(golden_path(c.name));
      out << hex << "\n";
      ASSERT_TRUE(out.good()) << "failed writing " << golden_path(c.name);
      continue;
    }
    const std::string want = read_golden(c.name);
    ASSERT_FALSE(want.empty())
        << "missing golden file " << golden_path(c.name)
        << " (regenerate with FLUX_UPDATE_GOLDEN=1)";
    EXPECT_EQ(hex, want) << "wire layout changed; if intentional, regenerate "
                            "goldens with FLUX_UPDATE_GOLDEN=1";
  }
}

TEST_F(GoldenWire, DecodeEncodeRoundTrips) {
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<std::uint8_t> wire = encode(c.msg);
    auto decoded = decode(wire);
    ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
    expect_same_message(*decoded, c.msg);
    // Re-encoding the decoded message reproduces the exact frame.
    EXPECT_EQ(encode(*decoded), wire);
  }
}

TEST_F(GoldenWire, GoldenFramesDecode) {
  if (std::getenv("FLUX_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "regenerating goldens";
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const std::string hex = read_golden(c.name);
    ASSERT_FALSE(hex.empty()) << "missing golden file " << golden_path(c.name);
    auto bytes = hex_decode(hex);
    ASSERT_TRUE(bytes.has_value()) << "golden file is not valid hex";
    auto decoded = decode(*bytes);
    ASSERT_TRUE(decoded.has_value()) << decoded.error().to_string();
    expect_same_message(*decoded, c.msg);
  }
}

}  // namespace
}  // namespace flux
