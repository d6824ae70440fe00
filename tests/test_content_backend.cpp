// Durable content log: golden on-disk format vectors + recovery units.
//
// The golden cases pin the byte layout of the persistence format — header,
// record framing, and the three record payload shapes — as committed hex
// dumps under tests/golden/, the same contract the wire codec has in
// test_golden_wire.cpp: a layout change must be a deliberate, reviewed
// golden update, because files written by an old build must recover under a
// new one. Regenerate after an intentional change with:
//   FLUX_UPDATE_GOLDEN=1 ./flux_tests --gtest_filter='GoldenContentLog.*'
//
// The unit cases cover the recovery contract directly on FileLogBackend:
// fresh files, append/sync/recover round-trips, unsynced-tail loss, torn
// tails (partial flush), mid-file corruption, checkpoints, and compaction.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "base/hex.hpp"
#include "kvs/content_backend.hpp"
#include "kvs/content_store.hpp"
#include "kvs/treeobj.hpp"

namespace flux {
namespace {

std::string to_hex(std::string_view bytes) {
  return hex_encode(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

// -- golden format vectors ---------------------------------------------------

struct GoldenCase {
  std::string name;
  std::string bytes;
};

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"content_header", contentlog::header_bytes()});
  {
    // An object record is the object's canonical serialization, framed.
    const ObjPtr obj = make_val_object(Json::object({{"v", "hello"}}));
    cases.push_back(
        {"content_record_object",
         contentlog::frame(contentlog::RecordType::object, obj->bytes)});
  }
  {
    const Sha1 ref = *Sha1::parse("da39a3ee5e6b4b0d3255bfef95601890afd80709");
    cases.push_back({"content_record_root",
                     contentlog::frame(contentlog::RecordType::root,
                                       contentlog::root_payload(0, 9, ref))});
  }
  {
    const std::vector<Sha1> roots = {Sha1::of("shard0"), Sha1::of("shard1")};
    cases.push_back(
        {"content_record_checkpoint",
         contentlog::frame(contentlog::RecordType::checkpoint,
                           contentlog::checkpoint_payload(roots, {3, 7}))});
  }
  return cases;
}

// Content-log vectors live in their own subdirectory: the top level of
// tests/golden/ is the wire-frame corpus, which test_json.cpp sweeps with
// the message decoder.
std::filesystem::path golden_path(const std::string& name) {
  return std::filesystem::path(FLUX_GOLDEN_DIR) / "content" / (name + ".hex");
}

std::string read_golden(const std::string& name) {
  std::ifstream in(golden_path(name));
  std::string hex;
  in >> hex;
  return hex;
}

TEST(GoldenContentLog, OnDiskBytesAreStable) {
  const bool update = std::getenv("FLUX_UPDATE_GOLDEN") != nullptr;
  for (const GoldenCase& c : golden_cases()) {
    SCOPED_TRACE(c.name);
    const std::string hex = to_hex(c.bytes);
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
    EXPECT_EQ(hex, want) << "on-disk layout changed; if intentional, "
                            "regenerate goldens with FLUX_UPDATE_GOLDEN=1";
  }
}

TEST(GoldenContentLog, GoldenFilesStillRecover) {
  // A file assembled from the committed hex dumps — exactly what an old
  // build wrote — must recover: object replayed, root + checkpoint adopted.
  if (std::getenv("FLUX_UPDATE_GOLDEN") != nullptr)
    GTEST_SKIP() << "regenerating goldens";
  std::string data;
  for (const char* name : {"content_header", "content_record_object",
                           "content_record_root",
                           "content_record_checkpoint"}) {
    const std::string hex = read_golden(name);
    ASSERT_FALSE(hex.empty()) << "missing golden file " << golden_path(name);
    const auto bytes = hex_decode(hex);
    ASSERT_TRUE(bytes.has_value()) << "golden file is not valid hex";
    data.append(reinterpret_cast<const char*>(bytes->data()), bytes->size());
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("flux-golden-recover-" + std::to_string(::getpid()) + ".log"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << data;
  }
  ContentStore store;
  FileLogBackend backend(path);
  const FileLogBackend::Recovered rec = backend.recover(store);
  EXPECT_EQ(rec.objects, 1u);
  EXPECT_TRUE(rec.found_checkpoint);
  ASSERT_EQ(rec.versions.size(), 2u);  // checkpoint supersedes the root
  EXPECT_EQ(rec.versions[0], 3u);
  EXPECT_EQ(rec.versions[1], 7u);
  EXPECT_EQ(rec.truncated_bytes, 0u);
  const ObjPtr obj = make_val_object(Json::object({{"v", "hello"}}));
  EXPECT_TRUE(store.contains(obj->id));
  std::filesystem::remove(path);
}

// -- FileLogBackend units ----------------------------------------------------

class ContentBackendTest : public ::testing::Test {
 protected:
  std::string temp_log() {
    static std::atomic<int> counter{0};
    auto p = (std::filesystem::temp_directory_path() /
              ("flux-backend-test-" + std::to_string(::getpid()) + "-" +
               std::to_string(counter.fetch_add(1)) + ".log"))
                 .string();
    paths_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const std::string& p : paths_) {
      std::filesystem::remove(p);
      std::filesystem::remove(p + ".tmp");
    }
  }
  std::vector<std::string> paths_;
};

TEST_F(ContentBackendTest, FreshFileRecoversEmptyAndWritesHeader) {
  const std::string path = temp_log();
  ContentStore store;
  FileLogBackend backend(path);
  const FileLogBackend::Recovered rec = backend.recover(store);
  EXPECT_EQ(rec.objects, 0u);
  EXPECT_FALSE(rec.found_checkpoint);
  EXPECT_FALSE(rec.has_root(0));
  EXPECT_EQ(std::filesystem::file_size(path), contentlog::kHeaderSize);
}

TEST_F(ContentBackendTest, AppendSyncRecoverRoundTrip) {
  const std::string path = temp_log();
  const ObjPtr a = make_val_object(Json::object({{"x", std::int64_t{1}}}));
  const ObjPtr b = make_val_object(Json::object({{"x", std::int64_t{2}}}));
  {
    ContentStore store;
    FileLogBackend backend(path);
    (void)backend.recover(store);
    backend.append_object(*a);
    backend.append_object(*b);
    backend.append_root(0, 1, b->id);
    EXPECT_GT(backend.unsynced_bytes(), 0u);
    backend.sync();
    EXPECT_EQ(backend.unsynced_bytes(), 0u);
    backend.close();
  }
  ContentStore store;
  FileLogBackend backend(path);
  const FileLogBackend::Recovered rec = backend.recover(store);
  EXPECT_EQ(rec.objects, 2u);
  ASSERT_TRUE(rec.has_root(0));
  EXPECT_EQ(rec.versions[0], 1u);
  EXPECT_EQ(rec.roots[0], b->id);
  EXPECT_TRUE(store.contains(a->id));
  EXPECT_TRUE(store.contains(b->id));
  EXPECT_EQ(rec.truncated_bytes, 0u);
}

TEST_F(ContentBackendTest, UnsyncedTailIsLostOnCrash) {
  const std::string path = temp_log();
  const ObjPtr a = make_val_object(Json::object({{"acked", true}}));
  const ObjPtr b = make_val_object(Json::object({{"acked", false}}));
  {
    ContentStore store;
    FileLogBackend backend(path);
    (void)backend.recover(store);
    backend.append_object(*a);
    backend.append_root(0, 1, a->id);
    backend.sync();  // v1 acked
    backend.append_object(*b);
    backend.append_root(0, 2, b->id);
    backend.crash(0);  // v2 never synced: clean tail loss
  }
  ContentStore store;
  FileLogBackend backend(path);
  const FileLogBackend::Recovered rec = backend.recover(store);
  ASSERT_TRUE(rec.has_root(0));
  EXPECT_EQ(rec.versions[0], 1u);
  EXPECT_TRUE(store.contains(a->id));
  EXPECT_FALSE(store.contains(b->id));
}

TEST_F(ContentBackendTest, TornTailIsTruncatedAtLastIntactRecord) {
  const std::string path = temp_log();
  const ObjPtr a = make_val_object(Json::object({{"k", "durable"}}));
  const ObjPtr b = make_val_object(Json::object({{"k", "torn-away"}}));
  std::uint64_t half = 0;
  {
    ContentStore store;
    FileLogBackend backend(path);
    (void)backend.recover(store);
    backend.append_object(*a);
    backend.append_root(0, 1, a->id);
    backend.sync();
    backend.append_object(*b);
    backend.append_root(0, 2, b->id);
    half = backend.unsynced_bytes() / 2;
    ASSERT_GT(half, 0u);
    backend.crash(half);  // a torn partial flush reached the disk
  }
  ContentStore store;
  FileLogBackend backend(path);
  const FileLogBackend::Recovered rec = backend.recover(store);
  ASSERT_TRUE(rec.has_root(0));
  EXPECT_EQ(rec.versions[0], 1u);  // the acked root survives the torn tail
  EXPECT_TRUE(store.contains(a->id));
  EXPECT_GT(rec.truncated_bytes, 0u);

  // Recovery physically truncated the damage: a second recovery is clean.
  ContentStore store2;
  FileLogBackend backend2(path);
  const FileLogBackend::Recovered rec2 = backend2.recover(store2);
  EXPECT_EQ(rec2.truncated_bytes, 0u);
  ASSERT_TRUE(rec2.has_root(0));
  EXPECT_EQ(rec2.versions[0], 1u);
}

TEST_F(ContentBackendTest, CorruptedRecordStopsTheScan) {
  const std::string path = temp_log();
  const ObjPtr a = make_val_object(Json::object({{"n", std::int64_t{1}}}));
  {
    ContentStore store;
    FileLogBackend backend(path);
    (void)backend.recover(store);
    backend.append_object(*a);
    backend.append_root(0, 1, a->id);
    backend.append_root(0, 2, a->id);
    backend.sync();
    backend.close();
  }
  {
    // Flip one bit in the last record's checksum region.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekg(size - 1);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x01);
    f.seekp(size - 1);
    f.write(&c, 1);
  }
  ContentStore store;
  FileLogBackend backend(path);
  const FileLogBackend::Recovered rec = backend.recover(store);
  ASSERT_TRUE(rec.has_root(0));
  EXPECT_EQ(rec.versions[0], 1u);  // v2's record failed its checksum
  EXPECT_GT(rec.truncated_bytes, 0u);
  EXPECT_TRUE(store.contains(a->id));
}

TEST_F(ContentBackendTest, SemanticallyBadRecordStopsTheScan) {
  // Checksum-valid records that decode to nonsense are treated as torn:
  // a root record whose shard index is negative or huge (it sizes the
  // recovered vectors) and a checkpoint whose arrays hold the wrong types.
  const ObjPtr a = make_val_object(Json::object({{"n", std::int64_t{1}}}));
  auto root = [&a](std::int64_t shard) {
    return Json::object({{"shard", shard},
                         {"version", std::int64_t{2}},
                         {"rootref", a->id.hex()}})
        .dump();
  };
  const std::vector<std::pair<contentlog::RecordType, std::string>> bad = {
      {contentlog::RecordType::root, root(-1)},
      {contentlog::RecordType::root, root(std::int64_t{1} << 31)},
      {contentlog::RecordType::checkpoint,
       Json::object({{"rootrefs", Json::array({std::int64_t{7}})},
                     {"vv", Json::array({a->id.hex()})}})
           .dump()}};
  for (const auto& [type, payload] : bad) {
    SCOPED_TRACE(payload);
    const std::string path = temp_log();
    {
      std::ofstream f(path, std::ios::binary);
      const std::string log =
          contentlog::header_bytes() +
          contentlog::frame(contentlog::RecordType::object, a->bytes) +
          contentlog::frame(contentlog::RecordType::root,
                            contentlog::root_payload(0, 1, a->id)) +
          contentlog::frame(type, payload);
      f.write(log.data(), static_cast<std::streamsize>(log.size()));
    }
    ContentStore store;
    FileLogBackend backend(path);
    const FileLogBackend::Recovered rec = backend.recover(store);
    ASSERT_TRUE(rec.has_root(0));
    EXPECT_EQ(rec.roots.size(), 1u);
    EXPECT_EQ(rec.versions[0], 1u);
    EXPECT_EQ(rec.truncated_bytes, contentlog::kFrameOverhead + payload.size());
  }
}

TEST_F(ContentBackendTest, CheckpointSupersedesRootRecords) {
  const std::string path = temp_log();
  const ObjPtr a = make_val_object(Json::object({{"s", std::int64_t{0}}}));
  const ObjPtr b = make_val_object(Json::object({{"s", std::int64_t{1}}}));
  {
    ContentStore store;
    FileLogBackend backend(path);
    (void)backend.recover(store);
    backend.append_object(*a);
    backend.append_object(*b);
    backend.append_root(0, 3, a->id);
    backend.append_checkpoint({a->id, b->id}, {5, 7});
    backend.sync();
    backend.close();
  }
  ContentStore store;
  FileLogBackend backend(path);
  const FileLogBackend::Recovered rec = backend.recover(store);
  EXPECT_TRUE(rec.found_checkpoint);
  ASSERT_EQ(rec.versions.size(), 2u);
  EXPECT_EQ(rec.versions[0], 5u);
  EXPECT_EQ(rec.versions[1], 7u);
  EXPECT_EQ(rec.roots[0], a->id);
  EXPECT_EQ(rec.roots[1], b->id);
}

TEST_F(ContentBackendTest, CompactRewritesToLiveContents) {
  const std::string path = temp_log();
  ContentStore store;
  obs::StatsRegistry stats;
  FileLogBackend backend(path, &stats);
  (void)backend.recover(store);
  store.attach_backend(&backend);
  std::vector<ObjPtr> objs;
  for (int i = 0; i < 16; ++i) {
    objs.push_back(make_val_object(Json::object({{"i", std::int64_t{i}}})));
    store.put(objs.back());
  }
  backend.append_root(0, 1, objs.back()->id);
  backend.sync();
  const std::uint64_t before = backend.durable_bytes();

  // GC swept most of the store; compaction reclaims their log space.
  for (int i = 0; i < 12; ++i) store.erase(objs[static_cast<std::size_t>(i)]->id);
  backend.compact(store, {objs.back()->id}, {1});
  EXPECT_LT(backend.durable_bytes(), before);
  EXPECT_GT(stats.counter_value("log.compactions"), 0u);
  store.attach_backend(nullptr);
  backend.close();

  ContentStore store2;
  FileLogBackend backend2(path);
  const FileLogBackend::Recovered rec = backend2.recover(store2);
  EXPECT_EQ(rec.objects, 4u);
  EXPECT_TRUE(rec.found_checkpoint);
  ASSERT_TRUE(rec.has_root(0));
  EXPECT_EQ(rec.versions[0], 1u);
  EXPECT_EQ(rec.roots[0], objs.back()->id);
  for (int i = 12; i < 16; ++i)
    EXPECT_TRUE(store2.contains(objs[static_cast<std::size_t>(i)]->id));
}

TEST_F(ContentBackendTest, BadMagicThrowsTyped) {
  const std::string path = temp_log();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "NOTAFLUXCASFILE-GARBAGE-GARBAGE";
  }
  ContentStore store;
  FileLogBackend backend(path);
  try {
    (void)backend.recover(store);
    FAIL() << "expected FluxException";
  } catch (const FluxException& e) {
    EXPECT_EQ(e.error().code, errc::inval);
  }
}

}  // namespace
}  // namespace flux
