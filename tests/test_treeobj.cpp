// KVS tree objects, content store, transaction apply — the paper's §IV-B
// worked example plus hash-tree invariants as properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "kvs/content_store.hpp"
#include "kvs/object_bundle.hpp"
#include "kvs/treeobj.hpp"

namespace flux {
namespace {

TEST(TreeObj, ValueObjectShape) {
  ObjPtr v = make_val_object(42);
  EXPECT_TRUE(v->is_val());
  EXPECT_FALSE(v->is_dir());
  EXPECT_EQ(v->value(), Json(42));
  EXPECT_EQ(v->id, Sha1::of(v->bytes));
}

TEST(TreeObj, ContentAddressingDeduplicates) {
  EXPECT_EQ(make_val_object("same")->id, make_val_object("same")->id);
  EXPECT_NE(make_val_object("a")->id, make_val_object("b")->id);
  // Int and double values are distinct content.
  EXPECT_NE(make_val_object(1)->id, make_val_object(1.0)->id);
}

TEST(TreeObj, ManyLiveObjectsStayCheapToCreate) {
  // The parse memo sweeps expired entries as it grows; with every object
  // still alive a sweep frees nothing, and sweeping again on every insert
  // would make creation quadratic (minutes for this count). The budget is
  // generous: linear creation takes well under a second.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<ObjPtr> live;
  live.reserve(150'000);
  for (std::int64_t i = 0; i < 150'000; ++i) live.push_back(make_val_object(i));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_EQ(parse_object(live.back()->bytes)->id, live.back()->id);
}

TEST(TreeObj, DirObjectShape) {
  const Sha1 ref = Sha1::of("x");
  ObjPtr d = make_dir_object({{"alpha", ref}});
  EXPECT_TRUE(d->is_dir());
  EXPECT_EQ(d->child("alpha"), ref);
  EXPECT_EQ(d->child("beta"), std::nullopt);
  EXPECT_EQ(d->bytes, R"({"e":{"alpha":")" + ref.hex() + R"("},"t":"dir"})");
}

// The in-memory form a directory had before it was typed: a JSON document
// of name -> 40-hex refs. Its Json::dump is the reference for the bytes.
Json reference_dir_doc(const DirEntries& entries) {
  JsonObject e;
  for (const DirEntry& d : entries) e.emplace(d.name, d.ref.hex());
  return Json::object({{"e", Json(std::move(e))}, {"t", "dir"}});
}

// A name made of pieces that need JSON escaping (quote, backslash, control
// bytes) and multi-byte UTF-8 among plain ones.
std::string random_name(Rng& rng) {
  static const char* const kPieces[] = {
      "a", "Z", "0", "_", "-", ".", " ", "\"", "\\", "\n", "\t", "\x01",
      "\x1f", "\x7f", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80"};
  std::string name;
  const std::uint64_t pieces = 1 + rng.below(12);
  for (std::uint64_t i = 0; i < pieces; ++i)
    name += kPieces[rng.below(std::size(kPieces))];
  return name;
}

TEST(TreeObj, TypedDirectoryIsByteIdenticalToTheJsonDocument) {
  Rng rng(2026);
  std::vector<std::size_t> sizes{0, 1, 2, 4096};
  for (int i = 0; i < 20; ++i) sizes.push_back(1 + rng.below(300));
  for (const std::size_t n : sizes) {
    SCOPED_TRACE(n);
    std::map<std::string, Sha1> sorted;
    while (sorted.size() < n)
      sorted.emplace(random_name(rng), Sha1::of(rng.bytes(8)));
    DirEntries entries;
    for (const auto& [name, ref] : sorted) entries.push_back({name, ref});
    const std::string expect = reference_dir_doc(entries).dump();

    ObjPtr built = make_dir_object(entries);
    EXPECT_EQ(built->bytes, expect);
    EXPECT_EQ(built->id, Sha1::of(expect));
    const Sha1 id = built->id;
    // Drop the built object so parsing decodes the bytes instead of hitting
    // the parse memo (the empty directory stays alive as a static).
    built.reset();
    ObjPtr parsed = parse_object(expect);
    ASSERT_NE(parsed, nullptr);
    ASSERT_TRUE(parsed->is_dir());
    EXPECT_EQ(parsed->id, id);
    EXPECT_EQ(parsed->entries(), entries);
    for (const DirEntry& e : entries) EXPECT_EQ(parsed->child(e.name), e.ref);
  }
}

TEST(TreeObj, UpperCaseRefsAreAcceptedAndRebuiltLowerCase) {
  const Sha1 ref = Sha1::of("upper");
  std::string upper = ref.hex();
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  const std::string bytes = R"({"e":{"k":")" + upper + R"("},"t":"dir"})";
  ObjPtr dir = parse_object(bytes);
  ASSERT_NE(dir, nullptr);
  EXPECT_EQ(dir->child("k"), ref);
  EXPECT_EQ(dir->bytes, bytes);  // kept, and addressed, as received
  EXPECT_EQ(dir->id, Sha1::of(bytes));

  // An apply that touches a sibling rebuilds the directory: every ref it
  // writes, the untouched one included, is canonical lower-case hex.
  ContentStore store;
  store.put(dir);
  ObjPtr v = make_val_object(1);
  store.put(v);
  const Sha1 root = apply_transaction(store, dir->id, {{"other", v->id}});
  EXPECT_EQ(store.get(root)->bytes, R"({"e":{"k":")" + ref.hex() +
                                        R"(","other":")" + v->id.hex() +
                                        R"("},"t":"dir"})");
}

TEST(TreeObj, ParseRejectsMalformed) {
  EXPECT_EQ(parse_object("not json"), nullptr);
  EXPECT_EQ(parse_object(R"({"t":"weird"})"), nullptr);
  EXPECT_EQ(parse_object(R"({"t":"dir","e":{"a":"nothex"}})"), nullptr);
  EXPECT_EQ(parse_object(R"({"t":"val"})"), nullptr);  // no "d"
  EXPECT_NE(parse_object(R"({"d":7,"t":"val"})"), nullptr);
}

TEST(TreeObj, ParseRoundTripsSerialization) {
  ObjPtr v = make_val_object(Json::object({{"k", "v"}}));
  ObjPtr back = parse_object(v->bytes);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->id, v->id);
  EXPECT_EQ(back->value(), v->value());
}

TEST(TreeObj, SplitKey) {
  EXPECT_EQ(split_key("a.b.c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_key("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_TRUE(split_key(".").empty());
  EXPECT_TRUE(split_key("").empty());
  EXPECT_EQ(split_key("a..b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(split_key(".lead.trail."),
            (std::vector<std::string>{"lead", "trail"}));
}

TEST(TreeObj, TuplesJsonRoundTrip) {
  std::vector<Tuple> tuples{{"a.b", Sha1::of("1")}, {"c", Sha1{}}};
  auto back = tuples_from_json(tuples_to_json(tuples));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].key, "a.b");
  EXPECT_EQ((*back)[0].ref, Sha1::of("1"));
  EXPECT_TRUE((*back)[1].is_unlink());
  EXPECT_FALSE(tuples_from_json(Json(3)).has_value());
  EXPECT_FALSE(tuples_from_json(Json::array({Json::array({"k"})})).has_value());
}

// ---------------------------------------------------------------------------
// The paper's §IV-B worked example: update a.b.c and get a new root ref.
// ---------------------------------------------------------------------------

TEST(Apply, PaperWorkedExample) {
  ContentStore store;
  ObjPtr empty = empty_dir_object();
  store.put(empty);

  ObjPtr v42 = make_val_object(42);
  store.put(v42);
  const Sha1 root1 = apply_transaction(store, empty->id, {{"a.b.c", v42->id}});

  // Walk: root -> a -> b -> c, exactly as the paper's lookup enumerates.
  ObjPtr root = store.get(root1);
  ASSERT_TRUE(root && root->is_dir());
  ObjPtr a = store.get(*root->child("a"));
  ASSERT_TRUE(a && a->is_dir());
  ObjPtr b = store.get(*a->child("b"));
  ASSERT_TRUE(b && b->is_dir());
  ObjPtr c = store.get(*b->child("c"));
  ASSERT_TRUE(c && c->is_val());
  EXPECT_EQ(c->value(), Json(42));

  // "An important property of this structure is that any update results in
  // a new SHA1 root reference."
  ObjPtr v43 = make_val_object(43);
  store.put(v43);
  const Sha1 root2 = apply_transaction(store, root1, {{"a.b.c", v43->id}});
  EXPECT_NE(root2, root1);

  // Old and new snapshots coexist ("both new and old objects coexist in the
  // caches, the switch from old to new root is atomic").
  ObjPtr old_root = store.get(root1);
  ObjPtr old_a = store.get(*old_root->child("a"));
  ObjPtr old_b = store.get(*old_a->child("b"));
  ObjPtr old_c = store.get(*old_b->child("c"));
  EXPECT_EQ(old_c->value(), Json(42));
}

TEST(Apply, UnlinkAndMissingUnlink) {
  ContentStore store;
  store.put(empty_dir_object());
  ObjPtr v = make_val_object("v");
  store.put(v);
  Sha1 root = apply_transaction(store, empty_dir_object()->id,
                                {{"x", v->id}, {"y", v->id}});
  root = apply_transaction(store, root, {Tuple{"x", Sha1{}}});
  ObjPtr dir = store.get(root);
  EXPECT_FALSE(dir->child("x"));
  EXPECT_TRUE(dir->child("y"));
  // Unlinking a missing key is a no-op, not an error.
  const Sha1 same = apply_transaction(store, root, {Tuple{"zzz", Sha1{}}});
  EXPECT_EQ(same, root);
}

TEST(Apply, IdenticalContentGivesIdenticalRoots) {
  // Canonical serialization: applying equal logical states from different
  // orders converges to one root hash.
  ContentStore s1, s2;
  s1.put(empty_dir_object());
  s2.put(empty_dir_object());
  ObjPtr v1 = make_val_object(1), v2 = make_val_object(2);
  s1.put(v1); s1.put(v2);
  s2.put(v1); s2.put(v2);
  const Sha1 r1 = apply_transaction(
      s1, empty_dir_object()->id, {{"a.x", v1->id}, {"a.y", v2->id}});
  const Sha1 r2 = apply_transaction(
      s2, empty_dir_object()->id, {{"a.y", v2->id}, {"a.x", v1->id}});
  EXPECT_EQ(r1, r2);
}

TEST(Apply, BatchedFenceEqualsSequentialCommits) {
  // Property: one batched apply == the composition of singleton applies.
  Rng rng(123);
  ContentStore batched, sequential;
  batched.put(empty_dir_object());
  sequential.put(empty_dir_object());
  std::vector<Tuple> tuples;
  for (int i = 0; i < 200; ++i) {
    ObjPtr v = make_val_object(rng.bytes(8));
    batched.put(v);
    sequential.put(v);
    tuples.push_back(Tuple{
        std::string("d")
            .append(std::to_string(rng.below(8)))
            .append(".k")
            .append(std::to_string(rng.below(50))),
        v->id});
  }
  const Sha1 one_shot =
      apply_transaction(batched, empty_dir_object()->id, tuples);
  Sha1 step = empty_dir_object()->id;
  for (const Tuple& t : tuples)
    step = apply_transaction(sequential, step, {t});
  EXPECT_EQ(one_shot, step);
}

TEST(ContentStore, PutIsIdempotent) {
  ContentStore store;
  ObjPtr v = make_val_object("x");
  EXPECT_TRUE(store.put(v));
  EXPECT_FALSE(store.put(v));
  EXPECT_EQ(store.count(), 1u);
  EXPECT_EQ(store.bytes(), v->size());
}

TEST(ObjectCache, PinPreventsExpiry) {
  obs::StatsRegistry stats;
  ObjectCache cache(stats, "cache");
  ObjPtr a = make_val_object("a"), b = make_val_object("b");
  cache.put(a, 1);
  cache.put(b, 1);
  cache.pin(a->id);
  EXPECT_EQ(cache.expire(100, 10), 1u);  // only b evicted
  EXPECT_NE(cache.get(a->id, 100), nullptr);
  cache.unpin(a->id);
  EXPECT_EQ(cache.expire(200, 10), 1u);
  EXPECT_EQ(cache.count(), 0u);
}

TEST(ObjectCache, GetRefreshesLastUse) {
  obs::StatsRegistry stats;
  ObjectCache cache(stats, "cache");
  ObjPtr a = make_val_object("a");
  cache.put(a, 1);
  EXPECT_NE(cache.get(a->id, 50), nullptr);  // refresh at epoch 50
  EXPECT_EQ(cache.expire(55, 10), 0u);       // recently used: kept
  EXPECT_EQ(cache.expire(100, 10), 1u);
}

// Bucketed expiry examines only stale-bucket candidates, not the whole
// cache: repeated expire() calls over a hot cache do near-zero scan work.
TEST(ObjectCache, ExpiryScansCandidatesNotWholeCache) {
  obs::StatsRegistry stats;
  ObjectCache cache(stats, "cache");
  std::vector<ObjPtr> objs;
  for (int i = 0; i < 100; ++i) {
    objs.push_back(make_val_object(i));
    cache.put(objs.back(), 1);
  }
  // Keep half hot at epoch 10; the other half goes stale.
  for (std::size_t i = 0; i < 50; ++i) (void)cache.get(objs[i]->id, 10);
  const std::uint64_t hits_before = stats.counter_value("cache.hits");

  EXPECT_EQ(cache.expire(6, 5), 0u);    // cutoff 1: epoch-1 uses still fresh
  EXPECT_EQ(cache.expire(10, 5), 50u);  // cutoff 5: epoch-1 bucket drained
  EXPECT_EQ(cache.count(), 50u);

  // Draining the epoch-1 bucket examined each of its 100 candidates once
  // (50 evicted + 50 refreshed-at-10 duplicates), not count() per pass as a
  // full scan would.
  EXPECT_LE(stats.counter_value("cache.expire_scanned"), 100u);
  // Idle repeat passes are free: every remaining entry's bucket survives.
  const std::uint64_t scanned = stats.counter_value("cache.expire_scanned");
  for (int pass = 0; pass < 10; ++pass) EXPECT_EQ(cache.expire(10, 5), 0u);
  EXPECT_EQ(stats.counter_value("cache.expire_scanned"), scanned);
  // Expiry accounting never touches hit/miss stats.
  EXPECT_EQ(stats.counter_value("cache.hits"), hits_before);
  EXPECT_EQ(stats.counter_value("cache.evictions"), 50u);
}

// A pinned entry skipped by an expiry pass is still evicted by a later pass
// after unpinning, even if it was never touched in between.
TEST(ObjectCache, BucketedExpiryReconsidersUnpinned) {
  obs::StatsRegistry stats;
  ObjectCache cache(stats, "cache");
  ObjPtr a = make_val_object("a");
  cache.put(a, 1);
  cache.pin(a->id);
  EXPECT_EQ(cache.expire(100, 10), 0u);
  cache.unpin(a->id);
  EXPECT_EQ(cache.expire(200, 10), 1u);
  EXPECT_EQ(cache.count(), 0u);
}

TEST(ObjectBundle, SerializeDeserializeRoundTrip) {
  std::vector<ObjPtr> objs{
      make_val_object(1), make_val_object("two"),
      make_dir_object({{"n", Sha1::of("x")}})};
  ObjectBundle bundle(objs);
  EXPECT_EQ(bundle.wire_size(), bundle.serialize().size());
  auto back = ObjectBundle::deserialize(bundle.serialize());
  ASSERT_TRUE(back.has_value());
  auto* typed = dynamic_cast<const ObjectBundle*>(back->get());
  ASSERT_NE(typed, nullptr);
  ASSERT_EQ(typed->objects().size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(typed->objects()[i]->id, objs[i]->id);
}

TEST(ObjectBundle, DeserializeRejectsGarbage) {
  EXPECT_FALSE(ObjectBundle::deserialize("zz").has_value());
  ObjectBundle one({make_val_object(5)});
  std::string truncated = one.serialize();
  truncated.pop_back();
  EXPECT_FALSE(ObjectBundle::deserialize(truncated).has_value());
  std::string padded = one.serialize();
  padded += "x";
  EXPECT_FALSE(ObjectBundle::deserialize(padded).has_value());
}

}  // namespace
}  // namespace flux
