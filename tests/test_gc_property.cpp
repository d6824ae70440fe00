// GC property test: random treeobj DAGs evolved through apply_transaction,
// random live-root sets and pins, then mark_and_sweep — which must (1) never
// collect anything reachable from a live root or pin, (2) never retain
// unreachable garbage older than the retention window, and (3) be idempotent
// (a second pass with the same inputs sweeps nothing).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "kvs/content_store.hpp"
#include "kvs/treeobj.hpp"
#include "test_seed.hpp"

namespace flux {
namespace {

std::string random_key(Rng& rng) {
  static const char* parts[] = {"a", "b", "deep", "jobs", "cfg", "x1", "x2"};
  std::string key;
  const auto depth = 1 + rng.below(3);
  for (std::uint64_t i = 0; i < depth; ++i) {
    if (i) key += '.';
    key += parts[rng.below(std::size(parts))];
  }
  return key;
}

/// Every object reachable from `roots` (skipping refs absent from the
/// store — the independent reference walk the sweep is judged against).
std::set<Sha1> reachable_from(const ContentStore& store,
                              const std::vector<Sha1>& roots) {
  std::set<Sha1> seen;
  std::vector<Sha1> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const Sha1 id = stack.back();
    stack.pop_back();
    if (id == Sha1{} || !seen.insert(id).second) continue;
    const ObjPtr obj = store.get(id);
    if (!obj) continue;
    if (obj->is_dir())
      for (const DirEntry& e : obj->entries()) stack.push_back(e.ref);
  }
  // Only objects actually present count (a pinned-but-absent ref is not an
  // object to retain).
  std::set<Sha1> present;
  for (const Sha1& id : seen)
    if (store.contains(id)) present.insert(id);
  return present;
}

TEST(GcProperty, RandomDagsSweepExactlyTheExpiredGarbage) {
  const std::uint64_t base = flux::testing::test_seed() + 0x6c0000;
  for (int iter = 0; iter < 25; ++iter) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(iter);
    SCOPED_TRACE(::testing::Message() << "gc property seed " << seed);
    Rng rng(seed);

    ContentStore store;
    store.set_birth_version(1);
    ObjPtr empty = empty_dir_object();
    Sha1 root = empty->id;
    store.put(std::move(empty));
    std::vector<Sha1> history = {root};

    // Evolve the tree: each version applies 1-4 random puts/unlinks, so
    // superseded directories and values accumulate as garbage with earlier
    // birth stamps.
    const std::uint64_t nversions = 8 + rng.below(8);
    for (std::uint64_t v = 2; v <= nversions; ++v) {
      store.set_birth_version(v);
      std::vector<Tuple> tuples;
      const auto nops = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < nops; ++i) {
        std::string key = random_key(rng);
        if (rng.below(6) == 0) {
          tuples.push_back({std::move(key), Sha1{}});  // unlink tombstone
        } else {
          ObjPtr val = make_val_object(
              Json::object({{"v", static_cast<std::int64_t>(rng())}}));
          const Sha1 ref = val->id;
          store.put(std::move(val));
          tuples.push_back({std::move(key), ref});
        }
      }
      root = apply_transaction(store, root, tuples);
      history.push_back(root);
    }

    // Live roots: the current root plus a random sample of older ones (a
    // sharded master holds one root per shard; failover holds stale ones).
    std::vector<Sha1> live_roots = {root};
    for (const Sha1& h : history)
      if (rng.below(4) == 0) live_roots.push_back(h);

    // Pins: random objects (in-flight fence tuples), plus one id that is
    // deliberately absent from the store.
    GcOptions opt;
    opt.current_version = nversions;
    opt.retention = rng.below(4);
    std::vector<ObjPtr> all;
    store.for_each([&all](const ObjPtr& o, std::uint64_t) { all.push_back(o); });
    for (const ObjPtr& o : all)
      if (rng.below(8) == 0) opt.pins.push_back(o->id);
    opt.pins.push_back(Sha1::of("never-stored"));

    const std::set<Sha1> live = reachable_from(store, live_roots);
    std::set<Sha1> pinned_live;
    for (const Sha1& p : opt.pins)
      for (const Sha1& id : reachable_from(store, {p})) pinned_live.insert(id);

    std::map<Sha1, std::uint64_t> births;
    store.for_each([&births](const ObjPtr& o, std::uint64_t b) {
      births[o->id] = b;
    });
    const std::size_t before = store.count();

    const GcStats stats = mark_and_sweep(store, live_roots, opt);

    // (1) Safety: everything reachable from a live root or pin survives.
    for (const Sha1& id : live)
      EXPECT_TRUE(store.contains(id)) << "collected live object " << id.hex();
    for (const Sha1& id : pinned_live)
      EXPECT_TRUE(store.contains(id)) << "collected pinned object " << id.hex();

    // (2) Completeness: every survivor is reachable, pinned, or young.
    const std::uint64_t cutoff =
        opt.current_version > opt.retention
            ? opt.current_version - opt.retention
            : 0;
    store.for_each([&](const ObjPtr& o, std::uint64_t birth) {
      const bool ok = live.count(o->id) != 0 || pinned_live.count(o->id) != 0 ||
                      birth >= cutoff;
      EXPECT_TRUE(ok) << "retained expired garbage " << o->id.hex()
                      << " (birth " << birth << ", cutoff " << cutoff << ")";
    });

    // Accounting coheres with what actually happened.
    EXPECT_EQ(before - stats.swept, store.count());
    EXPECT_EQ(stats.marked + stats.retained + stats.swept, before);

    // (3) Idempotence: same inputs again sweep nothing.
    const GcStats again = mark_and_sweep(store, live_roots, opt);
    EXPECT_EQ(again.swept, 0u);
    EXPECT_EQ(again.marked, stats.marked);

    // Birth stamps were not disturbed by the sweep.
    store.for_each([&](const ObjPtr& o, std::uint64_t birth) {
      EXPECT_EQ(birth, births[o->id]);
    });
  }
}

TEST(GcProperty, RetentionZeroKeepsOnlyReachable) {
  // With no retention window the sweep reduces the store to exactly the
  // reachable set — the compaction precondition.
  const std::uint64_t seed = flux::testing::test_seed() + 0x6d0000;
  SCOPED_TRACE(::testing::Message() << "gc property seed " << seed);
  Rng rng(seed);
  ContentStore store;
  store.set_birth_version(1);
  ObjPtr empty = empty_dir_object();
  Sha1 root = empty->id;
  store.put(std::move(empty));
  for (std::uint64_t v = 2; v <= 12; ++v) {
    store.set_birth_version(v);
    ObjPtr val = make_val_object(
        Json::object({{"v", static_cast<std::int64_t>(rng())}}));
    const Sha1 ref = val->id;
    store.put(std::move(val));
    root = apply_transaction(store, root, {{random_key(rng), ref}});
  }
  GcOptions opt;
  opt.current_version = 1000;  // everything is far outside any window
  opt.retention = 0;
  (void)mark_and_sweep(store, {root}, opt);
  EXPECT_EQ(store.count(), reachable_from(store, {root}).size());
}

}  // namespace
}  // namespace flux
