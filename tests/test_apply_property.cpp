// Apply property test: seeded random transactions applied incrementally must
// build the same tree as one apply of the resulting flat key -> ref map into
// the empty root. The batches cover put, unlink, unlink of a missing key,
// mkdir, a value in the way of a directory, and erase-then-recreate in one
// transaction.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "kvs/content_store.hpp"
#include "kvs/treeobj.hpp"
#include "test_seed.hpp"

namespace flux {
namespace {

/// Flat model of the keyspace: leaf key -> ref, where a leaf is a value or an
/// empty directory and no key lies below another. A put removes the leaves
/// on its path (a value in the way becomes a directory) and everything below
/// it; an unlink removes a key and everything below it, and a directory it
/// empties stays behind as an empty directory.
class FlatModel {
 public:
  void apply(const Tuple& t) {
    if (t.is_unlink())
      unlink(t.key);
    else
      put(t.key, t.ref);
  }

  [[nodiscard]] std::vector<Tuple> tuples() const {
    std::vector<Tuple> out;
    for (const auto& [key, ref] : leaves_) out.push_back(Tuple{key, ref});
    return out;
  }

 private:
  static bool is_below(const std::string& key, const std::string& dir) {
    return key.size() > dir.size() && key.compare(0, dir.size(), dir) == 0 &&
           key[dir.size()] == '.';
  }

  /// Erase `key` and everything below it; true if anything was there.
  bool erase_subtree(const std::string& key) {
    bool any = false;
    for (auto it = leaves_.lower_bound(key); it != leaves_.end();) {
      if (it->first != key && !is_below(it->first, key)) break;
      it = leaves_.erase(it);
      any = true;
    }
    return any;
  }

  /// A leaf on the strict path above `key`, if any.
  [[nodiscard]] bool leaf_above(const std::string& key) const {
    for (auto dot = key.find('.'); dot != std::string::npos;
         dot = key.find('.', dot + 1))
      if (leaves_.contains(key.substr(0, dot))) return true;
    return false;
  }

  void put(const std::string& key, const Sha1& ref) {
    for (auto dot = key.find('.'); dot != std::string::npos;
         dot = key.find('.', dot + 1))
      leaves_.erase(key.substr(0, dot));
    erase_subtree(key);
    leaves_[key] = ref;
  }

  void unlink(const std::string& key) {
    if (leaf_above(key) || !erase_subtree(key)) return;  // nothing there
    const auto dot = key.rfind('.');
    if (dot == std::string::npos) return;  // the root stays
    const std::string parent = key.substr(0, dot);
    auto next = leaves_.upper_bound(parent);
    if (next == leaves_.end() || !is_below(next->first, parent))
      leaves_[parent] = empty_dir_object()->id;
  }

  std::map<std::string, Sha1> leaves_;
};

TEST(Apply, RandomTransactionsMatchAFreshBuild) {
  const std::uint64_t base = testing::test_seed() + 2400;
  for (std::uint64_t seed = base; seed < base + 8; ++seed) {
    SCOPED_TRACE(std::string("seed ").append(std::to_string(seed)));
    Rng rng(seed);
    ContentStore store;
    store.put(empty_dir_object());
    std::vector<Sha1> values;
    for (int i = 0; i < 6; ++i) {
      ObjPtr v = make_val_object(i);
      store.put(v);
      values.push_back(v->id);
    }
    // A small, deep key space: 1-4 components from {a, b, c}.
    auto key = [&] {
      std::string k(1, static_cast<char>('a' + rng.below(3)));
      for (std::uint64_t d = rng.below(4); d > 0; --d) {
        k += '.';
        k += static_cast<char>('a' + rng.below(3));
      }
      return k;
    };
    auto value = [&] { return values[rng.below(values.size())]; };

    FlatModel model;
    Sha1 root = empty_dir_object()->id;
    for (int round = 0; round < 150; ++round) {
      std::vector<Tuple> batch;
      for (std::uint64_t n = 1 + rng.below(5); n > 0; --n) {
        const std::string k = key();
        switch (rng.below(6)) {
          case 0:  // put
            batch.push_back(Tuple{k, value()});
            break;
          case 1:  // unlink (the key may or may not exist)
            batch.push_back(Tuple{k, Sha1{}});
            break;
          case 2:  // unlink of a key that never exists
            batch.push_back(Tuple{k + ".z", Sha1{}});
            break;
          case 3:  // mkdir
            batch.push_back(Tuple{k, empty_dir_object()->id});
            break;
          case 4:  // a value in the way of a directory
            batch.push_back(Tuple{k, value()});
            batch.push_back(Tuple{k + ".a", value()});
            break;
          default:  // erase, then recreate at or below the key
            batch.push_back(Tuple{k, Sha1{}});
            batch.push_back(Tuple{rng.below(2) ? k : k + ".b", value()});
            break;
        }
      }
      root = apply_transaction(store, root, batch);
      for (const Tuple& t : batch) model.apply(t);
      const Sha1 fresh =
          apply_transaction(store, empty_dir_object()->id, model.tuples());
      ASSERT_EQ(root, fresh) << "after round " << round;
    }
  }
}

}  // namespace
}  // namespace flux
