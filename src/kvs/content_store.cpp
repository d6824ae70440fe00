#include "kvs/content_store.hpp"

#include <cassert>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "kvs/content_backend.hpp"

namespace flux {

// ---------------------------------------------------------------------------
// ContentStore
// ---------------------------------------------------------------------------

bool ContentStore::put(ObjPtr obj) {
  assert(obj);
  auto [it, inserted] = objects_.try_emplace(obj->id);
  if (inserted) {
    it->second.obj = std::move(obj);
    it->second.birth = birth_version_;
    bytes_ += it->second.obj->size();
    if (backend_) backend_->append_object(*it->second.obj);
  }
  return inserted;
}

ObjPtr ContentStore::get(const Sha1& id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.obj;
}

bool ContentStore::contains(const Sha1& id) const {
  return objects_.contains(id);
}

bool ContentStore::erase(const Sha1& id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) return false;
  bytes_ -= it->second.obj->size();
  objects_.erase(it);
  return true;
}

void ContentStore::for_each(
    const std::function<void(const ObjPtr&, std::uint64_t)>& fn) const {
  for (const auto& [id, entry] : objects_) fn(entry.obj, entry.birth);
}

// ---------------------------------------------------------------------------
// ObjectCache
// ---------------------------------------------------------------------------

ObjectCache::ObjectCache(obs::StatsRegistry& registry, std::string_view prefix)
    : hits_(registry.counter(std::string(prefix) + ".hits")),
      misses_(registry.counter(std::string(prefix) + ".misses")),
      evictions_(registry.counter(std::string(prefix) + ".evictions")),
      expire_scanned_(registry.counter(std::string(prefix) + ".expire_scanned")) {}

void ObjectCache::touch(const Sha1& id, std::uint64_t epoch) {
  use_buckets_[epoch].push_back(id);
}

void ObjectCache::put(ObjPtr obj, std::uint64_t epoch) {
  assert(obj);
  auto [it, inserted] = entries_.try_emplace(obj->id);
  if (inserted) {
    it->second.obj = std::move(obj);
    bytes_ += it->second.obj->size();
  }
  if (inserted || it->second.last_used != epoch) touch(it->first, epoch);
  it->second.last_used = epoch;
}

ObjPtr ObjectCache::get(const Sha1& id, std::uint64_t epoch) {
  auto it = entries_.find(id);
  if (it == entries_.end()) {
    misses_.inc();
    return nullptr;
  }
  hits_.inc();
  if (it->second.last_used != epoch) touch(id, epoch);
  it->second.last_used = epoch;
  return it->second.obj;
}

ObjPtr ObjectCache::peek(const Sha1& id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : it->second.obj;
}

void ObjectCache::pin(const Sha1& id) {
  auto it = entries_.find(id);
  if (it != entries_.end()) ++it->second.pins;
}

void ObjectCache::unpin(const Sha1& id) {
  auto it = entries_.find(id);
  if (it != entries_.end() && it->second.pins > 0) --it->second.pins;
}

std::size_t ObjectCache::expire(std::uint64_t epoch, std::uint64_t max_age) {
  std::size_t evicted = 0;
  const std::uint64_t cutoff = (epoch > max_age) ? epoch - max_age : 0;
  // Visit only buckets older than the cutoff; every live entry with
  // last_used < cutoff is in one of them (its last touch). Stale duplicates
  // (refreshed or already-evicted ids) fail the re-check and are skipped.
  while (!use_buckets_.empty() && use_buckets_.begin()->first < cutoff) {
    auto bucket = use_buckets_.begin();
    for (const Sha1& id : bucket->second) {
      expire_scanned_.inc();
      auto it = entries_.find(id);
      if (it == entries_.end() || it->second.last_used >= cutoff) continue;
      if (it->second.pins != 0) {
        // Pinned (dirty, un-flushed): keep last_used unchanged but re-bucket
        // at the cutoff — the oldest bucket this pass won't revisit — so a
        // later expire() reconsiders the entry once unpinned.
        touch(id, cutoff);
        continue;
      }
      bytes_ -= it->second.obj->size();
      entries_.erase(it);
      ++evicted;
    }
    use_buckets_.erase(bucket);
  }
  evictions_.inc(evicted);
  return evicted;
}

std::size_t ObjectCache::drop_all() {
  std::size_t evicted = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.pins == 0) {
      bytes_ -= it->second.obj->size();
      it = entries_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  // Rebuild the use buckets for the (pinned) survivors.
  use_buckets_.clear();
  for (const auto& [id, entry] : entries_) touch(id, entry.last_used);
  evictions_.inc(evicted);
  return evicted;
}

// ---------------------------------------------------------------------------
// Transaction apply (hash-tree update)
// ---------------------------------------------------------------------------

namespace {

/// A directory being rebuilt by one apply: the stored object it was loaded
/// from plus an overlay of only the entries this transaction touches.
/// Untouched entries stay in `base`; freeze() copies them into the new
/// object as they are, so an apply's work grows with the change, not with
/// the directory's size.
struct MutNode {
  struct Slot {
    Sha1 ref;                        // a put, valid when child == nullptr
    std::unique_ptr<MutNode> child;  // a directory rebuilt below this one
    bool erased = false;             // an unlink
  };
  ObjPtr base;  // the empty directory for one this transaction creates
  std::map<std::string, Slot, std::less<>> overlay;
};

/// The ref `name` currently holds in `node`: an overlay put, else its stored
/// entry; nullopt when erased or absent.
std::optional<Sha1> current_ref(const MutNode& node, std::string_view name,
                                const MutNode::Slot* slot) {
  if (slot) return slot->erased ? std::nullopt : std::optional(slot->ref);
  return node.base->child(name);
}

/// Descend to the parent directory of the tuple's leaf. With `create`,
/// missing intermediates (and values in the way) become directories; without
/// it (unlink), the walk stops — returning nullptr — rather than disturb
/// existing state (unlinking below a value/missing path is a no-op).
MutNode* descend(const ContentStore& store, MutNode* node,
                 const std::vector<std::string>& path, bool create) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    auto it = node->overlay.find(path[i]);
    MutNode::Slot* slot = (it == node->overlay.end()) ? nullptr : &it->second;
    if (slot && slot->child) {
      node = slot->child.get();
      continue;
    }
    const auto ref = current_ref(*node, path[i], slot);
    ObjPtr existing = ref ? store.get(*ref) : nullptr;
    const bool is_dir = existing && existing->is_dir();
    if (!is_dir && !create) return nullptr;  // a value (or nothing) blocks
    if (!slot) slot = &node->overlay[path[i]];
    *slot = MutNode::Slot{Sha1{}, std::make_unique<MutNode>(), false};
    // A value in the way (or nothing) becomes a new, empty directory.
    slot->child->base = is_dir ? std::move(existing) : empty_dir_object();
    node = slot->child.get();
  }
  return node;
}

/// Serialize a mutated subtree bottom-up; returns the new ref. The stored
/// entries (sorted) and the overlay (sorted) merge into a vector reserved
/// to its exact final size, so the stored directory keeps no growth slack.
Sha1 freeze(ContentStore& store, MutNode& node) {
  const DirEntries& stored = node.base->entries();
  std::size_t n = stored.size();
  for (const auto& [name, slot] : node.overlay) {
    if (!slot.erased) ++n;
    if (node.base->child(name)) --n;
  }
  DirEntries entries;
  entries.reserve(n);
  auto b = stored.begin();
  for (auto& [name, slot] : node.overlay) {
    for (; b != stored.end() && b->name < name; ++b) entries.push_back(*b);
    if (b != stored.end() && b->name == name) ++b;
    if (slot.erased) continue;
    if (slot.child) slot.ref = freeze(store, *slot.child);
    entries.push_back(DirEntry{name, slot.ref});
  }
  entries.insert(entries.end(), b, stored.end());
  ObjPtr dir = make_dir_object(std::move(entries));
  const Sha1 id = dir->id;
  store.put(std::move(dir));
  return id;
}

}  // namespace

Sha1 apply_transaction(ContentStore& store, const Sha1& root_ref,
                       const std::vector<Tuple>& tuples) {
  MutNode root;
  root.base = store.get(root_ref);
  if (!root.base)
    throw std::runtime_error("kvs apply: dangling directory ref " +
                             root_ref.hex());
  if (!root.base->is_dir())
    throw std::runtime_error("kvs apply: ref is not a directory");
  for (const Tuple& t : tuples) {
    const auto path = split_key(t.key);
    if (path.empty())
      throw std::runtime_error("kvs apply: empty key in transaction");
    MutNode* parent = descend(store, &root, path, /*create=*/!t.is_unlink());
    if (parent == nullptr) continue;  // unlink under a value/missing path
    parent->overlay.insert_or_assign(
        path.back(), MutNode::Slot{t.ref, nullptr, t.is_unlink()});
  }
  return freeze(store, root);
}

// ---------------------------------------------------------------------------
// Mark-and-sweep GC
// ---------------------------------------------------------------------------

GcStats mark_and_sweep(ContentStore& store, const std::vector<Sha1>& roots,
                       const GcOptions& opt) {
  GcStats stats;

  // Mark: flood from roots + pins through directory entries. Refs that are
  // not in the store (already swept, cache-only, or the null tombstone) are
  // skipped — pins in particular may point at objects this store never held.
  std::unordered_set<Sha1> marked;
  std::vector<Sha1> stack;
  for (const Sha1& r : roots)
    if (r != Sha1{}) stack.push_back(r);
  for (const Sha1& r : opt.pins)
    if (r != Sha1{}) stack.push_back(r);
  while (!stack.empty()) {
    const Sha1 id = stack.back();
    stack.pop_back();
    if (!marked.insert(id).second) continue;
    ObjPtr obj = store.get(id);
    if (!obj) {
      marked.erase(id);  // count only objects actually present
      continue;
    }
    if (obj->is_dir())
      for (const DirEntry& e : obj->entries())
        if (!marked.contains(e.ref)) stack.push_back(e.ref);
  }
  stats.marked = marked.size();

  // Sweep: everything unmarked and born outside the retention window.
  const std::uint64_t cutoff = (opt.current_version > opt.retention)
                                   ? opt.current_version - opt.retention
                                   : 0;
  std::vector<Sha1> dead;
  std::vector<std::size_t> dead_bytes;
  store.for_each([&](const ObjPtr& obj, std::uint64_t birth) {
    if (marked.contains(obj->id)) return;
    if (birth >= cutoff) {
      ++stats.retained;
      return;
    }
    dead.push_back(obj->id);
    dead_bytes.push_back(obj->size());
  });
  for (std::size_t i = 0; i < dead.size(); ++i) {
    if (store.erase(dead[i])) {
      ++stats.swept;
      stats.swept_bytes += dead_bytes[i];
    }
  }
  return stats;
}

}  // namespace flux
