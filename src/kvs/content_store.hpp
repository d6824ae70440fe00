// Content-addressed object storage: the master store and the slave caches.
//
// Paper §IV-B: the master (at the CMB tree root) is authoritative; slaves
// keep caches of full objects, fault misses in from their tree parent, and
// expire entries "after a period of disuse to save memory". Expiry is driven
// by heartbeat epochs (the hb comms module), like everything periodic in a
// comms session.
//
// Also includes the transaction-apply algorithm: the hash-tree update of the
// paper's worked example (store new objects; rebuild directory objects
// bottom-up; produce a new root reference). The apply's work follows the
// change, not the tree: each directory on a tuple's path keeps the stored
// object it was loaded from plus an overlay of only the entries the
// transaction touches (put, erased, or a child rebuilt below). freeze()
// merges the stored (name, SHA1) entries with the overlay into an exactly
// sized entry vector, and make_dir_object writes its canonical bytes once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "kvs/treeobj.hpp"
#include "obs/stats.hpp"

namespace flux {

class FileLogBackend;

/// Authoritative object store (KVS master). Never expires by disuse; dead
/// objects are reclaimed only by explicit GC (mark_and_sweep below). Each
/// entry carries a birth version — the KVS root version current when it was
/// inserted — so GC can honor a retention window.
class ContentStore {
 public:
  /// Insert (no-op if present). Returns true if newly stored. New objects
  /// are stamped with the current birth version and, when a backend is
  /// attached, mirrored to it as a durable object record.
  bool put(ObjPtr obj);
  [[nodiscard]] ObjPtr get(const Sha1& id) const;
  [[nodiscard]] bool contains(const Sha1& id) const;
  [[nodiscard]] std::size_t count() const noexcept { return objects_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  /// Remove an object (GC sweep). Returns true if it was present.
  bool erase(const Sha1& id);
  /// Version stamp applied to subsequently inserted objects.
  void set_birth_version(std::uint64_t v) noexcept { birth_version_ = v; }
  /// Visit every (object, birth version) pair.
  void for_each(
      const std::function<void(const ObjPtr&, std::uint64_t)>& fn) const;
  /// Mirror every future insert into `backend` as an append_object. Recovery
  /// replays the log into the store first and attaches afterwards, so
  /// recovered objects are not re-appended.
  void attach_backend(FileLogBackend* backend) noexcept { backend_ = backend; }

 private:
  struct Entry {
    ObjPtr obj;
    std::uint64_t birth = 0;
  };
  std::unordered_map<Sha1, Entry> objects_;
  std::size_t bytes_ = 0;
  std::uint64_t birth_version_ = 0;
  FileLogBackend* backend_ = nullptr;
};

/// Slave object cache with epoch-based disuse expiry.
///
/// Expiry is O(candidates), not O(cache size): each use appends the id to a
/// lazy per-epoch bucket, and expire() visits only buckets older than the
/// cutoff. A refreshed entry leaves stale duplicates in old buckets; they are
/// skipped at visit time by re-checking the entry's true last_used. The
/// per-expire scan work is counted in `<prefix>.expire_scanned` so the cost
/// stays observable.
class ObjectCache {
 public:
  /// Counts `<prefix>.{hits,misses,evictions,expire_scanned}` in `registry`
  /// (the KVS passes its broker's registry and "kvs.cache").
  ObjectCache(obs::StatsRegistry& registry, std::string_view prefix);

  /// Insert/update; records `epoch` as last use.
  void put(ObjPtr obj, std::uint64_t epoch);
  /// Lookup; a hit refreshes last use to `epoch`.
  [[nodiscard]] ObjPtr get(const Sha1& id, std::uint64_t epoch);
  /// Side-effect-free lookup: no last-use refresh, no hit/miss accounting.
  [[nodiscard]] ObjPtr peek(const Sha1& id) const;
  /// Pin/unpin: pinned entries (dirty, un-flushed) are never expired.
  void pin(const Sha1& id);
  void unpin(const Sha1& id);
  /// Drop entries unused since `epoch - max_age`. Returns evicted count.
  std::size_t expire(std::uint64_t epoch, std::uint64_t max_age);
  /// Drop every unpinned entry (benchmarks force cold caches with this).
  std::size_t drop_all();
  [[nodiscard]] std::size_t count() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  // Read by hostbench only; goes when hostbench reads a registry dump.
  struct Stats {
    std::uint64_t hits, misses;
  };
  [[nodiscard]] Stats stats() const noexcept {
    return Stats{hits_.value(), misses_.value()};
  }

 private:
  struct Entry {
    ObjPtr obj;
    std::uint64_t last_used = 0;
    int pins = 0;
  };
  /// Record that `id` was used at `epoch` (appends to that epoch's bucket).
  void touch(const Sha1& id, std::uint64_t epoch);

  std::unordered_map<Sha1, Entry> entries_;
  /// epoch -> ids last seen used then. Entries may be stale (the id was
  /// refreshed later, or already evicted); validated against entries_ at
  /// expire() time. Ordered so expire() pops oldest-first.
  std::map<std::uint64_t, std::vector<Sha1>> use_buckets_;
  std::size_t bytes_ = 0;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  /// Candidate ids examined across all expire() calls (the actual expiry
  /// work; stays near the eviction count instead of count() per epoch).
  obs::Counter& expire_scanned_;
};

/// Apply commit tuples to the hash tree rooted at `root_ref`, reading from
/// and writing new (directory) objects into `store`. Returns the new root
/// reference — the paper's §IV-B update walk, batched so a fence of N tuples
/// rebuilds each touched directory once.
///
/// Semantics: missing intermediate directories are created; an intermediate
/// component holding a value is replaced by a directory; unlink tombstones
/// remove entries (unlink of a missing key is a no-op).
Sha1 apply_transaction(ContentStore& store, const Sha1& root_ref,
                       const std::vector<Tuple>& tuples);

/// Mark-and-sweep GC tuning. `pins` are refs that must survive regardless of
/// reachability — in-flight fence tuple objects and watch terminal refs.
/// The retention window keeps anything born within `retention` versions of
/// `current_version`, protecting readers resolving against a recent root.
struct GcOptions {
  std::uint64_t current_version = 0;
  std::uint64_t retention = 0;
  std::vector<Sha1> pins;
};

struct GcStats {
  std::size_t marked = 0;    ///< objects reachable from roots + pins
  std::size_t retained = 0;  ///< unreachable but inside the retention window
  std::size_t swept = 0;
  std::size_t swept_bytes = 0;
};

/// Collect every object in `store` that is (a) unreachable from `roots` and
/// `opt.pins`, and (b) older than the retention window. Idempotent: a second
/// pass with the same inputs sweeps nothing.
GcStats mark_and_sweep(ContentStore& store, const std::vector<Sha1>& roots,
                       const GcOptions& opt);

}  // namespace flux
