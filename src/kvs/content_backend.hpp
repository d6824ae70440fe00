// Durable persistence for the KVS content store.
//
// ROADMAP: "Durable content store + KVS checkpoint/restart and GC". The
// content-addressed store (content_store.hpp) is memory-only; this layer
// gives a KVS master a durability backend in the spirit of flux-core's
// content-sqlite service, implemented here as a single-file
// log-structured append store built from the repo's own primitives
// (canonical JSON serialization + SHA1 record checksums).
//
// On-disk format (all integers little-endian):
//
//   header  := magic "FLUXCAS1" (8) | format_version u32 | reserved u32
//   record  := type u8 | payload_len u32 | payload | check u32
//
// where `check` is the first four bytes of SHA1(type || payload_len ||
// payload) — a torn or bit-flipped tail fails the checksum and recovery
// truncates the file at the last intact record. Record types:
//
//   object (1)      payload = the object's canonical serialization. Objects
//                   are self-addressing (id = SHA1(payload)), so no separate
//                   key field is stored.
//   root (2)        payload = canonical JSON {"rootref","shard","version"}.
//                   Appended *after* the objects it references and synced
//                   before the version is announced, so an intact root
//                   record implies its objects are intact (append order is
//                   the durability invariant: acked => synced => recovered).
//   checkpoint (3)  payload = canonical JSON {"rootrefs":[hex...],
//                   "vv":[u64...]} — a full per-shard root-ref + version
//                   vector snapshot, written on a cadence and on clean
//                   shutdown. Atomic by construction: it either passes the
//                   checksum or the whole record is discarded.
//
// Recovery scans the log once, replays objects into a ContentStore, and
// adopts the last intact root/checkpoint records; everything after the
// first damaged frame is truncated (the torn tail a crash can leave).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hash/sha1.hpp"
#include "kvs/content_store.hpp"
#include "obs/stats.hpp"

namespace flux {

namespace contentlog {

inline constexpr std::string_view kMagic = "FLUXCAS1";
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::size_t kHeaderSize = 16;
/// Framing overhead per record: type u8 + len u32 + check u32.
inline constexpr std::size_t kFrameOverhead = 9;
/// Upper bound accepted for a payload during recovery (corruption guard).
inline constexpr std::uint32_t kMaxPayload = 64u << 20;
/// Upper bound accepted for a root record's shard index (corruption guard:
/// the index sizes the recovered root/version vectors).
inline constexpr std::uint32_t kMaxShards = 1u << 16;

enum class RecordType : std::uint8_t { object = 1, root = 2, checkpoint = 3 };

/// The 16-byte file header (golden-vector pinned).
[[nodiscard]] std::string header_bytes();
/// Frame a payload as a checksummed record (golden-vector pinned).
[[nodiscard]] std::string frame(RecordType type, std::string_view payload);
/// Canonical JSON payload of a root-advance record.
[[nodiscard]] std::string root_payload(std::uint32_t shard,
                                       std::uint64_t version,
                                       const Sha1& rootref);
/// Canonical JSON payload of a checkpoint record.
[[nodiscard]] std::string checkpoint_payload(
    const std::vector<Sha1>& rootrefs, const std::vector<std::uint64_t>& vv);

}  // namespace contentlog

/// The single-file log-structured persistence backend described in the
/// header comment, which a KVS master attaches to its ContentStore.
///
/// Append calls buffer in memory; sync() makes everything appended so far
/// durable. A crash (Broker::fail) discards the unsynced tail — except for
/// a fault-injected torn prefix (crash()) that models a partial flush.
class FileLogBackend {
 public:
  struct Recovered {
    std::vector<Sha1> roots;             ///< per-shard last intact root ref
    std::vector<std::uint64_t> versions; ///< per-shard last intact version
    std::size_t objects = 0;             ///< objects replayed into the store
    std::uint64_t truncated_bytes = 0;   ///< torn tail discarded, if any
    bool found_checkpoint = false;
    /// True when shard `s` has a recovered root (version >= 1).
    [[nodiscard]] bool has_root(std::uint32_t s) const {
      return s < versions.size() && versions[s] != 0;
    }
  };

  /// Durability counters go to `registry` as `<prefix>.{objects_appended,
  /// roots_appended,checkpoints,syncs,synced_bytes,compactions,
  /// compacted_bytes}`; a KVS master passes its broker's registry and
  /// "kvs.persist", so they surface in kvs.stats.get. An offline reader (a
  /// recovery audit or timing) passes none: a registry of its own counts.
  explicit FileLogBackend(std::string path, obs::StatsRegistry* registry = nullptr,
                          std::string_view prefix = "log");
  ~FileLogBackend();

  /// Open (or create) the backing file, replay surviving objects into
  /// `into`, and return the recovered roots. Must be called exactly once,
  /// before any append; attach the store *after* recovery so replayed
  /// objects are not re-appended.
  Recovered recover(ContentStore& into);

  void append_object(const StoredObject& obj);
  void append_root(std::uint32_t shard, std::uint64_t version,
                   const Sha1& rootref);
  void append_checkpoint(const std::vector<Sha1>& rootrefs,
                         const std::vector<std::uint64_t>& vv);

  /// Flush every buffered append to durable storage.
  void sync();
  [[nodiscard]] std::uint64_t unsynced_bytes() const noexcept {
    return pending_.size();
  }

  /// Simulate a crash: keep only the first `keep_unsynced_bytes` of the
  /// unsynced tail (a torn partial flush), drop the rest, close the file.
  void crash(std::uint64_t keep_unsynced_bytes);
  /// Clean shutdown: sync and close.
  void close();

  /// Rewrite the log to exactly the live contents of `live` plus one
  /// checkpoint record (atomic rewrite: temp file + rename). Reclaims the
  /// space of GC-swept objects and superseded root records.
  void compact(const ContentStore& live, const std::vector<Sha1>& rootrefs,
               const std::vector<std::uint64_t>& vv);
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t durable_bytes() const noexcept {
    return durable_bytes_;
  }

 private:
  void buffer(std::string bytes);
  /// Append `bytes` to the file and fflush (durability point).
  void write_durable(std::string_view bytes);

  std::unique_ptr<obs::StatsRegistry> own_registry_;  ///< when none is passed
  obs::StatsRegistry& registry_;
  std::string path_;
  std::string pending_;  ///< appended but not yet synced
  std::uint64_t durable_bytes_ = 0;
  bool open_ = false;    ///< recover() succeeded and no crash()/close() yet
  obs::Counter& objects_appended_;
  obs::Counter& roots_appended_;
  obs::Counter& checkpoints_;
  obs::Counter& syncs_;
  obs::Counter& synced_bytes_;
  obs::Counter& compactions_;
  obs::Counter& compacted_bytes_;  ///< bytes reclaimed by compaction
};

}  // namespace flux
