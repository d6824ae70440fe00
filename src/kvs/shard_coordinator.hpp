// Cross-shard fence coordinator for sharded KVS masters (paper §VII).
//
// Lives on the session root's kvs instance when shards > 1 (with one shard
// the master's own "kvs.setroot" completes fences, and no coordinator is
// built). Every fence (and commit, which is a one-party fence) is split into
// per-shard parts; each shard master applies its parts in coalesced batches
// and, with each announce, reports the batch's fence names here
// ("kvs.shard_done", a direct fire-and-forget hop for non-root masters).
// Fences whose live shards have all reported fuse into one "kvs.fence.done"
// event per report, carrying the fused names plus the full per-shard version
// vector and root references — the collective-commit analogue of the single
// master's "kvs.setroot": every broker adopts all shard roots from it
// *before* completing local fence waiters, which preserves read-your-writes
// and cross-shard fence visibility.
//
// If a shard master dies mid-fence (live.down), its part can never complete;
// the coordinator fuses over the surviving shards and flags the event failed
// so waiters settle with EHOSTDOWN instead of hanging.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hash/sha1.hpp"
#include "json/json.hpp"
#include "msg/message.hpp"

namespace flux {

class Broker;

class ShardCoordinator {
 public:
  ShardCoordinator(Broker& broker, std::uint32_t shards);

  /// Shard `shard` finished applying its parts of fences `names` and is now
  /// at (version, rootref).
  void shard_done(const std::vector<std::string>& names, std::uint32_t shard,
                  std::uint64_t version, const Sha1& rootref);

  /// Shard master declared dead: fences pending at this moment fuse over
  /// the surviving shards with failed=true (their dead-shard parts are
  /// lost); fences started afterwards fuse normally over the live shards.
  void shard_failed(std::uint32_t shard);

  /// A successor took over a dead shard (hb-driven failover) at
  /// (version, root). The shard counts as live again for fences that start
  /// from now on; fences already in flight keep the expectation set they
  /// snapshotted, so a mid-fence revival neither blocks nor un-taints them.
  void shard_revived(std::uint32_t shard, std::uint64_t version,
                     const Sha1& root);

  [[nodiscard]] std::uint64_t fences_fused() const noexcept {
    return fences_fused_;
  }

 private:
  struct Pending {
    std::vector<bool> reported;
    std::uint32_t n_reported = 0;
    // Shards alive when this fence first reported — the completion set. A
    // shard revived later is NOT added (it never saw the fence); a snapshot
    // shard that dies later is handled by taint + the liveness re-check.
    std::vector<bool> expected;
    // In flight when a shard master died: part of it is unrecoverable.
    bool tainted = false;
  };

  [[nodiscard]] bool ready(const Pending& p) const;
  /// Fuse every ready fence among `names`: one "kvs.fence.done" for those
  /// that completed, one (failed) for those a dead shard tainted.
  void fuse(const std::vector<std::string>& names);

  Broker& broker_;
  std::uint32_t shards_;
  std::vector<bool> shard_dead_;
  // Last reported state per shard; the fused event's version vector. Shards
  // that contributed nothing to a given fence still have a defined entry
  // (their bootstrap/previous version), so receivers always get a full vv.
  std::vector<std::uint64_t> versions_;
  std::vector<Sha1> roots_;
  std::map<std::string, Pending> pending_;
  std::uint64_t fences_fused_ = 0;
};

}  // namespace flux
