#include "kvs/shard_coordinator.hpp"

#include "broker/broker.hpp"
#include "check/mutation.hpp"

namespace flux {

ShardCoordinator::ShardCoordinator(Broker& broker, std::uint32_t shards)
    : broker_(broker),
      shards_(shards),
      shard_dead_(shards, false),
      versions_(shards, 0),
      roots_(shards) {}

void ShardCoordinator::shard_done(const std::vector<std::string>& names,
                                  std::uint32_t shard, std::uint64_t version,
                                  const Sha1& rootref) {
  if (shard >= shards_) return;
  if (version > versions_[shard]) {
    versions_[shard] = version;
    roots_[shard] = rootref;
  }
  for (const std::string& name : names) {
    Pending& p = pending_[name];
    if (p.reported.empty()) {
      p.reported.assign(shards_, false);
      // Snapshot the completion set now: exactly the shards alive at first
      // report. A shard revived mid-fence must not widen it.
      p.expected.resize(shards_);
      for (std::uint32_t s = 0; s < shards_; ++s)
        p.expected[s] = !shard_dead_[s];
    }
    if (!p.reported[shard]) {
      p.reported[shard] = true;
      ++p.n_reported;
    }
  }
  fuse(names);
}

void ShardCoordinator::shard_revived(std::uint32_t shard, std::uint64_t version,
                                     const Sha1& root) {
  if (shard >= shards_ || !shard_dead_[shard]) return;
  shard_dead_[shard] = false;
  if (version > versions_[shard]) {
    versions_[shard] = version;
    roots_[shard] = root;
  }
}

void ShardCoordinator::shard_failed(std::uint32_t shard) {
  if (shard >= shards_ || shard_dead_[shard]) return;
  shard_dead_[shard] = true;
  // Everything in flight right now lost its part on the dead shard; fences
  // no longer waiting on anything alive fuse (as failed) right away.
  std::vector<std::string> names;
  names.reserve(pending_.size());
  for (auto& [name, p] : pending_) {
    p.tainted = true;
    names.push_back(name);
  }
  fuse(names);
}

bool ShardCoordinator::ready(const Pending& p) const {
  // Complete when every shard that is (a) in this fence's snapshotted
  // expectation set and (b) still alive has reported. Shards that died
  // since the snapshot are excused (taint covers them); shards revived
  // since are not expected at all.
  std::uint32_t want = 0;
  std::uint32_t have = 0;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (!p.expected[s] || shard_dead_[s]) continue;
    ++want;
    if (p.reported[s]) ++have;
  }
  // Mutation "kvs.fence_fuse_early" (tests only): declare the fence done
  // after the first shard reports — clients then observe it partially
  // applied across shards, breaking fence atomicity.
  return have >= want || (check::mutation("kvs.fence_fuse_early") && have >= 1);
}

void ShardCoordinator::fuse(const std::vector<std::string>& names) {
  Json done = Json::array();
  Json failed = Json::array();
  for (const std::string& name : names) {
    auto it = pending_.find(name);
    if (it == pending_.end() || !ready(it->second)) continue;
    (it->second.tainted ? failed : done).push_back(name);
    pending_.erase(it);
    ++fences_fused_;
  }
  for (Json* fused : {&done, &failed}) {
    if (fused->size() == 0) continue;
    Json vv = Json::array();
    Json rootrefs = Json::array();
    for (std::uint32_t s = 0; s < shards_; ++s) {
      vv.push_back(static_cast<std::int64_t>(versions_[s]));
      rootrefs.push_back(roots_[s].hex());
    }
    broker_.publish("kvs.fence.done",
                    Json::object({{"names", std::move(*fused)},
                                  {"vv", std::move(vv)},
                                  {"rootrefs", std::move(rootrefs)},
                                  {"failed", fused == &failed}}));
  }
}

}  // namespace flux
