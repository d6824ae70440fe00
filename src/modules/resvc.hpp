// resvc: "Resources are enumerated in the KVS and allocated when the
// scheduler runs an application." (Table I)
//
// The root instance owns the session's node inventory and is its only
// allocator: one ResourcePool over a flat rack with one node per broker
// rank (cores_per_node from the resvc config, 32 GB each), built in
// the constructor so it exists before any module's start() reads it. The
// root job-manager schedules directly on this pool (it finds the module
// through Broker::find_module); resvc.alloc/free serve direct callers from
// the same pool, and resvc.status reports every live allocation, whoever
// made it, plus the pool's power and I/O-bandwidth budgets and use. At
// startup every rank is enumerated into the KVS (resource.nodes.n<rank> =
// {cores, mem_gb, state}); a direct allocation is recorded under
// lwj.<jobid>.resources. live.down marks the node down in the pool (it never
// returns to the free set) and in the KVS enumeration. Every KVS write is a
// transaction committed through a root-side Handle + KvsClient.
//
// This is the session-level pool; the job-manager carves an instance job's
// child pool (the §III hierarchy) out of an allocation made on it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/module.hpp"
#include "exec/task.hpp"
#include "resource/pool.hpp"

namespace flux {
class Handle;
class KvsClient;
class KvsTxn;
}  // namespace flux

namespace flux::modules {

class Resvc final : public Module {
 public:
  explicit Resvc(Broker& broker);
  ~Resvc() override;

  [[nodiscard]] std::string_view name() const override { return "resvc"; }
  void start() override;
  void handle_event(const Message& msg) override;

  /// The session's node pool (root only).
  [[nodiscard]] ResourcePool& pool() { return *pool_; }
  /// Broker ranks of an allocation made on pool().
  [[nodiscard]] std::vector<NodeId> ranks_of(const Allocation& alloc) const;
  /// The pool node of broker `rank`.
  [[nodiscard]] ResourceId node_of(NodeId rank) const {
    return node_of_rank_[rank];
  }
  /// Called after resvc.free returns nodes to the pool.
  void on_free(std::function<void()> fn) { on_free_ = std::move(fn); }

 private:
  void op_alloc(Message& msg);
  void op_free(Message& msg);
  void op_status(Message& msg);

  [[nodiscard]] Json node_record(std::string_view state) const;
  /// Commit `txn` through the root-side client; a failure is logged as
  /// `what`.
  Task<void> commit(KvsTxn txn, std::string what);
  Task<void> record_alloc(Message req, std::string jobid, Json ranks);

  // Root-only state.
  std::int64_t cores_per_node_ = 16;
  static constexpr std::int64_t kMemPerNodeGb = 32;
  ResourceGraph graph_;
  std::unique_ptr<ResourcePool> pool_;
  std::vector<ResourceId> node_of_rank_;
  std::map<std::string, std::uint64_t> direct_;  ///< resvc.alloc jobid -> id
  std::function<void()> on_free_;
  std::unique_ptr<Handle> handle_;  ///< for the KVS client
  std::unique_ptr<KvsClient> kvs_;
};

}  // namespace flux::modules
