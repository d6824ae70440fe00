// ResourcePool: the allocatable view of a resource-graph subset.
//
// A Flux instance owns a pool carved from its parent's allocation (parent
// bounding rule, §III). Pools track free/busy nodes plus scalar budgets
// (power, I/O bandwidth) and support the multilevel elasticity model: a
// child pool can grow or shrink against its parent under parental consent.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/error.hpp"
#include "resource/resource.hpp"

namespace flux {

/// What a job (or child instance) asks for.
struct ResourceRequest {
  std::int64_t nnodes = 1;
  std::int64_t cores_per_node = 1;   ///< must fit the nodes' core count
  double power_w = 0;                ///< scalar power demand (0 = none)
  double io_bw_gbs = 0;              ///< shared-filesystem bandwidth demand
  [[nodiscard]] Json to_json() const;
  static ResourceRequest from_json(const Json& j);
};

struct Allocation {
  std::uint64_t id = 0;
  std::vector<ResourceId> nodes;
  double power_w = 0;
  double io_bw_gbs = 0;
};

class ResourcePool {
 public:
  /// Pool over every node in the subtree of `scope` (default: whole graph).
  explicit ResourcePool(const ResourceGraph& graph,
                        ResourceId scope = kNoResource);
  /// Pool over an explicit node set with explicit scalar budgets (how a
  /// child instance's bounded pool is built from a parent allocation).
  ResourcePool(const ResourceGraph& graph, std::vector<ResourceId> nodes,
               double power_budget_w, double io_bw_budget_gbs);

  [[nodiscard]] const ResourceGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] std::size_t total_nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t free_nodes() const noexcept { return free_.size(); }
  [[nodiscard]] std::size_t down_nodes() const noexcept { return down_.size(); }
  [[nodiscard]] double power_budget() const noexcept { return power_budget_; }
  [[nodiscard]] double power_in_use() const noexcept { return power_used_; }
  [[nodiscard]] double io_bw_budget() const noexcept { return io_budget_; }
  [[nodiscard]] double io_bw_in_use() const noexcept { return io_used_; }

  /// Can `req` ever fit this pool's nodes that are not down (even when
  /// currently busy)?
  [[nodiscard]] bool feasible(const ResourceRequest& req) const;
  /// Does `req` fit right now?
  [[nodiscard]] bool fits_now(const ResourceRequest& req) const;

  Expected<Allocation> allocate(const ResourceRequest& req);
  Status release(std::uint64_t allocation_id);
  [[nodiscard]] const Allocation* lookup(std::uint64_t allocation_id) const;
  [[nodiscard]] const std::map<std::uint64_t, Allocation>& allocations()
      const noexcept {
    return allocations_;
  }

  /// Take a node out of service for good (its host died). A free node
  /// leaves the free set now; an allocated one stays in its allocation and
  /// is never handed back to the free set by release() or a shrink.
  /// feasible() stops counting it, so a request wider than the survivors
  /// is refused from then on. Returns false (and changes nothing) for a
  /// node this pool does not hold.
  bool mark_down(ResourceId node);

  /// Grow an existing allocation in place; returns the node ids added.
  Expected<std::vector<ResourceId>> grow(std::uint64_t allocation_id,
                                         const ResourceRequest& delta);
  /// Shrink: give back `nnodes` nodes / scalar amounts. Returns the freed
  /// node ids so a parent can reclaim them.
  Expected<std::vector<ResourceId>> shrink(std::uint64_t allocation_id,
                                           const ResourceRequest& delta);
  /// Shrink an allocation by a specific node set (returned by a child's
  /// cede()) plus scalar amounts.
  Status shrink_nodes(std::uint64_t allocation_id,
                      const std::vector<ResourceId>& nodes, double power_w,
                      double io_bw_gbs);

  // -- elasticity plumbing between parent/child pools -------------------------
  /// Absorb nodes + scalar budget granted by a parent (child grow).
  void adopt(const std::vector<ResourceId>& nodes, double power_w,
             double io_bw_gbs);
  /// Surrender free nodes + scalar budget to a parent (child shrink).
  Expected<std::vector<ResourceId>> cede(const ResourceRequest& delta);

  /// Dynamic power capping: lower (or raise) the budget. Lowering below
  /// current use succeeds — the pool reports an over-budget condition the
  /// owner must resolve by shrinking children (§III elasticity).
  void set_power_budget(double watts) noexcept { power_budget_ = watts; }
  [[nodiscard]] bool over_power_budget() const noexcept {
    // Tolerance absorbs accumulated floating-point drift from proportional
    // shedding (budgets are watts; a micro-watt is never a real violation).
    return power_used_ > power_budget_ + 1e-6;
  }

  /// Fraction of nodes currently allocated.
  [[nodiscard]] double node_utilization() const noexcept {
    return nodes_.empty() ? 0.0
                          : 1.0 - static_cast<double>(free_.size()) /
                                      static_cast<double>(nodes_.size());
  }

 private:
  /// Record each node's core count, walked once when the node enters the
  /// pool (construction, adopt) so admission and allocation never re-walk
  /// the graph.
  void count_cores(const std::vector<ResourceId>& nodes);
  [[nodiscard]] std::int64_t cores_of(ResourceId node) const;
  void give_back(ResourceId node);

  const ResourceGraph& graph_;
  std::vector<ResourceId> nodes_;
  std::set<ResourceId> free_;
  std::set<ResourceId> down_;
  std::unordered_map<ResourceId, std::int64_t> cores_;  ///< node -> cores
  double power_budget_ = 0;
  double power_used_ = 0;
  double io_budget_ = 0;
  double io_used_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Allocation> allocations_;
};

}  // namespace flux
