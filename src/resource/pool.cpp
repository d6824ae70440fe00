#include "resource/pool.hpp"

#include <algorithm>

namespace flux {

Json ResourceRequest::to_json() const {
  return Json::object({{"nnodes", nnodes},
                       {"cores_per_node", cores_per_node},
                       {"power_w", power_w},
                       {"io_bw_gbs", io_bw_gbs}});
}

ResourceRequest ResourceRequest::from_json(const Json& j) {
  ResourceRequest req;
  req.nnodes = j.get_int("nnodes", 1);
  req.cores_per_node = j.get_int("cores_per_node", 1);
  req.power_w = j.get_double("power_w", 0);
  req.io_bw_gbs = j.get_double("io_bw_gbs", 0);
  return req;
}

ResourcePool::ResourcePool(const ResourceGraph& graph, ResourceId scope)
    : graph_(graph) {
  const ResourceId from = (scope == kNoResource) ? graph.root() : scope;
  nodes_ = graph.find("node", from);
  free_.insert(nodes_.begin(), nodes_.end());
  count_cores(nodes_);
  power_budget_ = graph.total_capacity("power", from);
  io_budget_ = graph.total_capacity("bandwidth", from);
}

ResourcePool::ResourcePool(const ResourceGraph& graph,
                           std::vector<ResourceId> nodes,
                           double power_budget_w, double io_bw_budget_gbs)
    : graph_(graph),
      nodes_(std::move(nodes)),
      power_budget_(power_budget_w),
      io_budget_(io_bw_budget_gbs) {
  free_.insert(nodes_.begin(), nodes_.end());
  count_cores(nodes_);
}

void ResourcePool::count_cores(const std::vector<ResourceId>& nodes) {
  for (ResourceId n : nodes)
    cores_[n] = static_cast<std::int64_t>(graph_.find("core", n).size());
}

std::int64_t ResourcePool::cores_of(ResourceId node) const {
  return cores_.at(node);
}

void ResourcePool::give_back(ResourceId node) {
  if (!down_.contains(node)) free_.insert(node);
}

bool ResourcePool::mark_down(ResourceId node) {
  if (std::find(nodes_.begin(), nodes_.end(), node) == nodes_.end())
    return false;
  down_.insert(node);
  free_.erase(node);
  return true;
}

bool ResourcePool::feasible(const ResourceRequest& req) const {
  if (req.nnodes <= 0 ||
      std::cmp_greater(req.nnodes, nodes_.size() - down_.size()))
    return false;
  if (req.power_w > power_budget_ || req.io_bw_gbs > io_budget_) return false;
  std::int64_t wide_enough = 0;
  for (ResourceId n : nodes_)
    if (!down_.contains(n) && cores_of(n) >= req.cores_per_node)
      ++wide_enough;
  return wide_enough >= req.nnodes;
}

bool ResourcePool::fits_now(const ResourceRequest& req) const {
  if (req.nnodes <= 0 || std::cmp_greater(req.nnodes, free_.size()))
    return false;
  if (power_used_ + req.power_w > power_budget_) return false;
  if (io_used_ + req.io_bw_gbs > io_budget_) return false;
  std::int64_t wide_enough = 0;
  for (ResourceId n : free_)
    if (cores_of(n) >= req.cores_per_node) ++wide_enough;
  return wide_enough >= req.nnodes;
}

Expected<Allocation> ResourcePool::allocate(const ResourceRequest& req) {
  if (req.nnodes <= 0)
    return Error(errc::inval, "allocate: nnodes must be > 0");
  if (!fits_now(req))
    return Error(errc::no_spc, "allocate: request does not fit pool");
  Allocation alloc;
  alloc.id = next_id_++;
  for (auto it = free_.begin();
       it != free_.end() && std::cmp_less(alloc.nodes.size(), req.nnodes);) {
    if (cores_of(*it) >= req.cores_per_node) {
      alloc.nodes.push_back(*it);
      it = free_.erase(it);
    } else {
      ++it;
    }
  }
  alloc.power_w = req.power_w;
  alloc.io_bw_gbs = req.io_bw_gbs;
  power_used_ += req.power_w;
  io_used_ += req.io_bw_gbs;
  auto [pos, inserted] = allocations_.emplace(alloc.id, alloc);
  (void)inserted;
  return pos->second;
}

Status ResourcePool::release(std::uint64_t allocation_id) {
  auto it = allocations_.find(allocation_id);
  if (it == allocations_.end())
    return Error(errc::noent, "release: unknown allocation");
  for (ResourceId n : it->second.nodes) give_back(n);
  power_used_ -= it->second.power_w;
  io_used_ -= it->second.io_bw_gbs;
  allocations_.erase(it);
  return {};
}

const Allocation* ResourcePool::lookup(std::uint64_t allocation_id) const {
  auto it = allocations_.find(allocation_id);
  return it == allocations_.end() ? nullptr : &it->second;
}

Expected<std::vector<ResourceId>> ResourcePool::grow(
    std::uint64_t allocation_id, const ResourceRequest& delta) {
  auto it = allocations_.find(allocation_id);
  if (it == allocations_.end())
    return Error(errc::noent, "grow: unknown allocation");
  ResourceRequest need = delta;
  need.nnodes = std::max<std::int64_t>(need.nnodes, 0);
  if (std::cmp_greater(need.nnodes, free_.size()))
    return Error(errc::no_spc, "grow: not enough free nodes");
  if (power_used_ + need.power_w > power_budget_)
    return Error(errc::no_spc, "grow: power budget exceeded");
  if (io_used_ + need.io_bw_gbs > io_budget_)
    return Error(errc::no_spc, "grow: bandwidth budget exceeded");
  Allocation& alloc = it->second;
  std::vector<ResourceId> added;
  for (auto fit = free_.begin();
       fit != free_.end() && need.nnodes > 0;) {
    if (cores_of(*fit) >= delta.cores_per_node) {
      added.push_back(*fit);
      alloc.nodes.push_back(*fit);
      fit = free_.erase(fit);
      --need.nnodes;
    } else {
      ++fit;
    }
  }
  if (need.nnodes > 0) {
    // Roll back partial node grabs.
    for (ResourceId n : added) {
      alloc.nodes.pop_back();
      free_.insert(n);
    }
    return Error(errc::no_spc, "grow: nodes too narrow");
  }
  alloc.power_w += delta.power_w;
  alloc.io_bw_gbs += delta.io_bw_gbs;
  power_used_ += delta.power_w;
  io_used_ += delta.io_bw_gbs;
  return added;
}

Status ResourcePool::shrink_nodes(std::uint64_t allocation_id,
                                  const std::vector<ResourceId>& nodes,
                                  double power_w, double io_bw_gbs) {
  auto it = allocations_.find(allocation_id);
  if (it == allocations_.end())
    return Error(errc::noent, "shrink_nodes: unknown allocation");
  Allocation& alloc = it->second;
  if (power_w > alloc.power_w || io_bw_gbs > alloc.io_bw_gbs)
    return Error(errc::inval, "shrink_nodes: more budget than allocated");
  for (ResourceId n : nodes) {
    auto pos = std::find(alloc.nodes.begin(), alloc.nodes.end(), n);
    if (pos == alloc.nodes.end())
      return Error(errc::inval, "shrink_nodes: node not in allocation");
  }
  for (ResourceId n : nodes) {
    alloc.nodes.erase(std::find(alloc.nodes.begin(), alloc.nodes.end(), n));
    give_back(n);
  }
  alloc.power_w -= power_w;
  alloc.io_bw_gbs -= io_bw_gbs;
  power_used_ -= power_w;
  io_used_ -= io_bw_gbs;
  return {};
}

void ResourcePool::adopt(const std::vector<ResourceId>& nodes, double power_w,
                         double io_bw_gbs) {
  for (ResourceId n : nodes) {
    nodes_.push_back(n);
    free_.insert(n);
  }
  count_cores(nodes);
  power_budget_ += power_w;
  io_budget_ += io_bw_gbs;
}

Expected<std::vector<ResourceId>> ResourcePool::cede(
    const ResourceRequest& delta) {
  if (std::cmp_greater(delta.nnodes, free_.size()))
    return Error(errc::again, "cede: not enough free nodes to give back");
  if (delta.power_w > power_budget_ - power_used_)
    return Error(errc::again, "cede: power budget in use");
  if (delta.io_bw_gbs > io_budget_ - io_used_)
    return Error(errc::again, "cede: bandwidth budget in use");
  std::vector<ResourceId> freed;
  for (std::int64_t i = 0; i < delta.nnodes; ++i) {
    auto it = std::prev(free_.end());
    freed.push_back(*it);
    free_.erase(it);
    nodes_.erase(std::find(nodes_.begin(), nodes_.end(), freed.back()));
    cores_.erase(freed.back());
  }
  power_budget_ -= delta.power_w;
  io_budget_ -= delta.io_bw_gbs;
  return freed;
}

Expected<std::vector<ResourceId>> ResourcePool::shrink(
    std::uint64_t allocation_id, const ResourceRequest& delta) {
  auto it = allocations_.find(allocation_id);
  if (it == allocations_.end())
    return Error(errc::noent, "shrink: unknown allocation");
  Allocation& alloc = it->second;
  if (std::cmp_greater(delta.nnodes, alloc.nodes.size()))
    return Error(errc::inval, "shrink: more nodes than allocated");
  if (delta.power_w > alloc.power_w || delta.io_bw_gbs > alloc.io_bw_gbs)
    return Error(errc::inval, "shrink: more budget than allocated");
  std::vector<ResourceId> freed;
  for (std::int64_t i = 0; i < delta.nnodes; ++i) {
    freed.push_back(alloc.nodes.back());
    alloc.nodes.pop_back();
    give_back(freed.back());
  }
  alloc.power_w -= delta.power_w;
  alloc.io_bw_gbs -= delta.io_bw_gbs;
  power_used_ -= delta.power_w;
  io_used_ -= delta.io_bw_gbs;
  return freed;
}

}  // namespace flux
