#include "core/instance.hpp"

#include <algorithm>

#include "base/log.hpp"

namespace flux {

FluxInstance::FluxInstance(Executor& ex, std::string name,
                           const ResourceGraph& graph, std::string policy,
                           Scheduler::CostModel cost)
    : ex_(ex),
      name_(std::move(name)),
      graph_(graph),
      cost_(cost),
      pool_(graph),
      sched_(ex, pool_, make_policy(policy), registry_, "sched", cost) {
  sched_.on_start([this](std::uint64_t id, const Allocation& a) {
    job_started(id, a);
  });
  sched_.on_end([this](std::uint64_t id) { job_ended(id); });
  sched_.on_idle([this] {
    if (on_quiescent_) on_quiescent_();
  });
}

FluxInstance::FluxInstance(Executor& ex, std::string name,
                           const ResourceGraph& graph,
                           std::vector<ResourceId> nodes,
                           double power_budget_w, double io_bw_budget_gbs,
                           std::string policy, FluxInstance* parent,
                           Scheduler::CostModel cost)
    : ex_(ex),
      name_(std::move(name)),
      graph_(graph),
      parent_(parent),
      level_(parent ? parent->level_ + 1 : 0),
      cost_(cost),
      pool_(graph, std::move(nodes), power_budget_w, io_bw_budget_gbs),
      sched_(ex, pool_, make_policy(policy), registry_, "sched", cost) {
  sched_.on_start([this](std::uint64_t id, const Allocation& a) {
    job_started(id, a);
  });
  sched_.on_end([this](std::uint64_t id) { job_ended(id); });
  sched_.on_idle([this] {
    if (on_quiescent_) on_quiescent_();
  });
}

FluxInstance::~FluxInstance() = default;

Expected<std::uint64_t> FluxInstance::submit(const JobSpec& spec) {
  const bool manual = spec.type == JobType::Instance;
  auto jobid = sched_.submit(spec.request, spec.walltime, spec.priority, manual);
  if (!jobid) return jobid.error();
  jobs_.emplace(*jobid, JobRecord{spec, JobState::Pending, 0});
  return *jobid;
}

JobState FluxInstance::state(std::uint64_t jobid) const {
  auto it = jobs_.find(jobid);
  return it == jobs_.end() ? JobState::Canceled : it->second.state;
}

bool FluxInstance::quiescent() const { return sched_.idle(); }

void FluxInstance::job_started(std::uint64_t jobid, const Allocation& alloc) {
  auto it = jobs_.find(jobid);
  if (it == jobs_.end()) return;
  JobRecord& rec = it->second;
  rec.state = JobState::Running;
  if (rec.spec.type != JobType::Instance) return;

  // Child empowerment: build the child's bounded pool from this allocation.
  double child_power = rec.spec.child_power_budget_w;
  if (child_power <= 0) child_power = alloc.power_w;
  if (child_power <= 0) {
    // Default bound: the physical power capacity of the granted nodes.
    for (ResourceId n : alloc.nodes)
      child_power += graph_.total_capacity("power", n);
  }
  const std::uint64_t key = next_child_key_++;
  rec.child_key = key;
  auto child = std::make_unique<FluxInstance>(
      ex_, name_ + "/" + rec.spec.name, graph_, alloc.nodes, child_power,
      alloc.io_bw_gbs, rec.spec.child_policy, this, cost_);
  child->backing_alloc_ = alloc.id;
  FluxInstance* raw = child.get();
  children_.emplace(key, std::move(child));
  raw->on_quiescent([this, jobid] { child_quiescent(jobid); });
  for (const JobSpec& sub : rec.spec.subjobs) {
    auto sub_id = raw->submit(sub);
    if (!sub_id)
      log::warn("instance", name_, ": subjob '", sub.name,
                "' rejected by child: ", sub_id.error().to_string());
  }
  if (raw->quiescent()) {
    // Nothing to run (or everything rejected): finish the instance job.
    ex_.post([this, jobid] { sched_.finish(jobid); });
  }
}

void FluxInstance::child_quiescent(std::uint64_t jobid) {
  // Defer: the child's scheduler may still be unwinding its final pass.
  ex_.post([this, jobid] {
    auto it = jobs_.find(jobid);
    if (it == jobs_.end() || it->second.state != JobState::Running) return;
    sched_.finish(jobid);
  });
}

void FluxInstance::job_ended(std::uint64_t jobid) {
  auto it = jobs_.find(jobid);
  if (it == jobs_.end()) return;
  JobRecord& rec = it->second;
  rec.state = JobState::Complete;
  if (rec.spec.type == JobType::Instance && rec.child_key != 0) {
    auto cit = children_.find(rec.child_key);
    if (cit != children_.end()) {
      const TreeStats finished = cit->second->tree_stats();
      retired_.instances += finished.instances;
      retired_.jobs_completed += finished.jobs_completed;
      retired_.sched_busy += finished.sched_busy;
      retired_.sched_passes += finished.sched_passes;
      children_.erase(cit);
    }
  }
  if (on_job_complete_) on_job_complete_(jobid, rec.spec);
}

Status FluxInstance::request_grow(const ResourceRequest& delta) {
  if (parent_ == nullptr)
    return Error(errc::perm, "grow: the root instance has no parent to ask");
  // Parental consent: the parent grants from its own pool, recursively
  // asking *its* parent when it cannot (constraint aggregation up the
  // hierarchy, §III).
  auto granted = parent_->pool_.grow(backing_alloc_, delta);
  if (!granted) {
    if (auto st = parent_->request_grow(delta); !st) return st;
    granted = parent_->pool_.grow(backing_alloc_, delta);
    if (!granted) return granted.error();
  }
  pool_.adopt(*granted, delta.power_w, delta.io_bw_gbs);
  sched_.kick();
  return {};
}

Status FluxInstance::release_shrink(const ResourceRequest& delta) {
  if (parent_ == nullptr)
    return Error(errc::perm, "shrink: the root instance has no parent");
  auto freed = pool_.cede(delta);
  if (!freed) return freed.error();
  auto st = parent_->pool_.shrink_nodes(backing_alloc_, *freed, delta.power_w,
                                        delta.io_bw_gbs);
  if (!st) return st;
  parent_->sched_.kick();
  return {};
}

void FluxInstance::set_power_cap(double watts) {
  pool_.set_power_budget(watts);
  if (!pool_.over_power_budget()) return;
  double excess = pool_.power_in_use() - watts;

  // Shed 1: shrink malleable running app jobs' power proportionally.
  double malleable_power = 0;
  for (const std::uint64_t jobid : sched_.running_jobs()) {
    auto it = jobs_.find(jobid);
    if (it == jobs_.end() || !it->second.spec.malleable) continue;
    if (const Allocation* a = sched_.allocation_of(jobid))
      malleable_power += a->power_w;
  }
  if (malleable_power > 0) {
    const double ratio = std::min(1.0, excess / malleable_power);
    for (const std::uint64_t jobid : sched_.running_jobs()) {
      auto it = jobs_.find(jobid);
      if (it == jobs_.end() || !it->second.spec.malleable) continue;
      const Allocation* a = sched_.allocation_of(jobid);
      if (a == nullptr || a->power_w <= 0) continue;
      ResourceRequest shed;
      shed.nnodes = 0;
      shed.power_w = a->power_w * ratio;
      (void)pool_.shrink(a->id, shed);
      excess -= shed.power_w;
    }
  }

  // Shed 2: cap child instances proportionally to their budgets. The
  // child's *backing allocation* in this pool shrinks by the same amount,
  // so this level's books reflect the shed immediately.
  if (excess > 1e-9) {
    double child_power = 0;
    for (const auto& [key, child] : children_)
      child_power += child->pool().power_budget();
    if (child_power > 0) {
      const double scale =
          std::max(0.0, (child_power - excess) / child_power);
      for (auto& [key, child] : children_) {
        const double old_budget = child->pool().power_budget();
        const double new_budget = old_budget * scale;
        child->set_power_cap(new_budget);
        if (child->backing_alloc_ != 0) {
          const Allocation* alloc = pool_.lookup(child->backing_alloc_);
          if (alloc != nullptr) {
            ResourceRequest shed;
            shed.nnodes = 0;
            shed.power_w = std::min(alloc->power_w, old_budget - new_budget);
            if (shed.power_w > 0) (void)pool_.shrink(alloc->id, shed);
          }
        }
      }
    }
  }
}

std::vector<FluxInstance*> FluxInstance::children() const {
  std::vector<FluxInstance*> out;
  out.reserve(children_.size());
  for (const auto& [key, child] : children_) out.push_back(child.get());
  return out;
}

FluxInstance::TreeStats FluxInstance::tree_stats() const {
  TreeStats out;
  out.instances = 1 + retired_.instances;
  out.jobs_completed =
      registry_.counter_value("sched.completed") + retired_.jobs_completed;
  out.sched_busy = Duration(static_cast<Duration::rep>(
                       registry_.counter_value("sched.busy_ns"))) +
                   retired_.sched_busy;
  out.sched_passes = registry_.counter_value("sched.passes") + retired_.sched_passes;
  for (const auto& [key, child] : children_) {
    const TreeStats c = child->tree_stats();
    out.instances += c.instances;
    out.jobs_completed += c.jobs_completed;
    out.sched_busy += c.sched_busy;
    out.sched_passes += c.sched_passes;
  }
  return out;
}

}  // namespace flux
