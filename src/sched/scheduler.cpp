#include "sched/scheduler.hpp"

#include <algorithm>

#include "base/log.hpp"

namespace flux {

Scheduler::Scheduler(Executor& ex, ResourcePool& pool,
                     std::unique_ptr<Policy> policy,
                     obs::StatsRegistry& registry, std::string_view prefix,
                     CostModel cost)
    : ex_(ex),
      pool_(pool),
      policy_(std::move(policy)),
      cost_(cost),
      submitted_(registry.counter(std::string(prefix) + ".submitted")),
      started_(registry.counter(std::string(prefix) + ".started")),
      completed_(registry.counter(std::string(prefix) + ".completed")),
      canceled_(registry.counter(std::string(prefix) + ".canceled")),
      passes_(registry.counter(std::string(prefix) + ".passes")),
      busy_ns_(registry.counter(std::string(prefix) + ".busy_ns")),
      wait_ns_(registry.histogram(std::string(prefix) + ".wait_ns")) {}

Expected<std::uint64_t> Scheduler::submit(ResourceRequest request,
                                          Duration walltime, int priority,
                                          bool manual_completion) {
  if (!pool_.feasible(request))
    return Error(errc::no_spc, "submit: request can never fit this pool");
  PendingJob job;
  job.jobid = next_jobid_++;
  job.request = request;
  job.walltime = walltime;
  job.submit_time = ex_.now();
  job.priority = priority;
  const std::uint64_t jobid = job.jobid;
  // Priority-ordered queue: insert before the first lower-priority entry
  // (stable — equal priorities keep submission order, so the default
  // priority 0 preserves pure FCFS and the policies, which respect queue
  // order, compose with priority for free).
  auto pos = std::find_if(
      queue_.begin(), queue_.end(),
      [priority](const PendingJob& j) { return j.priority < priority; });
  queue_.insert(pos, std::move(job));
  manual_[jobid] = manual_completion;
  submitted_.inc();
  kick();
  return jobid;
}

Status Scheduler::cancel(std::uint64_t jobid) {
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [jobid](const PendingJob& j) { return j.jobid == jobid; });
  if (it == queue_.end())
    return Error(errc::noent, "cancel: job not pending");
  queue_.erase(it);
  manual_.erase(jobid);
  canceled_.inc();
  check_idle();
  return {};
}

void Scheduler::finish(std::uint64_t jobid) { complete(jobid); }

void Scheduler::kick() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  // A pass costs virtual time and passes serialize per scheduler — the
  // centralized-scheduler bottleneck the paper's hierarchy removes.
  const Duration cost =
      cost_.pass_base +
      cost_.per_queued_job * static_cast<Duration::rep>(queue_.size()) +
      cost_.per_free_node * static_cast<Duration::rep>(pool_.free_nodes());
  const TimePoint start = std::max(ex_.now(), busy_until_);
  busy_until_ = start + cost;
  busy_ns_.inc(static_cast<std::uint64_t>(cost.count()));
  ex_.post_at(busy_until_,
              [this, tok = std::weak_ptr<const bool>(alive_)] {
                if (tok.expired()) return;  // scheduler destroyed (restart)
                pass();
              });
}

void Scheduler::pass() {
  pass_scheduled_ = false;
  passes_.inc();
  if (queue_.empty()) {
    check_idle();
    return;
  }

  std::vector<RunningJob> running;
  running.reserve(running_.size());
  for (const auto& [jobid, r] : running_)
    running.push_back(RunningJob{jobid, r.nnodes, r.expected_end});
  const SchedContext ctx{pool_, ex_.now(), running};
  const std::vector<std::size_t> picks = policy_->select(queue_, ctx);

  // Collect picked jobs first (indices shift as we erase).
  std::vector<PendingJob> to_start;
  to_start.reserve(picks.size());
  std::vector<bool> picked(queue_.size(), false);
  for (std::size_t i : picks)
    if (i < queue_.size()) picked[i] = true;
  std::vector<PendingJob> remaining;
  remaining.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (picked[i])
      to_start.push_back(std::move(queue_[i]));
    else
      remaining.push_back(std::move(queue_[i]));
  }
  queue_ = std::move(remaining);

  for (PendingJob& job : to_start) {
    auto alloc = pool_.allocate(job.request);
    if (!alloc) {
      // Policy raced pool state; put it back at the front to keep order.
      log::debug("sched", "allocation failed after select for job ", job.jobid);
      queue_.insert(queue_.begin(), std::move(job));
      continue;
    }
    Running r;
    r.alloc_id = alloc->id;
    r.nnodes = job.request.nnodes;
    r.expected_end = ex_.now() + job.walltime;
    r.manual = manual_[job.jobid];
    manual_.erase(job.jobid);
    running_.emplace(job.jobid, r);
    started_.inc();
    wait_ns_.record(ex_.now() - job.submit_time);
    if (on_start_) on_start_(job.jobid, *alloc);
    if (!r.manual) {
      const std::uint64_t jobid = job.jobid;
      ex_.post_after(job.walltime,
                     [this, jobid, tok = std::weak_ptr<const bool>(alive_)] {
                       if (tok.expired()) return;
                       complete(jobid);
                     });
    }
  }
  check_idle();
}

void Scheduler::complete(std::uint64_t jobid) {
  auto it = running_.find(jobid);
  if (it == running_.end()) return;
  pool_.release(it->second.alloc_id).value();
  running_.erase(it);
  completed_.inc();
  if (on_end_) on_end_(jobid);
  if (!queue_.empty()) kick();
  check_idle();
}

void Scheduler::check_idle() {
  if (idle() && on_idle_) on_idle_();
}

const Allocation* Scheduler::allocation_of(std::uint64_t jobid) const {
  auto it = running_.find(jobid);
  return it == running_.end() ? nullptr : pool_.lookup(it->second.alloc_id);
}

std::vector<std::uint64_t> Scheduler::running_jobs() const {
  std::vector<std::uint64_t> out;
  out.reserve(running_.size());
  for (const auto& [jobid, r] : running_) out.push_back(jobid);
  return out;
}

}  // namespace flux
