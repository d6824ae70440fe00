#include "sched/scheduler.hpp"

#include <algorithm>

#include "base/log.hpp"

namespace flux {

SchedStats::SchedStats(obs::StatsRegistry& registry, std::string_view prefix)
    : submitted(registry.counter(std::string(prefix) + ".submitted")),
      started(registry.counter(std::string(prefix) + ".started")),
      completed(registry.counter(std::string(prefix) + ".completed")),
      canceled(registry.counter(std::string(prefix) + ".canceled")),
      passes(registry.counter(std::string(prefix) + ".passes")),
      busy_ns(registry.counter(std::string(prefix) + ".busy_ns")),
      wait_ns(registry.histogram(std::string(prefix) + ".wait_ns")) {}

namespace {
// Virtual-time cost of a scheduling pass.
constexpr Duration kPassBase = std::chrono::microseconds(10);
constexpr Duration kPerQueuedJob = std::chrono::nanoseconds(400);
constexpr Duration kPerFreeNode = std::chrono::nanoseconds(80);
}  // namespace

Scheduler::Scheduler(Executor& ex, ResourcePool& pool,
                     std::unique_ptr<Policy> policy, SchedStats& stats)
    : ex_(ex), pool_(pool), policy_(std::move(policy)), stats_(stats) {}

Status Scheduler::submit(std::uint64_t jobid, ResourceRequest request,
                         Duration walltime, int priority) {
  if (!pool_.feasible(request))
    return Error(errc::no_spc, "submit: request can never fit this pool");
  PendingJob job;
  job.jobid = jobid;
  job.request = request;
  job.walltime = walltime;
  job.submit_time = ex_.now();
  job.priority = priority;
  // Priority-ordered queue: insert before the first lower-priority entry
  // (stable — equal priorities keep submission order, so the default
  // priority 0 preserves pure FCFS and the policies, which respect queue
  // order, compose with priority for free).
  auto pos = std::find_if(
      queue_.begin(), queue_.end(),
      [priority](const PendingJob& j) { return j.priority < priority; });
  queue_.insert(pos, std::move(job));
  stats_.submitted.inc();
  kick();
  return {};
}

Status Scheduler::cancel(std::uint64_t jobid) {
  auto it = std::find_if(queue_.begin(), queue_.end(),
                         [jobid](const PendingJob& j) { return j.jobid == jobid; });
  if (it == queue_.end())
    return Error(errc::noent, "cancel: job not pending");
  queue_.erase(it);
  stats_.canceled.inc();
  return {};
}

void Scheduler::finish(std::uint64_t jobid) {
  auto it = running_.find(jobid);
  if (it == running_.end()) return;
  pool_.release(it->second.alloc_id).value();
  running_.erase(it);
  stats_.completed.inc();
  if (!queue_.empty()) kick();
}

void Scheduler::kick() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  // A pass costs virtual time and passes serialize per scheduler — the
  // centralized-scheduler bottleneck the paper's hierarchy removes.
  const Duration cost =
      kPassBase + kPerQueuedJob * static_cast<Duration::rep>(queue_.size()) +
      kPerFreeNode * static_cast<Duration::rep>(pool_.free_nodes());
  const TimePoint start = std::max(ex_.now(), busy_until_);
  busy_until_ = start + cost;
  stats_.busy_ns.inc(static_cast<std::uint64_t>(cost.count()));
  ex_.post_at(busy_until_,
              [this, tok = std::weak_ptr<const bool>(alive_)] {
                if (tok.expired()) return;  // scheduler destroyed (restart)
                pass();
              });
}

void Scheduler::pass() {
  pass_scheduled_ = false;
  stats_.passes.inc();
  if (queue_.empty()) return;

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
    running_.emplace(job.jobid, r);
    stats_.started.inc();
    stats_.wait_ns.record(ex_.now() - job.submit_time);
    if (on_start_) on_start_(job.jobid, *alloc);
  }
}

}  // namespace flux
