// Event-driven per-instance scheduler.
//
// Each Flux instance runs one Scheduler over its (bounded) ResourcePool.
// The scheduler is a reactor citizen: submissions and job completions kick a
// scheduling pass, and each pass *costs virtual time* (base + per-queued-job
// + per-free-node), serialized per scheduler — which is what makes the
// centralized-vs-hierarchical comparison meaningful: a single center-wide
// scheduler's passes serialize, while sibling instances' schedulers run
// concurrently in virtual time ("scheduler parallelism", §II/§III).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "exec/executor.hpp"
#include "obs/stats.hpp"
#include "sched/policy.hpp"

namespace flux {

/// Virtual-time cost of a scheduling pass (at namespace scope: gcc 12
/// rejects `= {}` default arguments for nested aggregates with NSDMIs).
struct SchedCostModel {
  Duration pass_base{std::chrono::microseconds(10)};
  Duration per_queued_job{std::chrono::nanoseconds(400)};
  Duration per_free_node{std::chrono::nanoseconds(80)};
};

/// A scheduler's registry instruments: `<prefix>.{submitted,started,
/// completed,canceled,passes,busy_ns}` and the queue-wait histogram
/// `<prefix>.wait_ns`. Schedulers handed the same set count together.
struct SchedStats {
  SchedStats(obs::StatsRegistry& registry, std::string_view prefix);
  obs::Counter& submitted;
  obs::Counter& started;
  obs::Counter& completed;
  obs::Counter& canceled;
  obs::Counter& passes;
  obs::Counter& busy_ns;    ///< total virtual time spent deciding
  obs::Histogram& wait_ns;  ///< queue wait of each started job
};

class Scheduler {
 public:
  using CostModel = SchedCostModel;

  using StartFn =
      std::function<void(std::uint64_t jobid, const Allocation& alloc)>;
  using IdleFn = std::function<void()>;

  /// Counts into `stats`, which must outlive the scheduler.
  Scheduler(Executor& ex, ResourcePool& pool, std::unique_ptr<Policy> policy,
            SchedStats& stats, CostModel cost = {});

  /// Submit; returns the job id. Infeasible requests are rejected. With
  /// `manual_completion` the job does NOT auto-complete after walltime — the
  /// owner calls finish() (instance jobs end when the child goes quiescent;
  /// walltime then only informs backfill planning).
  Expected<std::uint64_t> submit(ResourceRequest request, Duration walltime,
                                 int priority = 0,
                                 bool manual_completion = false);

  /// Cancel a pending job (running jobs complete normally).
  Status cancel(std::uint64_t jobid);

  /// Owner signals that a manually-completed job is done.
  void finish(std::uint64_t jobid);

  void on_start(StartFn fn) { on_start_ = std::move(fn); }
  /// Fires whenever queue and running set both become empty.
  void on_idle(IdleFn fn) { on_idle_ = std::move(fn); }

  /// Request a scheduling pass (coalesced; costs virtual time).
  void kick();

  [[nodiscard]] std::size_t queue_length() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t running_count() const noexcept { return running_.size(); }
  [[nodiscard]] bool idle() const noexcept {
    return queue_.empty() && running_.empty();
  }
  [[nodiscard]] ResourcePool& pool() noexcept { return pool_; }
  [[nodiscard]] const Policy& policy() const noexcept { return *policy_; }

 private:
  struct Running {
    std::uint64_t alloc_id = 0;
    std::int64_t nnodes = 0;
    TimePoint expected_end{0};
    bool manual = false;
  };

  void pass();
  void complete(std::uint64_t jobid);
  void check_idle();

  Executor& ex_;
  ResourcePool& pool_;
  std::unique_ptr<Policy> policy_;
  CostModel cost_;
  std::uint64_t next_jobid_ = 1;
  std::vector<PendingJob> queue_;
  std::map<std::uint64_t, bool> manual_;  // jobid -> manual completion
  std::map<std::uint64_t, Running> running_;
  bool pass_scheduled_ = false;
  TimePoint busy_until_{0};
  // Timers are not cancelable; the owning module can be destroyed (broker
  // restart) with a pass or walltime completion still queued. Callbacks hold
  // a weak_ptr to this token and no-op once the scheduler is gone.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  StartFn on_start_;
  IdleFn on_idle_;
  SchedStats& stats_;
};

}  // namespace flux
