// Event-driven per-instance scheduler.
//
// Each Flux instance runs one Scheduler over its (bounded) ResourcePool,
// owned by that instance's job-manager level. The scheduler queues the
// owner's jobs under the owner's job ids, starts them through on_start, and
// frees their nodes when the owner calls finish(): it never ends a job by
// itself. It is a reactor citizen: submissions and job completions kick a
// scheduling pass, and each pass *costs virtual time* (10 µs + 400 ns per
// queued job + 80 ns per free node), serialized per scheduler — which is
// what makes the centralized-vs-hierarchical comparison meaningful: a
// single center-wide scheduler's passes serialize, while sibling
// instances' schedulers run concurrently in virtual time ("scheduler
// parallelism", §II/§III).
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
  using StartFn =
      std::function<void(std::uint64_t jobid, const Allocation& alloc)>;

  /// Counts into `stats`, which must outlive the scheduler.
  Scheduler(Executor& ex, ResourcePool& pool, std::unique_ptr<Policy> policy,
            SchedStats& stats);

  /// Queue the owner's job `jobid`. Infeasible requests are rejected. The
  /// job runs until the owner calls finish(); walltime only informs
  /// backfill planning.
  Status submit(std::uint64_t jobid, ResourceRequest request,
                Duration walltime, int priority = 0);

  /// Cancel a pending job (running jobs end through finish()).
  Status cancel(std::uint64_t jobid);

  /// The owner's running job is done: return its nodes to the pool.
  void finish(std::uint64_t jobid);

  void on_start(StartFn fn) { on_start_ = std::move(fn); }

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
  };

  void pass();

  Executor& ex_;
  ResourcePool& pool_;
  std::unique_ptr<Policy> policy_;
  std::vector<PendingJob> queue_;
  std::map<std::uint64_t, Running> running_;
  bool pass_scheduled_ = false;
  TimePoint busy_until_{0};
  // Timers are not cancelable; the owning module can be destroyed (broker
  // restart) with a pass still queued. The callback holds a weak_ptr to
  // this token and no-ops once the scheduler is gone.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  StartFn on_start_;
  SchedStats& stats_;
};

}  // namespace flux
