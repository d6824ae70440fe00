// FluxInstance: the recursive resource-management instance (paper §III).
//
// An instance owns a bounded ResourcePool (parent bounding rule), a
// Scheduler with its own policy (resource-subset specialization), and a job
// table. Running a JobSpec of type Instance allocates resources and creates
// a *child* FluxInstance over them, which recursively accepts sub-jobs —
// "hierarchical, multilevel resource management and job scheduling".
//
// The three hierarchy rules map directly onto methods:
//  - parent bounding: the child pool is built from the parent allocation;
//  - child empowerment: the child schedules its pool independently (its
//    scheduler's virtual-time passes run concurrently with siblings');
//  - parental consent: request_grow()/release_shrink() negotiate allocation
//    changes with the parent, cascading up until satisfiable.
//
// Dynamic power capping (§II Challenge 1 / §III elasticity) is implemented:
// set_power_cap() lowers the pool budget and sheds load by shrinking
// malleable running jobs and recursively capping child instances.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/jobspec.hpp"
#include "sched/scheduler.hpp"

namespace flux {

class FluxInstance {
 public:
  /// Root instance over a whole resource graph.
  FluxInstance(Executor& ex, std::string name, const ResourceGraph& graph,
               std::string policy = "fcfs",
               Scheduler::CostModel cost = {});

  /// Child instance over an explicit node set (created by instance jobs or
  /// directly for static partitioning experiments).
  FluxInstance(Executor& ex, std::string name, const ResourceGraph& graph,
               std::vector<ResourceId> nodes, double power_budget_w,
               double io_bw_budget_gbs, std::string policy,
               FluxInstance* parent = nullptr,
               Scheduler::CostModel cost = {});

  ~FluxInstance();
  FluxInstance(const FluxInstance&) = delete;
  FluxInstance& operator=(const FluxInstance&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] FluxInstance* parent() noexcept { return parent_; }
  [[nodiscard]] unsigned level() const noexcept { return level_; }
  [[nodiscard]] ResourcePool& pool() noexcept { return pool_; }
  [[nodiscard]] Scheduler& scheduler() noexcept { return sched_; }

  /// Submit a job (App or Instance) to this instance's scheduler.
  Expected<std::uint64_t> submit(const JobSpec& spec);

  /// Job state lookup.
  [[nodiscard]] JobState state(std::uint64_t jobid) const;

  /// True when this instance and every descendant have no pending/running
  /// jobs.
  [[nodiscard]] bool quiescent() const;

  /// Callback when this instance becomes quiescent (fires each time the
  /// last job drains).
  void on_quiescent(std::function<void()> fn) { on_quiescent_ = std::move(fn); }

  /// Per-job completion callback (app jobs and instance jobs alike).
  void on_job_complete(std::function<void(std::uint64_t, const JobSpec&)> fn) {
    on_job_complete_ = std::move(fn);
  }

  // -- elasticity (parental consent rule) ------------------------------------
  /// Child asks its parent for more resources for its own pool. The parent
  /// may in turn ask *its* parent ("aggregated up the job hierarchy"), the
  /// request carrying a power demand that must satisfy every cap en route.
  Status request_grow(const ResourceRequest& delta);
  /// Child returns resources to its parent.
  Status release_shrink(const ResourceRequest& delta);

  // -- dynamic power capping ---------------------------------------------------
  /// Impose a power cap on this instance. If current use exceeds the cap,
  /// load is shed: malleable running jobs lose power proportionally, and
  /// child instances receive proportional recursive caps.
  void set_power_cap(double watts);

  /// Children created by instance jobs (observability for tests/benches).
  [[nodiscard]] std::vector<FluxInstance*> children() const;

  struct TreeStats {
    std::uint64_t instances = 1;
    std::uint64_t jobs_completed = 0;
    Duration sched_busy{0};
    std::uint64_t sched_passes = 0;
  };
  [[nodiscard]] TreeStats tree_stats() const;

 private:
  struct JobRecord {
    JobSpec spec;
    JobState state = JobState::Pending;
    std::uint64_t child_key = 0;  // key into children_ for instance jobs
  };

  void job_started(std::uint64_t jobid, const Allocation& alloc);
  void job_ended(std::uint64_t jobid);
  void child_quiescent(std::uint64_t jobid);

  Executor& ex_;
  std::string name_;
  const ResourceGraph& graph_;
  FluxInstance* parent_ = nullptr;
  unsigned level_ = 0;
  Scheduler::CostModel cost_;  ///< inherited by child instances
  ResourcePool pool_;
  /// This instance's scheduler counters ("sched.*"); a model-only instance
  /// has no broker whose registry could hold them.
  obs::StatsRegistry registry_;
  Scheduler sched_;
  /// Allocation id in the *parent's* pool backing this instance (0 = root
  /// or externally-managed child).
  std::uint64_t backing_alloc_ = 0;

  std::map<std::uint64_t, JobRecord> jobs_;
  std::map<std::uint64_t, std::unique_ptr<FluxInstance>> children_;
  std::uint64_t next_child_key_ = 1;
  TreeStats retired_{0, 0, Duration{0}, 0};  ///< folded-in stats of finished children
  std::function<void()> on_quiescent_;
  std::function<void(std::uint64_t, const JobSpec&)> on_job_complete_;
};

}  // namespace flux
