// job-manager: the queueing/scheduling/dispatch half of the job lifecycle
// pipeline (paper §III; flux-core's job-manager + sched-simple, collapsed).
//
// Runs its real logic on the session root only (non-root brokers forward
// upstream, the resvc/wexec idiom). The root instance owns:
//   - admission control (bounded pending queue -> errc::job_rejected),
//   - one scheduling level per instance: a Scheduler over a ResourcePool,
//     reusing src/sched/policy (fcfs / firstfit / easy policies, priority
//     ordering inside the queue). The session level schedules directly on
//     resvc's pool, the session's only allocator. The scheduler queues
//     jobs under their job ids; its allocation is the job's allocation,
//     and Scheduler::finish, called when the job ends, returns it,
//   - the dispatch path: schedule -> wexec.run -> finish,
//   - the JobState machine Pending -> Running -> Complete/Failed/Canceled,
//     with every transition appended to a KVS event log,
//   - the job KVS namespace, one directory per job at <dir> =
//     job_kvs_path(id) (core/jobspec.hpp: job.00.00.04.00 for 1024), with
//     this module its only writer:
//       <dir>.jobspec       submitted JobSpec (JSON)
//       <dir>.state         current state name ("pending", "running", ...)
//       <dir>.eventlog      array of {t, name, ...context} entries
//       <dir>.ranks         allocated broker ranks (once Running)
//       <dir>.result        {id, state, success, exits, ntasks} (terminal)
//       <dir>.stdio.<rank>  stdout, stderr, exitcode, from wexec.run's
//                           answer, staged with the finish event, state and
//                           result so one commit carries all of them
//     Fixed-fanout paths keep every directory a commit rewrites at <= 256
//     entries, so per-job KVS cost does not grow with the jobs run so far.
//   KVS writes coalesce: transitions stage into the client txn and a single
//   in-flight commit coroutine flushes them (the KVS watch-refresh pattern).
//
// Nested instances (§III, DESIGN §5b): a running Instance job owns a child
// level, a pool over its allocation with a scheduler on its child_policy.
// Its subjobs come back through job.submit with "parent" and are jobs like
// any other. It ends once every subjob submission is answered and its level
// is idle; a cancel cascades to its subjobs first. Every level counts into
// job-manager.sched.*.
//
// Protocol (all root-authoritative; non-root forwards upstream):
//   job-manager.submit {id, jobspec, parent?}  from job-ingest; -> {id}
//   job-manager.cancel {id}            cancel; kills running tasks (SIGTERM)
//   job-manager.state  {id}            -> {id, state, parent?, pool?}
//   job-manager.wait   {id}            -> terminal result + the version of
//                                         the commit that carried it (parks)
//   job-manager.list   {}              -> {jobs: [{id, state, parent?}...]}
//   job-manager.grow   {id, nnodes, power_w, io_bw_gbs}   -> pool of id
//   job-manager.shrink {id, nnodes, power_w, io_bw_gbs}   -> pool of id
//   job-manager.power_cap {watts, id?}  session (no id) or instance level
//   A pool reads {nodes, free, down, power_budget_w, power_in_use_w,
//   io_bw_budget_gbs, io_bw_in_use_gbs, policy}.
//
// Failure handling: on "live.down" the manager fails (never orphans) every
// running app job whose allocation includes the dead rank and releases the
// allocation; resvc has marked the dead node down in the pool, so it never
// comes back, and wexec fails the job's run with host_down. An instance
// marks the node down in its own pool and runs on. A pending job, at any
// level, that no longer fits its level's surviving nodes fails
// ("unsatisfiable") instead of waiting forever.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "broker/module.hpp"
#include "core/jobspec.hpp"
#include "exec/task.hpp"
#include "sched/scheduler.hpp"

namespace flux {
class Handle;
class KvsClient;
}  // namespace flux

namespace flux::modules {

class Resvc;

class JobManager final : public Module {
 public:
  explicit JobManager(Broker& broker);
  ~JobManager() override;

  [[nodiscard]] std::string_view name() const override { return "job-manager"; }
  void start() override;
  void handle_event(const Message& msg) override;
  [[nodiscard]] Json stats_json() const override;

 private:
  /// One scheduling level: the session's (over resvc's pool) or a running
  /// instance job's (over a pool carved from its allocation).
  struct Level {
    ResourcePool* pool = nullptr;
    std::unique_ptr<ResourcePool> owned;  ///< an instance's child pool
    std::unique_ptr<Scheduler> sched;
  };

  struct JobRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< enclosing instance job; 0 = the session
    JobSpec spec;
    JobState state = JobState::Pending;
    std::uint64_t alloc_id = 0;  ///< allocation in the level's pool
    std::vector<NodeId> ranks;   ///< allocated ranks (empty until Running)
    bool canceled = false;       ///< cancel requested
    Json eventlog = Json::array();
    std::vector<Message> waiters;  ///< parked job-manager.wait requests
    Json result;  ///< terminal result; gains "version" once committed
    TimePoint submit_t{0};
    // Instance jobs, while Running:
    std::unique_ptr<Level> child;
    std::size_t submits_in_flight = 0;  ///< subjob job.submit unanswered
  };

  void op_submit(Message& msg);
  void op_cancel(Message& msg);
  void op_state(Message& msg);
  void op_wait(Message& msg);
  void op_list(Message& msg);
  void op_resize(Message& msg, bool growing);
  void op_power_cap(Message& msg);

  [[nodiscard]] bool forward_if_not_root(Message& msg);
  JobRecord* find(std::uint64_t id);
  /// The level `rec` is scheduled in (its parent instance's, or the
  /// session's).
  Level& level_of(const JobRecord& rec);
  void build_level(Level& lv, std::string_view policy);
  [[nodiscard]] static Json pool_json(const Level& lv);

  /// Append an eventlog entry and stage the log + current state into the
  /// KVS txn (flushed by the coalesced commit coroutine).
  void event(JobRecord& rec, std::string_view ev_name, Json context);
  void stage_state(JobRecord& rec);
  /// Stage rec.ranks as <dir>.ranks; returns the staged array.
  Json stage_ranks(JobRecord& rec);
  void schedule_flush();
  Task<void> flush_task();

  /// Scheduler start callback: the allocation is made; go Running.
  void start_job(JobRecord& rec, const Allocation& alloc);
  void start_instance(JobRecord& rec, const Allocation& alloc);
  Task<void> submit_subjob(std::uint64_t parent, JobSpec sub);
  /// Post a check that ends instance `id` once its level is idle and every
  /// subjob submission has been answered.
  void maybe_end_instance(std::uint64_t id);
  Task<void> run(std::uint64_t id, Json ranks);
  /// Settle the scheduler (dequeue or release the nodes) and stage the
  /// terminal record (result, eventlog, state) for the next commit.
  void finalize(JobRecord& rec, JobState terminal, Json exits,
                std::int64_t ntasks, std::string_view why);
  /// Commit `version` carried rec's terminal record: answer, then evict.
  void settle(JobRecord& rec, std::uint64_t version);
  void cancel(JobRecord& rec);
  Task<void> kill_tasks(std::uint64_t id);
  Task<void> answer_from_kvs(Message req, std::uint64_t id, bool want_result);

  // Elasticity and power (parental consent; §II/§III power capping).
  Status grow(JobRecord& inst, const ResourceRequest& delta);
  Status shrink(JobRecord& inst, const ResourceRequest& delta);
  void power_cap(Level& lv, double watts);
  /// The running instance a grow/shrink/power_cap names, or nullptr after
  /// responding with an error.
  JobRecord* running_instance(Message& msg);

  // Root-only state (built in start()).
  std::int64_t max_queue_ = 4096;
  Resvc* resvc_ = nullptr;  ///< owns the session level's pool
  SchedStats sched_stats_{stats_registry(), "job-manager.sched"};
  Level root_;
  std::unique_ptr<Handle> handle_;  ///< for the KVS client
  std::unique_ptr<KvsClient> kvs_;
  std::map<std::uint64_t, std::unique_ptr<JobRecord>> jobs_;
  std::deque<std::uint64_t> terminal_fifo_;  ///< bounded eviction of settled jobs
  std::vector<std::uint64_t> uncommitted_;  ///< ended, not yet in a commit
  bool flush_scheduled_ = false;
  bool flush_rerun_ = false;
  // Posted checks hold a weak_ptr to this token and no-op once the module
  // is gone (broker restart).
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);

  // Registry instruments, resolved at construction. Latencies: submit ->
  // allocation, allocation -> terminal; queue depth is sampled per submit.
  obs::Counter& c_submitted_ = stats_registry().counter("job-manager.submitted");
  obs::Counter& c_completed_ = stats_registry().counter("job-manager.completed");
  obs::Counter& c_failed_ = stats_registry().counter("job-manager.failed");
  obs::Counter& c_canceled_ = stats_registry().counter("job-manager.canceled");
  obs::Counter& c_rejected_ = stats_registry().counter("job-manager.rejected");
  obs::Histogram& h_alloc_ns_ = stats_registry().histogram("job-manager.alloc_ns");
  obs::Histogram& h_run_ns_ = stats_registry().histogram("job-manager.run_ns");
  obs::Histogram& h_depth_ = stats_registry().histogram("job-manager.queue_depth");
};

}  // namespace flux::modules
