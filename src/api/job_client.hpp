// Fluent job client: the public face of the job lifecycle pipeline.
//
//   JobHandle jh = co_await h.job()
//                      .name("hello")
//                      .command("echo", Json::object({{"text", "hi"}}))
//                      .nnodes(2)
//                      .priority(10)
//                      .submit();
//   JobResult r = co_await jh.wait();
//
// submit() routes through the job module (first-hop validation, root jobid
// assignment) into the job-manager; the returned JobHandle is a light value
// (handle pointer + jobid) whose methods are RPCs — .wait() parks until the
// job reaches a terminal state, .cancel() works in any phase, .state() and
// .events() read the authoritative machine / KVS event log. Errors surface
// as FluxException with the job-domain errc codes (job_rejected,
// alloc_unsatisfiable, job_unknown, ...), the PR 3 typed-error convention.
#pragma once

#include <cstdint>
#include <string>

#include "api/handle.hpp"
#include "core/jobspec.hpp"

namespace flux {

/// Terminal outcome of a job (the job-manager.wait payload).
struct JobResult {
  std::uint64_t id = 0;
  JobState state = JobState::Pending;
  bool success = false;
  Json exits = Json::object();  ///< exit code -> task count
  std::int64_t ntasks = 0;
};

/// A submitted job. Light, copyable; all methods are RPCs on the handle the
/// job was submitted through.
class JobHandle {
 public:
  JobHandle() = default;
  JobHandle(Handle& h, std::uint64_t id) : h_(&h), id_(id) {}

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] bool valid() const noexcept { return h_ != nullptr && id_ != 0; }
  /// The job's KVS directory, job_kvs_path(id) ("job.00.00.04.00" for job
  /// 1024): jobspec, state, eventlog, ranks, result and stdio.<rank>.*.
  [[nodiscard]] std::string kvs_dir() const;

  /// Park until the job's terminal record is readable on this broker's KVS
  /// (state, result, eventlog, stdio.<rank>.*); returns the result.
  [[nodiscard]] Task<JobResult> wait();
  /// Request cancellation (kills running tasks with SIGTERM).
  Task<void> cancel();
  /// The job's current state.
  [[nodiscard]] Task<JobState> state();
  /// The committed KVS event log (array of {t, name, ...} entries).
  [[nodiscard]] Task<Json> events();

 private:
  Handle* h_ = nullptr;
  std::uint64_t id_ = 0;
};

/// Fluent submission builder; h.job() starts one. Setters return *this;
/// submit() is the terminal operation (at most once per builder).
class JobBuilder {
 public:
  /// Start from a complete JobSpec (overwrites prior setter calls).
  JobBuilder& spec(JobSpec js) {
    spec_ = std::move(js);
    return *this;
  }
  JobBuilder& name(std::string n) {
    spec_.name = std::move(n);
    return *this;
  }
  /// wexec CommandRegistry command + args. Unset means the synthetic
  /// workload (built-in "sleep" for the walltime).
  JobBuilder& command(std::string cmd, Json args = Json::object()) {
    spec_.command = std::move(cmd);
    spec_.args = std::move(args);
    return *this;
  }
  JobBuilder& nnodes(std::int64_t n) {
    spec_.request.nnodes = n;
    return *this;
  }
  JobBuilder& walltime(Duration d) {
    spec_.walltime = d;
    return *this;
  }
  JobBuilder& priority(int p) {
    spec_.priority = p;
    return *this;
  }

  /// Submit; resolves with the JobHandle once the root accepted the job.
  /// Throws FluxException(job_rejected / alloc_unsatisfiable / ...) on
  /// refusal.
  [[nodiscard]] Task<JobHandle> submit();

 private:
  friend class Handle;
  explicit JobBuilder(Handle& h) : h_(&h) {
    spec_.name = "job";
    spec_.request.nnodes = 1;
  }

  Handle* h_;
  JobSpec spec_;
};

}  // namespace flux
