// Unified job model (paper §III).
//
// "Flux ... abstracts [a job] to an independent RJMS instance that can
// either be used to run a single application or that can run its own job
// management services, which then can recursively accept and schedule
// (sub-)jobs." A JobSpec therefore describes either an App (leaf work) or an
// Instance (a child Flux instance with its own policy and workload). Both
// run through the one job pipeline (modules/job_manager.hpp): an instance's
// subjobs are jobs whose "parent" is the instance's id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "resource/pool.hpp"

namespace flux {

enum class JobType { App, Instance };
enum class JobState { Pending, Running, Complete, Canceled, Failed };

std::string_view job_state_name(JobState s) noexcept;
/// Inverse of job_state_name (unknown strings map to Pending).
JobState job_state_from_name(std::string_view name) noexcept;

/// The job's KVS directory: a fixed four-level path of 8-bit hex groups of
/// the id, most significant first ("job.00.00.04.00" for job 1024). Ids are
/// sequential, so below 2^32 jobs no directory on the path has more than 256
/// entries and a commit rewrites a bounded path instead of a directory of
/// every job run so far. The top group holds id >> 24 and widens past 2^32.
std::string job_kvs_path(std::uint64_t id);

struct JobSpec {
  std::string name;
  JobType type = JobType::App;
  ResourceRequest request;
  Duration walltime{std::chrono::milliseconds(1)};
  int priority = 0;
  /// What to execute, by wexec CommandRegistry name. Empty means a synthetic
  /// workload: the job-manager runs the built-in "sleep" for `walltime`.
  std::string command;
  Json args = Json::object();  ///< command arguments (wexec args payload)
  /// Malleable jobs accept grow/shrink of their allocation while running
  /// (the paper's rigid vs moldable vs malleable distinction).
  bool malleable = false;

  // Instance jobs only:
  std::string child_policy = "fcfs";  ///< scheduling specialization (§III)
  std::vector<JobSpec> subjobs;       ///< the child instance's workload
  /// Power budget of the child pool, in watts (parent bounding rule); <= 0
  /// means the allocation's request.power_w, or the granted nodes' physical
  /// power when that is 0 too.
  double child_power_budget_w = 0;

  [[nodiscard]] Json to_json() const;
  /// Throws std::invalid_argument when `j`, or any of its subjobs, is not
  /// an object, or when "subjobs" is present but not an array.
  static JobSpec from_json(const Json& j);

  /// Leaf application job.
  static JobSpec app(std::string name, std::int64_t nnodes, Duration walltime,
                     double power_w = 0);
  /// Nested instance job running `subjobs` under `policy`.
  static JobSpec instance(std::string name, std::int64_t nnodes,
                          std::string policy, std::vector<JobSpec> subjobs);
};

}  // namespace flux
