// job: the ingest half of the job lifecycle pipeline (paper §III).
//
// "job" is the client-facing submission service. It is loaded on every
// broker so validation happens at the *first* hop — a malformed jobspec is
// rejected on the submitter's own node without consuming tree bandwidth —
// then the validated request routes upstream to the session root, which
// assigns the session-wide monotonically increasing jobid and hands the job
// to the root's job-manager (queueing, scheduling, dispatch, KVS fold-back
// all live there; the job's KVS directory, job_kvs_path(id), has exactly
// one writer).
//
// Protocol:
//   job.submit {jobspec, parent?}   client -> local validation -> root
//       response {id}               or errc::job_rejected / alloc_unsatisfiable
//   "parent" names a running instance job to run the new job inside; the
//   job-manager submits an instance's subjobs this way.
#pragma once

#include <cstdint>

#include "broker/module.hpp"
#include "exec/task.hpp"

namespace flux::modules {

class JobIngest final : public Module {
 public:
  explicit JobIngest(Broker& broker);

  [[nodiscard]] std::string_view name() const override { return "job"; }

 private:
  void op_submit(Message& msg);
  Task<void> submit_to_manager(Message req, std::uint64_t id);

  std::uint64_t next_jobid_ = 1;  // root only; session-wide monotonic
  obs::Counter& accepted_ = stats_registry().counter("job.accepted");
  obs::Counter& rejected_ = stats_registry().counter("job.rejected");
};

}  // namespace flux::modules
