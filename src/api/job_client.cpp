#include "api/job_client.hpp"

#include "kvs/kvs_client.hpp"

namespace flux {

JobBuilder Handle::job() { return JobBuilder(*this); }

std::string JobHandle::kvs_dir() const { return job_kvs_path(id_); }

Task<JobHandle> JobBuilder::submit() {
  const Json payload = Json::object({{"jobspec", spec_.to_json()}});
  Message resp =
      co_await h_->request("job.submit").payload(payload).call();
  co_return JobHandle(*h_, static_cast<std::uint64_t>(
                               resp.payload().get_int("id", 0)));
}

Task<JobResult> JobHandle::wait() {
  const Json payload =
      Json::object({{"id", static_cast<std::int64_t>(id_)}});
  Message resp =
      co_await h_->request("job-manager.wait").payload(payload).call();
  JobResult r;
  r.id = static_cast<std::uint64_t>(resp.payload().get_int("id", 0));
  r.state = job_state_from_name(resp.payload().get_string("state"));
  r.success = resp.payload().get_bool("success", false);
  r.exits = resp.payload().contains("exits") ? resp.payload().at("exits")
                                             : Json::object();
  r.ntasks = resp.payload().get_int("ntasks", 0);
  // Return once this broker holds the commit that carried the record.
  if (const std::int64_t v = resp.payload().get_int("version", 0); v > 0) {
    KvsClient kvs(*h_);
    co_await kvs.wait_version(static_cast<std::uint64_t>(v));
  }
  co_return r;
}

Task<void> JobHandle::cancel() {
  const Json payload =
      Json::object({{"id", static_cast<std::int64_t>(id_)}});
  (void)co_await h_->request("job-manager.cancel").payload(payload).call();
}

Task<JobState> JobHandle::state() {
  const Json payload =
      Json::object({{"id", static_cast<std::int64_t>(id_)}});
  Message resp =
      co_await h_->request("job-manager.state").payload(payload).call();
  co_return job_state_from_name(resp.payload().get_string("state"));
}

Task<Json> JobHandle::events() {
  KvsClient kvs(*h_);
  Json log = co_await kvs.get(kvs_dir() + ".eventlog");
  co_return log;
}

}  // namespace flux
