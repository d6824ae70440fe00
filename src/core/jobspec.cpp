#include "core/jobspec.hpp"

#include <cstdio>
#include <stdexcept>

namespace flux {

std::string_view job_state_name(JobState s) noexcept {
  switch (s) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Complete: return "complete";
    case JobState::Canceled: return "canceled";
    case JobState::Failed: return "failed";
  }
  return "?";
}

JobState job_state_from_name(std::string_view name) noexcept {
  if (name == "running") return JobState::Running;
  if (name == "complete") return JobState::Complete;
  if (name == "canceled") return JobState::Canceled;
  if (name == "failed") return JobState::Failed;
  return JobState::Pending;
}

std::string job_kvs_path(std::uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "job.%02llx.%02x.%02x.%02x",
                static_cast<unsigned long long>(id >> 24),
                static_cast<unsigned>((id >> 16) & 0xff),
                static_cast<unsigned>((id >> 8) & 0xff),
                static_cast<unsigned>(id & 0xff));
  return buf;
}

Json JobSpec::to_json() const {
  Json subs = Json::array();
  for (const JobSpec& s : subjobs) subs.push_back(s.to_json());
  return Json::object({{"name", name},
                       {"type", type == JobType::App ? "app" : "instance"},
                       {"request", request.to_json()},
                       {"walltime_us", walltime.count() / 1000},
                       {"priority", priority},
                       {"command", command},
                       {"args", args},
                       {"malleable", malleable},
                       {"child_policy", child_policy},
                       {"child_power_budget_w", child_power_budget_w},
                       {"subjobs", std::move(subs)}});
}

JobSpec JobSpec::from_json(const Json& j) {
  if (!j.is_object()) throw std::invalid_argument("jobspec: not an object");
  JobSpec spec;
  spec.name = j.get_string("name");
  spec.type = j.get_string("type") == "instance" ? JobType::Instance
                                                 : JobType::App;
  spec.request = ResourceRequest::from_json(j.at("request"));
  spec.walltime = std::chrono::microseconds(j.get_int("walltime_us", 1000));
  spec.priority = static_cast<int>(j.get_int("priority", 0));
  spec.command = j.get_string("command", "");
  spec.args = j.at("args").is_null() ? Json::object() : j.at("args");
  spec.malleable = j.get_bool("malleable", false);
  spec.child_policy = j.get_string("child_policy", "fcfs");
  spec.child_power_budget_w = j.get_double("child_power_budget_w", 0);
  const Json& subs = j.at("subjobs");
  if (!subs.is_null() && !subs.is_array())
    throw std::invalid_argument("jobspec: subjobs is not an array");
  if (subs.is_array())
    for (const Json& s : subs.as_array()) spec.subjobs.push_back(from_json(s));
  return spec;
}

JobSpec JobSpec::app(std::string name, std::int64_t nnodes, Duration walltime,
                     double power_w) {
  JobSpec spec;
  spec.name = std::move(name);
  spec.type = JobType::App;
  spec.request.nnodes = nnodes;
  spec.request.power_w = power_w;
  spec.walltime = walltime;
  return spec;
}

JobSpec JobSpec::instance(std::string name, std::int64_t nnodes,
                          std::string policy, std::vector<JobSpec> subjobs) {
  JobSpec spec;
  spec.name = std::move(name);
  spec.type = JobType::Instance;
  spec.request.nnodes = nnodes;
  spec.child_policy = std::move(policy);
  spec.subjobs = std::move(subjobs);
  // Instance walltime is advisory (completion is child-quiescence driven).
  spec.walltime = std::chrono::seconds(1);
  return spec;
}

}  // namespace flux
