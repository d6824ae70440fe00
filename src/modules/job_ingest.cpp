#include "modules/job_ingest.hpp"

#include <cmath>

#include "base/log.hpp"
#include "broker/broker.hpp"
#include "core/jobspec.hpp"
#include "sched/policy.hpp"

namespace flux::modules {

namespace {

/// First-hop validation: the reasons a jobspec can never become a job,
/// including every field that reaches a ResourcePool. Subjobs are checked
/// here too, so an instance is refused whole rather than failing piecemeal
/// when it starts. Returns an empty string when acceptable.
std::string validate(const JobSpec& spec) {
  const ResourceRequest& r = spec.request;
  if (r.nnodes < 1) return "jobspec: nnodes must be >= 1";
  if (r.cores_per_node < 1) return "jobspec: cores_per_node must be >= 1";
  if (!std::isfinite(r.power_w) || r.power_w < 0)
    return "jobspec: power_w must be finite and >= 0";
  if (!std::isfinite(r.io_bw_gbs) || r.io_bw_gbs < 0)
    return "jobspec: io_bw_gbs must be finite and >= 0";
  if (spec.walltime <= Duration::zero())
    return "jobspec: walltime must be positive";
  if (spec.type == JobType::App) {
    if (!spec.subjobs.empty())
      return "jobspec: only instance jobs have subjobs";
    return {};
  }
  if (!known_policy(spec.child_policy))
    return "jobspec: unknown child_policy '" + spec.child_policy + "'";
  if (!std::isfinite(spec.child_power_budget_w))
    return "jobspec: child_power_budget_w must be finite";
  for (std::size_t i = 0; i < spec.subjobs.size(); ++i)
    if (std::string why = validate(spec.subjobs[i]); !why.empty())
      return "subjob " + std::to_string(i) + ": " + why;
  return {};
}

}  // namespace

JobIngest::JobIngest(Broker& b) : Module(b) {
  on("submit", [this](Message& m) { op_submit(m); });
}

void JobIngest::op_submit(Message& msg) {
  if (!msg.payload().get_bool("validated", false)) {
    if (!msg.payload().contains("jobspec")) {
      respond_error(msg, errc::job_rejected, "job.submit: missing jobspec");
      return;
    }
    JobSpec spec;
    try {
      spec = JobSpec::from_json(msg.payload().at("jobspec"));
    } catch (const std::exception& e) {
      respond_error(msg, errc::job_rejected,
                    std::string("job.submit: malformed jobspec: ") + e.what());
      return;
    }
    const Json& parent = msg.payload().at("parent");
    if (!parent.is_null() && (!parent.is_int() || parent.as_int() < 1)) {
      rejected_.inc();
      respond_error(msg, errc::job_rejected,
                    "job.submit: parent must be a job id");
      return;
    }
    if (std::string why = validate(spec); !why.empty()) {
      rejected_.inc();
      respond_error(msg, errc::job_rejected, "job.submit: " + why);
      return;
    }
    Json p = msg.payload();
    p["validated"] = true;
    msg.set_payload(std::move(p));
  }
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  const std::uint64_t id = next_jobid_++;
  accepted_.inc();
  co_spawn(broker().executor(), submit_to_manager(std::move(msg), id),
           "job.submit");
}

Task<void> JobIngest::submit_to_manager(Message req, std::uint64_t id) {
  Json fwd = Json::object({{"id", static_cast<std::int64_t>(id)},
                           {"jobspec", req.payload().at("jobspec")}});
  if (req.payload().contains("parent"))
    fwd["parent"] = req.payload().at("parent");
  Message resp;
  try {
    resp = co_await broker().rpc(
        origin(), Message::request("job-manager.submit", std::move(fwd)),
        std::chrono::seconds(5));
  } catch (const FluxException& e) {
    respond_error(req, e.error().code, "job.submit: manager unreachable");
    co_return;
  }
  if (resp.errnum != 0) {
    respond_error(req, static_cast<errc>(resp.errnum),
                  resp.payload().get_string("errmsg"));
    co_return;
  }
  respond_ok(req, Json::object({{"id", static_cast<std::int64_t>(id)}}));
}

}  // namespace flux::modules
