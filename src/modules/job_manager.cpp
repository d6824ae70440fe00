#include "modules/job_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "api/handle.hpp"
#include "base/log.hpp"
#include "broker/broker.hpp"
#include "kvs/kvs_client.hpp"
#include "modules/resvc.hpp"
#include "sched/policy.hpp"

namespace flux::modules {

namespace {

constexpr std::size_t kTerminalKeep = 1024;

std::string job_key(std::uint64_t id, std::string_view leaf) {
  return job_kvs_path(id) + "." + std::string(leaf);
}

bool ended(JobState s) {
  return s != JobState::Pending && s != JobState::Running;
}

}  // namespace

JobManager::JobManager(Broker& b) : ModuleBase(b) {
  on("submit", [this](Message& m) { op_submit(m); });
  on("cancel", [this](Message& m) { op_cancel(m); });
  on("state", [this](Message& m) { op_state(m); });
  on("wait", [this](Message& m) { op_wait(m); });
  on("list", [this](Message& m) { op_list(m); });
  broker().module_subscribe(*this, "live.down");
}

JobManager::~JobManager() = default;

void JobManager::start() {
  if (!broker().is_root()) return;
  resvc_ = dynamic_cast<Resvc*>(broker().find_module("resvc"));
  if (resvc_ == nullptr)
    throw std::logic_error("job-manager: needs the resvc module loaded");
  const Json cfg = broker().module_config("job-manager");
  max_queue_ = cfg.get_int("max_queue", 4096);
  sched_ = std::make_unique<Scheduler>(
      broker().executor(), resvc_->pool(),
      make_policy(cfg.get_string("policy", "fcfs")), stats_registry(),
      "job-manager.sched");
  sched_->on_start([this](std::uint64_t sched_id, const Allocation& alloc) {
    auto it = sched_to_job_.find(sched_id);
    if (it == sched_to_job_.end()) return;
    if (JobRecord* rec = find(it->second)) start_job(*rec, alloc);
  });
  // Nodes a direct resvc.free returns may unblock a queued job.
  resvc_->on_free([this] {
    if (sched_->queue_length() > 0) sched_->kick();
  });
  handle_ = std::make_unique<Handle>(broker());
  kvs_ = std::make_unique<KvsClient>(*handle_);
}

bool JobManager::forward_if_not_root(Message& msg) {
  if (broker().is_root()) return false;
  broker().forward_upstream(std::move(msg));
  return true;
}

JobManager::JobRecord* JobManager::find(std::uint64_t id) {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second.get();
}

void JobManager::event(JobRecord& rec, std::string_view ev_name, Json context) {
  Json e = Json::object(
      {{"t", broker().executor().now().count()}, {"name", std::string(ev_name)}});
  if (context.is_object())
    for (const auto& [k, v] : context.as_object()) e[k] = v;
  rec.eventlog.push_back(std::move(e));
  kvs_->txn().put(job_key(rec.id, "eventlog"), rec.eventlog);
  schedule_flush();
}

void JobManager::stage_state(JobRecord& rec) {
  kvs_->txn().put(job_key(rec.id, "state"),
                  std::string(job_state_name(rec.state)));
  schedule_flush();
}

void JobManager::schedule_flush() {
  if (flush_scheduled_) {
    flush_rerun_ = true;
    return;
  }
  flush_scheduled_ = true;
  co_spawn(broker().executor(), flush_task(), "job-manager.flush");
}

Task<void> JobManager::flush_task() {
  // Coalesced single-writer commit loop: stages that arrive while a commit
  // is in flight fold into one follow-up commit (the watch-refresh pattern).
  do {
    flush_rerun_ = false;
    try {
      co_await kvs_->commit();
    } catch (const FluxException& e) {
      log::warn("job-manager", "kvs flush failed: ", e.what());
    }
  } while (flush_rerun_);
  flush_scheduled_ = false;
}

void JobManager::op_submit(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  if (id == 0 || !msg.payload().contains("jobspec")) {
    respond_error(msg, errc::inval, "job-manager.submit: need id and jobspec");
    return;
  }
  JobSpec spec;
  try {
    spec = JobSpec::from_json(msg.payload().at("jobspec"));
  } catch (const std::exception& e) {
    respond_error(msg, errc::job_rejected,
                  std::string("job-manager.submit: bad jobspec: ") + e.what());
    return;
  }
  if (std::cmp_greater_equal(sched_->queue_length(), max_queue_)) {
    c_rejected_.inc();
    respond_error(msg, errc::job_rejected,
                  "job-manager.submit: pending queue full");
    return;
  }
  Expected<std::uint64_t> sid =
      sched_->submit(spec.request, spec.walltime, spec.priority,
                     /*manual_completion=*/true);
  if (!sid) {
    c_rejected_.inc();
    respond_error(msg, errc::alloc_unsatisfiable,
                  "job-manager.submit: request can never fit this session");
    return;
  }

  auto rec = std::make_unique<JobRecord>();
  rec->id = id;
  rec->spec = std::move(spec);
  rec->sched_id = *sid;
  rec->submit_t = broker().executor().now();
  sched_to_job_[*sid] = id;
  JobRecord& r = *rec;
  jobs_.emplace(id, std::move(rec));

  c_submitted_.inc();
  h_depth_.record(sched_->queue_length());
  kvs_->txn().put(job_key(id, "jobspec"), r.spec.to_json());
  event(r, "submit", Json::object({{"priority", r.spec.priority},
                                   {"nnodes", r.spec.request.nnodes}}));
  stage_state(r);
  respond_ok(msg, Json::object({{"id", static_cast<std::int64_t>(id)}}));
}

void JobManager::start_job(JobRecord& rec, const Allocation& alloc) {
  rec.state = JobState::Running;
  rec.ranks = resvc_->ranks_of(alloc);
  Json ranks = Json::array();
  for (NodeId r : rec.ranks) ranks.push_back(r);
  h_alloc_ns_.record(broker().executor().now() - rec.submit_t);
  kvs_->txn().put(job_key(rec.id, "ranks"), ranks);
  event(rec, "alloc", Json::object({{"ranks", ranks}}));
  event(rec, "start", Json::object());
  stage_state(rec);
  co_spawn(broker().executor(), run(rec.id, std::move(ranks)),
           "job-manager.run");
}

Task<void> JobManager::run(std::uint64_t id, Json ranks) {
  JobRecord* rec = find(id);
  if (rec == nullptr || rec->state != JobState::Running) co_return;
  if (rec->canceled) {
    finalize(*rec, JobState::Canceled, Json::object(), 0, "canceled");
    co_return;
  }

  // Execute through wexec. Empty command means the synthetic workload: the
  // built-in "sleep" for the job's walltime.
  const bool synthetic = rec->spec.command.empty();
  const std::string cmd = synthetic ? "sleep" : rec->spec.command;
  Json args = synthetic
                  ? Json::object({{"us", rec->spec.walltime.count() / 1000}})
                  : rec->spec.args;
  const Json run_req = Json::object({{"jobid", std::to_string(id)},
                                     {"kvs_dir", job_key(id, "stdio")},
                                     {"cmd", cmd},
                                     {"args", std::move(args)},
                                     {"ranks", std::move(ranks)}});
  const TimePoint started = broker().executor().now();
  // Backstop deadline: wexec fails a run that loses a rank, but the timeout
  // guarantees this coroutine always settles.
  const Duration deadline =
      rec->spec.walltime * 2 + std::chrono::seconds(30);
  Message run_resp;
  try {
    run_resp = co_await broker().module_rpc(
        *this, Message::request("wexec.run", run_req), deadline);
  } catch (const FluxException&) {
    rec = find(id);
    if (rec != nullptr && !ended(rec->state))
      finalize(*rec, rec->canceled ? JobState::Canceled : JobState::Failed,
               Json::object(), 0, "exec_timeout");
    co_return;
  }

  rec = find(id);
  if (rec == nullptr || ended(rec->state)) co_return;  // live.down won
  h_run_ns_.record(broker().executor().now() - started);
  if (run_resp.errnum != 0) {
    const JobState terminal =
        rec->canceled ? JobState::Canceled : JobState::Failed;
    finalize(*rec, terminal, Json::object(), 0, "exec_failed");
    co_return;
  }
  const bool success = run_resp.payload().get_bool("success", false);
  Json exits = run_resp.payload().at("exits");
  const std::int64_t ntasks = run_resp.payload().get_int("ntasks", 0);
  JobState terminal = JobState::Failed;
  if (rec->canceled)
    terminal = JobState::Canceled;
  else if (success)
    terminal = JobState::Complete;
  finalize(*rec, terminal, std::move(exits), ntasks, "exit");
}

void JobManager::finalize(JobRecord& rec, JobState terminal, Json exits,
                          std::int64_t ntasks, std::string_view why) {
  if (ended(rec.state)) return;
  // A pending job is still in the scheduler's queue; a running one holds
  // nodes, which finish() returns to the pool (a down node stays out).
  if (rec.state == JobState::Pending)
    (void)sched_->cancel(rec.sched_id);
  else
    sched_->finish(rec.sched_id);
  sched_to_job_.erase(rec.sched_id);
  rec.state = terminal;
  const bool success = terminal == JobState::Complete;
  rec.result =
      Json::object({{"id", static_cast<std::int64_t>(rec.id)},
                    {"state", std::string(job_state_name(terminal))},
                    {"success", success},
                    {"exits", std::move(exits)},
                    {"ntasks", ntasks}});
  event(rec, "finish",
        Json::object({{"state", std::string(job_state_name(terminal))},
                      {"why", std::string(why)}}));
  stage_state(rec);
  kvs_->txn().put(job_key(rec.id, "result"), rec.result);
  schedule_flush();

  switch (terminal) {
    case JobState::Complete: c_completed_.inc(); break;
    case JobState::Canceled: c_canceled_.inc(); break;
    default: c_failed_.inc(); break;
  }
  for (Message& w : rec.waiters) respond_ok(w, rec.result);
  rec.waiters.clear();

  terminal_fifo_.push_back(rec.id);
  while (terminal_fifo_.size() > kTerminalKeep) {
    jobs_.erase(terminal_fifo_.front());
    terminal_fifo_.pop_front();
  }
}

Task<void> JobManager::kill_tasks(std::uint64_t id) {
  const Json req =
      Json::object({{"jobid", std::to_string(id)}, {"signum", 15}});
  try {
    Message resp = co_await broker().module_rpc(
        *this, Message::request("wexec.kill", req), std::chrono::seconds(5));
    if (resp.errnum != 0)
      log::debug("job-manager", "wexec.kill miss for job ", id);
  } catch (const FluxException&) {
    // Timeout or shutdown; the run backstop deadline reaps the job.
  }
}

void JobManager::op_cancel(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  JobRecord* rec = find(id);
  if (rec == nullptr) {
    respond_error(msg, errc::job_unknown, "job-manager.cancel: no such job");
    return;
  }
  if (!ended(rec->state)) {
    rec->canceled = true;
    event(*rec, "cancel", Json::object());
    if (rec->state == JobState::Pending)
      finalize(*rec, JobState::Canceled, Json::object(), 0, "canceled");
    else
      co_spawn(broker().executor(), kill_tasks(id), "job-manager.kill");
  }
  respond_ok(msg, Json::object(
                      {{"id", static_cast<std::int64_t>(id)},
                       {"state", std::string(job_state_name(rec->state))}}));
}

void JobManager::op_state(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  if (JobRecord* rec = find(id)) {
    respond_ok(msg,
               Json::object({{"id", static_cast<std::int64_t>(id)},
                             {"state",
                              std::string(job_state_name(rec->state))}}));
    return;
  }
  co_spawn(broker().executor(),
           answer_from_kvs(std::move(msg), id, /*want_result=*/false),
           "job-manager.state");
}

void JobManager::op_wait(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  if (JobRecord* rec = find(id)) {
    if (ended(rec->state))
      respond_ok(msg, rec->result);
    else
      rec->waiters.push_back(std::move(msg));
    return;
  }
  co_spawn(broker().executor(),
           answer_from_kvs(std::move(msg), id, /*want_result=*/true),
           "job-manager.wait");
}

Task<void> JobManager::answer_from_kvs(Message req, std::uint64_t id,
                                       bool want_result) {
  // Evicted (or pre-restart) jobs: the KVS is the system of record.
  const std::string key = job_key(id, want_result ? "result" : "state");
  try {
    Json value = co_await kvs_->get(key);
    if (want_result)
      respond_ok(req, std::move(value));
    else {
      Json out = Json::object({{"id", static_cast<std::int64_t>(id)},
                               {"state", value.as_string()}});
      respond_ok(req, std::move(out));
    }
  } catch (const FluxException&) {
    respond_error(req, errc::job_unknown, "job-manager: no such job");
  }
}

void JobManager::op_list(Message& msg) {
  if (forward_if_not_root(msg)) return;
  Json jobs = Json::array();
  for (const auto& [id, rec] : jobs_)
    jobs.push_back(Json::object(
        {{"id", static_cast<std::int64_t>(id)},
         {"state", std::string(job_state_name(rec->state))}}));
  respond_ok(msg, Json::object({{"jobs", std::move(jobs)}}));
}

void JobManager::handle_event(const Message& msg) {
  if (msg.topic != "live.down" || !broker().is_root() || !sched_) return;
  const auto rank = static_cast<NodeId>(msg.payload().get_int("rank", -1));
  // Fail every running job whose allocation includes the dead rank —
  // promptly, so its nodes return to the pool (resvc keeps the dead one
  // out) and nothing waits on tasks that can no longer finish.
  std::vector<std::uint64_t> hit;
  for (const auto& [id, rec] : jobs_)
    if (rec->state == JobState::Running &&
        std::find(rec->ranks.begin(), rec->ranks.end(), rank) !=
            rec->ranks.end())
      hit.push_back(id);
  for (std::uint64_t id : hit) {
    JobRecord* rec = find(id);
    event(*rec, "node_down",
          Json::object({{"rank", static_cast<std::int64_t>(rank)}}));
    finalize(*rec, JobState::Failed, Json::object(), 0, "node_down");
  }
}

Json JobManager::stats_json() const {
  Json j = ModuleBase::stats_json();
  if (sched_) {
    j["queue_depth"] = static_cast<std::int64_t>(sched_->queue_length());
    j["running"] = static_cast<std::int64_t>(sched_->running_count());
    j["active"] = static_cast<std::int64_t>(jobs_.size() -
                                            terminal_fifo_.size());
  }
  return j;
}

}  // namespace flux::modules
