#include "modules/job_manager.hpp"

#include <algorithm>
#include <cmath>
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

JobManager::JobManager(Broker& b) : Module(b) {
  on("submit", [this](Message& m) { op_submit(m); });
  on("cancel", [this](Message& m) { op_cancel(m); });
  on("state", [this](Message& m) { op_state(m); });
  on("wait", [this](Message& m) { op_wait(m); });
  on("list", [this](Message& m) { op_list(m); });
  on("grow", [this](Message& m) { op_resize(m, /*growing=*/true); });
  on("shrink", [this](Message& m) { op_resize(m, /*growing=*/false); });
  on("power_cap", [this](Message& m) { op_power_cap(m); });
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
  root_.pool = &resvc_->pool();
  build_level(root_, cfg.get_string("policy", "fcfs"));
  // Nodes a direct resvc.free returns may unblock a queued job.
  resvc_->on_free([this] {
    if (root_.sched->queue_length() > 0) root_.sched->kick();
  });
  handle_ = std::make_unique<Handle>(broker());
  kvs_ = std::make_unique<KvsClient>(*handle_);
}

void JobManager::build_level(Level& lv, std::string_view policy) {
  lv.sched = std::make_unique<Scheduler>(broker().executor(), *lv.pool,
                                         make_policy(policy), sched_stats_);
  lv.sched->on_start([this](std::uint64_t id, const Allocation& alloc) {
    if (JobRecord* rec = find(id)) start_job(*rec, alloc);
  });
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

JobManager::Level& JobManager::level_of(const JobRecord& rec) {
  // A subjob never outlives its instance's level: the instance ends only
  // after every subjob has.
  return rec.parent == 0 ? root_ : *find(rec.parent)->child;
}

Json JobManager::pool_json(const Level& lv) {
  const ResourcePool& p = *lv.pool;
  return Json::object({{"nodes", p.total_nodes()},
                       {"free", p.free_nodes()},
                       {"down", p.down_nodes()},
                       {"power_budget_w", p.power_budget()},
                       {"power_in_use_w", p.power_in_use()},
                       {"io_bw_budget_gbs", p.io_bw_budget()},
                       {"io_bw_in_use_gbs", p.io_bw_in_use()},
                       {"policy", std::string(lv.sched->policy().name())}});
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

Json JobManager::stage_ranks(JobRecord& rec) {
  Json ranks = Json::array();
  for (NodeId r : rec.ranks) ranks.push_back(r);
  kvs_->txn().put(job_key(rec.id, "ranks"), ranks);
  schedule_flush();
  return ranks;
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
    // This commit carries the terminal records of the jobs ended since.
    const std::vector<std::uint64_t> ending = std::exchange(uncommitted_, {});
    std::uint64_t version = 0;
    try {
      version = (co_await kvs_->commit()).version;
    } catch (const FluxException& e) {
      log::warn("job-manager", "kvs flush failed: ", e.what());
    }
    for (std::uint64_t id : ending) settle(*find(id), version);
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
  Level* lv = &root_;
  const auto parent = static_cast<std::uint64_t>(
      msg.payload().get_int("parent", 0));
  if (parent != 0) {
    JobRecord* p = find(parent);
    if (p == nullptr || !p->child || p->canceled) {
      c_rejected_.inc();
      respond_error(msg, errc::job_rejected,
                    "job-manager.submit: parent is not a running instance");
      return;
    }
    lv = p->child.get();
  }
  if (spec.type == JobType::Instance && !known_policy(spec.child_policy)) {
    c_rejected_.inc();
    respond_error(msg, errc::job_rejected,
                  "job-manager.submit: unknown child_policy");
    return;
  }
  if (std::cmp_greater_equal(lv->sched->queue_length(), max_queue_)) {
    c_rejected_.inc();
    respond_error(msg, errc::job_rejected,
                  "job-manager.submit: pending queue full");
    return;
  }
  if (!lv->sched->submit(id, spec.request, spec.walltime, spec.priority)) {
    c_rejected_.inc();
    respond_error(msg, errc::alloc_unsatisfiable,
                  parent == 0
                      ? "job-manager.submit: request can never fit this session"
                      : "job-manager.submit: request can never fit the "
                        "parent instance");
    return;
  }

  auto rec = std::make_unique<JobRecord>();
  rec->id = id;
  rec->parent = parent;
  rec->spec = std::move(spec);
  rec->submit_t = broker().executor().now();
  JobRecord& r = *rec;
  jobs_.emplace(id, std::move(rec));

  c_submitted_.inc();
  h_depth_.record(lv->sched->queue_length());
  kvs_->txn().put(job_key(id, "jobspec"), r.spec.to_json());
  Json context = Json::object({{"priority", r.spec.priority},
                               {"nnodes", r.spec.request.nnodes}});
  if (parent != 0) context["parent"] = static_cast<std::int64_t>(parent);
  event(r, "submit", std::move(context));
  stage_state(r);
  respond_ok(msg, Json::object({{"id", static_cast<std::int64_t>(id)}}));
}

void JobManager::start_job(JobRecord& rec, const Allocation& alloc) {
  rec.state = JobState::Running;
  rec.alloc_id = alloc.id;
  rec.ranks = resvc_->ranks_of(alloc);
  h_alloc_ns_.record(broker().executor().now() - rec.submit_t);
  Json ranks = stage_ranks(rec);
  event(rec, "alloc", Json::object({{"ranks", ranks}}));
  event(rec, "start", Json::object());
  stage_state(rec);
  if (rec.spec.type == JobType::Instance) {
    start_instance(rec, alloc);
    return;
  }
  co_spawn(broker().executor(), run(rec.id, std::move(ranks)),
           "job-manager.run");
}

void JobManager::start_instance(JobRecord& rec, const Allocation& alloc) {
  // Parent bounding: the child level's pool is exactly this allocation.
  double power = rec.spec.child_power_budget_w;
  if (power <= 0) power = alloc.power_w;
  if (power <= 0)
    for (ResourceId n : alloc.nodes)
      power += resvc_->pool().graph().total_capacity("power", n);
  rec.child = std::make_unique<Level>();
  rec.child->owned = std::make_unique<ResourcePool>(
      resvc_->pool().graph(), alloc.nodes, power, alloc.io_bw_gbs);
  rec.child->pool = rec.child->owned.get();
  build_level(*rec.child, rec.spec.child_policy);
  for (const JobSpec& sub : rec.spec.subjobs) {
    ++rec.submits_in_flight;
    co_spawn(broker().executor(), submit_subjob(rec.id, sub),
             "job-manager.subjob");
  }
  maybe_end_instance(rec.id);  // an instance with no subjobs ends at once
}

Task<void> JobManager::submit_subjob(std::uint64_t parent, JobSpec sub) {
  // Through job.submit like any client: job-ingest validates and assigns
  // the jobid, and the submit lands back here in the instance's level. An
  // accepted subjob names its parent in its own submit event; only a
  // refusal is logged on the instance (its eventlog stays small).
  const Json req =
      Json::object({{"jobspec", sub.to_json()},
                    {"parent", static_cast<std::int64_t>(parent)}});
  std::string refused;
  try {
    Message resp = co_await broker().rpc(
        origin(), Message::request("job.submit", req), std::chrono::seconds(5));
    if (resp.errnum != 0) refused = resp.payload().get_string("errmsg");
  } catch (const FluxException& e) {
    refused = e.what();
  }
  JobRecord* rec = find(parent);
  if (rec == nullptr || ended(rec->state)) co_return;
  --rec->submits_in_flight;
  if (!refused.empty())
    event(*rec, "subjob_rejected",
          Json::object({{"jobname", sub.name}, {"error", refused}}));
  maybe_end_instance(parent);
}

void JobManager::maybe_end_instance(std::uint64_t id) {
  // Posted: the caller may be inside a pass of a scheduler this ends.
  broker().executor().post([this, id, tok = std::weak_ptr<const bool>(alive_)] {
    if (tok.expired()) return;
    JobRecord* rec = find(id);
    if (rec == nullptr || rec->state != JobState::Running || !rec->child ||
        rec->submits_in_flight > 0 || !rec->child->sched->idle())
      return;
    if (rec->canceled)
      finalize(*rec, JobState::Canceled, Json::object(), 0, "canceled");
    else
      finalize(*rec, JobState::Complete, Json::object(), 0, "drained");
  });
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
    run_resp = co_await broker().rpc(
        origin(), Message::request("wexec.run", run_req), deadline);
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
  // The capture joins the txn that carries the finish event, state and
  // result: one commit makes the whole terminal record visible.
  const std::string stdio_dir = job_key(id, "stdio") + ".";
  for (const auto& [rank, capture] : run_resp.payload().at("stdio").as_object())
    for (const char* leaf : {"stdout", "stderr", "exitcode"})
      kvs_->txn().put(stdio_dir + rank + "." + leaf, capture.at(leaf));
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
  Level& lv = level_of(rec);
  if (rec.state == JobState::Pending)
    (void)lv.sched->cancel(rec.id);
  else
    lv.sched->finish(rec.id);
  rec.child.reset();  // an ending instance's level is idle
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
  uncommitted_.push_back(rec.id);
  if (rec.parent != 0) maybe_end_instance(rec.parent);
}

void JobManager::settle(JobRecord& rec, std::uint64_t version) {
  rec.result["version"] = static_cast<std::int64_t>(version);
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
    Message resp = co_await broker().rpc(
        origin(), Message::request("wexec.kill", req), std::chrono::seconds(5));
    if (resp.errnum != 0)
      log::debug("job-manager", "wexec.kill miss for job ", id);
  } catch (const FluxException&) {
    // Timeout or shutdown; the run backstop deadline reaps the job.
  }
}

void JobManager::cancel(JobRecord& rec) {
  if (ended(rec.state)) return;
  rec.canceled = true;
  event(rec, "cancel", Json::object());
  if (rec.state == JobState::Pending) {
    finalize(rec, JobState::Canceled, Json::object(), 0, "canceled");
    return;
  }
  if (!rec.child) {
    co_spawn(broker().executor(), kill_tasks(rec.id), "job-manager.kill");
    return;
  }
  // An instance cancels its subjobs and ends after the last of them.
  std::vector<std::uint64_t> subjobs;
  for (const auto& [id, r] : jobs_)
    if (r->parent == rec.id && !ended(r->state)) subjobs.push_back(id);
  for (std::uint64_t id : subjobs)
    if (JobRecord* sub = find(id)) cancel(*sub);
  maybe_end_instance(rec.id);
}

void JobManager::op_cancel(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  JobRecord* rec = find(id);
  if (rec == nullptr) {
    respond_error(msg, errc::job_unknown, "job-manager.cancel: no such job");
    return;
  }
  cancel(*rec);
  respond_ok(msg, Json::object(
                      {{"id", static_cast<std::int64_t>(id)},
                       {"state", std::string(job_state_name(rec->state))}}));
}

void JobManager::op_state(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  if (JobRecord* rec = find(id)) {
    Json out =
        Json::object({{"id", static_cast<std::int64_t>(id)},
                      {"state", std::string(job_state_name(rec->state))}});
    if (rec->parent != 0)
      out["parent"] = static_cast<std::int64_t>(rec->parent);
    if (rec->child) out["pool"] = pool_json(*rec->child);
    respond_ok(msg, std::move(out));
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
    if (rec->result.contains("version"))  // settled
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
    if (want_result) {
      value["version"] =
          static_cast<std::int64_t>(co_await kvs_->get_version());
      respond_ok(req, std::move(value));
    } else {
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
  for (const auto& [id, rec] : jobs_) {
    Json j = Json::object({{"id", static_cast<std::int64_t>(id)},
                           {"state", std::string(job_state_name(rec->state))}});
    if (rec->parent != 0) j["parent"] = static_cast<std::int64_t>(rec->parent);
    jobs.push_back(std::move(j));
  }
  respond_ok(msg, Json::object({{"jobs", std::move(jobs)}}));
}

void JobManager::handle_event(const Message& msg) {
  if (msg.topic != "live.down" || !broker().is_root() || !root_.sched) return;
  const auto rank = static_cast<NodeId>(msg.payload().get_int("rank", -1));
  if (rank >= broker().size()) return;
  // Fail every running app job whose allocation includes the dead rank —
  // promptly, so its nodes return to the pool (resvc keeps the dead one
  // out) and nothing waits on tasks that can no longer finish. An instance
  // holding the node marks it down in its own pool and runs on.
  const ResourceId node = resvc_->node_of(rank);
  const Json context =
      Json::object({{"rank", static_cast<std::int64_t>(rank)}});
  std::vector<std::uint64_t> hit;
  for (const auto& [id, rec] : jobs_) {
    if (rec->state != JobState::Running) continue;
    if (rec->child) {
      if (rec->child->pool->mark_down(node)) event(*rec, "node_down", context);
    } else if (std::find(rec->ranks.begin(), rec->ranks.end(), rank) !=
               rec->ranks.end()) {
      hit.push_back(id);
    }
  }
  for (std::uint64_t id : hit) {
    JobRecord* rec = find(id);
    event(*rec, "node_down", context);
    finalize(*rec, JobState::Failed, Json::object(), 0, "node_down");
  }
  // A down node never returns, so a pending job wider than its level's
  // survivors would wait forever (and hold its instance open): fail it.
  // resvc, loaded first, has already marked the node down in the session
  // pool, and the loop above in every instance pool holding it.
  std::vector<std::uint64_t> stuck;
  for (const auto& [id, rec] : jobs_)
    if (rec->state == JobState::Pending &&
        !level_of(*rec).pool->feasible(rec->spec.request))
      stuck.push_back(id);
  for (std::uint64_t id : stuck)
    finalize(*find(id), JobState::Failed, Json::object(), 0, "unsatisfiable");
}

JobManager::JobRecord* JobManager::running_instance(Message& msg) {
  const auto id = static_cast<std::uint64_t>(msg.payload().get_int("id", 0));
  JobRecord* rec = find(id);
  if (rec == nullptr || !rec->child) {
    respond_error(msg, errc::inval,
                  "job-manager: " + std::to_string(id) +
                      " is not a running instance");
    return nullptr;
  }
  return rec;
}

void JobManager::op_resize(Message& msg, bool growing) {
  if (forward_if_not_root(msg)) return;
  if (growing && msg.payload().get_int("id", 0) == 0) {
    respond_error(msg, errc::perm,
                  "job-manager.grow: the session has no parent to ask");
    return;
  }
  JobRecord* rec = running_instance(msg);
  if (rec == nullptr) return;
  ResourceRequest delta;
  delta.nnodes = msg.payload().get_int("nnodes", 0);
  delta.power_w = msg.payload().get_double("power_w", 0);
  delta.io_bw_gbs = msg.payload().get_double("io_bw_gbs", 0);
  if (delta.nnodes < 0 || !std::isfinite(delta.power_w) ||
      delta.power_w < 0 || !std::isfinite(delta.io_bw_gbs) ||
      delta.io_bw_gbs < 0) {
    respond_error(msg, errc::inval, "job-manager: bad grow/shrink amounts");
    return;
  }
  if (Status st = growing ? grow(*rec, delta) : shrink(*rec, delta); !st) {
    respond_error(msg, st.error().code, st.error().to_string());
    return;
  }
  respond_ok(msg, pool_json(*rec->child));
}

void JobManager::op_power_cap(Message& msg) {
  if (forward_if_not_root(msg)) return;
  const double watts = msg.payload().get_double("watts", -1);
  if (!std::isfinite(watts) || watts < 0) {
    respond_error(msg, errc::inval, "job-manager.power_cap: need watts >= 0");
    return;
  }
  Level* lv = &root_;
  if (msg.payload().contains("id")) {
    JobRecord* rec = running_instance(msg);
    if (rec == nullptr) return;
    lv = rec->child.get();
  }
  power_cap(*lv, watts);
  respond_ok(msg, pool_json(*lv));
}

Status JobManager::grow(JobRecord& inst, const ResourceRequest& delta) {
  // Parental consent: the parent level grants from its own pool, asking
  // *its* parent when it cannot (constraint aggregation up the hierarchy,
  // §III).
  Level& lv = level_of(inst);
  auto granted = lv.pool->grow(inst.alloc_id, delta);
  if (!granted) {
    if (inst.parent == 0) return granted.error();
    if (auto st = grow(*find(inst.parent), delta); !st) return st;
    granted = lv.pool->grow(inst.alloc_id, delta);
    if (!granted) return granted.error();
  }
  inst.child->pool->adopt(*granted, delta.power_w, delta.io_bw_gbs);
  inst.ranks = resvc_->ranks_of(*lv.pool->lookup(inst.alloc_id));
  stage_ranks(inst);
  event(inst, "grow", Json::object({{"nnodes", delta.nnodes},
                                    {"power_w", delta.power_w},
                                    {"io_bw_gbs", delta.io_bw_gbs}}));
  inst.child->sched->kick();
  return {};
}

Status JobManager::shrink(JobRecord& inst, const ResourceRequest& delta) {
  Level& lv = level_of(inst);
  auto freed = inst.child->pool->cede(delta);
  if (!freed) return freed.error();
  if (auto st = lv.pool->shrink_nodes(inst.alloc_id, *freed, delta.power_w,
                                      delta.io_bw_gbs);
      !st)
    return st;
  inst.ranks = resvc_->ranks_of(*lv.pool->lookup(inst.alloc_id));
  stage_ranks(inst);
  event(inst, "shrink", Json::object({{"nnodes", delta.nnodes},
                                      {"power_w", delta.power_w},
                                      {"io_bw_gbs", delta.io_bw_gbs}}));
  lv.sched->kick();
  return {};
}

void JobManager::power_cap(Level& lv, double watts) {
  lv.pool->set_power_budget(watts);
  if (!lv.pool->over_power_budget()) return;
  double excess = lv.pool->power_in_use() - watts;
  std::vector<JobRecord*> running;
  for (const auto& [id, rec] : jobs_)
    if (rec->state == JobState::Running && &level_of(*rec) == &lv)
      running.push_back(rec.get());

  // Shed 1: shrink malleable running jobs' power proportionally.
  double malleable_power = 0;
  for (JobRecord* rec : running)
    if (const Allocation* a = lv.pool->lookup(rec->alloc_id);
        a != nullptr && rec->spec.malleable)
      malleable_power += a->power_w;
  if (malleable_power > 0) {
    const double ratio = std::min(1.0, excess / malleable_power);
    for (JobRecord* rec : running) {
      const Allocation* a = lv.pool->lookup(rec->alloc_id);
      if (a == nullptr || !rec->spec.malleable || a->power_w <= 0) continue;
      ResourceRequest shed;
      shed.nnodes = 0;
      shed.power_w = a->power_w * ratio;
      (void)lv.pool->shrink(a->id, shed);
      excess -= shed.power_w;
    }
  }

  // Shed 2: cap child levels proportionally to their budgets. The child's
  // allocation in this pool shrinks by the same amount, so this level's
  // books reflect the shed immediately.
  if (excess <= 1e-9) return;
  double child_power = 0;
  for (JobRecord* rec : running)
    if (rec->child) child_power += rec->child->pool->power_budget();
  if (child_power <= 0) return;
  const double scale = std::max(0.0, (child_power - excess) / child_power);
  for (JobRecord* rec : running) {
    if (!rec->child) continue;
    const double old_budget = rec->child->pool->power_budget();
    const double new_budget = old_budget * scale;
    power_cap(*rec->child, new_budget);
    if (const Allocation* a = lv.pool->lookup(rec->alloc_id)) {
      ResourceRequest shed;
      shed.nnodes = 0;
      shed.power_w = std::min(a->power_w, old_budget - new_budget);
      if (shed.power_w > 0) (void)lv.pool->shrink(a->id, shed);
    }
  }
}

Json JobManager::stats_json() const {
  Json j = Module::stats_json();
  if (root_.sched) {
    j["queue_depth"] = static_cast<std::int64_t>(root_.sched->queue_length());
    j["running"] = static_cast<std::int64_t>(root_.sched->running_count());
    j["active"] = static_cast<std::int64_t>(
        jobs_.size() - terminal_fifo_.size() - uncommitted_.size());
  }
  return j;
}

}  // namespace flux::modules
