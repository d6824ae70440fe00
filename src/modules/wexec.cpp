#include "modules/wexec.hpp"

#include <algorithm>
#include <numeric>

#include "api/handle.hpp"
#include "base/log.hpp"
#include "broker/broker.hpp"
#include "kvs/kvs_client.hpp"

namespace flux::modules {

// ---------------------------------------------------------------------------
// ProcessCtx
// ---------------------------------------------------------------------------

ProcessCtx::ProcessCtx(Broker& broker, std::string jobid, Json args)
    : broker_(broker),
      jobid_(std::move(jobid)),
      args_(std::move(args)),
      handle_(std::make_unique<Handle>(broker)),
      kvs_(std::make_unique<KvsClient>(*handle_)) {}

ProcessCtx::~ProcessCtx() = default;

NodeId ProcessCtx::rank() const noexcept { return broker_.rank(); }
Executor& ProcessCtx::executor() noexcept { return broker_.executor(); }
SleepAwaiter ProcessCtx::sleep(Duration d) {
  return sleep_for(broker_.executor(), d);
}

// ---------------------------------------------------------------------------
// CommandRegistry (built-ins stand in for Linux binaries)
// ---------------------------------------------------------------------------

CommandRegistry& CommandRegistry::instance() {
  static CommandRegistry registry;
  return registry;
}

void CommandRegistry::add(std::string cmd_name, Command fn) {
  commands_.insert_or_assign(std::move(cmd_name), std::move(fn));
}

const Command* CommandRegistry::find(std::string_view cmd_name) const {
  auto it = commands_.find(cmd_name);
  return it == commands_.end() ? nullptr : &it->second;
}

std::vector<std::string> CommandRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(commands_.size());
  for (const auto& [cmd_name, fn] : commands_) out.push_back(cmd_name);
  return out;
}

CommandRegistry::CommandRegistry() {
  add("hostname", [](ProcessCtx& p) -> Task<int> {
    p.out("node" + std::to_string(p.rank()));
    co_return 0;
  });
  add("echo", [](ProcessCtx& p) -> Task<int> {
    p.out(p.args().get_string("text", ""));
    co_return 0;
  });
  add("sleep", [](ProcessCtx& p) -> Task<int> {
    const auto us = p.args().get_int("us", 1000);
    co_await p.sleep(std::chrono::microseconds(us));
    co_return p.killed() ? 128 + p.signum() : 0;
  });
  add("spin", [](ProcessCtx& p) -> Task<int> {
    // Runs until signalled (bounded backstop so a lost kill cannot wedge a
    // simulation; ~1s of virtual time).
    for (int i = 0; i < 10000 && !p.killed(); ++i)
      co_await p.sleep(std::chrono::microseconds(100));
    co_return p.killed() ? 128 + p.signum() : 1;
  });
  add("exit", [](ProcessCtx& p) -> Task<int> {
    co_return static_cast<int>(p.args().get_int("code", 0));
  });
  add("kvsput", [](ProcessCtx& p) -> Task<int> {
    const std::string key = p.args().get_string("key");
    if (key.empty()) {
      p.err("kvsput: missing key");
      co_return 1;
    }
    co_await p.kvs().put(key, p.args().at("value"));
    co_await p.kvs().commit();
    p.out("stored " + key);
    co_return 0;
  });
}

// ---------------------------------------------------------------------------
// Wexec module
// ---------------------------------------------------------------------------

namespace {

// The run's target ranks: `ranks` when present, else every rank. Empty when
// `ranks` is not a list of distinct integer ranks below `size`: a rank out
// of range or not an integer never runs, and a duplicate is counted twice but
// spawned once, so each would leave the run unanswered.
std::vector<NodeId> target_ranks(const Json& ranks, std::uint32_t size) {
  std::vector<NodeId> out;
  if (ranks.is_null()) {
    out.resize(size);
    std::iota(out.begin(), out.end(), NodeId{0});
    return out;
  }
  if (!ranks.is_array()) return out;
  std::vector<bool> seen(size);
  for (const Json& r : ranks.as_array()) {
    if (!r.is_int() || r.as_int() < 0 || r.as_int() >= size) return {};
    const auto rank = static_cast<NodeId>(r.as_int());
    if (seen[rank]) return {};
    seen[rank] = true;
    out.push_back(rank);
  }
  return out;
}

}  // namespace

Wexec::Wexec(Broker& b) : Module(b) {
  on("run", [this](Message& m) { op_run(m); });
  on("kill", [this](Message& m) { op_kill(m); });
  on("complete", [this](Message& m) { op_complete(m); });
  on("ps", [this](Message& m) {
    Json names = Json::array();
    for (const auto& [jobid, proc] : procs_) names.push_back(jobid);
    respond_ok(m, Json::object({{"rank", broker().rank()},
                                {"running", std::move(names)}}));
  });
  on("exec", [this](Message& m) {
    co_spawn(broker().executor(),
             run_task(m.payload().get_string("jobid"),
                      m.payload().get_string("kvs_dir"),
                      m.payload().get_string("cmd"), m.payload().at("args"),
                      m.payload().get_int("ntasks", 1)),
             "wexec.task");
  });
  on("signal", [this](Message& m) {
    const int signum = static_cast<int>(m.payload().get_int("signum", 15));
    auto [lo, hi] = procs_.equal_range(m.payload().get_string("jobid"));
    for (auto it = lo; it != hi; ++it) it->second.ctx->deliver_signal(signum);
  });
  broker().module_subscribe(*this, "live.down");
}

void Wexec::op_run(Message& msg) {
  // Coordination happens at the root: forward until we are it.
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  const std::string jobid = msg.payload().get_string("jobid");
  const std::string cmd = msg.payload().get_string("cmd");
  const std::string kvs_dir = msg.payload().get_string("kvs_dir");
  if (jobid.empty() || cmd.empty() || kvs_dir.empty()) {
    respond_error(msg, errc::inval, "wexec.run: need jobid, cmd and kvs_dir");
    return;
  }
  if (jobs_.contains(jobid)) {
    respond_error(msg, errc::exist, "wexec.run: jobid in use");
    return;
  }
  std::vector<NodeId> ranks =
      target_ranks(msg.payload().at("ranks"), broker().size());
  if (ranks.empty()) {
    respond_error(msg, errc::inval,
                  "wexec.run: ranks must be a non-empty list of distinct ranks "
                  "below " + std::to_string(broker().size()));
    return;
  }
  // An exec sent to a rank already declared dead is lost, and nothing would
  // answer the run.
  for (NodeId r : ranks)
    if (broker().dead_ranks().contains(r)) {
      respond_error(msg, errc::host_down,
                    "wexec.run: rank " + std::to_string(r) + " is down");
      return;
    }
  const auto ntasks = static_cast<std::int64_t>(ranks.size());
  Job& job = jobs_[jobid];
  job.ranks = std::move(ranks);
  job.waiters.push_back(msg);
  // One point-to-point request per target; the root's own rank dispatches
  // in-process.
  const Message exec = Message::request(
      "wexec.exec", Json::object({{"jobid", jobid},
                                  {"kvs_dir", kvs_dir},
                                  {"cmd", cmd},
                                  {"args", msg.payload().at("args")},
                                  {"ntasks", ntasks}}));
  for (NodeId r : job.ranks) broker().forward_direct(r, exec);
}

void Wexec::op_kill(Message& msg) {
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  const std::string jobid = msg.payload().get_string("jobid");
  if (jobid.empty()) {
    respond_error(msg, errc::inval, "wexec.kill: need jobid");
    return;
  }
  // A finished (or unknown) job has no tasks left to signal.
  if (auto it = jobs_.find(jobid); it != jobs_.end())
    send_signal(jobid, it->second.ranks,
                static_cast<int>(msg.payload().get_int("signum", 15)));
  respond_ok(msg);
}

void Wexec::send_signal(const std::string& jobid,
                        const std::vector<NodeId>& ranks, int signum) {
  const Message sig = Message::request(
      "wexec.signal", Json::object({{"jobid", jobid}, {"signum", signum}}));
  for (NodeId r : ranks) broker().forward_direct(r, sig);
}

void Wexec::handle_event(const Message& msg) {
  if (msg.topic == "live.down")
    fail_runs_on(static_cast<NodeId>(msg.payload().get_int("rank", -1)));
}

void Wexec::on_fail() {
  for (auto& [jobid, proc] : procs_) proc.ctx->deliver_signal(9);
}

void Wexec::fail_runs_on(NodeId rank) {
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    const std::vector<NodeId>& ranks = it->second.ranks;
    if (std::find(ranks.begin(), ranks.end(), rank) == ranks.end()) {
      ++it;
      continue;
    }
    for (const Message& waiter : it->second.waiters)
      respond_error(waiter, errc::host_down,
                    "wexec.run: rank " + std::to_string(rank) + " died");
    send_signal(it->first, ranks, 9);
    it = jobs_.erase(it);
  }
}

Task<void> Wexec::run_task(std::string jobid, std::string kvs_dir,
                           std::string cmd, Json args, std::int64_t ntasks) {
  auto ctx = std::make_shared<ProcessCtx>(broker(), jobid, std::move(args));
  auto proc_it = procs_.emplace(jobid, Proc{ctx});

  int exit_code = 127;
  const Command* command = CommandRegistry::instance().find(cmd);
  if (command == nullptr) {
    ctx->err("wexec: command not found: " + cmd);
  } else {
    try {
      exit_code = co_await (*command)(*ctx);
    } catch (const std::exception& e) {
      ctx->err(std::string("wexec: command crashed: ") + e.what());
      exit_code = 139;  // as if SIGSEGV
    }
  }

  if (broker().failed()) {  // a dead node captures and reports nothing
    procs_.erase(proc_it);
    co_return;
  }

  // Standard I/O and exit status are "captured in the KVS" under the
  // caller's capture directory, committed collectively so the whole job
  // becomes visible in one root update.
  const std::string base = kvs_dir + "." + std::to_string(broker().rank());
  Json out_lines = Json::array(), err_lines = Json::array();
  for (const auto& line : ctx->captured_stdout()) out_lines.push_back(line);
  for (const auto& line : ctx->captured_stderr()) err_lines.push_back(line);
  try {
    co_await ctx->kvs().put(base + ".stdout", std::move(out_lines));
    co_await ctx->kvs().put(base + ".stderr", std::move(err_lines));
    co_await ctx->kvs().put(base + ".exitcode", exit_code);
    co_await ctx->kvs().fence("wexec." + jobid, ntasks);
  } catch (const FluxException& e) {
    log::error("wexec", "kvs capture failed for ", jobid, ": ", e.what());
  }

  procs_.erase(proc_it);
  report_complete(jobid, exit_code);
}

void Wexec::report_complete(const std::string& jobid, int exit_code) {
  PendingComplete& pc = pending_complete_[jobid];
  pc.count += 1;
  pc.exits[std::to_string(exit_code)] += 1;
  if (pc.scheduled) return;
  pc.scheduled = true;
  broker().executor().post([this, jobid] { flush_complete(jobid); });
}

void Wexec::op_complete(Message& msg) {
  const std::string jobid = msg.payload().get_string("jobid");
  PendingComplete& pc = pending_complete_[jobid];
  pc.count += msg.payload().get_int("count", 0);
  for (const auto& [code, n] : msg.payload().at("exits").as_object())
    pc.exits[code] += n.as_int();
  if (pc.scheduled) return;
  pc.scheduled = true;
  broker().executor().post([this, jobid] { flush_complete(jobid); });
}

void Wexec::flush_complete(const std::string& jobid) {
  auto it = pending_complete_.find(jobid);
  if (it == pending_complete_.end()) return;
  PendingComplete& pc = it->second;
  pc.scheduled = false;
  if (pc.count == 0) return;

  if (!broker().is_root()) {
    Json exits = Json::object();
    for (const auto& [code, n] : pc.exits) exits[code] = n;
    Message reduce = Message::request(
        "wexec.complete", Json::object({{"jobid", jobid},
                                        {"count", pc.count},
                                        {"exits", std::move(exits)}}));
    pending_complete_.erase(it);
    broker().forward_upstream(std::move(reduce));
    return;
  }

  auto job_it = jobs_.find(jobid);
  if (job_it == jobs_.end()) {
    // Expected for a run failed by live.down; its survivors report late.
    log::debug("wexec", "completion for unknown job ", jobid);
    pending_complete_.erase(it);
    return;
  }
  Job& job = job_it->second;
  job.completed += pc.count;
  for (const auto& [code, n] : pc.exits) job.exits[code] += n;
  pending_complete_.erase(it);
  const auto ntasks = static_cast<std::int64_t>(job.ranks.size());
  if (job.completed < ntasks) return;

  Json exits = Json::object();
  for (const auto& [code, n] : job.exits) exits[code] = n;
  const bool success = job.exits.size() == 1 && job.exits.contains("0");
  for (const Message& waiter : job.waiters)
    broker().respond(waiter.respond(Json::object({{"jobid", jobid},
                                                  {"ntasks", ntasks},
                                                  {"success", success},
                                                  {"exits", exits}})));
  jobs_.erase(job_it);
}

}  // namespace flux::modules
