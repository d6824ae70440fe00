#include "modules/wexec.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "api/handle.hpp"
#include "base/log.hpp"
#include "broker/broker.hpp"
#include "kvs/kvs_client.hpp"

namespace flux::modules {

// ---------------------------------------------------------------------------
// ProcessCtx
// ---------------------------------------------------------------------------

ProcessCtx::ProcessCtx(Broker& broker, Json args)
    : broker_(broker), args_(std::move(args)) {}

ProcessCtx::~ProcessCtx() = default;

NodeId ProcessCtx::rank() const noexcept { return broker_.rank(); }

KvsClient& ProcessCtx::kvs() {
  if (!kvs_) {
    handle_ = std::make_unique<Handle>(broker_);
    kvs_ = std::make_unique<KvsClient>(*handle_);
  }
  return *kvs_;
}

namespace {

// One-shot resume: a ThreadExecutor cannot cancel a timer, so the timer that
// a signal beat must find the task already resumed (and maybe gone).
void resume_once(std::coroutine_handle<>& h) {
  if (h) std::exchange(h, {}).resume();
}

}  // namespace

void ProcessCtx::arm_sleep(std::coroutine_handle<> h, Duration d) {
  sleeping_ = std::make_shared<std::coroutine_handle<>>(h);
  timer_ = broker_.executor().post_cancelable_after(
      d, [w = sleeping_] { resume_once(*w); });
}

void ProcessCtx::deliver_signal(int signum) {
  signum_ = signum;
  if (!sleeping_ || !*sleeping_) return;
  broker_.executor().cancel(timer_);
  broker_.executor().post([w = std::move(sleeping_)] { resume_once(*w); });
}

Json ProcessCtx::take_capture(int exit_code) {
  Json capture = Json::object({{"exitcode", exit_code}});
  capture["stdout"] = std::move(stdout_);
  capture["stderr"] = std::move(stderr_);
  return capture;
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
    // simulation; 1 s of virtual time).
    co_await p.sleep(std::chrono::seconds(1));
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
  on("complete", [this](Message& m) {
    report_complete(m.payload().get_string("jobid"), m.payload().at("stdio"));
  });
  on("ps", [this](Message& m) {
    Json names = Json::array();
    for (const auto& [jobid, proc] : procs_) names.push_back(jobid);
    respond_ok(m, Json::object({{"rank", broker().rank()},
                                {"running", std::move(names)}}));
  });
  on("exec", [this](Message& m) {
    co_spawn(broker().executor(),
             run_task(m.payload().get_string("jobid"),
                      m.payload().get_string("cmd"), m.payload().at("args")),
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
  if (jobid.empty() || cmd.empty()) {
    respond_error(msg, errc::inval, "wexec.run: need jobid and cmd");
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
  Job& job = jobs_[jobid];
  job.ranks = std::move(ranks);
  job.waiters.push_back(msg);
  // One point-to-point request per target; the root's own rank dispatches
  // in-process.
  const Message exec = Message::request(
      "wexec.exec", Json::object({{"jobid", jobid},
                                  {"cmd", cmd},
                                  {"args", msg.payload().at("args")}}));
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

Task<void> Wexec::run_task(std::string jobid, std::string cmd, Json args) {
  auto ctx = std::make_shared<ProcessCtx>(broker(), std::move(args));
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
  procs_.erase(proc_it);
  if (broker().failed()) co_return;  // a dead node reports nothing

  // Standard I/O and exit status ride the exit-status reduction to the
  // root, which answers the run with every rank's capture.
  Json stdio = Json::object();
  stdio[std::to_string(broker().rank())] = ctx->take_capture(exit_code);
  report_complete(jobid, stdio);
}

void Wexec::report_complete(const std::string& jobid, const Json& stdio) {
  auto [it, fresh] = pending_complete_.try_emplace(jobid, Json::object());
  for (const auto& [rank, capture] : stdio.as_object())
    it->second[rank] = capture;
  if (fresh) broker().executor().post([this, jobid] { flush_complete(jobid); });
}

void Wexec::flush_complete(const std::string& jobid) {
  auto it = pending_complete_.find(jobid);
  if (it == pending_complete_.end()) return;
  Json stdio = std::move(it->second);
  pending_complete_.erase(it);

  if (!broker().is_root()) {
    broker().forward_upstream(Message::request(
        "wexec.complete",
        Json::object({{"jobid", jobid}, {"stdio", std::move(stdio)}})));
    return;
  }

  auto job_it = jobs_.find(jobid);
  if (job_it == jobs_.end()) {
    // Expected for a run failed by live.down; its survivors report late.
    log::debug("wexec", "completion for unknown job ", jobid);
    return;
  }
  Job& job = job_it->second;
  for (auto& [rank, capture] : stdio.as_object())
    job.stdio[rank] = std::move(capture);
  if (job.stdio.size() < job.ranks.size()) return;

  Json exits = Json::object();  // exit code -> tasks
  for (const auto& [rank, capture] : job.stdio.as_object()) {
    const std::string code = std::to_string(capture.get_int("exitcode"));
    exits[code] = exits.get_int(code) + 1;
  }
  const bool success = exits.size() == 1 && exits.contains("0");
  Json resp =
      Json::object({{"jobid", jobid},
                    {"ntasks", static_cast<std::int64_t>(job.stdio.size())},
                    {"success", success}});
  resp["exits"] = std::move(exits);
  resp["stdio"] = std::move(job.stdio);
  for (const Message& waiter : job.waiters)
    broker().respond(waiter.respond(resp));
  jobs_.erase(job_it);
}

}  // namespace flux::modules
