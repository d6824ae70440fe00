// wexec: "Remote processes can be launched in bulk, monitored, receive
// signals, and have standard I/O captured in the KVS." (Table I)
//
// Substitution (see DESIGN.md): instead of fork/exec of Linux binaries,
// processes are coroutine tasks looked up in a CommandRegistry — the same
// code path (root fans the launch out, per-rank spawn, signal delivery,
// exit-status reduction carrying each rank's stdio, which job-manager
// commits to the job's KVS directory) without OS process management.
// Built-in commands: hostname, echo, sleep, spin, exit, kvsput.
//
// Protocol:
//   wexec.run  {jobid, cmd, args, ranks?}  client -> root; answers when all
//                                          tasks have exited with {jobid,
//                                          ntasks, success, exits, stdio:
//                                          {<rank>: {stdout, stderr,
//                                          exitcode}}}. ranks, when present,
//                                          must be distinct ranks below the
//                                          session size (else errc::inval);
//                                          absent = every rank. A rank
//                                          already declared dead fails it
//                                          with errc::host_down.
//   wexec.exec {jobid, cmd, args}          root -> each target rank, one
//                                          fire-and-forget direct request
//                                          per rank: spawn the task
//   wexec.complete {jobid, stdio}          reduction back to the root; each
//                                          hop merges the captures it holds
//   wexec.kill {jobid, signum}             client -> root; answers ok
//   wexec.signal {jobid, signum}           root -> each of the run's ranks,
//                                          direct like the exec (nothing for
//                                          a finished job); ends a sleep
//
// The exec and every later signal of a run take the same root -> rank link,
// and each destination receives in send order, so a signal cannot overtake
// the exec it follows.
//
// A run that loses a rank ("live.down") fails with errc::host_down, and its
// surviving tasks are sent SIGKILL: the dead rank never reports, so nothing
// would otherwise answer the caller.
#pragma once

#include <coroutine>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/module.hpp"
#include "exec/task.hpp"

namespace flux {
class Handle;
class KvsClient;
}  // namespace flux

namespace flux::modules {

/// Execution context handed to a simulated process.
class ProcessCtx {
 public:
  /// `co_await sleep(d)`: `d` of executor time, cut short by a signal.
  struct Sleep {
    ProcessCtx& p;
    Duration d;
    [[nodiscard]] bool await_ready() const noexcept { return p.killed(); }
    void await_suspend(std::coroutine_handle<> h) { p.arm_sleep(h, d); }
    void await_resume() const noexcept {}
  };

  ProcessCtx(Broker& broker, Json args);
  ~ProcessCtx();

  [[nodiscard]] NodeId rank() const noexcept;
  [[nodiscard]] const Json& args() const noexcept { return args_; }
  /// Built on first use: only a command that talks to the session needs one.
  [[nodiscard]] KvsClient& kvs();

  /// Capture a line of standard output / error.
  void out(std::string line) { stdout_.push_back(std::move(line)); }
  void err(std::string line) { stderr_.push_back(std::move(line)); }

  /// Signal state (delivered by wexec.kill); a signal ends a sleep.
  [[nodiscard]] bool killed() const noexcept { return signum_ != 0; }
  [[nodiscard]] int signum() const noexcept { return signum_; }
  void deliver_signal(int signum);

  [[nodiscard]] Sleep sleep(Duration d) { return {*this, d}; }

  /// The task's {stdout, stderr, exitcode}; moves the captured lines out.
  [[nodiscard]] Json take_capture(int exit_code);

 private:
  void arm_sleep(std::coroutine_handle<> h, Duration d);

  Broker& broker_;
  Json args_;
  std::unique_ptr<Handle> handle_;
  std::unique_ptr<KvsClient> kvs_;
  Json stdout_ = Json::array();
  Json stderr_ = Json::array();
  int signum_ = 0;
  /// The sleeping task, shared with its timer; null once resumed.
  std::shared_ptr<std::coroutine_handle<>> sleeping_;
  std::uint64_t timer_ = 0;  ///< the sleep's cancelable timer
};

/// A runnable command: returns the exit code.
using Command = std::function<Task<int>(ProcessCtx&)>;

/// Process-wide command registry (built-ins installed on first use).
class CommandRegistry {
 public:
  static CommandRegistry& instance();
  void add(std::string cmd_name, Command fn);
  [[nodiscard]] const Command* find(std::string_view cmd_name) const;

 private:
  CommandRegistry();
  std::map<std::string, Command, std::less<>> commands_;
};

class Wexec final : public Module {
 public:
  explicit Wexec(Broker& broker);

  [[nodiscard]] std::string_view name() const override { return "wexec"; }
  void handle_event(const Message& msg) override;
  /// A crashed node's processes die with it.
  void on_fail() override;

  [[nodiscard]] std::size_t running() const noexcept { return procs_.size(); }

 private:
  struct Job {  // root-side coordination state
    std::vector<NodeId> ranks;    // one task each
    Json stdio = Json::object();  // rank -> {stdout, stderr, exitcode}
    std::vector<Message> waiters;
  };
  struct Proc {  // one local running task
    std::shared_ptr<ProcessCtx> ctx;
  };

  void op_run(Message& msg);
  void op_kill(Message& msg);
  void fail_runs_on(NodeId rank);
  /// Send `signum` to the job's tasks on `ranks`.
  void send_signal(const std::string& jobid, const std::vector<NodeId>& ranks,
                   int signum);
  Task<void> run_task(std::string jobid, std::string cmd, Json args);
  /// Merge ranks' captures into the job's pending reduction and schedule
  /// its flush upstream (or, at the root, into the run).
  void report_complete(const std::string& jobid, const Json& stdio);
  void flush_complete(const std::string& jobid);

  std::map<std::string, Job> jobs_;                       // root only
  std::multimap<std::string, Proc> procs_;                // local tasks
  // jobid -> the ranks' captures this broker holds, flushed in one post
  std::map<std::string, Json> pending_complete_;
};

}  // namespace flux::modules
