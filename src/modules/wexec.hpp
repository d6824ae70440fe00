// wexec: "Remote processes can be launched in bulk, monitored, receive
// signals, and have standard I/O captured in the KVS." (Table I)
//
// Substitution (see DESIGN.md): instead of fork/exec of Linux binaries,
// processes are coroutine tasks looked up in a CommandRegistry — the same
// code path (root fans the launch out, per-rank spawn, stdio capture into
// <kvs_dir>.<rank>.{stdout,stderr,exitcode}, signal delivery, exit-status
// reduction) without OS process management. Built-in commands: hostname,
// echo, sleep, spin, exit, kvsput.
//
// Protocol:
//   wexec.run  {jobid, kvs_dir, cmd, args, ranks?}
//                                          client -> root; responds when all
//                                          tasks have exited and their output
//                                          has been committed to the KVS.
//                                          kvs_dir (required) is the capture
//                                          directory: job-manager passes
//                                          job_kvs_path(id) + ".stdio", so a
//                                          job's capture lives in its own
//                                          bounded directory. ranks, when
//                                          present, must be distinct ranks
//                                          below the session size (else
//                                          errc::inval); absent = every rank.
//                                          A rank already declared dead
//                                          fails it with errc::host_down.
//   wexec.exec {jobid, kvs_dir, cmd, args, ntasks}
//                                          root -> each target rank, one
//                                          fire-and-forget direct request
//                                          per rank: spawn the task
//   wexec.complete {jobid, count, exits}   reduction back to the root
//   wexec.kill {jobid, signum}             client -> root; answers ok
//   wexec.signal {jobid, signum}           root -> each of the run's ranks,
//                                          direct like the exec (nothing for
//                                          a finished job)
//
// The exec and every later signal of a run take the same root -> rank link,
// and each destination receives in send order, so a signal cannot overtake
// the exec it follows.
//
// A run that loses a rank ("live.down") fails with errc::host_down, and its
// surviving tasks are sent SIGKILL: its collective stdio fence can never
// complete, so nothing would otherwise answer the caller.
#pragma once

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
  ProcessCtx(Broker& broker, std::string jobid, Json args);
  ~ProcessCtx();

  [[nodiscard]] NodeId rank() const noexcept;
  [[nodiscard]] const std::string& jobid() const noexcept { return jobid_; }
  [[nodiscard]] const Json& args() const noexcept { return args_; }
  [[nodiscard]] Handle& handle() noexcept { return *handle_; }
  [[nodiscard]] KvsClient& kvs() noexcept { return *kvs_; }
  [[nodiscard]] Executor& executor() noexcept;

  /// Capture a line of standard output / error.
  void out(std::string line) { stdout_.push_back(std::move(line)); }
  void err(std::string line) { stderr_.push_back(std::move(line)); }

  /// Signal state (delivered by wexec.kill).
  [[nodiscard]] bool killed() const noexcept { return signum_ != 0; }
  [[nodiscard]] int signum() const noexcept { return signum_; }
  void deliver_signal(int signum) noexcept { signum_ = signum; }

  [[nodiscard]] SleepAwaiter sleep(Duration d);

  [[nodiscard]] const std::vector<std::string>& captured_stdout() const {
    return stdout_;
  }
  [[nodiscard]] const std::vector<std::string>& captured_stderr() const {
    return stderr_;
  }

 private:
  Broker& broker_;
  std::string jobid_;
  Json args_;
  std::unique_ptr<Handle> handle_;
  std::unique_ptr<KvsClient> kvs_;
  std::vector<std::string> stdout_;
  std::vector<std::string> stderr_;
  int signum_ = 0;
};

/// A runnable command: returns the exit code.
using Command = std::function<Task<int>(ProcessCtx&)>;

/// Process-wide command registry (built-ins installed on first use).
class CommandRegistry {
 public:
  static CommandRegistry& instance();
  void add(std::string cmd_name, Command fn);
  [[nodiscard]] const Command* find(std::string_view cmd_name) const;
  [[nodiscard]] std::vector<std::string> names() const;

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
    std::vector<NodeId> ranks;  // one task each
    std::int64_t completed = 0;
    std::map<std::string, std::int64_t> exits;  // exit code -> count
    std::vector<Message> waiters;
  };
  struct Proc {  // one local running task
    std::shared_ptr<ProcessCtx> ctx;
  };

  void op_run(Message& msg);
  void op_kill(Message& msg);
  void op_complete(Message& msg);
  void fail_runs_on(NodeId rank);
  /// Send `signum` to the job's tasks on `ranks`.
  void send_signal(const std::string& jobid, const std::vector<NodeId>& ranks,
                   int signum);
  Task<void> run_task(std::string jobid, std::string kvs_dir,
                      std::string cmd, Json args, std::int64_t ntasks);
  void report_complete(const std::string& jobid, int exit_code);
  void flush_complete(const std::string& jobid);

  std::map<std::string, Job> jobs_;                       // root only
  std::multimap<std::string, Proc> procs_;                // local tasks
  struct PendingComplete {
    std::int64_t count = 0;
    std::map<std::string, std::int64_t> exits;
    bool scheduled = false;
  };
  std::map<std::string, PendingComplete> pending_complete_;
};

}  // namespace flux::modules
