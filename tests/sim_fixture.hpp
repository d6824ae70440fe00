// Shared test scaffolding: a simulated session plus helpers to run client
// coroutines to completion deterministically.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>

#include "api/handle.hpp"
#include "broker/session.hpp"
#include "exec/sim_executor.hpp"
#include "kvs/kvs_client.hpp"

namespace flux::testing {

/// A wired-up simulated session.
class SimSession {
 public:
  static SessionConfig default_config(std::uint32_t size = 8,
                                      std::uint32_t arity = 2) {
    SessionConfig cfg;
    cfg.size = size;
    cfg.tree_arity = arity;
    return cfg;
  }

  explicit SimSession(SessionConfig cfg = default_config()) {
    session_ = Session::create_sim(ex_, std::move(cfg));
    wireup_ = session_->run_until_online();
  }

  [[nodiscard]] SimExecutor& ex() noexcept { return ex_; }
  [[nodiscard]] Session& session() noexcept { return *session_; }
  [[nodiscard]] Duration wireup() const noexcept { return wireup_; }

  std::unique_ptr<Handle> attach(NodeId rank) { return session_->attach(rank); }

  /// Broker `rank`'s stats registry, where every counter of that broker and
  /// its modules lives.
  [[nodiscard]] const obs::StatsRegistry& stats(NodeId rank) {
    return session_->broker(rank).stats_registry();
  }

  /// Virtual time one run() may take. A task still pending then has
  /// stalled, even while leftover timers keep the simulator from going
  /// idle. The longest run() of any passing test takes 70 ms of virtual
  /// time.
  static constexpr Duration kRunDeadline = std::chrono::milliseconds(250);

  /// Run a client coroutine until it completes and the simulator is idle;
  /// rethrows its exception. Fails the test (throws) if the simulator goes
  /// idle first, or if the task is still pending after kRunDeadline.
  template <class T>
  T run(Task<T> task) {
    std::optional<T> out;
    std::exception_ptr error;
    bool done = false;
    co_spawn(ex_, wrap(std::move(task), &out, &error, &done), "test-task");
    drive(done);
    if (error) std::rethrow_exception(error);
    return std::move(*out);
  }

  void run(Task<void> task) {
    std::exception_ptr error;
    bool done = false;
    co_spawn(ex_, wrap_void(std::move(task), &error, &done), "test-task");
    drive(done);
    if (error) std::rethrow_exception(error);
  }

  /// Let background (daemon-driven) activity proceed for simulated time d.
  void settle(Duration d) { ex_.run_for(d); }

 private:
  template <class T>
  static Task<void> wrap(Task<T> task, std::optional<T>* out,
                         std::exception_ptr* error, bool* done) {
    try {
      out->emplace(co_await std::move(task));
    } catch (...) {
      *error = std::current_exception();
    }
    *done = true;
  }

  static Task<void> wrap_void(Task<void> task, std::exception_ptr* error,
                              bool* done) {
    try {
      co_await std::move(task);
    } catch (...) {
      *error = std::current_exception();
    }
    *done = true;
  }

  void drive(const bool& done) {
    // A daemon event marks the deadline: it keeps no run going, and fires
    // harmlessly later if this run ends first.
    auto expired = std::make_shared<bool>(false);
    ex_.post_daemon_at(ex_.now() + kRunDeadline, [expired] { *expired = true; });
    while (!ex_.idle() && !*expired && ex_.run_one()) {
    }
    if (!done)
      throw std::runtime_error(
          "test task stalled (simulator idle or past its deadline)");
  }

  SimExecutor ex_;
  std::unique_ptr<Session> session_;
  Duration wireup_{0};
};

}  // namespace flux::testing
