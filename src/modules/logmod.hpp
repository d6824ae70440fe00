// log: "Log messages are reduced and filtered before being placed in a log
// file at the session root. A circular debug buffer provides log context in
// response to a fault event." (Table I)
//
// Every instance keeps a fixed-size circular buffer of everything it sees
// (any level). Records at or above the forwarding level are batched per
// reactor turn and reduced upstream; the root appends them to the session
// log. Publishing a "log.fault" event makes every instance dump its debug
// buffer upstream — the paper's post-mortem context mechanism.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "broker/module.hpp"

namespace flux::modules {

struct LogRecord {
  int level = 6;            ///< syslog-style: 3=err 4=warn 6=info 7=debug
  NodeId rank = 0;
  std::string component;
  std::string text;
  std::int64_t time_ns = 0;

  [[nodiscard]] Json to_json() const;
  static LogRecord from_json(const Json& j);
};

class Log final : public Module {
 public:
  explicit Log(Broker& broker);

  [[nodiscard]] std::string_view name() const override { return "log"; }
  void start() override;
  void handle_event(const Message& msg) override;

  /// Root-side session log (tests and the flux utility read via log.get).
  [[nodiscard]] const std::deque<LogRecord>& session_log() const noexcept {
    return session_log_;
  }

 private:
  void append(LogRecord rec, bool force = false);
  void flush();

  static constexpr std::size_t kRingCapacity = 256;
  int forward_level_ = 6;         ///< forward records with level <= this
  std::size_t session_log_max_ = 65536;

  std::deque<LogRecord> ring_;          // local circular debug buffer
  std::vector<LogRecord> pending_;      // batched for upstream
  bool flush_scheduled_ = false;
  std::deque<LogRecord> session_log_;   // root only
};

}  // namespace flux::modules
