#include "modules/logmod.hpp"

#include "broker/broker.hpp"

namespace flux::modules {

Json LogRecord::to_json() const {
  return Json::object({{"level", level},
                       {"rank", rank},
                       {"component", component},
                       {"text", text},
                       {"time_ns", time_ns}});
}

LogRecord LogRecord::from_json(const Json& j) {
  LogRecord rec;
  rec.level = static_cast<int>(j.get_int("level", 6));
  rec.rank = static_cast<NodeId>(j.get_int("rank", 0));
  rec.component = j.get_string("component");
  rec.text = j.get_string("text");
  rec.time_ns = j.get_int("time_ns", 0);
  return rec;
}

Log::Log(Broker& b) : Module(b) {
  on("append", [this](Message& m) {
    // Single record from a local client, or a batch from downstream. A
    // batch flagged "context" (fault dumps) bypasses the severity filter.
    if (m.payload().at("records").is_array()) {
      const bool force = m.payload().get_bool("context", false);
      for (const Json& j : m.payload().at("records").as_array())
        append(LogRecord::from_json(j), force);
    } else {
      LogRecord rec = LogRecord::from_json(m.payload());
      rec.rank = m.route.empty() ? broker().rank() : m.route.front().rank;
      rec.time_ns = broker().executor().now().count();
      append(std::move(rec));
      respond_ok(m);
    }
  });
  on("dump", [this](Message& m) {
    // Local circular-buffer dump (rank-addressed diagnostics).
    Json records = Json::array();
    for (const LogRecord& rec : ring_) records.push_back(rec.to_json());
    respond_ok(m, Json::object({{"rank", broker().rank()},
                                {"records", std::move(records)}}));
  });
  on("get", [this](Message& m) {
    if (!broker().is_root()) {
      broker().forward_upstream(std::move(m));
      return;
    }
    const auto max = static_cast<std::size_t>(m.payload().get_int("max", 100));
    Json records = Json::array();
    const std::size_t start =
        session_log_.size() > max ? session_log_.size() - max : 0;
    for (std::size_t i = start; i < session_log_.size(); ++i)
      records.push_back(session_log_[i].to_json());
    respond_ok(m, Json::object({{"total", session_log_.size()},
                                {"records", std::move(records)}}));
  });
  broker().module_subscribe(*this, "log.fault");
}

void Log::start() {
  const Json cfg = broker().module_config("log");
  forward_level_ = static_cast<int>(cfg.get_int("forward_level", 6));
}

void Log::append(LogRecord rec, bool force) {
  ring_.push_back(rec);
  if (ring_.size() > kRingCapacity) ring_.pop_front();

  if (broker().is_root()) {
    session_log_.push_back(std::move(rec));
    if (session_log_.size() > session_log_max_) session_log_.pop_front();
    return;
  }
  // Filter: only records at/above the forwarding severity head upstream
  // ("log messages are reduced and filtered") — unless forced (fault dump).
  if (!force && rec.level > forward_level_) return;
  pending_.push_back(std::move(rec));
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  broker().executor().post([this] { flush(); });
}

void Log::flush() {
  flush_scheduled_ = false;
  if (pending_.empty()) return;
  Json records = Json::array();
  for (const LogRecord& rec : pending_) records.push_back(rec.to_json());
  pending_.clear();
  broker().forward_upstream(Message::request(
      "log.append", Json::object({{"records", std::move(records)}})));
}

void Log::handle_event(const Message& msg) {
  if (msg.topic != "log.fault") return;
  // Dump debug context upstream: everything in the ring, regardless of the
  // forwarding filter ("a circular debug buffer provides log context in
  // response to a fault event").
  if (broker().is_root()) {
    for (const LogRecord& rec : ring_) session_log_.push_back(rec);
    return;
  }
  if (ring_.empty()) return;
  Json records = Json::array();
  for (const LogRecord& rec : ring_) records.push_back(rec.to_json());
  broker().forward_upstream(Message::request(
      "log.append",
      Json::object({{"records", std::move(records)}, {"context", true}})));
}

}  // namespace flux::modules
