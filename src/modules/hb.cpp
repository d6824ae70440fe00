#include "modules/hb.hpp"

#include "broker/broker.hpp"

namespace flux::modules {

Heartbeat::Heartbeat(Broker& b) : Module(b) {
  on("get", [this](Message& m) {
    respond_ok(m, Json::object({{"epoch", epoch_},
                                {"period_us", period_.count() / 1000}}));
  });
  broker().module_subscribe(*this, "hb");
}

void Heartbeat::start() {
  const Json cfg = broker().module_config("hb");
  const auto period_us = cfg.get_int("period_us", 1000);
  period_ = std::chrono::microseconds(std::max<std::int64_t>(1, period_us));
  if (broker().is_root()) arm();
}

void Heartbeat::shutdown() {
  stopped_.store(true, std::memory_order_release);
}

void Heartbeat::arm() {
  broker().executor().post_daemon_after(
      period_, [this, tok = std::weak_ptr<const bool>(alive_)] {
        if (tok.expired()) return;  // module destroyed (broker restart)
        tick();
      });
}

void Heartbeat::tick() {
  if (stopped_.load(std::memory_order_acquire) || broker().failed()) return;
  broker().publish("hb", Json::object({{"epoch", ++epoch_}}));
  arm();
}

void Heartbeat::handle_event(const Message& msg) {
  if (msg.topic == "hb")
    epoch_ = static_cast<std::uint64_t>(msg.payload().get_int("epoch", 0));
}

}  // namespace flux::modules
