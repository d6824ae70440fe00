#include "modules/live.hpp"

#include "base/log.hpp"
#include "broker/broker.hpp"

namespace flux::modules {

Live::Live(Broker& b) : Module(b) {
  on("hello", [this](Message& m) {
    const auto child = static_cast<NodeId>(m.payload().get_int("rank", -1));
    const auto epoch = static_cast<std::uint64_t>(m.payload().get_int("epoch", 0));
    auto [it, inserted] = last_hello_.try_emplace(child, epoch);
    if (!inserted) it->second = std::max(it->second, epoch);
    // No response: hellos are one-way, heartbeat-synchronized traffic.
  });
  on("status", [this](Message& m) {
    Json down = Json::array();
    for (NodeId r : dead_) down.push_back(r);
    respond_ok(m, Json::object({{"rank", broker().rank()},
                                {"monitored", last_hello_.size()},
                                {"down", std::move(down)}}));
  });
  broker().module_subscribe(*this, "hb");
  broker().module_subscribe(*this, "live.down");
  broker().module_subscribe(*this, "cmb.rejoin");
}

void Live::start() {
  const Json cfg = broker().module_config("live");
  missed_max_ = static_cast<std::uint64_t>(cfg.get_int("missed_max", 3));
  grace_epochs_ = missed_max_ + 1;
}

void Live::handle_event(const Message& msg) {
  if (msg.topic == "live.down") {
    // A failure cuts heartbeat delivery to the dead broker's whole subtree
    // until healing re-attaches it; without a fresh grace period every
    // broker below the failure would be cascade-declared dead the moment
    // events resume. Reset the hello clocks of our current children.
    const auto down_epoch =
        static_cast<std::uint64_t>(msg.payload().get_int("epoch", 0));
    for (auto& [child, last] : last_hello_)
      last = std::max(last, down_epoch);
    return;
  }
  if (msg.topic == "cmb.rejoin") {
    // A restarted broker was re-admitted: forget its death and give it a
    // fresh hello clock (the broker applied the new parent relation before
    // this handler ran, so it may already be our child).
    const auto back = static_cast<NodeId>(msg.payload().get_int("rank", -1));
    dead_.erase(back);
    last_hello_.erase(back);
    return;
  }
  if (msg.topic != "hb") return;
  on_heartbeat(static_cast<std::uint64_t>(msg.payload().get_int("epoch", 0)));
}

void Live::on_heartbeat(std::uint64_t epoch) {
  // Send our hello upstream. forward_upstream dispatches at the parent's
  // live module (first match above us).
  if (const auto up = broker().parent()) {
    (void)up;
    Message hello = Message::request(
        "live.hello",
        Json::object({{"rank", broker().rank()}, {"epoch", epoch}}));
    broker().forward_upstream(std::move(hello));
  }
  // Judge our children.
  if (epoch < grace_epochs_) return;
  for (NodeId child : broker().children()) {
    if (dead_.contains(child)) continue;
    auto it = last_hello_.find(child);
    if (it == last_hello_.end()) {
      // Newly adopted child (healing): start its clock now.
      last_hello_.emplace(child, epoch);
      continue;
    }
    const std::uint64_t last = it->second;
    if (epoch >= last + missed_max_) {
      dead_.insert(child);
      log::info("live", "rank ", broker().rank(), ": declaring child ", child,
                " dead (last hello epoch ", last, ", now ", epoch, ")");
      broker().publish("live.down",
                       Json::object({{"rank", child}, {"epoch", epoch}}));
    }
  }
}

}  // namespace flux::modules
