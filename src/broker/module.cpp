#include "broker/module.hpp"

#include "broker/broker.hpp"

namespace flux {

void Module::handle_request(Message msg) {
  if (requests_counter_ == nullptr) {
    requests_counter_ = &stats_registry().counter(std::string(name()) + ".requests");
  }
  requests_counter_->inc();
  const auto method = msg.method();
  auto it = handlers_.find(method);
  if (it == handlers_.end()) {
    if (method == "stats.get") {
      respond_ok(msg, stats_json());
      return;
    }
    respond_error(msg, errc::nosys,
                  "module '" + std::string(name()) + "' has no method '" +
                      std::string(method) + "'");
    return;
  }
  it->second(msg);
}

Json Module::stats_json() const {
  Json out = broker().stats_registry().snapshot(name());
  out["rank"] = broker().rank();
  return out;
}

RouteHop Module::origin(RouteHop::Kind kind) const {
  return RouteHop{kind, broker().rank(), endpoint_id_};
}

obs::StatsRegistry& Module::stats_registry() noexcept {
  return broker().stats_registry();
}

void Module::respond_error(const Message& req, errc code,
                           std::string_view what) {
  broker().respond(req.respond_error(code, what));
}

void Module::respond_ok(const Message& req, Json payload) {
  broker().respond(req.respond(std::move(payload)));
}

}  // namespace flux
