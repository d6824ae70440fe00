// Comms module interface (paper §IV-A, Table I).
//
// Comms modules are "plugins which are loaded into the CMB address space and
// pass messages over shared memory". A module owns a service name (the
// leading topic component); requests whose topic matches are dispatched to it
// on the broker where routing first finds the module loaded. Modules may be
// loaded only up to a configurable tree depth "to tune [their] level of
// distribution"; requests from deeper brokers route upstream transparently.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "json/json.hpp"
#include "msg/message.hpp"
#include "obs/stats.hpp"

namespace flux {

class Broker;

/// A comms module: a service name, a method-name handler table and small
/// helpers. Every module answers "<name>.stats.get" with stats_json() and
/// counts dispatched requests in the broker's observability registry as
/// "<name>.requests".
class Module {
 public:
  explicit Module(Broker& broker) : broker_(broker) {}
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Service name == leading topic component this module owns ("kvs").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once after every module of the broker is registered.
  virtual void start() {}
  /// Called at session teardown (before executors stop).
  virtual void shutdown() {}
  /// Called when the owning broker fails (crash injection). The module is
  /// about to be destroyed without shutdown(); durable state must decide
  /// what a crash leaves on disk (see Injector::on_crash_unsynced).
  virtual void on_fail() {}

  /// Dispatch a request addressed to this module to its "<name>.<method>"
  /// handler; "stats.get" falls back to stats_json(), anything else gets
  /// ENOSYS.
  void handle_request(Message msg);
  /// Deliver an event matching one of this module's subscriptions.
  virtual void handle_event(const Message& msg) { (void)msg; }

  /// The "<name>.stats.get" payload: this module's slice of the broker's
  /// registry ("<name>.*" instruments) plus {"rank"}. Override to fold in
  /// module-internal gauges; call the base and extend its result.
  [[nodiscard]] virtual Json stats_json() const;

  /// Broker-assigned endpoint id for module-initiated RPCs.
  [[nodiscard]] std::uint64_t endpoint_id() const noexcept { return endpoint_id_; }
  void set_endpoint_id(std::uint64_t id) noexcept { endpoint_id_ = id; }

 protected:
  using Handler = std::function<void(Message&)>;

  [[nodiscard]] Broker& broker() noexcept { return broker_; }
  [[nodiscard]] const Broker& broker() const noexcept { return broker_; }

  /// This module's return address for Broker::rpc(): Module routes the
  /// request in-process, Direct sends it straight to its nodeid.
  [[nodiscard]] RouteHop origin(RouteHop::Kind kind = RouteHop::Kind::Module) const;

  /// Register a handler for topic "<name>.<method>".
  void on(std::string method, Handler h) {
    handlers_.insert_or_assign(std::move(method), std::move(h));
  }

  /// Respond with {errmsg} + code.
  void respond_error(const Message& req, errc code, std::string_view what = {});
  /// Respond with payload.
  void respond_ok(const Message& req, Json payload = Json::object());
  /// The broker's registry. Modules resolve their instruments in it once,
  /// in member initializers, which cannot see Broker's definition.
  [[nodiscard]] obs::StatsRegistry& stats_registry() noexcept;

 private:
  Broker& broker_;
  std::uint64_t endpoint_id_ = 0;
  std::map<std::string, Handler, std::less<>> handlers_;
  obs::Counter* requests_counter_ = nullptr;  // lazy: name() needs a built vtable
};

}  // namespace flux
