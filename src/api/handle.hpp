// Client handle: a process's connection to its local CMB broker.
//
// In the paper's prototype, "external programs communicate with the CMB over
// a UNIX domain socket"; here a Handle is an endpoint on its broker and every
// submitted request crosses the node-local transport hop (so local operations
// have realistic, size-dependent cost in simulation).
//
// The async API returns awaitable Futures/Tasks; client code is written as
// coroutines spawned on the broker's executor. SyncHandle (sync_handle.hpp)
// wraps this for blocking use from ordinary threads in threaded sessions.
//
// Lifetimes are RAII: subscribe() returns a move-only Subscription guard that
// auto-unsubscribes when destroyed. A guard may safely outlive its Handle —
// it holds weak state, so destruction after the Handle is gone is a no-op
// (no dangling unsubscribe, no dangling callback).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/retry.hpp"
#include "broker/broker.hpp"
#include "exec/future.hpp"
#include "exec/task.hpp"
#include "msg/message.hpp"

namespace flux {

class RequestBuilder;
class JobBuilder;
class Handle;

namespace detail {
/// Shared liveness anchor between a Handle and its Subscription guards. The
/// Handle nulls `owner` in its destructor; a guard that outlives the Handle
/// locks the state, sees nullptr, and does nothing.
struct SubOwner {
  Handle* owner = nullptr;
};
}  // namespace detail

/// Move-only RAII guard for an event subscription. Destroying (or reset()ing)
/// it unsubscribes; destroying it after the owning Handle is gone is a no-op.
class [[nodiscard]] Subscription {
 public:
  Subscription() noexcept = default;
  Subscription(Subscription&& o) noexcept
      : state_(std::move(o.state_)), id_(std::exchange(o.id_, 0)) {}
  Subscription& operator=(Subscription&& o) noexcept {
    if (this != &o) {
      reset();
      state_ = std::move(o.state_);
      id_ = std::exchange(o.id_, 0);
    }
    return *this;
  }
  ~Subscription() { reset(); }
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  /// Unsubscribe now (idempotent).
  void reset() noexcept;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] bool active() const noexcept { return id_ != 0; }
  explicit operator bool() const noexcept { return active(); }

 private:
  friend class Handle;
  Subscription(std::weak_ptr<detail::SubOwner> s, std::uint64_t id) noexcept
      : state_(std::move(s)), id_(id) {}

  std::weak_ptr<detail::SubOwner> state_;
  std::uint64_t id_ = 0;
};

class Handle {
 public:
  explicit Handle(Broker& broker);
  ~Handle();
  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;

  [[nodiscard]] Broker& broker() noexcept { return broker_; }
  [[nodiscard]] Executor& executor() noexcept { return broker_.executor(); }
  [[nodiscard]] NodeId rank() const noexcept { return broker_.rank(); }
  [[nodiscard]] std::uint32_t size() const noexcept { return broker_.size(); }
  [[nodiscard]] std::uint64_t endpoint() const noexcept { return endpoint_; }

  /// Start a fluent request:
  ///   co_await h.request("kvs.get").payload(j).to(rank).timeout(d).trace()
  /// The builder is awaitable (resolves with the raw response); use .call()
  /// for the checked form that throws FluxException on an error response.
  [[nodiscard]] RequestBuilder request(std::string topic);

  /// Start a fluent job submission (api/job_client.hpp):
  ///   JobHandle jh = co_await h.job().command("echo").nnodes(2).submit();
  [[nodiscard]] JobBuilder job();

  /// Throw FluxException if the response carries an error.
  static void check(const Message& response);

  /// Publish an event into the session.
  void publish(std::string topic, Json payload = Json::object());

  /// Subscribe to an event topic prefix. The returned guard owns the
  /// subscription: it auto-unsubscribes on destruction.
  Subscription subscribe(std::string topic_prefix,
                         std::function<void(const Message&)> fn);

  /// Collective barrier across `nprocs` participants session-wide
  /// (paper Table I: the `barrier` comms module).
  Task<void> barrier(std::string name, std::int64_t nprocs);

  /// Ring-addressed ping of a specific broker rank (cmb.ping).
  Task<Json> ping(NodeId rank);

  /// Sleep on this handle's executor (virtual time under simulation).
  [[nodiscard]] SleepAwaiter sleep(Duration d) {
    return sleep_for(executor(), d);
  }

 private:
  friend class Subscription;
  void deliver(Message msg);
  void unsubscribe_impl(std::uint64_t subscription_id);

  struct Sub {
    std::uint64_t id;
    std::string prefix;
    std::function<void(const Message&)> fn;
  };

  Broker& broker_;
  std::uint64_t endpoint_ = 0;
  std::uint64_t next_sub_ = 1;
  std::vector<Sub> subs_;
  std::shared_ptr<detail::SubOwner> sub_state_;
};

/// Fluent request descriptor. Defaults: route upstream on the tree plane,
/// empty payload, the session's RPC policy (SessionConfig::rpc), no trace.
/// Setters return *this so requests read as one chain; the terminal
/// operation is one of
///  - co_await (or .send()): Future with the raw response (errnum may be set)
///  - co_await .call(): checked response; throws FluxException on errnum
///  - SyncHandle::send()/call(): the same two, blocking, from a non-reactor
///    thread
/// Sending happens at the terminal call, so a builder can be prepared and
/// fired later; each builder sends at most once. Building only fills in a
/// Message, so it is safe on any thread; sending must run on the reactor.
class RequestBuilder {
 public:
  /// Destination rank: rides the ring plane (paper: "trivially reached
  /// without routing tables"). kNodeAny restores tree routing.
  RequestBuilder& to(NodeId rank) noexcept {
    req_.nodeid = rank;
    return *this;
  }

  /// Skip the local broker's modules, then route upstream as usual — the
  /// idiom for "ask my parent's view of this service".
  RequestBuilder& upstream() noexcept {
    req_.nodeid = kNodeUpstream;
    return *this;
  }

  RequestBuilder& payload(Json j) {
    req_.set_payload(std::move(j));
    return *this;
  }

  /// Attach a structured bulk attachment (e.g. a KVS ObjectBundle).
  RequestBuilder& attachment(std::shared_ptr<const Attachment> a) noexcept {
    req_.set_attachment(std::move(a));
    return *this;
  }

  /// Per-attempt deadline: resolve with errc::timeout if no response in
  /// time. Overrides the session default policy's timeout.
  RequestBuilder& timeout(Duration d) noexcept {
    timeout_ = d;
    return *this;
  }

  /// Retry a timed-out (or host-down) attempt up to `n` more times, waiting
  /// `backoff` before the first retry and doubling it each retry. Needs a
  /// deadline: pairs with .timeout() or the session default timeout.
  /// Overrides the session default policy's retry settings.
  RequestBuilder& retry(int n, Duration backoff = std::chrono::milliseconds(1)) noexcept {
    retries_ = n;
    backoff_ = backoff;
    return *this;
  }

  /// Collect per-broker route stamps; the response's Message::trace holds
  /// the full forward+return path.
  RequestBuilder& trace(bool on = true) noexcept {
    if (on)
      req_.flags |= kMsgFlagTrace;
    else
      req_.flags &= static_cast<std::uint8_t>(~kMsgFlagTrace);
    return *this;
  }

  /// Send now; the future resolves with the raw response message.
  [[nodiscard]] Future<Message> send();

  /// Send now; awaiting throws FluxException if the response carries an
  /// error (including errc::timeout after the configured retries).
  [[nodiscard]] Task<Message> call();

  /// `co_await builder` == `co_await builder.send()`.
  [[nodiscard]] Future<Message> operator co_await() { return send(); }

 private:
  friend class Handle;
  RequestBuilder(Handle& h, std::string topic)
      : handle_(&h), req_(Message::request(std::move(topic))) {}

  /// The policy this request will run under: the session default overlaid
  /// with this builder's .timeout()/.retry() calls.
  [[nodiscard]] RetryPolicy effective_policy() const noexcept;

  Handle* handle_;
  Message req_;
  Duration timeout_{0};   // 0 = inherit
  int retries_ = -1;      // -1 = inherit
  Duration backoff_{0};
};

inline RequestBuilder Handle::request(std::string topic) {
  return RequestBuilder(*this, std::move(topic));
}

}  // namespace flux
