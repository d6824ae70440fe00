#include "api/handle.hpp"

#include <algorithm>

#include "broker/session.hpp"

namespace flux {

Handle::Handle(Broker& broker)
    : broker_(broker), sub_state_(std::make_shared<detail::SubOwner>()) {
  sub_state_->owner = this;
  endpoint_ = broker_.add_endpoint([this](Message msg) { deliver(std::move(msg)); });
}

Handle::~Handle() {
  // Detach outstanding Subscription guards first: after this, a guard that
  // outlives the handle locks the state, sees owner == nullptr, and no-ops
  // instead of calling back into a destroyed object.
  sub_state_->owner = nullptr;
  broker_.remove_endpoint(endpoint_);
}

void Subscription::reset() noexcept {
  if (id_ == 0) return;
  if (auto s = state_.lock(); s && s->owner) s->owner->unsubscribe_impl(id_);
  id_ = 0;
  state_.reset();
}

RetryPolicy RequestBuilder::effective_policy() const noexcept {
  RetryPolicy pol = handle_->broker().session().config().rpc;
  if (timeout_.count() > 0) pol.timeout = timeout_;
  if (retries_ >= 0) {
    pol.retries = retries_;
    pol.backoff = backoff_;
  }
  return pol;
}

namespace {

/// Retry driver. Deliberately captures the Broker and the handle's return
/// address, not the Handle: the handle (and the builder) may be destroyed
/// while an attempt is in flight, but brokers outlive all handles within a
/// session.
Task<void> retry_rpc(Broker& broker, RouteHop origin, Message req,
                     RetryPolicy pol, Promise<Message> promise) {
  Duration wait = pol.backoff;
  for (int attempt = 0;; ++attempt) {
    try {
      // Each attempt re-sends a fresh copy; the broker assigns a new
      // matchtag per attempt, so a straggler response to a timed-out
      // attempt is dropped as stale rather than matched to a retry.
      Message copy = req;
      Message resp = co_await broker.rpc(origin, std::move(copy), pol.timeout);
      promise.set_value(std::move(resp));
      co_return;
    } catch (const FluxException& e) {
      const errc code = e.error().code;
      const bool retryable = code == errc::timeout || code == errc::host_down;
      if (!retryable || attempt >= pol.retries) {
        Error err = e.error();
        if (attempt > 0)
          err.message += " (after " + std::to_string(attempt + 1) + " attempts)";
        promise.set_error(std::move(err));
        co_return;
      }
    }
    if (wait.count() > 0) {
      co_await sleep_for(broker.executor(), wait);
      wait += wait;  // exponential backoff
    }
  }
}

}  // namespace

Future<Message> RequestBuilder::send() {
  Handle& h = *handle_;
  const RetryPolicy pol = effective_policy();
  const RouteHop origin{RouteHop::Kind::Client, h.rank(), h.endpoint()};
  if (!pol.has_retries())
    return h.broker().rpc(origin, std::move(req_), pol.timeout);
  Promise<Message> promise(h.executor());
  Future<Message> fut = promise.future();
  co_spawn(h.executor(),
           retry_rpc(h.broker(), origin, std::move(req_), pol, std::move(promise)),
           "rpc.retry");
  return fut;
}

namespace {
Task<Message> checked(Future<Message> fut) {
  // Awaiting the future throws on transport-level errors (timeout, broker
  // failure); check() covers service-level errnum in the response.
  Message resp = co_await fut;
  Handle::check(resp);
  co_return resp;
}
}  // namespace

Task<Message> RequestBuilder::call() { return checked(send()); }

void Handle::check(const Message& response) {
  if (response.ok()) return;
  throw FluxException(Error(response.error(),
                            response.topic + ": " +
                                response.payload().get_string("errmsg", "error")));
}

void Handle::publish(std::string topic, Json payload) {
  Message ev = Message::event(std::move(topic), std::move(payload));
  broker_.publish(std::move(ev));
}

Subscription Handle::subscribe(std::string topic_prefix,
                               std::function<void(const Message&)> fn) {
  const std::uint64_t id = next_sub_++;
  broker_.subscribe(endpoint_, topic_prefix);
  subs_.push_back(Sub{id, std::move(topic_prefix), std::move(fn)});
  return Subscription{sub_state_, id};
}

void Handle::unsubscribe_impl(std::uint64_t subscription_id) {
  auto it = std::find_if(subs_.begin(), subs_.end(), [&](const Sub& s) {
    return s.id == subscription_id;
  });
  if (it == subs_.end()) return;
  broker_.unsubscribe(endpoint_, it->prefix);
  subs_.erase(it);
}

void Handle::deliver(Message msg) {
  if (!msg.is_event()) return;
  // A handle may hold several subscriptions; dispatch to each matching one.
  // Snapshot ids and re-check membership per callback: callbacks may
  // (un)subscribe reentrantly, and a stale std::function copy could hold
  // dangling captures.
  std::vector<std::uint64_t> ids;
  ids.reserve(subs_.size());
  for (const auto& sub : subs_)
    if (Message::topic_matches(sub.prefix, msg.topic)) ids.push_back(sub.id);
  for (const std::uint64_t id : ids) {
    auto it = std::find_if(subs_.begin(), subs_.end(),
                           [&](const Sub& s) { return s.id == id; });
    if (it != subs_.end()) it->fn(msg);
  }
}

Task<void> Handle::barrier(std::string name, std::int64_t nprocs) {
  // Payloads are built in separate statements throughout this codebase:
  // gcc 12 miscompiles non-empty initializer-list temporaries appearing in
  // the same statement as a co_await ("array used as initializer").
  Json payload = Json::object({{"name", std::move(name)}, {"nprocs", nprocs}});
  (void)co_await request("barrier.enter").payload(std::move(payload)).call();
}

Task<Json> Handle::ping(NodeId target) {
  Json payload = Json::object({{"from", rank()}});
  Message resp =
      co_await request("cmb.ping").to(target).payload(std::move(payload)).call();
  co_return resp.payload();
}

}  // namespace flux
