#include "broker/broker.hpp"

#include <algorithm>
#include <cassert>

#include "base/log.hpp"
#include "broker/session.hpp"
#include "net/topology.hpp"

namespace flux {

namespace {
/// How long a restarted broker waits for its re-admission event before it
/// asks the root again.
constexpr Duration kRejoinRetry = std::chrono::milliseconds(1);
}  // namespace

Broker::Broker(Session& session, NodeId rank, Executor& ex)
    : session_(session), rank_(rank), ex_(ex), topo_(session.topology()) {}

Broker::~Broker() {
  // Modules may own client Handles (e.g. job-manager's KVS connection) whose
  // destructors unregister endpoints; destroy them while the endpoint table
  // and the rest of the broker state are still alive.
  modules_by_name_.clear();
  modules_.clear();
}

std::uint32_t Broker::size() const noexcept { return session_.size(); }

bool Broker::is_root() const noexcept { return rank_ == 0; }

unsigned Broker::depth() const { return topology().depth(rank_); }

std::optional<NodeId> Broker::parent() const {
  return topology().parent(rank_);
}

std::vector<NodeId> Broker::children() const {
  return topology().children(rank_);
}

const Topology& Broker::topology() const { return topo_; }

Json Broker::module_config(std::string_view module_name) const {
  return session_.config().module_config.at(module_name);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void Broker::add_module(std::unique_ptr<Module> m) {
  Module* raw = m.get();
  raw->set_endpoint_id(add_endpoint([](Message) {
    // Module RPC responses resolve through pending_; nothing reaches here.
  }));
  modules_by_name_.insert_or_assign(std::string(raw->name()), raw);
  modules_.push_back(std::move(m));
}

void Broker::start() {
  for (auto& m : modules_) m->start();
  // Leaf brokers kick off the hello wire-up reduction; interior brokers wait
  // for all children (maybe_complete_hello fires as counts arrive).
  maybe_complete_hello();
}

void Broker::shutdown() {
  for (auto& m : modules_) m->shutdown();
  // Settle outstanding RPCs: a coroutine parked on a Future owns the Future
  // and the Future's state owns the coroutine handle, so an unsettled promise
  // strands the whole frame (Session::~Session drains the posted resumes).
  for (auto& [tag, pending] : pending_) {
    ex_.cancel(pending.timer);
    pending.promise.set_error(Error(errc::canceled, "session shutdown"));
  }
  pending_.clear();
}

Module* Broker::find_module(std::string_view service) noexcept {
  auto it = modules_by_name_.find(service);
  return it == modules_by_name_.end() ? nullptr : it->second;
}

std::vector<std::string_view> Broker::module_names() const {
  std::vector<std::string_view> out;
  out.reserve(modules_.size());
  for (const auto& m : modules_) out.push_back(m->name());
  return out;
}

// ---------------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------------

std::uint64_t Broker::add_endpoint(EndpointFn deliver) {
  const std::uint64_t id = next_endpoint_++;
  endpoints_.emplace(id, Endpoint{std::move(deliver), {}});
  return id;
}

void Broker::remove_endpoint(std::uint64_t id) { endpoints_.erase(id); }

void Broker::subscribe(std::uint64_t endpoint, std::string topic_prefix) {
  auto it = endpoints_.find(endpoint);
  if (it != endpoints_.end())
    it->second.subscriptions.push_back(std::move(topic_prefix));
}

void Broker::unsubscribe(std::uint64_t endpoint, std::string_view topic_prefix) {
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) return;
  auto& subs = it->second.subscriptions;
  subs.erase(std::remove(subs.begin(), subs.end(), topic_prefix), subs.end());
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

void Broker::receive(Message msg) {
  if (failed_) return;
  net_rx_msgs_.inc();
  net_rx_bytes_.inc(static_cast<std::uint64_t>(msg.wire_size()));
  if (msg.traced()) {
    // Stamp the hop. The plane is inferred from how the message got here:
    // the first stamp on a request is the node-local client hop; after that,
    // rank-addressed requests ride the ring and kNodeAny requests the tree.
    // Responses retrace the tree unless the next route hop lives on another
    // rank (ring-origin request riding home).
    TraceHop hop;
    hop.rank = rank_;
    hop.t_ns = ex_.now().count();
    switch (msg.type) {
      case MsgType::Request:
        if (msg.trace.empty())
          hop.plane = TraceHop::Plane::Local;
        else if (msg.nodeid != kNodeAny && msg.nodeid != kNodeUpstream)
          hop.plane = TraceHop::Plane::Ring;
        else
          hop.plane = TraceHop::Plane::Tree;
        break;
      case MsgType::Response:
        // Direct-edge responses (sharded KVS overlay) cross one tree-like
        // hop; only Client/Module hops on a foreign rank imply the ring.
        hop.plane = (!msg.route.empty() && msg.route.back().rank != rank_ &&
                     msg.route.back().kind != RouteHop::Kind::Direct)
                        ? TraceHop::Plane::Ring
                        : TraceHop::Plane::Tree;
        break;
      case MsgType::Event:
        hop.plane = TraceHop::Plane::Event;
        break;
      case MsgType::Keepalive:
        hop.plane = TraceHop::Plane::Local;
        break;
    }
    msg.trace.push_back(hop);
  }
  switch (msg.type) {
    case MsgType::Request:
      route_request(std::move(msg));
      return;
    case MsgType::Response:
      route_response(std::move(msg));
      return;
    case MsgType::Event:
      if (msg.seq == 0)
        on_event_from_below(std::move(msg));
      else
        deliver_event(msg);
      return;
    case MsgType::Keepalive:
      return;
  }
}

Future<Message> Broker::rpc(RouteHop origin, Message req, Duration timeout) {
  assert(origin.rank == rank_ && origin.kind != RouteHop::Kind::Broker);
  assert(origin.kind != RouteHop::Kind::Direct || req.nodeid < size());
  Promise<Message> promise(ex_);
  if (failed_) {
    // The local socket's peer is dead: refuse instead of registering a
    // pending entry no response will ever match (a module timer that
    // outlives fail() would otherwise park its coroutine forever).
    promise.set_error(Error(errc::host_down, "broker failed"));
    return promise.future();
  }
  const std::uint32_t tag = next_matchtag_++;
  req.matchtag = tag;
  req.route.push_back(origin);
  PendingRpc& pending =
      pending_.emplace(tag, PendingRpc{promise, ex_.now()}).first->second;
  const bool direct = origin.kind == RouteHop::Kind::Direct;
  if (direct) pending.target = req.nodeid;
  // Armed before the request leaves: a Module-origin request answered inline
  // cancels it in route_response like any other.
  if (timeout.count() > 0) {
    pending.timer = ex_.post_cancelable_after(
        timeout, [this, tag, topic = req.topic] {
          auto it = pending_.find(tag);
          if (it == pending_.end()) return;
          auto settled = it->second.promise;
          pending_.erase(it);
          rpc_timeouts_.inc();
          settled.set_error(Error(errc::timeout, "rpc timeout: " + topic));
        });
  }
  if (origin.kind == RouteHop::Kind::Client) {
    // The node-local hop: client -> broker (the paper's UNIX-domain socket).
    session_.send(rank_, rank_, std::move(req));
  } else if (direct && req.nodeid != rank_) {
    send(req.nodeid, std::move(req));
  } else {
    route_request(std::move(req));
  }
  return promise.future();
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

void Broker::route_request(Message msg) {
  // Rank-addressed requests ride the ring plane (paper: debugging tools,
  // "high latency of a ring is manageable").
  if (msg.nodeid != kNodeAny && msg.nodeid != kNodeUpstream) {
    if (msg.nodeid >= size()) {
      respond(msg.respond_error(errc::noent, "no such rank"));
      return;
    }
    if (msg.nodeid == rank_) {
      if (msg.service() == "cmb") {
        handle_cmb_request(std::move(msg));
        return;
      }
      if (Module* m = find_module(msg.service())) {
        dispatch_local(std::move(msg), *m);
      } else {
        respond(msg.respond_error(
            errc::nosys, "rank has no module '" + std::string(msg.service()) + "'"));
      }
      return;
    }
    ring_forwarded_.inc();
    send(topology().ring_next(rank_), std::move(msg));
    return;
  }

  // Tree plane: first matching module wins; otherwise upstream.
  const bool skip_local = (msg.nodeid == kNodeUpstream);
  msg.nodeid = kNodeAny;
  if (!skip_local) {
    if (msg.service() == "cmb") {
      handle_cmb_request(std::move(msg));
      return;
    }
    if (Module* m = find_module(msg.service())) {
      dispatch_local(std::move(msg), *m);
      return;
    }
  }
  const auto up = parent();
  if (!up) {
    respond(msg.respond_error(
        errc::nosys, "no service matched '" + msg.topic + "'"));
    return;
  }
  requests_forwarded_.inc();
  msg.route.push_back(RouteHop{RouteHop::Kind::Broker, rank_, 0});
  send(*up, std::move(msg));
}

void Broker::dispatch_local(Message msg, Module& m) {
  requests_dispatched_.inc();
  m.handle_request(std::move(msg));
}

void Broker::route_response(Message msg) {
  responses_routed_.inc();
  while (!msg.route.empty()) {
    const RouteHop hop = msg.route.back();
    if (hop.kind == RouteHop::Kind::Broker) {
      msg.route.pop_back();
      if (hop.rank == rank_) continue;  // self hop (shouldn't occur)
      send(hop.rank, std::move(msg));
      return;
    }
    // Client/Module/Direct endpoint hop.
    if (hop.rank != rank_) {
      if (hop.kind == RouteHop::Kind::Direct) {
        // Direct-edge origin (sharded-KVS overlay): return point-to-point.
        send(hop.rank, std::move(msg));
        return;
      }
      // Ring-addressed request origin: ride the ring home.
      send(topology().ring_next(rank_), std::move(msg));
      return;
    }
    msg.route.pop_back();
    auto pending = pending_.find(msg.matchtag);
    if (pending != pending_.end()) {
      auto promise = pending->second.promise;
      rpc_ns_.record(ex_.now() - pending->second.start);
      ex_.cancel(pending->second.timer);
      pending_.erase(pending);
      promise.set_value(std::move(msg));
    } else {
      // Late response: the matchtag was already settled (rpc timeout fired).
      responses_dropped_.inc();
      log::debug("broker", "rank ", rank_, ": dropped response tag ",
                 msg.matchtag, " topic ", msg.topic);
    }
    return;
  }
  log::warn("broker", "rank ", rank_, ": response with empty route for topic ",
            msg.topic);
}

void Broker::respond(Message resp) {
  assert(resp.is_response());
  route_response(std::move(resp));
}

void Broker::forward_upstream(Message req) {
  const auto up = parent();
  if (!up) {
    // Either a module bug (forwarding from the root) or an orphaned broker
    // whose parent link was healed away. Dropping is the resilient choice —
    // a throw here would take the whole reactor down.
    log::error("broker", "rank ", rank_,
               ": forward_upstream with no parent, dropping ", req.topic);
    return;
  }
  requests_forwarded_.inc();
  req.nodeid = kNodeAny;
  req.route.push_back(RouteHop{RouteHop::Kind::Broker, rank_, 0});
  send(*up, std::move(req));
}

void Broker::forward_direct(NodeId to, Message req) {
  req.nodeid = to;
  if (to == rank_) {
    route_request(std::move(req));
    return;
  }
  requests_forwarded_.inc();
  send(to, std::move(req));
}

void Broker::module_subscribe(Module& m, std::string topic_prefix) {
  module_subs_.emplace_back(std::move(topic_prefix), &m);
}

// ---------------------------------------------------------------------------
// Event plane
// ---------------------------------------------------------------------------

void Broker::publish(Message ev) {
  assert(ev.is_event());
  events_published_.inc();
  if (!is_root()) {
    ev.seq = 0;  // unsequenced until the root stamps it
    const auto up = parent();
    send(*up, std::move(ev));
    return;
  }
  ev.seq = next_event_seq_++;
  deliver_event(ev);
}

void Broker::publish(std::string topic, Json payload) {
  publish(Message::event(std::move(topic), std::move(payload)));
}

void Broker::publish_direct(Message ev) {
  if (is_root()) {
    publish(std::move(ev));
    return;
  }
  assert(ev.is_event());
  events_published_.inc();
  ev.seq = 0;  // unsequenced until the root stamps it
  send(0, std::move(ev));
}

void Broker::on_event_from_below(Message msg) {
  // An unsequenced event bubbling toward the root.
  if (!is_root()) {
    send(*parent(), std::move(msg));
    return;
  }
  msg.seq = next_event_seq_++;
  deliver_event(msg);
}

void Broker::deliver_event(const Message& msg) {
  if (msg.seq <= last_event_seq_) return;  // duplicate suppression
  last_event_seq_ = msg.seq;
  events_delivered_.inc();
  if (msg.topic == "cmb.online")
    online_.store(true, std::memory_order_release);
  if (msg.topic == "cmb.rejoin") {
    // A restarted broker was re-admitted by the root. Adopt the root's
    // authoritative parent relation BEFORE forwarding down — the event must
    // reach the rejoined rank through its brand-new parent link, the same
    // heal-then-forward discipline live.down uses.
    const auto back = static_cast<NodeId>(msg.payload().get_int("rank", -1));
    if (back < size() && msg.payload().contains("parents") &&
        msg.payload().at("parents").is_array() &&
        msg.payload().at("parents").size() == size()) {
      const auto& arr = msg.payload().at("parents").as_array();
      std::vector<std::optional<NodeId>> rel(size());
      for (std::uint32_t r = 0; r < size(); ++r) {
        const std::int64_t p = arr[r].is_int() ? arr[r].as_int() : -1;
        if (p >= 0) rel[r] = static_cast<NodeId>(p);
      }
      topo_.set_parents(std::move(rel));
      dead_ranks_.erase(back);
      if (back == rank_) {
        // Our own re-admission doubles as wire-up confirmation.
        online_.store(true, std::memory_order_release);
        log::info("broker", "rank ", rank_, ": rejoined under parent ",
                  msg.payload().get_int("parent", -1));
      }
    }
  }
  if (msg.topic == "live.down") {
    // Self-heal BEFORE forwarding: re-parent the dead rank's children to
    // its grandparent in this broker's topology replica, so the adopting
    // parent forwards this very event (and everything after it) to the
    // re-attached subtree. The computation is deterministic, so all
    // replicas converge. A broker never heals around itself, so a falsely-
    // declared broker keeps its links, but every other broker heals around
    // it: it gets no more events, hb included, so it sends no hellos, and
    // it never rejoins, because request_rejoin runs only from restart().
    // It stays out of the session, serving an ever staler root, until it
    // is restarted (ROADMAP, "Two failure gaps"; full split-brain recovery
    // is future work, matching the paper: "a design for comprehensive
    // fault tolerance ... is a near-term project activity").
    const auto dead = static_cast<NodeId>(msg.payload().get_int("rank", -1));
    if (dead < size() && dead != rank_) dead_ranks_.insert(dead);
    if (dead < size() && dead != 0 && dead != rank_ && topo_.parent(dead)) {
      const auto moved = topo_.heal_around(dead);
      if (!moved.empty())
        log::info("broker", "rank ", rank_, ": healed around dead rank ", dead);
    }
    // Direct RPCs to the dead rank will never see a response (the transport
    // drops traffic to failed brokers); settle them so callers don't hang.
    if (dead < size() && dead != rank_) {
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->second.target == dead) {
          auto promise = it->second.promise;
          ex_.cancel(it->second.timer);
          it = pending_.erase(it);
          promise.set_error(Error(errc::host_down, "direct rpc target died"));
        } else {
          ++it;
        }
      }
    }
  }
  // Forward down the (possibly just-healed) tree first.
  for (NodeId c : children()) send(c, msg);
  // Local module subscribers.
  for (auto& [prefix, mod] : module_subs_)
    if (Message::topic_matches(prefix, msg.topic)) mod->handle_event(msg);
  // Local client subscribers. A callback may attach/detach handles (mutating
  // endpoints_) or destroy the very Handle being iterated, so never hold an
  // iterator across a deliver: snapshot the matching ids, then re-look each
  // one up and only deliver if it still exists.
  std::vector<std::uint64_t> matched;
  for (const auto& [id, ep] : endpoints_) {
    for (const auto& prefix : ep.subscriptions) {
      if (Message::topic_matches(prefix, msg.topic)) {
        matched.push_back(id);
        break;
      }
    }
  }
  for (const std::uint64_t id : matched) {
    auto it = endpoints_.find(id);
    if (it != endpoints_.end()) it->second.deliver(msg);
  }
}

// ---------------------------------------------------------------------------
// Broker-internal "cmb" service
// ---------------------------------------------------------------------------

void Broker::handle_cmb_request(Message msg) {
  const auto method = msg.method();
  if (method == "ping") {
    Json payload = msg.payload();
    payload["rank"] = rank_;
    respond(msg.respond(std::move(payload)));
    return;
  }
  if (method == "info") {
    respond(msg.respond(Json::object({{"rank", rank_},
                                      {"size", size()},
                                      {"depth", depth()},
                                      {"arity", topology().arity()},
                                      {"online", online()}})));
    return;
  }
  if (method == "hello") {
    // Wire-up reduction: count descendants reporting in.
    hello_count_ += static_cast<std::uint32_t>(msg.payload().get_int("count", 1));
    maybe_complete_hello();
    return;
  }
  if (method == "rejoin") {
    // Root-only re-admission of a restarted broker (sent direct to rank 0,
    // fire-and-forget: the "cmb.rejoin" event is the acknowledgement). The
    // rejoiner attaches under its nearest live static-tree ancestor — the
    // deterministic dual of grandparent healing.
    const auto back = static_cast<NodeId>(msg.payload().get_int("rank", -1));
    if (!is_root() || back >= size() || back == 0) {
      log::warn("broker", "rank ", rank_, ": ignoring bad rejoin for rank ",
                msg.payload().get_int("rank", -1));
      return;
    }
    dead_ranks_.erase(back);
    NodeId new_parent = 0;
    for (NodeId a = (back - 1) / topology().arity(); a != 0;
         a = (a - 1) / topology().arity()) {
      if (!dead_ranks_.contains(a)) {
        new_parent = a;
        break;
      }
    }
    if (topo_.parent(back) != new_parent) topo_.reparent(back, new_parent);
    Json parents = Json::array();
    for (const auto& p : topo_.parents())
      parents.push_back(p ? Json(static_cast<std::int64_t>(*p)) : Json(-1));
    Json payload = Json::object(
        {{"rank", back}, {"parent", new_parent}, {"parents", std::move(parents)}});
    publish("cmb.rejoin", std::move(payload));
    return;
  }
  if (method == "lsmod") {
    Json mods = Json::array();
    for (auto name : module_names()) mods.push_back(std::string(name));
    respond(msg.respond(Json::object({{"rank", rank_}, {"modules", mods}})));
    return;
  }
  if (method == "stats.get") {
    respond(msg.respond(stats_json(msg.payload().get_bool("all", false))));
    return;
  }
  respond(msg.respond_error(errc::nosys,
                            "cmb has no method '" + std::string(method) + "'"));
}

Json Broker::stats_json(bool all) const {
  Json out = all ? registry_.snapshot() : registry_.snapshot("cmb");
  out["rank"] = rank_;
  return out;
}

void Broker::maybe_complete_hello() {
  const std::uint32_t descendants =
      static_cast<std::uint32_t>(topology().subtree(rank_).size()) - 1;
  if (hello_sent_ || hello_count_ < descendants) return;
  hello_sent_ = true;
  if (is_root()) {
    publish("cmb.online", Json::object({{"size", size()}}));
    return;
  }
  Message hello = Message::request("cmb.hello");
  hello.nodeid = *parent();
  hello.mutable_payload()["count"] = hello_count_ + 1;
  // Direct tree hop: hello is consumed by the parent broker.
  send(*parent(), std::move(hello));
}

// ---------------------------------------------------------------------------

void Broker::send(NodeId to, Message msg) {
  net_tx_msgs_.inc();
  net_tx_bytes_.inc(static_cast<std::uint64_t>(msg.wire_size()));
  session_.send(rank_, to, std::move(msg));
}

void Broker::fail() {
  failed_ = true;
  // Give modules with durable state their crash hook (torn-write injection)
  // before anything else observes the failure.
  for (auto& m : modules_) m->on_fail();
  // Settle outstanding local RPCs so client coroutines do not leak.
  for (auto& [tag, pending] : pending_) {
    ex_.cancel(pending.timer);
    pending.promise.set_error(Error(errc::host_down, "broker failed"));
  }
  pending_.clear();
}

void Broker::restart() {
  if (!failed_) return;
  failed_ = false;
  online_.store(false, std::memory_order_release);

  // A restarted CMB is a fresh process: tear down the crashed instance's
  // modules (their endpoints and event subscriptions with them) and build
  // new ones from the session config. Client endpoints that were attached
  // to this broker died with it and are NOT preserved.
  for (auto& m : modules_) remove_endpoint(m->endpoint_id());
  module_subs_.clear();
  modules_by_name_.clear();
  modules_.clear();
  // RPCs submitted while the broker was down piled up in pending_ (their
  // sends were dropped). Settle them — silently clearing would strand each
  // caller's timeout timer against a missing entry, parking the coroutine
  // forever.
  for (auto& [tag, pending] : pending_) {
    ex_.cancel(pending.timer);
    pending.promise.set_error(Error(errc::host_down, "broker restarted"));
  }
  pending_.clear();
  dead_ranks_.clear();
  if (!is_root()) {
    last_event_seq_ = 0;  // accept the next sequenced event, whatever it is
    next_event_seq_ = 1;
  }
  // Root restart keeps its sequencer counters: it is the event sequencer,
  // and resetting would re-issue seq numbers downstream brokers already saw
  // (deliver_event suppresses duplicates), silencing the whole event plane.
  // The hello reduction completed long ago; suppress a re-send.
  hello_count_ = 0;
  hello_sent_ = true;
  // Start from the session's base topology; the cmb.rejoin event overwrites
  // it with the root's authoritative (healed) parent relation.
  topo_ = session_.topology();

  ++incarnation_;
  session_.add_modules(*this);
  for (auto& m : modules_) m->start();

  if (is_root()) {
    // No upstream to rejoin through (handle_cmb_request refuses a rejoin
    // for rank 0): the root readmits itself. Modules recover durable state
    // in start() — the KVS master republishes its recovered root.
    online_.store(true, std::memory_order_release);
    log::info("broker", "rank 0: restarted in place (session root)");
    return;
  }
  log::info("broker", "rank ", rank_, ": restarting, requesting rejoin");
  request_rejoin(incarnation_);
}

void Broker::request_rejoin(std::uint64_t incarnation) {
  if (failed_ || online() || incarnation != incarnation_) return;
  Message req = Message::request("cmb.rejoin");
  req.nodeid = 0;
  req.mutable_payload()["rank"] = rank_;
  send(0, std::move(req));
  // A daemon event, so a broker that cannot rejoin (root down) does not keep
  // a simulation's run-until-idle loop alive.
  ex_.post_daemon_after(kRejoinRetry,
                        [this, incarnation] { request_rejoin(incarnation); });
}

}  // namespace flux
