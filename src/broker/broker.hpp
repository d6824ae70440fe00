// The Comms Message Broker (CMB).
//
// One Broker runs per (simulated or threaded) node of a comms session. It is
// a pure reactor: all activity enters through receive() (transport delivery)
// and rpc() (a request issued by a client, a module or a direct-edge peer
// link) on its executor. The broker implements the three overlay planes of
// Figure 1:
//
//  - request/response + reduction TREE: requests addressed to kNodeAny are
//    dispatched to the first loaded module whose name matches the topic's
//    leading component, else forwarded to the tree parent ("routed upstream
//    ... to the first comms module that matches"). Each forwarding hop is
//    pushed on the route stack; responses unwind it "through the same set of
//    hops, in reverse".
//  - EVENT plane: publish() forwards to the session root, which assigns a
//    global sequence number and broadcasts down the tree; brokers deliver to
//    local subscribers in sequence order.
//  - RING plane: requests addressed to a concrete rank hop around the ring
//    ("allows ranks to be trivially reached without routing tables");
//    responses ride the ring back to the originating rank.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "broker/module.hpp"
#include "exec/executor.hpp"
#include "exec/future.hpp"
#include "msg/message.hpp"
#include "net/topology.hpp"
#include "obs/stats.hpp"

namespace flux {

class Session;

class Broker {
 public:
  Broker(Session& session, NodeId rank, Executor& ex);
  ~Broker();
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  // -- identity -------------------------------------------------------------
  [[nodiscard]] NodeId rank() const noexcept { return rank_; }
  [[nodiscard]] std::uint32_t size() const noexcept;
  [[nodiscard]] bool is_root() const noexcept;
  [[nodiscard]] unsigned depth() const;
  [[nodiscard]] std::optional<NodeId> parent() const;
  [[nodiscard]] std::vector<NodeId> children() const;
  [[nodiscard]] Executor& executor() noexcept { return ex_; }
  [[nodiscard]] Session& session() noexcept { return session_; }
  [[nodiscard]] const Topology& topology() const;

  /// Per-module configuration subtree from SessionConfig::module_config.
  [[nodiscard]] Json module_config(std::string_view module_name) const;

  // -- lifecycle --------------------------------------------------------------
  void add_module(std::unique_ptr<Module> m);
  void start();     ///< start modules, then begin hello wire-up reduction
  void shutdown();  ///< stop modules; then refuse RPCs and drop messages
  [[nodiscard]] Module* find_module(std::string_view service) noexcept;
  [[nodiscard]] std::vector<std::string_view> module_names() const;

  // -- endpoints (clients attach here; each module also gets one) -----------
  using EndpointFn = std::function<void(Message)>;
  std::uint64_t add_endpoint(EndpointFn deliver);
  void remove_endpoint(std::uint64_t id);
  void subscribe(std::uint64_t endpoint, std::string topic_prefix);
  void unsubscribe(std::uint64_t endpoint, std::string_view topic_prefix);

  // -- message entry points --------------------------------------------------
  /// Transport delivery (posted on this broker's executor).
  void receive(Message msg);
  /// Issue a request; the response resolves the future. Every request takes
  /// this one path, whoever sends it; `origin` is the issuer's return
  /// address (its rank must be this broker's) and its kind picks the first
  /// hop:
  ///  - Client: crosses the node-local transport hop (models the UNIX-domain
  ///    socket clients use in the paper's prototype);
  ///  - Module: routes in-process (comms modules share the CMB's address
  ///    space), so a local service may answer before rpc() returns;
  ///  - Direct: goes straight to `req.nodeid` over the transport and the
  ///    response returns point-to-point. This is the sharded-KVS overlay hop:
  ///    per-shard reduction trees are not session topology, so their edges
  ///    bypass both tree and ring routing. If `req.nodeid` is later declared
  ///    dead ("live.down"), the RPC settles with EHOSTDOWN instead of hanging.
  /// A positive `timeout` is a deadline: the RPC resolves errc::timeout if no
  /// response arrives in time. Without one, nothing is armed per request.
  /// A failed broker refuses with errc::host_down.
  Future<Message> rpc(RouteHop origin, Message req, Duration timeout = {});

  // -- services for modules ---------------------------------------------------
  /// Send a fully-built response on its way (unwinds the route stack).
  void respond(Message resp);
  /// Forward (an possibly rewritten/aggregated) request to the tree parent.
  /// Must not be called on the root.
  void forward_upstream(Message req);
  /// Publish an event (sequenced by the session root, broadcast to all).
  void publish(Message ev);
  void publish(std::string topic, Json payload = Json::object());
  /// publish() that reaches the session root over a direct edge instead of
  /// climbing the tree: the sharded-KVS overlay's announce hop.
  void publish_direct(Message ev);
  /// Fire-and-forget request sent straight to `to` (no response expected);
  /// the direct-edge analogue of forward_upstream.
  void forward_direct(NodeId to, Message req);
  /// Subscribe a module to an event topic prefix.
  void module_subscribe(Module& m, std::string topic_prefix);

  // -- fault injection ---------------------------------------------------------
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// Stop participating: all subsequent receives are dropped.
  void fail();
  /// Come back from fail() as a fresh process: new module instances, no
  /// pending RPCs, no event history. Sends "cmb.rejoin" straight to the
  /// root; the root re-attaches this rank under its nearest live ancestor
  /// and broadcasts the new parent relation, which doubles as this broker's
  /// wire-up confirmation (online() flips when the event arrives). The
  /// request repeats until that event arrives: an announcement broadcast
  /// while an ancestor is down but not yet declared dead is lost with it.
  void restart();
  /// Restarts so far: 0 in the first incarnation. Set before the fresh
  /// modules start, so their start() can tell a restart from a first boot.
  [[nodiscard]] std::uint64_t incarnation() const noexcept {
    return incarnation_;
  }
  /// Ranks this broker has seen declared dead (via "live.down") and not yet
  /// rejoined. The root consults this to pick a rejoin parent.
  [[nodiscard]] const std::set<NodeId>& dead_ranks() const noexcept {
    return dead_ranks_;
  }

  /// True once the session-wide hello reduction reached the root and the
  /// "cmb.online" event came back down.
  [[nodiscard]] bool online() const noexcept {
    return online_.load(std::memory_order_acquire);
  }

  // Read by hostbench only; goes when hostbench reads a registry dump.
  struct Stats {
    std::uint64_t requests_forwarded, ring_forwarded, events_delivered,
        rpc_timeouts, responses_dropped;
  };
  [[nodiscard]] Stats stats() const noexcept {
    return {requests_forwarded_.value(), ring_forwarded_.value(),
            events_delivered_.value(), rpc_timeouts_.value(),
            responses_dropped_.value()};
  }

  /// This broker's observability registry. Reactor-confined: only touch it
  /// from this broker's executor (see obs/stats.hpp).
  [[nodiscard]] obs::StatsRegistry& stats_registry() noexcept { return registry_; }
  [[nodiscard]] const obs::StatsRegistry& stats_registry() const noexcept {
    return registry_;
  }

  /// The "cmb" service's stats.get payload: the registry's cmb.* slice (the
  /// whole registry with all=true) plus {"rank"}.
  [[nodiscard]] Json stats_json(bool all = false) const;

 private:
  struct Endpoint {
    EndpointFn deliver;
    std::vector<std::string> subscriptions;
  };

  void route_request(Message msg);
  void route_response(Message msg);
  void dispatch_local(Message msg, Module& m);
  void handle_cmb_request(Message msg);  ///< broker-internal "cmb.*" service
  void on_event_from_below(Message msg);
  void deliver_event(const Message& msg);
  void send(NodeId to, Message msg);
  void maybe_complete_hello();
  /// Send "cmb.rejoin" to the root, then again every kRejoinRetry until the
  /// re-admission event arrives, this broker fails, or a later restart
  /// supersedes `incarnation`.
  void request_rejoin(std::uint64_t incarnation);

  Session& session_;
  NodeId rank_;
  Executor& ex_;
  /// Broker-local replica of the overlay topology. Healing ("live.down"
  /// events) mutates each replica on its own reactor, so threaded sessions
  /// never share mutable topology state across threads.
  Topology topo_;
  bool failed_ = false;
  bool shut_down_ = false;  ///< shutdown() ran (session teardown)
  std::uint64_t incarnation_ = 0;  ///< restarts so far
  std::set<NodeId> dead_ranks_;
  // Read by Session::wait_online from a foreign thread in threaded sessions;
  // written only on this broker's reactor.
  std::atomic<bool> online_{false};

  std::vector<std::unique_ptr<Module>> modules_;
  std::map<std::string, Module*, std::less<>> modules_by_name_;

  std::uint64_t next_endpoint_ = 1;
  std::map<std::uint64_t, Endpoint> endpoints_;
  // Module event subscriptions: (prefix, module).
  std::vector<std::pair<std::string, Module*>> module_subs_;

  // Pending RPCs issued from this broker's endpoints/modules. The issue
  // timestamp feeds the cmb.rpc_ns latency histogram at resolution.
  struct PendingRpc {
    Promise<Message> promise;
    TimePoint start;
    /// Concrete destination rank for direct RPCs (settled on "live.down");
    /// kNodeAny for tree/ring RPCs whose destination routing decides.
    NodeId target = kNodeAny;
    /// Cancelable timeout event (0 = none armed); canceled on resolution so
    /// a settled RPC's deadline does not keep the simulation alive.
    std::uint64_t timer = 0;
  };
  std::uint32_t next_matchtag_ = 1;
  std::map<std::uint32_t, PendingRpc> pending_;

  // Event sequencing (root) and delivery ordering (all).
  std::uint64_t next_event_seq_ = 1;
  std::uint64_t last_event_seq_ = 0;

  // Wire-up hello reduction state.
  std::uint32_t hello_count_ = 0;  // descendants reported (excluding self)
  bool hello_sent_ = false;

  obs::StatsRegistry registry_;
  // Core routing and traffic instruments, resolved once at construction:
  // receive/send are the hottest broker paths.
  obs::Counter& requests_dispatched_ = registry_.counter("cmb.requests_dispatched");
  obs::Counter& requests_forwarded_ = registry_.counter("cmb.requests_forwarded");
  obs::Counter& responses_routed_ = registry_.counter("cmb.responses_routed");
  obs::Counter& events_published_ = registry_.counter("cmb.events_published");
  obs::Counter& events_delivered_ = registry_.counter("cmb.events_delivered");
  obs::Counter& ring_forwarded_ = registry_.counter("cmb.ring_forwarded");
  /// Local RPCs resolved ETIMEDOUT, and late/unmatched responses.
  obs::Counter& rpc_timeouts_ = registry_.counter("cmb.rpc_timeouts");
  obs::Counter& responses_dropped_ = registry_.counter("cmb.responses_dropped");
  /// Local RPC issue-to-response latency.
  obs::Histogram& rpc_ns_ = registry_.histogram("cmb.rpc_ns");
  obs::Counter& net_rx_msgs_ = registry_.counter("cmb.net.rx_msgs");
  obs::Counter& net_rx_bytes_ = registry_.counter("cmb.net.rx_bytes");
  obs::Counter& net_tx_msgs_ = registry_.counter("cmb.net.tx_msgs");
  obs::Counter& net_tx_bytes_ = registry_.counter("cmb.net.tx_bytes");
};

}  // namespace flux
