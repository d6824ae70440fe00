// Seed-driven deterministic fault schedules.
//
// A FaultPlan is the concrete Injector: it owns a timed schedule of
// node-level faults (broker crashes, restarts with tree rejoin) plus per-link
// message policies (probabilistic drop/delay/corrupt and exact
// nth-message triggers). Everything a plan does derives from its seed and the
// order of transport sends, so a simulated run replays bit-for-bit: rerunning
// a failing seed reproduces the failure.
//
// Construction is programmatic (fluent setters) or from JSON:
//
//   {
//     "events": [{"kind": "crash",   "rank": 3, "at_us": 2000},
//                {"kind": "restart", "rank": 3, "at_us": 9000}],
//     "links":  [{"from": -1, "to": -1, "drop": 0.02,
//                 "delay": 0.05, "delay_min_us": 20, "delay_max_us": 400,
//                 "corrupt": 0.01}],
//     "nth":    [{"from": 0, "to": 1, "n": 7, "action": "drop"}]
//   }
//
// (-1 is the wildcard rank.) FaultPlan::random(seed, opts) synthesizes a
// schedule from a single seed — the DST explorer's generator
// (check/explorer.hpp), which the dst, persist and chaos suites sweep.
//
// Usage: bring the session online first, then arm(session). Arming installs
// the injector and posts the timed node events; link policies apply to every
// send from that point on. The plan must outlive the session (or the session
// must clear the injector first).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "fault/injector.hpp"
#include "json/json.hpp"

namespace flux {
class Session;
}  // namespace flux

namespace flux::fault {

/// One scheduled node-level fault.
struct NodeEvent {
  enum class Kind : std::uint8_t { crash, restart };
  Kind kind = Kind::crash;
  NodeId rank = 0;
  Duration at{0};  ///< relative to arm() time
};

/// Probabilistic per-message policy for a link (or, with wildcard ranks, a
/// set of links). Probabilities are evaluated in the order drop, corrupt,
/// delay against one uniform draw, so their sum should stay <= 1.
struct LinkPolicy {
  NodeId from = kNodeAny;  ///< kNodeAny = any sender
  NodeId to = kNodeAny;    ///< kNodeAny = any receiver
  double drop = 0.0;
  double corrupt = 0.0;
  double delay = 0.0;
  Duration delay_min{0};
  Duration delay_max{0};
};

/// Exact-count trigger: act on the nth matching message of a link. Fires
/// once; counts are kept per (from, to) pair, wildcards match any pair.
/// With a non-empty topic prefix the rule counts only messages whose topic
/// matches it (per-rule count), so e.g. "the 2nd kvs.load from 3 to 1" is
/// addressable regardless of interleaved heartbeat/event traffic.
struct NthRule {
  NodeId from = kNodeAny;
  NodeId to = kNodeAny;
  std::uint64_t nth = 1;  ///< 1-based
  Verdict::Action action = Verdict::Action::drop;
  Duration delay{0};      ///< for Action::delay
  std::string topic;      ///< topic prefix filter; empty = any message
  bool spent = false;
  std::uint64_t matched = 0;  ///< per-rule count (topic rules only)
};

/// Torn-write rule: when a matching rank crashes with unsynced bytes in a
/// durable-storage backend, decide how much of that tail reached disk as a
/// partial flush (Injector::on_crash_unsynced). Without any matching rule a
/// crash loses the whole unsynced tail (keep = 0).
struct TornRule {
  enum class Mode : std::uint8_t {
    none,    ///< clean tail loss (keep 0 bytes)
    all,     ///< the flush completed just in time (keep everything)
    random,  ///< torn: keep a uniform prefix in [0, unsynced]
  };
  NodeId rank = kNodeAny;
  Mode mode = Mode::random;
};

class FaultPlan final : public Injector {
 public:
  explicit FaultPlan(std::uint64_t seed = 1);

  /// Movable so the factory functions below can return by value. Must not be
  /// moved after arm() — the session holds a pointer to the armed plan.
  FaultPlan(FaultPlan&& o) noexcept
      : seed_(o.seed_),
        rng_(o.rng_),
        events_(std::move(o.events_)),
        links_(std::move(o.links_)),
        nth_rules_(std::move(o.nth_rules_)),
        torn_rules_(std::move(o.torn_rules_)),
        counts_(std::move(o.counts_)),
        seen_(o.seen_),
        injected_(o.injected_),
        armed_(o.armed_) {}
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;
  FaultPlan& operator=(FaultPlan&&) = delete;

  // -- programmatic construction ---------------------------------------------
  FaultPlan& crash_at(NodeId rank, Duration at);
  FaultPlan& restart_at(NodeId rank, Duration at);
  FaultPlan& link(LinkPolicy policy);
  FaultPlan& drop_nth(NodeId from, NodeId to, std::uint64_t nth,
                      std::string topic = {});
  FaultPlan& corrupt_nth(NodeId from, NodeId to, std::uint64_t nth,
                         std::string topic = {});
  FaultPlan& delay_nth(NodeId from, NodeId to, std::uint64_t nth, Duration d,
                       std::string topic = {});
  FaultPlan& torn_write(NodeId rank, TornRule::Mode mode = TornRule::Mode::random);

  /// Parse the JSON schedule format above. Throws FluxException(inval) on
  /// malformed input. Nanosecond-precision variants of every duration field
  /// (at_ns, delay_min_ns, delay_max_ns, delay_ns) are accepted and win over
  /// the microsecond ones — to_json() emits those, so a synthesized schedule
  /// round-trips exactly.
  static FaultPlan from_json(const Json& j);

  /// Serialize the schedule (seed + events + links + nth rules) so that
  /// from_json(to_json()) rebuilds an identically-behaving plan. This is the
  /// shrinker's repro format (check/shrink.hpp).
  [[nodiscard]] Json to_json() const;

  /// Options for random(): which fault categories a synthesized schedule may
  /// draw from, sized to the session.
  struct RandomOptions {
    std::uint32_t size = 1;          ///< session size (rank 0 never crashes)
    Duration horizon{std::chrono::milliseconds(50)};  ///< schedule window
    bool crashes = false;
    bool restarts = false;  ///< crashed brokers may restart + rejoin
    bool drops = false;
    bool delays = false;
    bool corruption = false;
    /// Crash (and always restart) the session root too — only meaningful
    /// for sessions whose KVS master persists, since root state is
    /// otherwise unrecoverable.
    bool crash_root = false;
    /// Add a wildcard torn-write rule: crashes keep a random prefix of any
    /// unsynced durable-storage tail.
    bool torn_writes = false;
    int max_crashes = 1;
  };

  /// Deterministically synthesize a schedule from one seed.
  static FaultPlan random(std::uint64_t seed, const RandomOptions& opt);

  /// Install this plan on a session: set the injector and post the timed
  /// node events (times are relative to now). Call once, after wire-up.
  void arm(Session& session);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const std::vector<NodeEvent>& events() const noexcept {
    return events_;
  }

  /// Messages considered (total transport sends seen since arm()).
  [[nodiscard]] std::uint64_t messages_seen() const noexcept;
  /// Messages dropped / delayed / corrupted so far.
  [[nodiscard]] std::uint64_t faults_injected() const noexcept;

  // Injector:
  Verdict on_send(NodeId from, NodeId to, const Message& msg) override;
  std::uint64_t on_crash_unsynced(NodeId rank,
                                  std::uint64_t unsynced_bytes) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  // Threaded sessions call on_send from every broker's reactor thread.
  mutable std::mutex mu_;
  std::vector<NodeEvent> events_;
  std::vector<LinkPolicy> links_;
  std::vector<NthRule> nth_rules_;
  std::vector<TornRule> torn_rules_;
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> counts_;
  std::uint64_t seen_ = 0;
  std::uint64_t injected_ = 0;
  bool armed_ = false;
};

}  // namespace flux::fault
