// CMB message model.
//
// Paper §IV-A: "All CMB messages have a uniform, multi-part message format
// consisting of at least a header frame and a JSON frame. The header frame
// identifies the message recipient using a hierarchical name space."
//
// We add an optional raw-data frame (bulk KVS object payloads travel there so
// they are not JSON-escaped) and a route stack: each broker that forwards a
// request upstream pushes its rank, and the response unwinds the stack so it
// retraces "the same set of hops, in reverse".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "json/json.hpp"
#include "msg/shared_bytes.hpp"

namespace flux {

/// Broker rank within a comms session. Dense [0, size).
using NodeId = std::uint32_t;

/// Sentinel ranks used in message addressing.
inline constexpr NodeId kNodeAny = 0xffffffffu;      ///< route upstream until matched
inline constexpr NodeId kNodeUpstream = 0xfffffffeu; ///< skip local, then as kNodeAny

/// Message kinds carried on the overlay planes (paper: request-reply on the
/// tree/ring planes, events on the pub-sub plane).
enum class MsgType : std::uint8_t {
  Request = 1,
  Response = 2,
  Event = 3,
  Keepalive = 4,
};

std::string_view msg_type_name(MsgType t) noexcept;

namespace detail {
struct MessageCodecAccess;
}  // namespace detail

/// Opaque shared bulk attachment with an explicit wire footprint.
///
/// Aggregating modules (KVS fence/commit reductions) carry structured bulk
/// payloads — e.g. bundles of content-addressed objects — that interior
/// brokers merge and re-forward. Keeping these as shared immutable structures
/// avoids re-serializing megabytes on every simulated hop; crossing a real
/// (threaded) transport flattens them through serialize() and the tag-keyed
/// decoder registry (see codec.hpp).
class Attachment {
 public:
  virtual ~Attachment() = default;
  /// Registry key identifying the concrete type on the wire.
  [[nodiscard]] virtual std::string_view tag() const noexcept = 0;
  /// Bytes serialize() would produce (bandwidth accounting).
  [[nodiscard]] virtual std::size_t wire_size() const = 0;
  [[nodiscard]] virtual std::string serialize() const = 0;
};

/// Header flag bits (Message::flags).
inline constexpr std::uint8_t kMsgFlagTrace = 0x01;  ///< collect route trace

/// One per-broker stamp of a traced message's journey. Requests accumulate
/// hops as they cross brokers; respond() copies the request's hops into the
/// response, which keeps stamping on the way back — so the originator gets
/// the full forward+return path with per-hop timestamps, the raw material
/// for the paper's §V-C per-hop cost model.
struct TraceHop {
  /// Overlay plane the message crossed to reach this broker (Figure 1),
  /// Local being the node-local client<->broker transport hop.
  enum class Plane : std::uint8_t { Local = 0, Tree = 1, Ring = 2, Event = 3 };
  NodeId rank = 0;
  Plane plane = Plane::Local;
  std::int64_t t_ns = 0;  ///< executor clock at the stamp (sim: virtual time)

  friend bool operator==(const TraceHop&, const TraceHop&) = default;
};

std::string_view trace_plane_name(TraceHop::Plane p) noexcept;

/// One hop of a request's return path. Client endpoints and comules (module
/// endpoints) are disambiguated from broker ranks by the kind tag. Direct is
/// a module endpoint whose response returns over a direct transport link
/// instead of retracing the tree or riding the ring — the sharded-KVS
/// overlay (shard_map.hpp) uses it so per-shard trees bypass the session
/// root.
struct RouteHop {
  enum class Kind : std::uint8_t { Broker = 0, Client = 1, Module = 2, Direct = 3 };
  Kind kind = Kind::Broker;
  NodeId rank = 0;        ///< broker rank the endpoint lives on
  std::uint64_t id = 0;   ///< client handle id / module endpoint id (0 for Broker)

  friend bool operator==(const RouteHop&, const RouteHop&) = default;
};

/// A CMB message. Cheap to copy: the bulk data frame is shared & immutable.
struct Message {
  MsgType type = MsgType::Request;

  /// Hierarchical topic, e.g. "kvs.get"; the leading component selects the
  /// comms module ("kvs"), the rest is the module-internal method ("get").
  std::string topic;

  /// Request/response matching tag, scoped to the originating endpoint.
  std::uint32_t matchtag = 0;

  /// Addressing: kNodeAny routes upstream until a module matches (tree
  /// plane); a concrete rank routes point-to-point on the ring plane.
  NodeId nodeid = kNodeAny;

  /// Global sequence number (events only; assigned by the session root).
  std::uint64_t seq = 0;

  /// Response error code (0 == success).
  int errnum = 0;

  /// Header flag bits (kMsgFlag*).
  std::uint8_t flags = 0;

  /// Return path. route.front() is the originating endpoint.
  std::vector<RouteHop> route;

  /// Per-broker stamps, appended while kMsgFlagTrace is set.
  std::vector<TraceHop> trace;

  // -- body frames ----------------------------------------------------------
  // The payload / data / attachment frames are private so every mutation is
  // forced through a setter that invalidates the memoized body encoding
  // below. Header fields (route, trace, nodeid, ...) stay public: forwarding
  // rewrites them on every hop, and they are cheap to re-emit — only the
  // body is memoized.

  /// JSON payload frame (read-only view).
  [[nodiscard]] const Json& payload() const noexcept { return payload_; }
  /// Mutable payload access; invalidates the cached body encoding.
  [[nodiscard]] Json& mutable_payload() noexcept {
    invalidate_encoding();
    return payload_;
  }
  void set_payload(Json p) noexcept {
    invalidate_encoding();
    payload_ = std::move(p);
  }

  /// Optional bulk data frame (shared, immutable).
  [[nodiscard]] const std::shared_ptr<const std::string>& data() const noexcept {
    return data_;
  }
  void set_data(std::shared_ptr<const std::string> d) noexcept {
    invalidate_encoding();
    data_ = std::move(d);
  }

  /// Optional structured bulk attachment (shared, immutable).
  [[nodiscard]] const std::shared_ptr<const Attachment>& attachment() const noexcept {
    return attachment_;
  }
  void set_attachment(std::shared_ptr<const Attachment> a) noexcept {
    invalidate_encoding();
    attachment_ = std::move(a);
  }

  /// Canonical encoding of the body frames (JSON + data + attachment tail of
  /// the wire layout), memoized on first use. encode() reuses it on every
  /// subsequent hop, and decode() seeds it from the arriving frame, so a
  /// forwarded message serializes its body exactly once end to end.
  /// Defined in codec.cpp (it is wire-layout knowledge).
  [[nodiscard]] const SharedBytes& encoded_body() const;
  [[nodiscard]] bool has_encoded_body() const noexcept {
    return static_cast<bool>(body_cache_);
  }
  /// Drop the memoized encoding (called by every body mutator).
  void invalidate_encoding() const noexcept {
    body_cache_.reset();
    body_size_ = kNoBodySize;
  }

  // -- constructors ---------------------------------------------------------
  static Message request(std::string topic, Json payload = Json::object());
  static Message event(std::string topic, Json payload = Json::object());

  /// Build the success response to `req` (copies tag & reversed route).
  [[nodiscard]] Message respond(Json payload = Json::object()) const;
  /// Build an error response to `req`.
  [[nodiscard]] Message respond_error(errc code, std::string_view what = {}) const;

  /// This message's error code, typed. errnum stays the raw wire field; this
  /// is the comparison surface: `resp.error() == errc::timeout`.
  [[nodiscard]] errc error() const noexcept { return static_cast<errc>(errnum); }
  [[nodiscard]] bool ok() const noexcept { return errnum == 0; }

  // -- helpers --------------------------------------------------------------
  [[nodiscard]] bool is_request() const noexcept { return type == MsgType::Request; }
  [[nodiscard]] bool is_response() const noexcept { return type == MsgType::Response; }
  [[nodiscard]] bool is_event() const noexcept { return type == MsgType::Event; }
  [[nodiscard]] bool traced() const noexcept { return (flags & kMsgFlagTrace) != 0; }

  /// Leading topic component ("kvs" for "kvs.get").
  [[nodiscard]] std::string_view service() const noexcept;
  /// Remainder after the service prefix ("get" for "kvs.get").
  [[nodiscard]] std::string_view method() const noexcept;
  /// True if `topic` matches subscription prefix `sub` at a component
  /// boundary ("hb" matches "hb" and "hb.pulse" but not "hbx").
  static bool topic_matches(std::string_view sub, std::string_view topic) noexcept;

  /// Size of the bulk data frame (0 if absent).
  [[nodiscard]] std::size_t data_size() const noexcept {
    return data_ ? data_->size() : 0;
  }

  /// Size of the attachment frame (0 if absent).
  [[nodiscard]] std::size_t attachment_size() const {
    return attachment_ ? attachment_->wire_size() : 0;
  }

  /// Wire footprint in bytes: what encode() would produce. Used by the
  /// network simulator for bandwidth/serialization accounting without
  /// actually encoding on every simulated hop. The body portion is memoized
  /// (and shared with the cached encoding), so per-hop accounting does not
  /// re-walk the JSON payload or attachment.
  [[nodiscard]] std::size_t wire_size() const;

  /// Wire footprint of the per-hop header portion (everything before the
  /// JSON frame: fixed fields + topic + route + trace stacks).
  [[nodiscard]] std::size_t header_wire_size() const noexcept;

 private:
  /// Codec-internal backdoor: decode() fills the body fields and seeds the
  /// encoding cache from the arriving frame without double-invalidation.
  friend struct detail::MessageCodecAccess;

  static constexpr std::size_t kNoBodySize = static_cast<std::size_t>(-1);

  Json payload_;
  std::shared_ptr<const std::string> data_;
  std::shared_ptr<const Attachment> attachment_;

  // Memoized canonical body encoding + its size. `mutable` because memoizing
  // on a const Message (encode takes const&) is semantically non-mutating;
  // messages are reactor-confined, so no concurrent access to one instance.
  mutable SharedBytes body_cache_;
  mutable std::size_t body_size_ = kNoBodySize;
};

namespace detail {
/// The wire codec's access to Message body internals (defined in codec.cpp):
/// decode() installs all three body frames plus the encoding cache in one
/// step, bypassing the invalidating setters.
struct MessageCodecAccess {
  static void install_body(Message& m, Json payload,
                           std::shared_ptr<const std::string> data,
                           std::shared_ptr<const Attachment> att,
                           SharedBytes cache);
};
}  // namespace detail

}  // namespace flux
