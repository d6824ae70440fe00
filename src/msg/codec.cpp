#include "msg/codec.hpp"

#include <algorithm>
#include <cstring>
#include <map>

namespace flux {

namespace {

constexpr std::uint32_t kMagic = 0x584c4c46u;  // "FLLX"

std::map<std::string, AttachmentDecoder, std::less<>>& attachment_registry() {
  static std::map<std::string, AttachmentDecoder, std::less<>> registry;
  return registry;
}

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_bytes(std::vector<std::uint8_t>& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> wire) : wire_(wire) {}

  bool u8(std::uint8_t& v) { return fixed(&v, 1); }
  bool u16(std::uint16_t& v) {
    std::uint8_t b[2];
    if (!fixed(b, 2)) return false;
    v = static_cast<std::uint16_t>(b[0] | (b[1] << 8));
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint8_t b[4];
    if (!fixed(b, 4)) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return true;
  }
  bool u64(std::uint64_t& v) {
    std::uint8_t b[8];
    if (!fixed(b, 8)) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return true;
  }
  bool str(std::string& out, std::size_t n) {
    if (pos_ + n > wire_.size()) return false;
    out.assign(reinterpret_cast<const char*>(wire_.data() + pos_), n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] bool done() const { return pos_ == wire_.size(); }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return wire_.size() - pos_; }

 private:
  bool fixed(std::uint8_t* out, std::size_t n) {
    if (pos_ + n > wire_.size()) return false;
    std::memcpy(out, wire_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
};

Error proto_error(const char* what) {
  return Error(errc::proto, std::string("codec: ") + what);
}

}  // namespace

CodecStats& codec_stats() noexcept {
  static CodecStats stats;
  return stats;
}

// Defined here rather than message.cpp: the body layout (length prefixes,
// frame order) is wire-codec knowledge.
const SharedBytes& Message::encoded_body() const {
  if (!body_cache_) {
    codec_stats().body_builds.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::uint8_t> out;
    // Serialize into a reused per-thread buffer: steady-state body builds do
    // one allocation (the SharedBytes result), not two.
    thread_local std::string json_buf;
    json_buf.clear();
    payload_.dump_into(json_buf);
    const std::string& json = json_buf;
    std::size_t att_size = 0;
    if (attachment_)
      att_size = attachment_->tag().size() + attachment_->wire_size();
    out.reserve(4 + json.size() + 4 + data_size() + 1 + 4 + att_size);
    put_u32(out, static_cast<std::uint32_t>(json.size()));
    put_bytes(out, json);
    put_u32(out, static_cast<std::uint32_t>(data_size()));
    if (data_) put_bytes(out, *data_);
    if (attachment_) {
      const auto tag = attachment_->tag();
      put_u8(out, static_cast<std::uint8_t>(tag.size()));
      put_bytes(out, tag);
      const std::string body = attachment_->serialize();
      put_u32(out, static_cast<std::uint32_t>(body.size()));
      put_bytes(out, body);
    } else {
      put_u8(out, 0);
      put_u32(out, 0);
    }
    body_cache_ = SharedBytes(std::move(out));
    body_size_ = body_cache_.size();
  }
  return body_cache_;
}

namespace {

/// Emit the per-hop header portion (everything before the JSON frame).
void put_header(std::vector<std::uint8_t>& out, const Message& msg) {
  put_u32(out, kMagic);
  put_u8(out, static_cast<std::uint8_t>(msg.type));
  put_u8(out, msg.flags);
  put_u32(out, msg.matchtag);
  put_u32(out, msg.nodeid);
  put_u64(out, msg.seq);
  put_u32(out, static_cast<std::uint32_t>(msg.errnum));
  put_u16(out, static_cast<std::uint16_t>(msg.topic.size()));
  put_bytes(out, msg.topic);
  put_u16(out, static_cast<std::uint16_t>(msg.route.size()));
  for (const RouteHop& hop : msg.route) {
    put_u8(out, static_cast<std::uint8_t>(hop.kind));
    put_u32(out, hop.rank);
    put_u64(out, hop.id);
  }
  put_u16(out, static_cast<std::uint16_t>(msg.trace.size()));
  for (const TraceHop& hop : msg.trace) {
    put_u8(out, static_cast<std::uint8_t>(hop.plane));
    put_u32(out, hop.rank);
    put_u64(out, static_cast<std::uint64_t>(hop.t_ns));
  }
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& msg) {
  CodecStats& st = codec_stats();
  st.encodes.fetch_add(1, std::memory_order_relaxed);
  if (msg.has_encoded_body())
    st.body_reuses.fetch_add(1, std::memory_order_relaxed);
  const SharedBytes& body = msg.encoded_body();
  std::vector<std::uint8_t> out;
  out.reserve(msg.header_wire_size() + body.size());
  put_header(out, msg);
  out.insert(out.end(), body.data(), body.data() + body.size());
  return out;
}

WireFrame encode_shared(const Message& msg) {
  return std::make_shared<const std::vector<std::uint8_t>>(encode(msg));
}

namespace {

/// Shared decode core. `owner` non-null = zero-copy path: the decoded
/// message's body cache aliases the frame instead of copying it.
Expected<Message> decode_impl(std::span<const std::uint8_t> wire,
                              const WireFrame* owner) {
  Reader rd(wire);
  std::uint32_t magic = 0;
  if (!rd.u32(magic) || magic != kMagic) return proto_error("bad magic");

  Message msg;
  std::uint8_t type = 0;
  if (!rd.u8(type)) return proto_error("truncated type");
  if (type < 1 || type > 4) return proto_error("bad message type");
  msg.type = static_cast<MsgType>(type);

  if (!rd.u8(msg.flags)) return proto_error("truncated flags");
  if (!rd.u32(msg.matchtag)) return proto_error("truncated matchtag");
  if (!rd.u32(msg.nodeid)) return proto_error("truncated nodeid");
  if (!rd.u64(msg.seq)) return proto_error("truncated seq");
  std::uint32_t errnum = 0;
  if (!rd.u32(errnum)) return proto_error("truncated errnum");
  msg.errnum = static_cast<int>(errnum);

  std::uint16_t topic_len = 0;
  if (!rd.u16(topic_len) || !rd.str(msg.topic, topic_len))
    return proto_error("truncated topic");

  std::uint16_t route_len = 0;
  if (!rd.u16(route_len)) return proto_error("truncated route length");
  // Counts come off the wire: reserve no more hops than the remaining bytes
  // can hold (13 bytes per route or trace hop).
  constexpr std::size_t kHopBytes = 1 + 4 + 8;
  msg.route.reserve(std::min<std::size_t>(route_len, rd.remaining() / kHopBytes));
  for (std::uint16_t i = 0; i < route_len; ++i) {
    RouteHop hop;
    std::uint8_t kind = 0;
    if (!rd.u8(kind) || kind > 3) return proto_error("bad route hop");
    hop.kind = static_cast<RouteHop::Kind>(kind);
    if (!rd.u32(hop.rank) || !rd.u64(hop.id))
      return proto_error("truncated route hop");
    msg.route.push_back(hop);
  }

  std::uint16_t trace_len = 0;
  if (!rd.u16(trace_len)) return proto_error("truncated trace length");
  msg.trace.reserve(std::min<std::size_t>(trace_len, rd.remaining() / kHopBytes));
  for (std::uint16_t i = 0; i < trace_len; ++i) {
    TraceHop hop;
    std::uint8_t plane = 0;
    if (!rd.u8(plane) || plane > 3) return proto_error("bad trace hop");
    hop.plane = static_cast<TraceHop::Plane>(plane);
    std::uint64_t t = 0;
    if (!rd.u32(hop.rank) || !rd.u64(t))
      return proto_error("truncated trace hop");
    hop.t_ns = static_cast<std::int64_t>(t);
    msg.trace.push_back(hop);
  }

  const std::size_t body_start = rd.pos();

  std::uint32_t json_len = 0;
  std::string json;
  if (!rd.u32(json_len) || !rd.str(json, json_len))
    return proto_error("truncated json frame");
  auto parsed = Json::parse(json);
  if (!parsed) return parsed.error();
  Json payload = std::move(parsed).value();

  std::shared_ptr<const std::string> data;
  std::uint32_t data_len = 0;
  if (!rd.u32(data_len)) return proto_error("truncated data length");
  if (data_len > 0) {
    std::string bytes;
    if (!rd.str(bytes, data_len)) return proto_error("truncated data frame");
    data = std::make_shared<const std::string>(std::move(bytes));
  }

  std::shared_ptr<const Attachment> attachment;
  std::uint8_t tag_len = 0;
  if (!rd.u8(tag_len)) return proto_error("truncated attachment tag length");
  std::string tag;
  if (!rd.str(tag, tag_len)) return proto_error("truncated attachment tag");
  std::uint32_t att_len = 0;
  if (!rd.u32(att_len)) return proto_error("truncated attachment length");
  std::string att_body;
  if (!rd.str(att_body, att_len)) return proto_error("truncated attachment");
  if (!tag.empty()) {
    auto& registry = attachment_registry();
    auto it = registry.find(tag);
    if (it == registry.end())
      return proto_error("unknown attachment tag");
    auto decoded = it->second(att_body);
    if (!decoded) return decoded.error();
    attachment = std::move(decoded).value();
  }
  if (!rd.done()) return proto_error("trailing bytes");

  // Seed the body-encoding cache with the arriving bytes: re-encoding this
  // message for the next hop memcpys them instead of re-serializing. The
  // zero-copy path aliases the shared frame; the span path owns a copy.
  SharedBytes body;
  if (owner != nullptr) {
    body = SharedBytes(*owner, wire.data() + body_start,
                       wire.size() - body_start);
  } else {
    body = SharedBytes(std::vector<std::uint8_t>(
        wire.begin() + static_cast<std::ptrdiff_t>(body_start), wire.end()));
  }
  detail::MessageCodecAccess::install_body(msg, std::move(payload),
                                           std::move(data),
                                           std::move(attachment),
                                           std::move(body));
  return msg;
}

}  // namespace

namespace detail {

void MessageCodecAccess::install_body(Message& m, Json payload,
                                      std::shared_ptr<const std::string> data,
                                      std::shared_ptr<const Attachment> att,
                                      SharedBytes cache) {
  m.payload_ = std::move(payload);
  m.data_ = std::move(data);
  m.attachment_ = std::move(att);
  m.body_size_ = cache ? cache.size() : Message::kNoBodySize;
  m.body_cache_ = std::move(cache);
}

}  // namespace detail

Expected<Message> decode(std::span<const std::uint8_t> wire) {
  codec_stats().decodes.fetch_add(1, std::memory_order_relaxed);
  return decode_impl(wire, nullptr);
}

Expected<Message> decode_shared(const WireFrame& frame) {
  codec_stats().decodes.fetch_add(1, std::memory_order_relaxed);
  return decode_impl(*frame, &frame);
}

void register_attachment_codec(std::string tag, AttachmentDecoder decoder) {
  attachment_registry().insert_or_assign(std::move(tag), std::move(decoder));
}

}  // namespace flux
