#include "msg/message.hpp"

namespace flux {

std::string_view msg_type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::Request: return "request";
    case MsgType::Response: return "response";
    case MsgType::Event: return "event";
    case MsgType::Keepalive: return "keepalive";
  }
  return "?";
}

std::string_view trace_plane_name(TraceHop::Plane p) noexcept {
  switch (p) {
    case TraceHop::Plane::Local: return "local";
    case TraceHop::Plane::Tree: return "tree";
    case TraceHop::Plane::Ring: return "ring";
    case TraceHop::Plane::Event: return "event";
  }
  return "?";
}

Message Message::request(std::string topic, Json payload) {
  Message m;
  m.type = MsgType::Request;
  m.topic = std::move(topic);
  m.payload_ = std::move(payload);
  return m;
}

Message Message::event(std::string topic, Json payload) {
  Message m;
  m.type = MsgType::Event;
  m.topic = std::move(topic);
  m.payload_ = std::move(payload);
  return m;
}

Message Message::respond(Json response_payload) const {
  Message m;
  m.type = MsgType::Response;
  m.topic = topic;
  m.matchtag = matchtag;
  m.nodeid = nodeid;
  m.errnum = 0;
  m.flags = flags;
  m.route = route;  // unwound hop-by-hop by the broker
  m.trace = trace;  // the return path keeps appending to the request's hops
  m.payload_ = std::move(response_payload);
  return m;
}

Message Message::respond_error(errc code, std::string_view what) const {
  Message m = respond();
  m.errnum = static_cast<int>(code);
  if (!what.empty()) m.payload_ = Json::object({{"errmsg", std::string(what)}});
  return m;
}

std::string_view Message::service() const noexcept {
  const auto dot = topic.find('.');
  return dot == std::string::npos ? std::string_view(topic)
                                  : std::string_view(topic).substr(0, dot);
}

std::string_view Message::method() const noexcept {
  const auto dot = topic.find('.');
  return dot == std::string::npos ? std::string_view{}
                                  : std::string_view(topic).substr(dot + 1);
}

bool Message::topic_matches(std::string_view sub, std::string_view topic) noexcept {
  if (sub.empty()) return true;  // empty subscription matches everything
  if (topic.size() < sub.size()) return false;
  if (topic.compare(0, sub.size(), sub) != 0) return false;
  return topic.size() == sub.size() || topic[sub.size()] == '.';
}

std::size_t Message::header_wire_size() const noexcept {
  // Mirrors codec.cpp layout up to (excluding) the JSON frame.
  constexpr std::size_t kFixed = 4 /*magic*/ + 1 /*type*/ + 1 /*flags*/ +
                                 4 /*matchtag*/ + 4 /*nodeid*/ + 8 /*seq*/ +
                                 4 /*errnum*/ + 2 /*topic len*/ +
                                 2 /*route len*/ + 2 /*trace len*/;
  return kFixed + topic.size() + route.size() * 13 + trace.size() * 13;
}

std::size_t Message::wire_size() const {
  // Body footprint (length prefixes + JSON + data + attachment) is memoized:
  // per-hop accounting (simnet bandwidth model, broker tx/rx counters) would
  // otherwise re-walk the JSON payload and attachment on every send.
  if (body_size_ == kNoBodySize) {
    std::size_t att = 0;
    if (attachment_) att = attachment_->tag().size() + attachment_->wire_size();
    body_size_ = 4 /*json len*/ + payload_.dump_size() + 4 /*data len*/ +
                 data_size() + 1 /*attachment tag len*/ +
                 4 /*attachment len*/ + att;
  }
  return header_wire_size() + body_size_;
}

}  // namespace flux
