#include "modules/group.hpp"

#include "base/log.hpp"
#include "broker/broker.hpp"

namespace flux::modules {

namespace {
std::string member_id(const Message& msg) {
  if (msg.route.empty()) return "?";
  const RouteHop& origin = msg.route.front();
  return std::to_string(origin.rank) + "." + std::to_string(origin.id);
}
}  // namespace

Group::Group(Broker& b) : Module(b) {
  on("join", [this](Message& m) {
    const std::string group = m.payload().get_string("name");
    if (group.empty()) {
      respond_error(m, errc::inval, "group.join: need name");
      return;
    }
    Delta d;
    d.join.push_back(m.payload().get_string("member", member_id(m)));
    apply_and_forward(group, std::move(d), &m);
  });
  on("leave", [this](Message& m) {
    const std::string group = m.payload().get_string("name");
    if (group.empty()) {
      respond_error(m, errc::inval, "group.leave: need name");
      return;
    }
    Delta d;
    d.leave.push_back(m.payload().get_string("member", member_id(m)));
    apply_and_forward(group, std::move(d), &m);
  });
  // Aggregated deltas from downstream instances.
  on("update", [this](Message& m) {
    const std::string group = m.payload().get_string("name");
    Delta d;
    for (const Json& j : m.payload().at("join").as_array())
      d.join.push_back(j.as_string());
    for (const Json& j : m.payload().at("leave").as_array())
      d.leave.push_back(j.as_string());
    apply_and_forward(group, std::move(d), nullptr);
  });
  // Membership snapshot; answered wherever authoritative data lives (the
  // root), so non-root instances forward it upstream.
  on("info", [this](Message& m) {
    if (!broker().is_root()) {
      broker().forward_upstream(std::move(m));
      return;
    }
    const std::string group = m.payload().get_string("name");
    auto it = members_.find(group);
    Json list = Json::array();
    if (it != members_.end())
      for (const auto& member : it->second) list.push_back(member);
    respond_ok(m, Json::object({{"name", group},
                                {"size", list.size()},
                                {"members", std::move(list)}}));
  });
  on("list", [this](Message& m) {
    if (!broker().is_root()) {
      broker().forward_upstream(std::move(m));
      return;
    }
    Json names = Json::array();
    for (const auto& [group, members] : members_) names.push_back(group);
    respond_ok(m, Json::object({{"groups", std::move(names)}}));
  });
}

void Group::apply_and_forward(const std::string& group, Delta delta,
                              Message* ack) {
  if (broker().is_root()) {
    auto& members = members_[group];
    for (auto& m : delta.join) members.insert(std::move(m));
    for (auto& m : delta.leave) members.erase(m);
    broker().publish("group.change", Json::object({{"name", group},
                                                   {"size", members.size()}}));
  } else {
    Delta& pending = pending_[group];
    std::move(delta.join.begin(), delta.join.end(),
              std::back_inserter(pending.join));
    std::move(delta.leave.begin(), delta.leave.end(),
              std::back_inserter(pending.leave));
    if (flush_scheduled_.insert(group).second)
      broker().executor().post([this, group] { flush(group); });
  }
  if (ack) respond_ok(*ack, Json::object({{"name", group}}));
}

void Group::flush(const std::string& group) {
  flush_scheduled_.erase(group);
  auto it = pending_.find(group);
  if (it == pending_.end()) return;
  Delta delta = std::move(it->second);
  pending_.erase(it);
  if (delta.join.empty() && delta.leave.empty()) return;
  Json join = Json::array(), leave = Json::array();
  for (auto& m : delta.join) join.push_back(std::move(m));
  for (auto& m : delta.leave) leave.push_back(std::move(m));
  broker().forward_upstream(Message::request(
      "group.update", Json::object({{"name", group},
                                    {"join", std::move(join)},
                                    {"leave", std::move(leave)}})));
}

}  // namespace flux::modules
