// live: "Each tree node receives heartbeat-synchronized hello messages from
// its children. After a configurable number of missed messages, a liveliness
// event is issued for a dead child." (Table I)
//
// On every hb event a non-root broker sends live.hello to its tree parent;
// the parent records the epoch. A child whose hello is more than
// `missed_max` epochs stale is declared dead via a "live.down" event, which
// also triggers topology self-healing (children of the dead rank re-parent
// to their grandparent; see Broker::deliver_event).
#pragma once

#include <map>
#include <set>

#include "broker/module.hpp"

namespace flux::modules {

class Live final : public Module {
 public:
  explicit Live(Broker& broker);

  [[nodiscard]] std::string_view name() const override { return "live"; }
  void start() override;
  void handle_event(const Message& msg) override;

  /// Ranks this broker has declared dead (children only).
  [[nodiscard]] const std::set<NodeId>& dead() const noexcept { return dead_; }

 private:
  void on_heartbeat(std::uint64_t epoch);

  std::uint64_t missed_max_ = 3;
  std::uint64_t grace_epochs_ = 2;  // no verdicts before this epoch
  std::map<NodeId, std::uint64_t> last_hello_;
  std::set<NodeId> dead_;
};

}  // namespace flux::modules
