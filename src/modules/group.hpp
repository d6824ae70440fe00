// group: "Flux groups define and manage collection of processes that can
// participate in collective operations." (Table I)
//
// Membership is tracked authoritatively at the session root; joins/leaves
// are aggregated up the tree as (group, member-list) deltas. A membership
// snapshot is readable anywhere via group.info, and "group.change" events
// let interested parties (tools, barriers sized by group) react.
#pragma once

#include <map>
#include <set>
#include <string>

#include "broker/module.hpp"

namespace flux::modules {

class Group final : public Module {
 public:
  explicit Group(Broker& broker);

  [[nodiscard]] std::string_view name() const override { return "group"; }

 private:
  /// Member identifier: "rank.endpoint" (unique per client process).
  struct Delta {
    std::vector<std::string> join;
    std::vector<std::string> leave;
  };

  void apply_and_forward(const std::string& group, Delta delta, Message* ack);
  void flush(const std::string& group);

  // Root-only authoritative membership.
  std::map<std::string, std::set<std::string>> members_;
  // Batched deltas heading upstream.
  std::map<std::string, Delta> pending_;
  std::set<std::string> flush_scheduled_;
};

}  // namespace flux::modules
