// barrier: "Collective barriers provide synchronization across Flux groups."
// (Table I)
//
// Clients enter with (name, nprocs). Each broker's instance counts local
// entries plus aggregated counts from its subtree, micro-batching increments
// per reactor turn before forwarding upstream (the tree-reduction pattern of
// §IV-A). When the root's total reaches nprocs it publishes "barrier.exit";
// every instance then responds to its local waiters. Barrier names are
// reusable once a generation completes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "broker/module.hpp"

namespace flux::modules {

class Barrier final : public Module {
 public:
  explicit Barrier(Broker& broker);

  [[nodiscard]] std::string_view name() const override { return "barrier"; }
  void handle_event(const Message& msg) override;

 private:
  struct State {
    std::int64_t nprocs = 0;
    std::int64_t pending = 0;  // counts not yet forwarded / totalled
    std::int64_t total = 0;    // root only
    std::vector<Message> waiters;
    bool flush_scheduled = false;
  };

  void enter(const std::string& name, std::int64_t nprocs, std::int64_t count);
  void flush(const std::string& name);

  std::map<std::string, State> barriers_;
  /// Local client entries, generations released here, reductions sent up.
  obs::Counter& entered_ = stats_registry().counter("barrier.entered");
  obs::Counter& completed_ = stats_registry().counter("barrier.completed");
  obs::Counter& forwarded_ = stats_registry().counter("barrier.forwarded");
};

}  // namespace flux::modules
