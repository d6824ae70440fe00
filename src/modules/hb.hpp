// hb: "A periodic heartbeat event multicast across the comms session
// synchronizes background activity to reduce scheduling jitter." (Table I)
//
// The root broker's instance publishes an "hb" event with a monotonically
// increasing epoch; every instance tracks the last epoch seen. All periodic
// work in the session (liveness hellos, mon sampling, KVS cache expiry) keys
// off these events rather than free-running timers — the paper's
// noise-reduction design.
#pragma once

#include <atomic>
#include <memory>

#include "broker/module.hpp"
#include "exec/executor.hpp"

namespace flux::modules {

class Heartbeat final : public Module {
 public:
  explicit Heartbeat(Broker& broker);

  [[nodiscard]] std::string_view name() const override { return "hb"; }
  void start() override;
  void shutdown() override;
  void handle_event(const Message& msg) override;

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] Duration period() const noexcept { return period_; }

 private:
  void arm();
  void tick();

  Duration period_{std::chrono::milliseconds(1)};
  std::uint64_t epoch_ = 0;
  // Set by shutdown(), which threaded sessions call from the owning
  // thread while the reactor may still be ticking.
  std::atomic<bool> stopped_{false};
  // Timers are not cancelable; a broker restart destroys this module while
  // a tick is still queued. The callback holds a weak_ptr to this token and
  // no-ops once the module is gone.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace flux::modules
