// mon: "Linux scripts stored in the KVS activate heartbeat-synchronized
// sampling. Samples are reduced and stored in the KVS." (Table I)
//
// Substitution (see DESIGN.md): sampler *scripts* become registered C++
// sampler functions; which samplers are active is still controlled through
// the KVS (key "mon.samplers": ["load", ...]), read on each sampling epoch.
// Samples are min/max/sum/count-reduced up the tree and the root stores the
// aggregate back into the KVS under mon.data.<sampler>.e<epoch>, in one
// transaction. Reads and the write go through the broker's own Handle +
// KvsClient.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "broker/module.hpp"
#include "exec/task.hpp"

namespace flux {
class Handle;
class KvsClient;
}  // namespace flux

namespace flux::modules {

/// One per-rank metric aggregate.
struct MonSample {
  double min = 0, max = 0, sum = 0;
  std::int64_t count = 0;

  void merge(const MonSample& o);
  [[nodiscard]] Json to_json() const;
  static MonSample from_json(const Json& j);
  static MonSample single(double v) { return {v, v, v, 1}; }
};

class Mon final : public Module {
 public:
  using Sampler = std::function<double(NodeId rank, std::uint64_t epoch)>;

  explicit Mon(Broker& broker);
  ~Mon() override;

  [[nodiscard]] std::string_view name() const override { return "mon"; }
  void start() override;
  void handle_event(const Message& msg) override;

  /// Add/replace a sampler available on this instance (tests install custom
  /// ones; "load" and "mem" are built in).
  void register_sampler(std::string sampler_name, Sampler fn);

 private:
  void on_heartbeat(std::uint64_t epoch);
  Task<void> sample_epoch(std::uint64_t epoch);
  void reduce(std::uint64_t epoch,
              std::map<std::string, MonSample, std::less<>> metrics);
  void flush(std::uint64_t epoch);
  Task<void> store_aggregate(std::uint64_t epoch);

  std::uint64_t interval_epochs_ = 4;  ///< sample every N heartbeats
  Duration flush_delay_{std::chrono::microseconds(200)};

  std::map<std::string, Sampler, std::less<>> samplers_;
  std::unique_ptr<Handle> handle_;  ///< for the KVS client
  std::unique_ptr<KvsClient> kvs_;

  struct EpochAgg {
    std::map<std::string, MonSample, std::less<>> metrics;
    bool flush_scheduled = false;
  };
  std::map<std::uint64_t, EpochAgg> pending_;
  // Timers are not cancelable; a broker restart destroys this module while
  // a flush is still queued. The callback holds a weak_ptr to this token
  // and no-ops once the module is gone.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

}  // namespace flux::modules
