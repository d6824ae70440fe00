#include "modules/mon.hpp"

#include <algorithm>

#include "api/handle.hpp"
#include "base/log.hpp"
#include "base/rng.hpp"
#include "broker/broker.hpp"
#include "kvs/kvs_client.hpp"

namespace flux::modules {

void MonSample::merge(const MonSample& o) {
  if (o.count == 0) return;
  if (count == 0) {
    *this = o;
    return;
  }
  min = std::min(min, o.min);
  max = std::max(max, o.max);
  sum += o.sum;
  count += o.count;
}

Json MonSample::to_json() const {
  return Json::object(
      {{"min", min}, {"max", max}, {"sum", sum}, {"count", count}});
}

MonSample MonSample::from_json(const Json& j) {
  return MonSample{j.get_double("min"), j.get_double("max"),
                   j.get_double("sum"), j.get_int("count")};
}

Mon::Mon(Broker& b) : Module(b) {
  // Built-in samplers standing in for the paper's Linux sampling scripts.
  register_sampler("load", [](NodeId rank, std::uint64_t epoch) {
    Rng rng(0x10adULL ^ (static_cast<std::uint64_t>(rank) << 20) ^ epoch);
    return 0.5 + rng.uniform() * 15.5;  // synthetic per-core load
  });
  register_sampler("mem", [](NodeId rank, std::uint64_t epoch) {
    Rng rng(0x3e3eULL ^ (static_cast<std::uint64_t>(rank) << 20) ^ epoch);
    return 2.0 + rng.uniform() * 28.0;  // synthetic GB in use
  });

  on("reduce", [this](Message& m) {
    const auto epoch = static_cast<std::uint64_t>(m.payload().get_int("epoch"));
    std::map<std::string, MonSample, std::less<>> metrics;
    for (const auto& [mname, sample] : m.payload().at("metrics").as_object())
      metrics.emplace(mname, MonSample::from_json(sample));
    reduce(epoch, std::move(metrics));
  });
  broker().module_subscribe(*this, "hb");
}

Mon::~Mon() = default;

void Mon::start() {
  handle_ = std::make_unique<Handle>(broker());
  kvs_ = std::make_unique<KvsClient>(*handle_);
  const Json cfg = broker().module_config("mon");
  interval_epochs_ =
      static_cast<std::uint64_t>(std::max<std::int64_t>(
          1, cfg.get_int("interval_epochs", 4)));
  // Depth-staggered settle delays: leaves flush first, the root last, so
  // each epoch's aggregate arrives (nearly always) whole at every level.
  const unsigned levels_above =
      broker().topology().height() - broker().depth() + 1;
  flush_delay_ = flush_delay_ * levels_above;
}

void Mon::register_sampler(std::string sampler_name, Sampler fn) {
  samplers_.insert_or_assign(std::move(sampler_name), std::move(fn));
}

void Mon::handle_event(const Message& msg) {
  if (msg.topic != "hb") return;
  on_heartbeat(static_cast<std::uint64_t>(msg.payload().get_int("epoch", 0)));
}

void Mon::on_heartbeat(std::uint64_t epoch) {
  if (epoch % interval_epochs_ != 0) return;
  co_spawn(broker().executor(), sample_epoch(epoch), "mon.sample");
}

Task<void> Mon::sample_epoch(std::uint64_t epoch) {
  // Which samplers are active is controlled via the KVS ("scripts stored in
  // the KVS activate ... sampling"). Resolved against the local cache, so
  // this is a cheap local read once warm.
  Json active;
  try {
    active = co_await kvs_->get("mon.samplers");
  } catch (const FluxException&) {
    co_return;  // sampling not configured
  }
  if (!active.is_array()) co_return;

  std::map<std::string, MonSample, std::less<>> metrics;
  for (const Json& sampler_name : active.as_array()) {
    if (!sampler_name.is_string()) continue;
    auto it = samplers_.find(sampler_name.as_string());
    if (it == samplers_.end()) continue;
    metrics.emplace(sampler_name.as_string(),
                    MonSample::single(it->second(broker().rank(), epoch)));
  }
  if (!metrics.empty()) reduce(epoch, std::move(metrics));
}

void Mon::reduce(std::uint64_t epoch,
                 std::map<std::string, MonSample, std::less<>> metrics) {
  EpochAgg& agg = pending_[epoch];
  for (auto& [mname, sample] : metrics) agg.metrics[mname].merge(sample);
  if (agg.flush_scheduled) return;
  agg.flush_scheduled = true;
  // Settle delay (depth-staggered, see start()) so contributions from the
  // whole subtree coalesce before re-transmission.
  broker().executor().post_daemon_after(
      flush_delay_, [this, epoch, tok = std::weak_ptr<const bool>(alive_)] {
        if (tok.expired()) return;  // module destroyed (broker restart)
        flush(epoch);
      });
}

void Mon::flush(std::uint64_t epoch) {
  auto it = pending_.find(epoch);
  if (it == pending_.end()) return;
  if (broker().is_root()) {
    co_spawn(broker().executor(), store_aggregate(epoch), "mon.store");
    return;
  }
  EpochAgg agg = std::move(it->second);
  pending_.erase(it);
  Json metrics = Json::object();
  for (const auto& [mname, sample] : agg.metrics)
    metrics[mname] = sample.to_json();
  broker().forward_upstream(Message::request(
      "mon.reduce",
      Json::object({{"epoch", epoch}, {"metrics", std::move(metrics)}})));
}

Task<void> Mon::store_aggregate(std::uint64_t epoch) {
  auto it = pending_.find(epoch);
  if (it == pending_.end()) co_return;
  EpochAgg agg = std::move(it->second);
  pending_.erase(it);

  KvsTxn txn;
  for (const auto& [mname, sample] : agg.metrics) {
    Json doc = sample.to_json();
    doc["avg"] = sample.count > 0
                     ? sample.sum / static_cast<double>(sample.count)
                     : 0.0;
    txn.put("mon.data." + mname + ".e" + std::to_string(epoch),
            std::move(doc));
  }
  try {
    (void)co_await kvs_->commit(std::move(txn));
  } catch (const FluxException& e) {
    log::warn("mon", "failed to store samples: ", e.what());
  }
}

}  // namespace flux::modules
