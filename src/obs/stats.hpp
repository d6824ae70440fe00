// Session observability: counters and latency histograms (paper §V).
//
// The paper's evaluation reasons about per-hop message costs; this registry
// is the in-tree telemetry layer those measurements hang off, and the only
// place a broker's counters live. Every broker owns one StatsRegistry; the
// broker core, its comms modules, the KVS and its cache, content log and
// scheduler resolve named Counters and Histograms in it once, at
// construction, and increment them directly. Registries are *lock-free on
// the reactor*: a registry is only ever touched from its broker's executor
// (sim: the one SimExecutor thread; threaded: that broker's reactor thread),
// so instruments are plain integers — recording a sample is one array
// increment, cheap enough for every message hop.
//
// Snapshots serialize to JSON for the "<service>.stats.get" RPC; snapshots
// from different ranks merge (counters sum, histogram buckets add) so a
// client can aggregate a session-wide view — see obs/stats_client.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "exec/executor.hpp"
#include "json/json.hpp"

namespace flux::obs {

/// Monotonic event counter.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Log-scale (power-of-two bucket) histogram of non-negative samples,
/// HdrHistogram-style: bucket i counts samples whose bit width is i, i.e.
/// value 0 -> bucket 0, value v > 0 -> bucket floor(log2(v)) + 1. With 64
/// buckets it covers the full uint64 range at ~2x resolution — enough to
/// read p50/p99 shapes of nanosecond latencies without per-sample storage.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t value);
  void record(Duration d) {
    record(d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count()));
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }

  /// Value at quantile q in [0,1]: the geometric midpoint of the bucket
  /// holding the q-th sample (clamped to observed min/max).
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  /// {"count","sum","min","max","mean","p50","p90","p99","buckets":[[i,n]..]}
  [[nodiscard]] Json to_json() const;

  /// Add another histogram's samples (cross-rank aggregation). Accepts the
  /// to_json() form from a peer; anything else (a field or bucket that is
  /// not a non-negative integer, a bucket index out of range, buckets that
  /// do not sum to the count, a total past the JSON integer range) is
  /// errc::proto and leaves this histogram as it was.
  [[nodiscard]] Status merge_json(const Json& j);
  /// Add another histogram's samples (same-named instruments of one broker).
  void add(const Histogram& other);

 private:
  /// Per-bucket counts, allocated at the first sample: a broker creates all
  /// its instruments up front, and most histograms stay empty on most brokers.
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// Name-keyed registry of instruments. Names are hierarchical
/// ("kvs.puts", "cmb.rpc_ns"); the leading component is the owning service,
/// which "<service>.stats.get" uses to slice per-module views.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  /// Create an instrument. References stay valid for the registry's
  /// lifetime; instrument-holding code resolves once and increments
  /// directly. Creating is an append, not a search, so a broker resolves
  /// its few dozen instruments cheaply at construction. A name created
  /// again (a restarted module resolving its instruments) reads as one
  /// instrument: snapshots and lookups sum same-named instruments.
  Counter& counter(std::string_view name) { return add(counters_, name); }
  Histogram& histogram(std::string_view name) { return add(histograms_, name); }

  /// Read-only lookups for reports and tests (0 / empty when none exists).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] Histogram histogram_value(std::string_view name) const;

  /// {"counters":{name:value,...},"histograms":{name:{...},...}}, limited to
  /// names under `prefix` ("kvs" matches "kvs.puts", not "kvsx"); empty
  /// prefix snapshots everything.
  [[nodiscard]] Json snapshot(std::string_view prefix = {}) const;

  /// Merge one snapshot into an aggregate (counters sum; histograms merge).
  /// Snapshots arrive from other ranks: one that is malformed (see
  /// Histogram::merge_json; counters likewise) or whose sums would leave the
  /// JSON integer range is errc::proto, and `into` is left untouched.
  [[nodiscard]] static Status merge_snapshot(Json& into, const Json& snap);

 private:
  /// An instrument and where its name sits in names_ (one buffer for every
  /// name: no allocation per instrument).
  template <class T>
  struct Named {
    std::uint32_t offset;
    std::uint32_t size;
    T instrument;
  };
  template <class T>
  T& add(std::deque<Named<T>>& to, std::string_view name) {
    const auto offset = static_cast<std::uint32_t>(names_.size());
    names_.append(name);
    const auto size = static_cast<std::uint32_t>(name.size());
    return to.emplace_back(Named<T>{offset, size, T{}}).instrument;
  }
  template <class T>
  [[nodiscard]] std::string_view name_of(const Named<T>& n) const {
    return std::string_view(names_).substr(n.offset, n.size);
  }

  std::string names_;
  // deques: appends keep existing elements' addresses.
  std::deque<Named<Counter>> counters_;
  std::deque<Named<Histogram>> histograms_;
};

}  // namespace flux::obs
