#include "obs/stats.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>

namespace flux::obs {

void Histogram::record(std::uint64_t value) {
  if (buckets_.empty()) buckets_.resize(kBuckets);
  const std::size_t idx = static_cast<std::size_t>(std::bit_width(value));
  buckets_[idx < kBuckets ? idx : kBuckets - 1] += 1;
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

std::uint64_t Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-th sample, 1-based; walk buckets until it is covered.
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      // Bucket i spans [2^(i-1), 2^i); report its geometric-ish midpoint.
      const std::uint64_t lo = i == 0 ? 0 : (1ull << (i - 1));
      const std::uint64_t hi = i == 0 ? 0 : (1ull << i) - 1;
      std::uint64_t mid = lo + (hi - lo) / 2;
      if (mid < min()) mid = min();
      if (mid > max_) mid = max_;
      return mid;
    }
  }
  return max_;
}

Json Histogram::to_json() const {
  Json buckets = Json::array();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    buckets.push_back(Json::array({i, buckets_[i]}));
  }
  return Json::object({{"count", count_},
                       {"sum", sum_},
                       {"min", min()},
                       {"max", max_},
                       {"mean", mean()},
                       {"p50", percentile(0.50)},
                       {"p90", percentile(0.90)},
                       {"p99", percentile(0.99)},
                       {"buckets", std::move(buckets)}});
}

namespace {

/// Largest total a merge may produce: snapshots carry JSON integers.
constexpr std::uint64_t kMaxTotal =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

/// A count as a peer's snapshot must carry it: a non-negative integer.
bool read_count(const Json& v, std::uint64_t& out) {
  if (!v.is_int() || v.as_int() < 0) return false;
  out = static_cast<std::uint64_t>(v.as_int());
  return true;
}

/// a + b stays within kMaxTotal.
bool fits(std::uint64_t a, std::uint64_t b) {
  return a <= kMaxTotal && b <= kMaxTotal - a;
}

Error malformed(std::string what) {
  return Error(errc::proto, "stats snapshot: " + what);
}

}  // namespace

Status Histogram::merge_json(const Json& j) {
  Histogram in;
  in.buckets_.resize(kBuckets);
  if (!j.is_object() || !read_count(j.at("count"), in.count_) ||
      !read_count(j.at("sum"), in.sum_) || !read_count(j.at("min"), in.min_) ||
      !read_count(j.at("max"), in.max_) || !j.at("buckets").is_array())
    return malformed("histogram fields are not non-negative integers");
  std::uint64_t total = 0;
  for (const Json& pair : j.at("buckets").as_array()) {
    std::uint64_t idx = 0;
    std::uint64_t n = 0;
    if (!pair.is_array() || pair.size() != 2 ||
        !read_count(pair.as_array()[0], idx) || idx >= kBuckets ||
        !read_count(pair.as_array()[1], n) || !fits(total, n))
      return malformed("histogram bucket is not an in-range [index, count]");
    in.buckets_[idx] += n;
    total += n;
  }
  // Buckets summing to the count bound every bucket, so the totals below
  // are the only sums that can overflow.
  if (total != in.count_)
    return malformed("histogram buckets do not sum to its count");
  if (!fits(count_, in.count_) || !fits(sum_, in.sum_))
    return malformed("histogram total overflows");
  add(in);
  return {};
}

void Histogram::add(const Histogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::uint64_t StatsRegistry::counter_value(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& c : counters_)
    if (name_of(c) == name) sum += c.instrument.value();
  return sum;
}

Histogram StatsRegistry::histogram_value(std::string_view name) const {
  Histogram sum;
  for (const auto& h : histograms_)
    if (name_of(h) == name) sum.add(h.instrument);
  return sum;
}

namespace {
bool under_prefix(std::string_view prefix, std::string_view name) {
  if (prefix.empty()) return true;
  if (name.size() <= prefix.size()) return name == prefix;
  return name.compare(0, prefix.size(), prefix) == 0 &&
         name[prefix.size()] == '.';
}
}  // namespace

Json StatsRegistry::snapshot(std::string_view prefix) const {
  std::map<std::string_view, std::uint64_t> counts;
  for (const auto& c : counters_)
    if (const auto name = name_of(c); under_prefix(prefix, name))
      counts[name] += c.instrument.value();
  std::map<std::string_view, Histogram> merged;
  for (const auto& h : histograms_)
    if (const auto name = name_of(h); under_prefix(prefix, name))
      merged[name].add(h.instrument);
  Json counters = Json::object();
  for (const auto& [name, value] : counts) counters[name] = value;
  Json histograms = Json::object();
  for (const auto& [name, h] : merged) histograms[name] = h.to_json();
  return Json::object(
      {{"counters", std::move(counters)}, {"histograms", std::move(histograms)}});
}

Status StatsRegistry::merge_snapshot(Json& into, const Json& snap) {
  const Json& counters = snap.at("counters");
  const Json& histograms = snap.at("histograms");
  if (!snap.is_object() || !(counters.is_null() || counters.is_object()) ||
      !(histograms.is_null() || histograms.is_object()))
    return malformed("not a {counters, histograms} object");
  Json out = into;  // merged into a copy: a bad entry leaves `into` as it was
  if (counters.is_object())
    for (const auto& [name, value] : counters.as_object()) {
      std::uint64_t add = 0;
      std::uint64_t have = 0;
      const Json& old = out.at("counters").at(name);
      if (!read_count(value, add) || (!old.is_null() && !read_count(old, have)) ||
          !fits(have, add))
        return malformed("counter '" + name + "' is not a non-negative integer");
      out["counters"][name] = have + add;
    }
  if (histograms.is_object())
    for (const auto& [name, hj] : histograms.as_object()) {
      Histogram h;
      const Json& old = out.at("histograms").at(name);
      if (!old.is_null())
        if (Status st = h.merge_json(old); !st) return st;
      if (Status st = h.merge_json(hj); !st) return st;
      out["histograms"][name] = h.to_json();
    }
  into = std::move(out);
  return {};
}

}  // namespace flux::obs
