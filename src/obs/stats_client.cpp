#include "obs/stats_client.hpp"

#include <cinttypes>
#include <cstdio>

#include "obs/stats.hpp"

namespace flux::obs {

Task<Json> aggregate_stats(Handle& h, std::string service, bool all) {
  Json merged = Json::object(
      {{"counters", Json::object()}, {"histograms", Json::object()}});
  std::int64_t responding = 0;
  for (NodeId rank = 0; rank < h.size(); ++rank) {
    Json payload = Json::object({{"all", all}});
    Message resp = co_await h.request(service + ".stats.get")
                       .payload(std::move(payload))
                       .to(rank)
                       .send();
    // Skip a rank without the service (ENOSYS) or with a malformed snapshot.
    if (resp.errnum != 0 || !StatsRegistry::merge_snapshot(merged, resp.payload()))
      continue;
    ++responding;
  }
  merged["ranks"] = responding;
  co_return merged;
}

std::string format_snapshot(const Json& snapshot) {
  std::string out;
  char line[256];
  if (snapshot.at("counters").is_object()) {
    for (const auto& [name, value] : snapshot.at("counters").as_object()) {
      std::snprintf(line, sizeof line, "%-36s %12" PRId64 "\n", name.c_str(),
                    value.is_int() ? value.as_int() : 0);
      out += line;
    }
  }
  if (snapshot.at("histograms").is_object()) {
    for (const auto& [name, h] : snapshot.at("histograms").as_object()) {
      std::snprintf(line, sizeof line,
                    "%-36s n=%-8" PRId64 " mean=%-10.0f p50=%-8" PRId64
                    " p90=%-8" PRId64 " p99=%-8" PRId64 " max=%" PRId64 "\n",
                    name.c_str(), h.get_int("count"), h.get_double("mean"),
                    h.get_int("p50"), h.get_int("p90"), h.get_int("p99"),
                    h.get_int("max"));
      out += line;
    }
  }
  return out;
}

}  // namespace flux::obs
