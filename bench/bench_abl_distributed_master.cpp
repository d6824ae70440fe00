// Ablation: sharded KVS masters (the paper's stated future work, §VII:
// "We plan to address [KVS scalability] by distributing the KVS master
// itself").
//
// This drives the REAL subsystem, not an emulation: ONE session whose kvs
// module runs with {"shards": k}. The namespace is hash-partitioned over k
// master brokers (rendezvous hashing on the top-level directory); every
// producer writes a unique value under its own top-level directory and joins
// one whole-job fence. A broker with producers waiting completes it once
// each shard's setroot announce has named it; a relay drops its part on a
// shard at that shard's announce. Every k runs the same fence path and the
// same completion rule (k=1 is the paper's single master: shard 0 of a
// one-shard map), with each shard master's apply/announce window at its
// auto setting, so the k=1 row is the true baseline.
//
// The interesting output is the crossover: at small producer counts the
// cross-shard fence's extra coordination (every participant counts in at
// every shard, k setroot events) costs more than the single master's apply;
// as producers grow, splitting the master's inbound link and apply
// serialization k ways wins.
//
// Writes BENCH_abl_distributed_master.json rows (via scripts/bench.sh) that
// scripts/bench_gate.py gates: fence_ms is virtual time, net_messages the
// deterministic traffic volume.
#include <cstdio>
#include <memory>
#include <vector>

#include "api/handle.hpp"
#include "base/rng.hpp"
#include "bench_util.hpp"
#include "broker/session.hpp"
#include "kvs/kvs_client.hpp"

using namespace flux;
using namespace flux::bench;

namespace {

struct FenceRun {
  Duration latency{};
  std::uint64_t net_messages = 0;
};

/// One whole-job fence with `producers` writers spread over a single
/// `nnodes` session running `shards` KVS masters.
FenceRun sharded_fence(std::uint32_t nnodes, std::uint32_t producers,
                       std::uint32_t shards, std::size_t vsize) {
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = nnodes;
  cfg.modules = {"hb", "barrier", "kvs"};
  cfg.module_config = Json::object(
      {{"hb", Json::object({{"period_us", 100000}})},
       {"kvs", Json::object({{"shards", static_cast<std::int64_t>(shards)}})}});
  auto session = Session::create_sim(ex, cfg);
  while (!session->all_online())
    if (!ex.run_one()) std::abort();

  std::vector<std::unique_ptr<Handle>> handles;
  std::uint32_t remaining = producers;
  TimePoint done_at{0};
  for (std::uint32_t p = 0; p < producers; ++p) {
    handles.push_back(session->attach(p % nnodes));
    co_spawn(
        ex,
        [](Handle* h, std::uint32_t proc, std::uint32_t nprocs,
           std::size_t vs, std::uint32_t* rem,
           TimePoint* done) -> Task<void> {
          KvsClient kvs(*h);
          Rng rng(0x5eedu ^ proc);
          // Unique top-level directory per producer: keys spread over the
          // shards by the rendezvous hash, like distinct jobs' keyspaces.
          co_await kvs.put(
              std::string("p").append(std::to_string(proc)).append("/v"),
              rng.bytes(vs));
          co_await kvs.fence("abl", nprocs);
          if (--*rem == 0) *done = h->executor().now();
        }(handles.back().get(), p, producers, vsize, &remaining, &done_at),
        "producer");
  }
  const TimePoint t0 = ex.now();
  const std::uint64_t msgs0 = session->simnet()->stats().messages;
  ex.run();
  return {done_at - t0, session->simnet()->stats().messages - msgs0};
}

}  // namespace

int main() {
  print_header(
      "Ablation — sharded KVS masters (paper §VII future work)",
      "Ahn et al., ICPP'14, §VII (\"distributing the KVS master itself\")",
      "one fused fence over k shard masters beats the single master once "
      "producers saturate its apply serialization; tiny jobs pay a small "
      "coordination tax");
  metrics_open("abl_distributed_master");

  const std::uint32_t nnodes = quick_mode() ? 32 : 128;
  const std::size_t vsize = 4096;
  const std::vector<std::uint32_t> producer_grid =
      quick_mode() ? std::vector<std::uint32_t>{8, 32, 128}
                   : std::vector<std::uint32_t>{16, 64, 256, 1024};
  const std::vector<std::uint32_t> shard_grid = {1, 2, 4, 8};

  std::printf("session: %u brokers, %zu-byte unique values, one fence\n\n",
              nnodes, vsize);
  std::printf("%10s", "producers");
  for (std::uint32_t k : shard_grid) std::printf("  k=%-2u ms     ", k);
  std::printf("best\n");

  for (std::uint32_t producers : producer_grid) {
    double base = 0;
    double best = 0;
    std::uint32_t best_k = 1;
    std::printf("%10u", producers);
    for (std::uint32_t k : shard_grid) {
      const FenceRun run = sharded_fence(nnodes, producers, k, vsize);
      const double m = ms(run.latency);
      if (k == 1) base = m;
      if (k == 1 || m < best) {
        best = m;
        best_k = k;
      }
      std::printf("  %-10.3f", m);
      metrics_add(Json::object(
          {{"nnodes", static_cast<std::int64_t>(nnodes)},
           {"producers", static_cast<std::int64_t>(producers)},
           {"shards", static_cast<std::int64_t>(k)},
           {"value_size", static_cast<std::int64_t>(vsize)},
           {"fence_ms", m},
           {"net_messages", run.net_messages},
           {"speedup_vs_single", base / m}}));
    }
    std::printf("  k=%u (%.2fx)\n", best_k, base / best);
  }
  std::printf(
      "\n(real subsystem: one session, kvs module config {\"shards\": k}; "
      "k=1 is the paper's single master)\n");
  return 0;
}
