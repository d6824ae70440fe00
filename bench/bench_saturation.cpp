// Data-plane saturation: sustained mixed put/get/commit ops/sec versus
// broker count on the simulator.
//
// The ROADMAP target is a million-ops data plane: the simulator is the
// instrument (SST/CGSim argument), so per-op constant factors — JSON
// parse/serialize, root transitions per commit, wakeups per message —
// bound every experiment the harness can run. This bench measures them
// end to end:
//
// N brokers on one SimExecutor, C concurrent clients each looping {put,
// commit, get own key, get shared key}. ops/sec_host (total ops over host
// wall-clock) is the headline: it is what the JSON fast path and KVS
// apply-batching buy. Virtual-time throughput is reported alongside
// (apply-batching also collapses root transitions, which virtual time
// sees). The real-thread path (wire codec, MsgInbox, ThreadExecutor) is
// timed by hostbench's kvs-threaded workload, not here.
//
//   $ ./bench_saturation [--quick]
//
// Emits saturation.metrics.json (collected as BENCH_saturation.json).
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "api/handle.hpp"
#include "bench_util.hpp"
#include "broker/session.hpp"
#include "exec/sim_executor.hpp"
#include "kvs/kvs_client.hpp"
#include "kvs/kvs_module.hpp"

namespace {

using namespace flux;
using namespace flux::bench;

struct Cell {
  std::int64_t ops = 0;
  double host_seconds = 0;
  double ops_per_sec_host = 0;
  double virtual_ms = 0;
  double ops_per_sec_virtual = 0;
  std::int64_t apply_batches = 0;
  double apply_batch_mean = 0;
};

// Master-side apply coalescing from a kvs.stats.get reply: a histogram of
// fences per batch (count = batches, each announced once; mean =
// fences/batch).
void read_batching(const Json& stats, Cell* out) {
  const Json& apply = stats.at("histograms").at("kvs.apply.batch_size");
  out->apply_batches = apply.get_int("count", 0);
  out->apply_batch_mean = apply.get_double("mean", 0.0);
}

// One client: `rounds` iterations of the mixed op sequence. Four ops per
// round — a staged put, the commit that ships it, and two gets (own key is
// the RYW read, the shared key is the hot-directory read every client hits).
Task<void> sim_client(Handle* h, int id, int rounds, std::int64_t* ops) {
  KvsClient kvs(*h);
  const std::string own = "sat.c" + std::to_string(id);
  for (int r = 0; r < rounds; ++r) {
    // GCC's coroutine lowering chokes on initializer-list temporaries, so
    // build the payload imperatively.
    Json payload = Json::object();
    payload["r"] = r;
    payload["who"] = id;
    co_await kvs.put(own, std::move(payload));
    (void)co_await kvs.commit();
    (void)co_await kvs.get(own);
    (void)co_await kvs.get("sat.shared");
    *ops += 4;
  }
}

Cell run_sim_cell(std::uint32_t nodes, int clients, int rounds) {
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = nodes;
  cfg.modules = {"hb", "live", "barrier", "kvs"};
  cfg.module_config = Json::object(
      {{"hb", Json::object({{"period_us", 100000}})},
       {"live", Json::object({{"missed_max", 100}})}});
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();

  // Seed the shared key so the measured loop never sees ENOENT.
  std::vector<std::unique_ptr<Handle>> handles;
  handles.push_back(session->attach(0));
  co_spawn(ex, [](Handle* h) -> Task<void> {
    KvsClient kvs(*h);
    Json payload = Json::object();
    payload["seed"] = true;
    co_await kvs.put("sat.shared", std::move(payload));
    (void)co_await kvs.commit();
  }(handles[0].get()), "sat-seed");
  ex.run();

  std::int64_t ops = 0;
  for (int c = 0; c < clients; ++c) {
    const NodeId rank =
        static_cast<NodeId>(static_cast<std::uint32_t>(c) % nodes);
    handles.push_back(session->attach(rank));
    co_spawn(ex, sim_client(handles.back().get(), c, rounds, &ops),
             "sat-client");
  }
  const TimePoint t0 = ex.now();
  const auto host_start = std::chrono::steady_clock::now();
  ex.run();
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  const Duration span = ex.now() - t0;

  Cell cell;
  cell.ops = ops;
  cell.host_seconds = host_seconds;
  cell.ops_per_sec_host =
      host_seconds > 0 ? static_cast<double>(ops) / host_seconds : 0;
  cell.virtual_ms = ms(span);
  cell.ops_per_sec_virtual =
      span.count() > 0 ? static_cast<double>(ops) * 1e9 /
                             static_cast<double>(span.count())
                       : 0;

  // Master-side apply coalescing (0 for builds without apply-batching).
  co_spawn(ex, [](Handle* h, Cell* out) -> Task<void> {
    Message resp = co_await h->request("kvs.stats.get").call();
    read_batching(resp.payload(), out);
  }(handles[0].get(), &cell), "sat-stats");
  ex.run();
  return cell;
}

void emit(const char* mode, std::uint32_t nodes, int clients, int rounds,
          const Cell& c) {
  std::printf("%9s %8u %8d %10lld %14.0f %14.0f %12.3f %9lld %8.2f\n",
              mode, nodes, clients, static_cast<long long>(c.ops),
              c.ops_per_sec_host, c.ops_per_sec_virtual, c.host_seconds,
              static_cast<long long>(c.apply_batches), c.apply_batch_mean);
  metrics_add(Json::object(
      {{"mode", mode},
       {"brokers", static_cast<std::int64_t>(nodes)},
       {"clients", static_cast<std::int64_t>(clients)},
       {"rounds", static_cast<std::int64_t>(rounds)},
       {"ops", c.ops},
       {"ops_per_sec_host", c.ops_per_sec_host},
       {"ops_per_sec_virtual", c.ops_per_sec_virtual},
       {"virtual_ms", c.virtual_ms},
       {"host_seconds", c.host_seconds},
       {"apply_batches", c.apply_batches},
       {"apply_batch_mean", c.apply_batch_mean}}));
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) setenv("FLUX_BENCH_QUICK", "1", 1);

  metrics_open("saturation");
  print_header(
      "Saturation — sustained mixed put/get/commit ops/sec",
      "ROADMAP \"raw-speed data plane\": the simulator is the instrument, so "
      "per-op constant factors bound every experiment",
      "ops/sec_host roughly flat with broker count; apply batches << commits "
      "when the master coalesces");

  const std::vector<std::uint32_t> sim_nodes =
      quick_mode() ? std::vector<std::uint32_t>{1, 16, 64}
                   : std::vector<std::uint32_t>{1, 4, 16, 64, 256};
  const int sim_ops_target = quick_mode() ? 4000 : 16000;

  std::printf("%9s %8s %8s %10s %14s %14s %12s %9s %8s\n", "mode",
              "brokers", "clients", "ops", "ops/s_host", "ops/s_virt",
              "host_s", "batches", "batch_mu");
  for (const std::uint32_t n : sim_nodes) {
    const int clients = static_cast<int>(std::min<std::uint32_t>(2 * n, 32));
    const int rounds = std::max(1, sim_ops_target / (4 * clients));
    emit("sim", n, clients, rounds, run_sim_cell(n, clients, rounds));
  }
  return 0;
}
