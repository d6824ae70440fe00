// Restart-to-serving and GC pause: the two operational costs of the durable
// content store (DESIGN.md persistence section).
//
//   restart_to_serving_ms  host time from "cold session start against an
//                          existing log" to "first KVS get served" — broker
//                          wire-up, log replay into the master's store, and
//                          the recovery-epoch re-announce all included.
//   recover_ms             just the log scan + object replay, measured
//                          offline against the same file.
//   gc_pause_ms            one mark_and_sweep pass over the recovered store
//                          (retention 0: sweep everything unreachable).
//   compact_ms             log rewrite to live contents + one checkpoint.
//
//   $ ./bench_restart [--quick]
//
// The populate phase drives real commits through a persisting sim session
// and shuts down cleanly (final checkpoint); keys rotate through a small
// keyspace so superseded values accumulate as garbage for the GC phase.
// All four metrics are host wall-clock — file I/O does not run on the
// virtual sim clock — so the gate bands are the loose host-time ones.
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "broker/session.hpp"
#include "exec/sim_executor.hpp"
#include "kvs/content_backend.hpp"
#include "kvs/content_store.hpp"
#include "kvs/kvs_client.hpp"

namespace {

using namespace flux;
using namespace flux::bench;
using HostClock = std::chrono::steady_clock;

double host_ms(HostClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(HostClock::now() - t0)
      .count();
}

struct Cell {
  std::int64_t commits = 0;
  double populate_s = 0;
  double log_mb = 0;
  std::int64_t objects = 0;
  double recover_ms = 0;
  double restart_to_serving_ms = 0;
  double gc_pause_ms = 0;
  std::int64_t swept = 0;
  double compact_ms = 0;
  double compacted_mb = 0;
};

SessionConfig persist_config(const std::string& path) {
  SessionConfig cfg;
  cfg.size = 4;
  // Checkpoint on a realistic cadence; GC stays manual so the offline pass
  // below has the whole run's garbage to collect.
  cfg.module_config = Json::object(
      {{"kvs", Json::object({{"persist", Json::object({{"path", path},
                                                       {"checkpoint_every", 64},
                                                       {"gc_every", 0},
                                                       {"retention", 4}})}})}});
  return cfg;
}

std::string cell_key(int i) {
  return std::string("g")
      .append(std::to_string(i % 24))
      .append(".k")
      .append(std::to_string(i % 96));
}

Task<void> writer(KvsClient* kvs, int commits) {
  for (int i = 0; i < commits; ++i) {
    Json v = Json::object({{"i", i}});
    co_await kvs->put(cell_key(i), std::move(v));
    (void)co_await kvs->commit();
  }
}

Task<void> reader(KvsClient* kvs, bool* served) {
  (void)co_await kvs->get(cell_key(0));
  *served = true;
}

Cell run_cell(int commits) {
  Cell cell;
  cell.commits = commits;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("flux-bench-restart-" + std::to_string(::getpid()) + "-" +
        std::to_string(commits) + ".log"))
          .string();
  std::error_code ec;
  std::filesystem::remove(path, ec);

  {  // -- populate: real commits through a persisting session --------------
    const auto t0 = HostClock::now();
    SimExecutor ex;
    auto session = Session::create_sim(ex, persist_config(path));
    session->run_until_online();
    auto handle = session->attach(1);
    KvsClient kvs(*handle);
    co_spawn(ex, writer(&kvs, commits), "bench-writer");
    ex.run();
    cell.populate_s = host_ms(t0) / 1e3;
  }  // clean shutdown: final checkpoint + close

  cell.log_mb =
      static_cast<double>(std::filesystem::file_size(path, ec)) / 1e6;

  {  // -- restart-to-serving: cold start against the log, first get -------
    const auto t0 = HostClock::now();
    SimExecutor ex;
    auto session = Session::create_sim(ex, persist_config(path));
    session->run_until_online();
    auto handle = session->attach(1);
    KvsClient kvs(*handle);
    bool served = false;
    co_spawn(ex, reader(&kvs, &served), "bench-reader");
    ex.run();
    cell.restart_to_serving_ms = host_ms(t0);
    if (!served) std::printf("  WARNING: restart read not served\n");
  }

  {  // -- offline: recover, one GC pass, compaction ------------------------
    ContentStore store;
    obs::StatsRegistry log_stats;
    FileLogBackend backend(path, &log_stats);
    const auto t_rec = HostClock::now();
    const FileLogBackend::Recovered rec = backend.recover(store);
    cell.recover_ms = host_ms(t_rec);
    cell.objects = static_cast<std::int64_t>(rec.objects);

    GcOptions opt;
    opt.current_version = rec.versions.empty() ? 0 : rec.versions[0];
    opt.retention = 0;
    const auto t_gc = HostClock::now();
    const GcStats stats = mark_and_sweep(store, rec.roots, opt);
    cell.gc_pause_ms = host_ms(t_gc);
    cell.swept = static_cast<std::int64_t>(stats.swept);

    const auto t_cp = HostClock::now();
    backend.compact(store, rec.roots, rec.versions);
    cell.compact_ms = host_ms(t_cp);
    cell.compacted_mb =
        static_cast<double>(log_stats.counter_value("log.compacted_bytes")) / 1e6;
    backend.close();
  }

  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".tmp", ec);
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) setenv("FLUX_BENCH_QUICK", "1", 1);

  metrics_open("restart");
  print_header(
      "Restart + GC — recovery-to-serving time and sweep pause vs log size",
      "durability extension (DESIGN.md): checkpointed content log, "
      "mark-and-sweep GC, compaction",
      "all four costs grow roughly linearly with live log size; GC pause "
      "stays well under the restart cost it avoids");

  // The quick grid shares its top cell with the full grid so the verify.sh
  // bench gate has a comparable row against the committed baseline.
  const std::vector<int> grid =
      quick_mode() ? std::vector<int>{300, 1000}
                   : std::vector<int>{1000, 5000, 20000};

  std::printf("%9s %8s %9s %11s %12s %11s %8s %11s\n", "commits", "log_mb",
              "objects", "recover_ms", "restart_ms", "gc_pause_ms", "swept",
              "compact_ms");
  for (const int n : grid) {
    const Cell c = run_cell(n);
    std::printf("%9lld %8.2f %9lld %11.2f %12.2f %11.2f %8lld %11.2f\n",
                static_cast<long long>(c.commits), c.log_mb,
                static_cast<long long>(c.objects), c.recover_ms,
                c.restart_to_serving_ms, c.gc_pause_ms,
                static_cast<long long>(c.swept), c.compact_ms);
    Json row = Json::object({{"commits", c.commits},
                             {"log_mb", c.log_mb},
                             {"objects", c.objects},
                             {"recover_ms", c.recover_ms},
                             {"restart_to_serving_ms", c.restart_to_serving_ms},
                             {"gc_pause_ms", c.gc_pause_ms},
                             {"swept", c.swept},
                             {"compact_ms", c.compact_ms},
                             {"compacted_mb", c.compacted_mb},
                             {"host_seconds", c.populate_s}});
    metrics_add(std::move(row));
  }
  return 0;
}
