// Job-lifecycle throughput: sustained jobs/sec through the full pipeline
// (job.submit validation -> root jobid assignment -> job-manager queue ->
// scheduler allocation on resvc's pool -> wexec dispatch -> KVS fold-back ->
// waiter response) versus broker count and submission-window depth.
//
// The paper's thesis is that a session-scoped framework keeps per-job
// overhead flat as the instance grows; here that reads as throughput
// degrading only mildly with broker count (the critical path is the root's
// scheduling loop, not the tree fan-out) and rising with window depth until
// the scheduler pass dominates.
//
// A last, long-session cell runs 50k jobs (5k under --quick) through one
// session and reports the root KVS store bytes each job adds over the first
// and the last 1k jobs. Every job's keys sit under a fixed-fanout
// job_kvs_path, so a job's commits rewrite a bounded path, not a directory
// of every job run so far; scripts/bench_gate.py limits the last/first
// ratio (store_bytes_growth).
//
//   $ ./bench_jobs_throughput [--quick]
//
// Time is virtual (discrete-event sim): jobs/sec is jobs over the virtual
// makespan from first submit to last completion. host_seconds records the
// real cost of simulating each cell. Store bytes are deterministic, and so
// is net_messages, the SimNet sends while a cell's jobs run.
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "api/job_client.hpp"
#include "bench_util.hpp"
#include "broker/session.hpp"
#include "exec/sim_executor.hpp"

namespace {

using namespace flux;
using namespace flux::bench;

// The sessions load no periodic module (hb, and live and mon, which act on
// its heartbeats): every message they send belongs to a job, so
// net_messages moves with per-job traffic, not with how long the jobs took.
SessionConfig jobs_only_config(std::uint32_t nodes) {
  SessionConfig cfg;
  cfg.size = nodes;
  std::erase_if(cfg.modules, [](const std::string& m) {
    return m == "hb" || m == "live" || m == "mon";
  });
  return cfg;
}

struct Cell {
  double jobs_per_sec = 0;
  double makespan_ms = 0;
  double alloc_mean_us = 0;
  std::int64_t completed = 0;
  std::int64_t net_messages = 0;  ///< SimNet sends while the jobs ran
  double host_seconds = 0;
};

Task<void> submitter(Handle* h, int jobs, int* completed) {
  for (int i = 0; i < jobs; ++i) {
    JobHandle jh = co_await h->job()
                       .name("bench")
                       .walltime(std::chrono::microseconds(200))
                       .submit();
    (void)co_await jh.wait();
    ++*completed;
  }
}

Cell run_cell(std::uint32_t nodes, int depth, int total_jobs) {
  const auto host_start = std::chrono::steady_clock::now();
  SimExecutor ex;
  auto session = Session::create_sim(ex, jobs_only_config(nodes));
  session->run_until_online();

  // `depth` concurrent submitters, each with one job in flight, keeps the
  // pending queue at ~depth without modeling client think time.
  const int window = std::min(depth, std::max(1, total_jobs / 2));
  std::vector<std::unique_ptr<Handle>> handles;
  int completed = 0;
  const TimePoint t0 = ex.now();
  const std::uint64_t msgs0 = session->simnet()->stats().messages;
  for (int w = 0; w < window; ++w) {
    handles.push_back(session->attach(
        static_cast<NodeId>(1 + static_cast<std::uint32_t>(w) % (nodes - 1))));
    const int share =
        total_jobs / window + (w < total_jobs % window ? 1 : 0);
    co_spawn(ex, submitter(handles.back().get(), share, &completed),
             "bench-submitter");
  }
  ex.run();
  const Duration makespan = ex.now() - t0;

  Cell cell;
  cell.completed = completed;
  cell.net_messages = static_cast<std::int64_t>(
      session->simnet()->stats().messages - msgs0);
  cell.makespan_ms = ms(makespan);
  cell.jobs_per_sec = makespan.count() > 0
                          ? static_cast<double>(completed) * 1e9 /
                                static_cast<double>(makespan.count())
                          : 0;

  // Mean allocation latency from the job-manager's registry histogram.
  auto probe = session->attach(0);
  co_spawn(ex, [](Handle* h, Cell* out) -> Task<void> {
    Message resp = co_await h->request("job-manager.stats.get").call();
    const Json& hist = resp.payload().at("histograms");
    if (hist.is_object() && hist.at("job-manager.alloc_ns").is_object())
      out->alloc_mean_us =
          hist.at("job-manager.alloc_ns").get_double("mean") / 1e3;
  }(probe.get(), &cell), "bench-stats");
  ex.run();

  cell.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  return cell;
}

Task<void> root_store_bytes(Handle* h, std::int64_t* out) {
  Message resp = co_await h->request("kvs.stats.get").to(0).call();
  *out = resp.payload().get_int("store_bytes");
}

struct LongSession {
  double first_bytes_per_job = 0;  ///< root store bytes/job, first 1k jobs
  double last_bytes_per_job = 0;   ///< root store bytes/job, last 1k jobs
  std::int64_t completed = 0;
  std::int64_t net_messages = 0;  ///< SimNet sends, jobs and probes
  double host_seconds = 0;
};

LongSession run_long_session(std::uint32_t nodes, int window, int total_jobs) {
  constexpr int kEdgeJobs = 1000;
  const auto host_start = std::chrono::steady_clock::now();
  SimExecutor ex;
  auto session = Session::create_sim(ex, jobs_only_config(nodes));
  session->run_until_online();
  std::vector<std::unique_ptr<Handle>> handles;
  for (int w = 0; w < window; ++w)
    handles.push_back(session->attach(
        static_cast<NodeId>(1 + static_cast<std::uint32_t>(w) % (nodes - 1))));
  auto probe = session->attach(0);
  const std::uint64_t msgs0 = session->simnet()->stats().messages;

  LongSession out;
  int completed = 0;
  // Run `jobs` more jobs to quiescence; return the root store's bytes.
  auto run_phase = [&](int jobs) {
    for (int w = 0; w < window; ++w)
      co_spawn(ex,
               submitter(handles[static_cast<std::size_t>(w)].get(),
                         jobs / window + (w < jobs % window ? 1 : 0),
                         &completed),
               "bench-submitter");
    ex.run();
    std::int64_t bytes = 0;
    co_spawn(ex, root_store_bytes(probe.get(), &bytes), "bench-stats");
    ex.run();
    return static_cast<double>(bytes);
  };
  const double b0 = run_phase(0);
  const double b1 = run_phase(kEdgeJobs);
  const double b2 = run_phase(total_jobs - 2 * kEdgeJobs);
  const double b3 = run_phase(kEdgeJobs);
  out.first_bytes_per_job = (b1 - b0) / kEdgeJobs;
  out.last_bytes_per_job = (b3 - b2) / kEdgeJobs;
  out.completed = completed;
  out.net_messages = static_cast<std::int64_t>(
      session->simnet()->stats().messages - msgs0);
  out.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) setenv("FLUX_BENCH_QUICK", "1", 1);

  metrics_open("jobs_throughput");
  print_header(
      "Job throughput — jobs/sec through the full lifecycle pipeline",
      "framework thesis (§III): session-scoped job management keeps per-job "
      "overhead flat as the instance grows",
      "throughput rises with window depth, degrades only mildly with broker "
      "count");

  const std::vector<std::uint32_t> nodes =
      quick_mode() ? std::vector<std::uint32_t>{8, 16, 32}
                   : std::vector<std::uint32_t>{16, 64, 256};
  const std::vector<int> depths =
      quick_mode() ? std::vector<int>{4, 16} : std::vector<int>{4, 32, 256};
  const int total_jobs = quick_mode() ? 120 : 600;

  std::printf("%8s %8s %10s %12s %12s %14s %10s\n", "brokers", "window",
              "jobs", "jobs/sec", "makespan_ms", "alloc_mean_us", "host_s");
  for (const std::uint32_t n : nodes) {
    for (const int d : depths) {
      const Cell c = run_cell(n, d, total_jobs);
      std::printf("%8u %8d %10lld %12.0f %12.3f %14.2f %10.2f\n", n, d,
                  static_cast<long long>(c.completed), c.jobs_per_sec,
                  c.makespan_ms, c.alloc_mean_us, c.host_seconds);
      if (c.completed != total_jobs)
        std::printf("  WARNING: only %lld/%d jobs completed\n",
                    static_cast<long long>(c.completed), total_jobs);
      Json row = Json::object(
          {{"brokers", static_cast<std::int64_t>(n)},
           {"window", static_cast<std::int64_t>(d)},
           {"jobs", static_cast<std::int64_t>(total_jobs)},
           {"completed", c.completed},
           {"jobs_per_sec", c.jobs_per_sec},
           {"makespan_ms", c.makespan_ms},
           {"alloc_mean_us", c.alloc_mean_us},
           {"net_messages", c.net_messages},
           {"host_seconds", c.host_seconds}});
      metrics_add(std::move(row));
    }
  }

  // Long session: per-job root store growth must not depend on history.
  const std::uint32_t long_nodes = 64;
  const int long_window = 32;
  const int long_jobs = quick_mode() ? 5000 : 50000;
  const LongSession ls = run_long_session(long_nodes, long_window, long_jobs);
  const double growth = ls.first_bytes_per_job > 0
                            ? ls.last_bytes_per_job / ls.first_bytes_per_job
                            : 0;
  std::printf("\nlong session: %u brokers, window %d, %d jobs in one session\n",
              long_nodes, long_window, long_jobs);
  std::printf("%10s %22s %22s %10s %10s\n", "jobs", "store_B/job first 1k",
              "store_B/job last 1k", "last/first", "host_s");
  std::printf("%10lld %22.0f %22.0f %10.3f %10.2f\n",
              static_cast<long long>(ls.completed), ls.first_bytes_per_job,
              ls.last_bytes_per_job, growth, ls.host_seconds);
  if (ls.completed != long_jobs)
    std::printf("  WARNING: only %lld/%d jobs completed\n",
                static_cast<long long>(ls.completed), long_jobs);
  metrics_add(Json::object(
      {{"brokers", static_cast<std::int64_t>(long_nodes)},
       {"window", static_cast<std::int64_t>(long_window)},
       {"jobs", static_cast<std::int64_t>(long_jobs)},
       {"completed", ls.completed},
       {"store_bytes_per_job_first_1k", ls.first_bytes_per_job},
       {"store_bytes_per_job_last_1k", ls.last_bytes_per_job},
       {"store_bytes_growth", growth},
       {"net_messages", ls.net_messages},
       {"host_seconds", ls.host_seconds}}));
  return 0;
}
