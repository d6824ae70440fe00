// Co-scheduling compute AND shared-filesystem bandwidth (paper §I):
//
//   "this paradigm cannot effectively schedule applications that utilize
//    site-wide shared resources such as file systems. Without scheduling
//    file I/O-intensive jobs to both compute resources and file systems,
//    overlapping I/O bursts coming from only a handful of unrelated jobs
//    can disrupt the entire center."
//
// The same checkpoint-heavy workload is scheduled twice over one cluster
// whose parallel filesystem sustains 100 GB/s:
//   (a) traditionally — the scheduler sees only nodes; I/O demands overlap
//       unchecked, and we record the oversubscription of the filesystem;
//   (b) with Flux's generalized resource model — jobs declare io_bw_gbs and
//       the pool admits them only while aggregate demand fits.
//
//   $ ./io_coscheduling
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "api/job_client.hpp"
#include "broker/session.hpp"
#include "exec/sim_executor.hpp"

using namespace flux;

namespace {

struct IoJob {
  std::int64_t nnodes;
  double io_gbs;      // sustained checkpoint bandwidth demand
  Duration walltime;
};

std::vector<IoJob> workload() {
  std::vector<IoJob> jobs;
  // A handful of checkpoint-heavy jobs plus many compute-bound ones.
  for (int i = 0; i < 6; ++i)
    jobs.push_back({8, 45.0, std::chrono::milliseconds(20)});
  for (int i = 0; i < 20; ++i)
    jobs.push_back({2, 2.0, std::chrono::milliseconds(8)});
  return jobs;
}

struct Outcome {
  double peak_io = 0;       // max aggregate demand seen (GB/s)
  double makespan_ms = 0;
  std::uint64_t completed = 0;
};

std::int64_t event_time(const Json& log, std::string_view name) {
  for (const Json& e : log.as_array())
    if (e.get_string("name") == name) return e.get_int("t");
  return -1;
}

Task<void> drive(Handle* h, bool declare_io, Outcome* out) {
  std::vector<JobHandle> jobs;
  std::vector<double> io;
  const TimePoint t0 = h->executor().now();
  for (const IoJob& job : workload()) {
    JobSpec spec = JobSpec::app("io", job.nnodes, job.walltime);
    if (declare_io) spec.request.io_bw_gbs = job.io_gbs;  // Flux's model
    jobs.push_back(co_await h->job().spec(std::move(spec)).submit());
    io.push_back(job.io_gbs);
  }
  // The *actual* aggregate I/O demand of running jobs, whether or not the
  // scheduler knew about it, swept from the jobs' committed event logs.
  for (JobHandle& jh : jobs)
    if ((co_await jh.wait()).state == JobState::Complete) ++out->completed;
  out->makespan_ms =
      static_cast<double>((h->executor().now() - t0).count()) / 1e6;
  co_await h->sleep(std::chrono::milliseconds(1));  // last eventlog commit
  std::map<std::int64_t, double> delta;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Json log = co_await jobs[i].events();
    delta[event_time(log, "start")] += io[i];
    delta[event_time(log, "finish")] -= io[i];
  }
  double current = 0;
  for (const auto& [t, d] : delta) {
    current += d;
    out->peak_io = std::max(out->peak_io, current);
  }
}

Outcome run(bool declare_io) {
  // One cluster: 64 nodes, filesystem capacity 100 GB/s (resvc's default).
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = 64;
  cfg.module_config = Json::object(
      {{"job-manager", Json::object({{"policy", "firstfit"}})}});
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();
  auto h = session->attach(0);
  Outcome out;
  co_spawn(ex, drive(h.get(), declare_io, &out), "io_coscheduling");
  ex.run();
  return out;
}

}  // namespace

int main() {
  const double fs_capacity = 100.0;
  const Outcome naive = run(/*declare_io=*/false);
  const Outcome flux = run(/*declare_io=*/true);

  std::printf("shared parallel filesystem capacity: %.0f GB/s\n\n",
              fs_capacity);
  std::printf("%-28s %14s %16s %10s\n", "scheduler", "peak I/O (GB/s)",
              "oversubscribed", "makespan");
  std::printf("%-28s %14.0f %15.1fx %8.1fms\n",
              "traditional (nodes only)", naive.peak_io,
              naive.peak_io / fs_capacity, naive.makespan_ms);
  std::printf("%-28s %14.0f %15.1fx %8.1fms\n",
              "flux (nodes + io bandwidth)", flux.peak_io,
              flux.peak_io / fs_capacity, flux.makespan_ms);

  const bool reproduced =
      naive.peak_io > fs_capacity && flux.peak_io <= fs_capacity + 1e-9 &&
      naive.completed == flux.completed;
  std::printf(
      "\n%s: the traditional scheduler lets I/O bursts overlap to %.1fx the "
      "file system ('disrupt the entire center', §I); co-scheduling bounds "
      "demand at %.0f%% of capacity, trading %.0f%% extra makespan.\n",
      reproduced ? "REPRODUCED" : "UNEXPECTED",
      naive.peak_io / fs_capacity, 100 * flux.peak_io / fs_capacity,
      100 * (flux.makespan_ms / naive.makespan_ms - 1));
  return reproduced ? 0 : 1;
}
