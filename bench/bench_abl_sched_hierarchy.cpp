// Ablation: centralized vs hierarchical scheduling. Paper §II/§III: "the
// hierarchical, multilevel job scheduling will then facilitate scheduler
// parallelism, and this will allow the RJMS to scale to massive numbers of
// jobs scheduled across the center."
//
// The same workload — K x J small jobs over N nodes — runs on a live
// simulated session of N brokers, (a) submitted straight to the session's
// job-manager, whose one scheduling level decides every job, and (b) as K
// sibling instance jobs of N/K nodes each, whose J subjobs run through the
// same pipeline in the instances' own levels. Scheduling passes cost
// virtual time (the scheduler's fixed pass cost) and serialize per
// level, so the centralized run pays the full decision load on one critical
// path while sibling levels decide concurrently.
//
// Every job at every level runs through job.submit, the job-manager and
// wexec. Time is virtual; makespan runs from the first submit to the last
// job's completion. Writes abl_sched_hierarchy.metrics.json (one row per
// mode: jobs submitted, makespan_ms, sched_busy_ms, jobs_completed — the
// latter counts the instance jobs too).
#include <cstdio>
#include <memory>
#include <vector>

#include "api/job_client.hpp"
#include "bench_util.hpp"
#include "broker/session.hpp"
#include "exec/sim_executor.hpp"

using namespace flux;
using namespace flux::bench;

namespace {

struct Outcome {
  double makespan_ms = 0;
  double sched_busy_ms = 0;
  std::int64_t completed = 0;
  int levels = 0;
};

JobSpec small_job(int i) {
  return JobSpec::app(std::string("j").append(std::to_string(i)), 1,
                      std::chrono::microseconds(200 + (i % 7) * 50));
}

Task<void> submit_and_wait(Handle* h, JobSpec spec, TimePoint* last) {
  JobHandle jh = co_await h->job().spec(std::move(spec)).submit();
  (void)co_await jh.wait();
  *last = std::max(*last, h->executor().now());
}

/// Run `specs` (all submitted at once from rank 0) on an `nodes`-broker
/// session.
Outcome run(unsigned nodes, int jobs, std::vector<JobSpec> specs) {
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = nodes;
  // Every job of the centralized cell is queued at once.
  cfg.module_config = Json::object(
      {{"job-manager", Json::object({{"max_queue", jobs}})}});
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();
  auto h = session->attach(0);
  const TimePoint t0 = ex.now();
  TimePoint last = t0;
  for (JobSpec& spec : specs)
    co_spawn(ex, submit_and_wait(h.get(), std::move(spec), &last), "submit");
  ex.run();
  const obs::StatsRegistry& reg = session->broker(0).stats_registry();
  Outcome out;
  out.makespan_ms = ms(last - t0);
  out.sched_busy_ms =
      static_cast<double>(reg.counter_value("job-manager.sched.busy_ns")) /
      1e6;
  out.completed = static_cast<std::int64_t>(
      reg.counter_value("job-manager.completed"));
  return out;
}

Outcome centralized(unsigned nodes, int jobs) {
  std::vector<JobSpec> specs;
  for (int i = 0; i < jobs; ++i) specs.push_back(small_job(i));
  Outcome out = run(nodes, jobs, std::move(specs));
  out.levels = 1;
  return out;
}

Outcome hierarchical(unsigned nodes, int jobs, int children) {
  std::vector<JobSpec> specs;
  const int per_child = jobs / children;
  for (int c = 0; c < children; ++c) {
    std::vector<JobSpec> work;
    for (int i = 0; i < per_child; ++i)
      work.push_back(small_job(c * per_child + i));
    specs.push_back(JobSpec::instance(
        "child" + std::to_string(c),
        static_cast<std::int64_t>(nodes) / children, "fcfs", std::move(work)));
  }
  Outcome out = run(nodes, jobs, std::move(specs));
  out.levels = 1 + children;
  return out;
}

void emit(const char* mode, unsigned nodes, int jobs, const Outcome& o) {
  std::printf("%-16s %10d %14.2f %14.2f %10lld\n", mode, o.levels,
              o.makespan_ms, o.sched_busy_ms,
              static_cast<long long>(o.completed));
  metrics_add(Json::object({{"mode", mode},
                            {"nnodes", static_cast<std::int64_t>(nodes)},
                            {"jobs", static_cast<std::int64_t>(jobs)},
                            {"makespan_ms", o.makespan_ms},
                            {"sched_busy_ms", o.sched_busy_ms},
                            {"jobs_completed", o.completed}}));
}

}  // namespace

int main() {
  metrics_open("abl_sched_hierarchy");
  print_header("Ablation — centralized vs hierarchical scheduling",
               "Ahn et al., ICPP'14, §II-§III (scheduler parallelism)",
               "hierarchy cuts makespan for massive job counts; scheduling "
               "work spreads across concurrent per-instance schedulers");

  const unsigned nodes = quick_mode() ? 32 : 128;
  const int jobs = quick_mode() ? 512 : 4096;
  std::printf("workload: %d one-node jobs over %u brokers\n\n", jobs, nodes);
  std::printf("%-16s %10s %14s %14s %10s\n", "configuration", "levels",
              "makespan(ms)", "sched-busy(ms)", "completed");

  const Outcome c = centralized(nodes, jobs);
  emit("centralized", nodes, jobs, c);
  double best = 0;
  bool all_faster = true;
  for (int children : {2, 4, 8, 16}) {
    const Outcome o = hierarchical(nodes, jobs, children);
    emit(("hier-" + std::to_string(children) + "way").c_str(), nodes, jobs, o);
    best = std::max(best, c.makespan_ms / o.makespan_ms);
    all_faster = all_faster && o.makespan_ms < c.makespan_ms;
  }
  std::printf("\nbest hierarchical speedup over centralized: %.2fx "
              "(paper's motivation for multilevel scheduling)\n", best);
  std::printf("%s\n", all_faster
                          ? "EVERY HIERARCHY BEATS CENTRALIZED, as in the paper"
                          : "UNEXPECTED: a hierarchy did not beat centralized");
  return 0;
}
