// Hierarchical, multilevel job scheduling (paper §III).
//
// A 128-broker session (resvc's pool: 128 nodes x 16 cores, 350 W each)
// schedules a center-wide workload with EASY backfill, then runs an
// Uncertainty-Quantification-style campaign through it: nested instance
// jobs whose levels recursively schedule ensembles of small apps with
// per-level policy specialization — the paper's "ensembles of jobs ...
// becoming increasingly commonplace" workload. Every job at every level is
// a job of the one pipeline: a jobid, a KVS record and an event log each.
//
//   $ ./hierarchical_sched
#include <cstdio>

#include "api/job_client.hpp"
#include "broker/session.hpp"
#include "exec/sim_executor.hpp"

using namespace flux;

namespace {

constexpr std::uint32_t kNodes = 128;

JobSpec campaign() {
  // 4 ensembles, each an instance job running 12 samples.
  std::vector<JobSpec> ensembles;
  for (int e = 0; e < 4; ++e) {
    std::vector<JobSpec> samples;
    for (int s = 0; s < 12; ++s)
      samples.push_back(JobSpec::app(
          "sample" + std::to_string(s), 4,
          std::chrono::milliseconds(5 + (s % 3) * 2), /*power=*/4 * 300));
    // Ensembles specialize scheduling: throughput-oriented first-fit.
    ensembles.push_back(JobSpec::instance("ensemble" + std::to_string(e), 16,
                                          "firstfit", std::move(samples)));
  }
  return JobSpec::instance("uq-campaign", 64, "fcfs", std::move(ensembles));
}

Task<void> run(Handle* h, bool* ok) {
  Message resp = co_await h->request("resvc.status").call();
  const Json status = resp.payload();
  std::printf("session pool: %lld nodes, %.0f kW site power\n",
              static_cast<long long>(status.get_int("total")),
              status.get_double("power_budget_w") / 1000);

  // A classic monolithic job competes with the campaign at the site level.
  JobSpec hero = JobSpec::app("hero-run", 48, std::chrono::milliseconds(30),
                              48 * 340);
  JobSpec uq = campaign();
  const TimePoint t0 = h->executor().now();
  JobHandle c = co_await h->job().spec(std::move(uq)).submit();
  JobHandle hr = co_await h->job().spec(std::move(hero)).submit();
  const JobResult cr = co_await c.wait();
  const JobResult hrr = co_await hr.wait();
  const double makespan_ms =
      static_cast<double>((h->executor().now() - t0).count()) / 1e6;

  Message stats = co_await h->request("job-manager.stats.get").call();
  const Json& counters = stats.payload().at("counters");
  std::printf("\ncampaign %s, hero %s\n",
              std::string(job_state_name(cr.state)).c_str(),
              std::string(job_state_name(hrr.state)).c_str());
  std::printf("hierarchy: 6 scheduling levels (session, campaign, 4 "
              "ensembles); %lld jobs completed\n",
              static_cast<long long>(
                  counters.get_int("job-manager.completed")));
  std::printf("makespan: %.2f ms (simulated); scheduler passes: %lld, "
              "scheduler busy: %.2f ms\n",
              makespan_ms,
              static_cast<long long>(
                  counters.get_int("job-manager.sched.passes")),
              static_cast<double>(
                  counters.get_int("job-manager.sched.busy_ns")) / 1e6);
  std::printf("\nthe same workload through ONE centralized scheduler is the "
              "bench_abl_sched_hierarchy comparison\n");
  *ok = cr.state == JobState::Complete && hrr.state == JobState::Complete &&
        counters.get_int("job-manager.completed") == 4 * 12 + 4 + 1 + 1;
}

}  // namespace

int main() {
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = kNodes;
  // Site-wide scheduling uses EASY backfill (site policy).
  cfg.module_config = Json::object(
      {{"job-manager", Json::object({{"policy", "easy"}})}});
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();
  auto h = session->attach(0);
  bool ok = false;
  co_spawn(ex, run(h.get(), &ok), "hierarchical_sched");
  ex.run();
  return ok ? 0 : 1;
}
