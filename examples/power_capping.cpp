// Dynamic, hierarchical power capping (paper §II Challenge 1: "complex,
// multidimensional resource bounds at any scale", and §III's multilevel
// elasticity: "the elasticity can be expressed for many resources such as
// power").
//
// A 32-broker session (32 nodes x 350 W = 11.2 kW) hosts two cluster
// instance jobs. Mid-run the site power cap drops (e.g. a demand-response
// event) through job-manager.power_cap; the cap cascades down the
// hierarchy: malleable jobs shed power in place, child instances are
// re-capped proportionally, and subsequent scheduling honors the tighter
// bound.
//
//   $ ./power_capping
#include <cstdio>

#include "api/job_client.hpp"
#include "broker/session.hpp"
#include "exec/sim_executor.hpp"

using namespace flux;

namespace {

bool over(const Json& pool) {
  // The pools' own tolerance for floating-point drift from proportional
  // shedding (ResourcePool::over_power_budget).
  return pool.get_double("power_in_use_w") >
         pool.get_double("power_budget_w") + 1e-6;
}

Task<bool> report(Handle* h, const char* when,
                  const std::vector<JobHandle>& clusters) {
  Message resp = co_await h->request("resvc.status").call();
  const Json site = resp.payload();
  std::printf("%-22s site: budget %6.0f W, in use %6.0f W, %s\n", when,
              site.get_double("power_budget_w"),
              site.get_double("power_in_use_w"),
              over(site) ? "OVER BUDGET" : "within budget");
  bool ok = !over(site);
  for (const JobHandle& c : clusters) {
    Json req = Json::object({{"id", static_cast<std::int64_t>(c.id())}});
    Message st = co_await h->request("job-manager.state").payload(req).call();
    const Json& pool = st.payload().at("pool");
    std::printf("%-22s   cluster job %-8llu budget %6.0f W, in use %6.0f W\n",
                "", static_cast<unsigned long long>(c.id()),
                pool.get_double("power_budget_w"),
                pool.get_double("power_in_use_w"));
    ok = ok && !over(pool);
  }
  co_return ok;
}

Task<void> run(Handle* h, bool* ok) {
  // Two cluster instances, each powered at 4 kW, running malleable work.
  std::vector<JobHandle> clusters;
  for (int c = 0; c < 2; ++c) {
    std::vector<JobSpec> work;
    for (int j = 0; j < 3; ++j) {
      JobSpec app = JobSpec::app("sim" + std::to_string(j), 4,
                                 std::chrono::milliseconds(50), 1200);
      app.malleable = true;  // accepts in-place power shrink
      work.push_back(app);
    }
    JobSpec cluster =
        JobSpec::instance("cluster" + std::to_string(c), 14, "fcfs", work);
    cluster.request.power_w = 4000;
    cluster.child_power_budget_w = 4000;
    clusters.push_back(co_await h->job().spec(std::move(cluster)).submit());
  }

  co_await h->sleep(std::chrono::milliseconds(10));
  (void)co_await report(h, "steady state:", clusters);

  // Demand-response: the utility asks the site to drop to 5 kW.
  std::printf("\n>>> site power cap: 11200 W -> 5000 W\n\n");
  Json cap = Json::object({{"watts", 5000}});
  (void)co_await h->request("job-manager.power_cap").payload(cap).call();
  const bool honored = co_await report(h, "after cap:", clusters);
  std::printf("\n%s: every level honors its (new) bound — the parent "
              "bounding rule under dynamic constraints\n",
              honored ? "PASS" : "FAIL");

  bool drained = true;  // the remaining work still completes
  for (JobHandle& c : clusters)
    drained = drained && (co_await c.wait()).state == JobState::Complete;
  *ok = honored && drained;
}

}  // namespace

int main() {
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = 32;
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();
  auto h = session->attach(0);
  bool ok = false;
  co_spawn(ex, run(h.get(), &ok), "power_capping");
  ex.run();
  return ok ? 0 : 1;
}
