// Fence latency under injected faults.
//
// The paper's resilience pitch (§III, §VI) is that faults are ordinary
// events: brokers die and links flap while the session keeps scheduling. This
// harness quantifies what that costs the hot collective: a session-wide
// kvs_fence, measured fault-free and then under seeded FaultPlan schedules —
// lossy links at increasing drop rates, injected delay jitter, and an
// interior broker crash mid-run (survivors ride the healed tree; the round's
// fence taints with a typed error instead of hanging).
//
// Reported per scenario: rounds completed / tainted, and the per-round fence
// latency (max across writers) for completed rounds.
#include <cstdio>
#include <string>
#include <vector>

#include "api/handle.hpp"
#include "bench_util.hpp"
#include "broker/session.hpp"
#include "fault/plan.hpp"
#include "kvs/kvs_client.hpp"

using namespace flux;
using namespace flux::bench;

namespace {

struct Scenario {
  const char* name;
  double drop = 0.0;
  double delay = 0.0;     // probability; 20-200us when it hits
  bool crash = false;     // interior broker dies mid-run
};

struct Result {
  int completed = 0;
  int tainted = 0;
  Duration worst{0};
  Duration total{0};
};

Result run_scenario(const Scenario& sc, std::uint32_t nnodes, int writers,
                    int rounds) {
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = nnodes;
  cfg.tree_arity = 2;
  // Deadline + retries so a faulted fence taints instead of hanging.
  cfg.rpc = RetryPolicy{std::chrono::milliseconds(20), 2,
                        std::chrono::microseconds(500)};
  cfg.module_config = Json::object(
      {{"hb", Json::object({{"period_us", 200}})},
       {"live", Json::object({{"missed_max", 3}})}});
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();

  fault::FaultPlan plan(42);
  if (sc.drop > 0.0) {
    fault::LinkPolicy p;
    p.drop = sc.drop;
    plan.link(p);
  }
  if (sc.delay > 0.0) {
    fault::LinkPolicy p;
    p.delay = sc.delay;
    p.delay_min = std::chrono::microseconds(20);
    p.delay_max = std::chrono::microseconds(200);
    plan.link(p);
  }
  // Mid-round-0: the fault-free fence completes in ~35-50us, so a crash a
  // few microseconds in catches fences in flight. Rank 3 is interior (on
  // writer 16's path to the root) but hosts no writer itself at either grid
  // size. Round 0 taints; later rounds run on the healed tree.
  if (sc.crash) plan.crash_at(3, std::chrono::microseconds(15));
  plan.arm(*session);

  std::vector<std::unique_ptr<Handle>> handles;
  for (int w = 0; w < writers; ++w)
    handles.push_back(session->attach(
        static_cast<NodeId>((static_cast<std::uint32_t>(w) * 7 + 2) % nnodes)));

  // Latency is recorded inside each fencer at the moment its fence resolves.
  // ex.run() itself drains 20ms past the last RPC (uncancelled timeout
  // timers no-op when they fire), so wall-clocking the drain would just
  // measure the RetryPolicy deadline.
  struct Round {
    int ok = 0;
    int bad = 0;
    TimePoint last{};
  };

  Result res;
  for (int round = 0; round < rounds; ++round) {
    const TimePoint t0 = ex.now();
    Round st;
    for (int w = 0; w < writers; ++w) {
      co_spawn(ex, [](SimExecutor* x, Handle* h, int id, int r, int n,
                      Round* out) -> Task<void> {
        KvsClient kvs(*h);
        try {
          co_await kvs.put("ff.w" + std::to_string(id), r);
          co_await kvs.fence("ff.r" + std::to_string(r), n);
          ++out->ok;
          if (x->now() > out->last) out->last = x->now();
        } catch (const FluxException&) {
          ++out->bad;  // cleanly tainted (timeout / host_down), never hung
        }
      }(&ex, handles[static_cast<std::size_t>(w)].get(), w, round, writers,
        &st),
      "fencer");
    }
    ex.run();
    if (st.ok == writers) {
      const Duration took = st.last - t0;
      ++res.completed;
      res.total += took;
      if (took > res.worst) res.worst = took;
    } else {
      ++res.tainted;
    }
  }
  return res;
}

}  // namespace

int main() {
  metrics_open("faults_fence");
  print_header(
      "Fence latency under injected faults (chaos harness, FaultPlan)",
      "Ahn et al., ICPP'14 §III/§VI resilience argument + §V-A fence",
      "delay jitter inflates fence latency; silent loss and a mid-fence "
      "crash taint rounds with typed errors, never hangs; the healed tree "
      "returns to fault-free latency");

  const std::uint32_t nnodes = quick_mode() ? 32 : 64;
  const int writers = quick_mode() ? 8 : 16;
  const int rounds = quick_mode() ? 6 : 12;

  const std::vector<Scenario> grid = {
      {"fault-free", 0.0, 0.0, false},
      {"drop 0.5%", 0.005, 0.0, false},
      {"drop 2%", 0.02, 0.0, false},
      {"delay 1% (20-200us)", 0.0, 0.01, false},
      {"delay 5% (20-200us)", 0.0, 0.05, false},
      {"interior crash", 0.0, 0.0, true},
  };

  std::printf("%-22s %10s %8s %12s %12s\n", "scenario", "completed", "tainted",
              "avg(us)", "worst(us)");
  double baseline = 0.0;
  for (const Scenario& sc : grid) {
    const Result r = run_scenario(sc, nnodes, writers, rounds);
    const double avg =
        r.completed > 0 ? us(r.total) / r.completed : 0.0;
    if (baseline == 0.0 && r.completed > 0) baseline = avg;
    std::printf("%-22s %10d %8d %12.1f %12.1f\n", sc.name, r.completed,
                r.tainted, avg, us(r.worst));
    Json row = Json::object({{"scenario", sc.name},
                             {"nnodes", static_cast<std::int64_t>(nnodes)},
                             {"writers", writers},
                             {"rounds", rounds},
                             {"completed", r.completed},
                             {"tainted", r.tainted},
                             {"avg_us", avg},
                             {"worst_us", us(r.worst)}});
    metrics_add(std::move(row));
  }
  std::printf("\nshape: every round completes or taints with a typed error "
              "(no hangs) against the %.1f us fault-free fence; crash "
              "recovery restores fault-free latency, while sustained silent "
              "loss keeps tainting (only declared-dead brokers are healed "
              "around)\n", baseline);
  return 0;
}
