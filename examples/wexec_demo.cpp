// The job lifecycle pipeline end to end (paper §III + Table I): jobs are
// submitted with the fluent h.job() builder, validated by job-ingest,
// queued and scheduled by job-manager, executed in bulk through wexec with
// standard I/O captured in the KVS, and their status folded back under the
// job's directory, job_kvs_path(id), for anyone to watch.
//
//   $ ./wexec_demo [nnodes]
#include <cstdio>
#include <cstdlib>

#include "api/job_client.hpp"
#include "broker/session.hpp"
#include "kvs/kvs_client.hpp"
#include "modules/wexec.hpp"

using namespace flux;

namespace {

Task<void> demo(Handle* h, std::uint32_t nnodes) {
  KvsClient kvs(*h);

  // 1. Bulk hostname across every node, through the full pipeline.
  {
    JobHandle jh = co_await h->job()
                       .name("hostnames")
                       .command("hostname")
                       .nnodes(nnodes)
                       .submit();
    JobResult r = co_await jh.wait();
    std::printf("job %llu: ran 'hostname' on %lld ranks, state=%s\n",
                static_cast<unsigned long long>(jh.id()),
                static_cast<long long>(r.ntasks),
                std::string(job_state_name(r.state)).c_str());
    const std::string base = jh.kvs_dir() + ".stdio.";
    for (std::uint32_t rank = 0; rank < std::min(nnodes, 4u); ++rank) {
      Json out = co_await kvs.get(base + std::to_string(rank) + ".stdout");
      std::printf("  rank %u stdout: %s\n", rank,
                  out.as_array().at(0).as_string().c_str());
    }
  }

  // 2. A custom analysis tool registered in-process (the paper's tool
  // ecosystem: daemons co-launched with jobs).
  modules::CommandRegistry::instance().add(
      "probe", [](modules::ProcessCtx& p) -> Task<int> {
        // Tools get first-class KVS access through their own handle.
        Json sample = Json::object({{"rank", p.rank()}, {"metric", 0.25}});
        co_await p.kvs().put(
            "tool.probe." + std::to_string(p.rank()), std::move(sample));
        co_await p.kvs().commit();
        p.out("probe done");
        co_return 0;
      });
  {
    JobHandle jh =
        co_await h->job().name("probes").command("probe").nnodes(3).submit();
    JobResult r = co_await jh.wait();
    std::printf("job %llu: tool daemons on 3 ranks, success=%s\n",
                static_cast<unsigned long long>(jh.id()),
                r.success ? "true" : "false");
    auto keys = co_await kvs.list_dir("tool.probe");
    std::printf("  tool data in KVS: %zu entries under tool.probe\n",
                keys.size());
  }

  // 3. Cancellation: spinners killed with SIGTERM, job ends Canceled, and
  // the KVS event log records the whole story.
  {
    JobHandle jh =
        co_await h->job().name("spinners").command("spin").nnodes(nnodes).submit();
    while (co_await jh.state() != JobState::Running)
      co_await h->sleep(std::chrono::microseconds(200));
    co_await jh.cancel();
    JobResult r = co_await jh.wait();
    std::printf("job %llu: spinners canceled; exit histogram: %s\n",
                static_cast<unsigned long long>(jh.id()),
                r.exits.dump().c_str());
    Json log = co_await jh.events();
    std::printf("  event log:");
    for (const Json& e : log.as_array())
      std::printf(" %s", e.get_string("name").c_str());
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t nnodes =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 8;
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = nnodes;
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();
  auto handle = session->attach(nnodes / 2);
  bool failed = false;
  co_spawn(ex, [](Handle* h, std::uint32_t n, bool* fail) -> Task<void> {
    try {
      co_await demo(h, n);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "job demo failed: %s\n", e.what());
      *fail = true;
    }
  }(handle.get(), nnodes, &failed));
  ex.run();
  return failed ? 1 : 0;
}
