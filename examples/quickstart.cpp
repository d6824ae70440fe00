// Quickstart: stand up a simulated Flux comms session, use the KVS, run a
// collective barrier, subscribe to events, and run a job through the full
// lifecycle pipeline with the fluent h.job() builder.
//
//   $ ./quickstart [nnodes]
//
// Everything here runs on the deterministic discrete-event simulator; see
// threaded_session.cpp for the same API on real threads.
#include <cstdio>
#include <cstdlib>

#include "api/handle.hpp"
#include "api/job_client.hpp"
#include "broker/session.hpp"
#include "kvs/kvs_client.hpp"

using namespace flux;

namespace {

Task<void> demo(Handle* h, std::uint32_t size) {
  KvsClient kvs(*h);

  // 1. KVS: write-back puts become visible at commit.
  co_await kvs.put("demo.greeting", "hello from rank 3");
  co_await kvs.put("demo.answer", 42);
  CommitResult commit = co_await kvs.commit();
  std::printf("committed: version=%llu root=%.8s...\n",
              static_cast<unsigned long long>(commit.version),
              commit.rootref.c_str());

  Json greeting = co_await kvs.get("demo.greeting");
  std::printf("kvs_get(demo.greeting) = \"%s\"\n",
              greeting.as_string().c_str());

  // 2. Ring-addressed RPC: ping a specific broker rank.
  Json pong = co_await h->ping(size - 1);
  std::printf("cmb.ping rank %u -> ok\n",
              static_cast<unsigned>(pong.get_int("rank")));

  // 3. Submit a job through the full lifecycle pipeline (ingest -> queue ->
  // schedule -> execute) with stdio captured in the KVS, then wait for it.
  JobHandle jh = co_await h->job().name("qs").command("hostname").submit();
  JobResult r = co_await jh.wait();
  std::printf("job %llu: %lld tasks, success=%s\n",
              static_cast<unsigned long long>(jh.id()),
              static_cast<long long>(r.ntasks), r.success ? "true" : "false");

  // Each task's output landed in the KVS under the job's directory, at
  // <kvs_dir>.stdio.<rank>.stdout.
  const std::string out_key = jh.kvs_dir() + ".stdio.0.stdout";
  Json out0 = co_await kvs.get(out_key);
  std::printf("%s[0] = \"%s\"\n", out_key.c_str(),
              out0.as_array().at(0).as_string().c_str());

  // 4. Collective barrier (trivial here: one participant).
  co_await h->barrier("quickstart.done", 1);
  std::printf("barrier complete\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t nnodes =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 16;

  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = nnodes;
  auto session = Session::create_sim(ex, cfg);
  const Duration wireup = session->run_until_online();
  std::printf("comms session of %u brokers online in %.1f us (sim time)\n",
              nnodes, static_cast<double>(wireup.count()) / 1e3);

  auto handle = session->attach(3 % nnodes);
  int events_seen = 0;
  Subscription setroot_sub =
      handle->subscribe("kvs.setroot", [&](const Message& ev) {
        ++events_seen;
        (void)ev;
      });

  bool failed = false;
  co_spawn(ex, [](Handle* h, std::uint32_t n, bool* fail) -> Task<void> {
    try {
      co_await demo(h, n);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "demo failed: %s\n", e.what());
      *fail = true;
    }
  }(handle.get(), nnodes, &failed));
  ex.run();

  std::printf("observed %d kvs.setroot events\n", events_seen);
  return failed ? 1 : 0;
}
