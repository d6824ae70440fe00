// Table I: the prototyped comms modules. Loads every module on a simulated
// session, exercises each one end-to-end, and reports a representative
// operation latency (simulated time) per module — regenerating the table's
// inventory with a live functionality check per row.
#include <cstdio>
#include <string>

#include "api/handle.hpp"
#include "bench_util.hpp"
#include "broker/session.hpp"
#include "kvs/kvs_client.hpp"

using namespace flux;
using namespace flux::bench;

namespace {

struct Row {
  const char* module;
  const char* description;
  std::string op;
  double latency_us;
  bool ok;
};

}  // namespace

int main() {
  metrics_open("table1_modules");
  print_header("Table I — prototyped comms modules",
               "Ahn et al., ICPP'14, Table I",
               "all nine modules load and serve their representative "
               "operation on one session");

  const std::uint32_t nnodes = quick_mode() ? 16 : 64;
  SimExecutor ex;
  SessionConfig cfg;
  cfg.size = nnodes;
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 500}})},
                    {"mon", Json::object({{"interval_epochs", 2}})}});
  auto session = Session::create_sim(ex, cfg);
  session->run_until_online();
  auto h = session->attach(nnodes - 1);

  std::vector<Row> rows;
  auto timed = [&](const char* module, const char* description,
                   std::string op, Task<void> task) {
    const TimePoint t0 = ex.now();
    bool ok = true, done = false;
    co_spawn(ex,
             [](Task<void> t, bool* okp, bool* dp) -> Task<void> {
               try {
                 co_await std::move(t);
               } catch (const std::exception&) {
                 *okp = false;
               }
               *dp = true;
             }(std::move(task), &ok, &done),
             op);
    ex.run();
    rows.push_back(Row{module, description, std::move(op),
                       us(ex.now() - t0), ok && done});
  };

  timed("hb", "periodic heartbeat event synchronizes background activity",
        "hb.get", [](Handle* hd) -> Task<void> {
          // Let a few heartbeats fire first.
          co_await hd->sleep(std::chrono::milliseconds(2));
          Message r = co_await hd->request("hb.get").call();
          if (r.payload().get_int("epoch") < 1)
            throw FluxException(Error(errc::proto, "no heartbeats"));
        }(h.get()));

  timed("live", "heartbeat-synchronized hellos detect dead children",
        "live.status", [](Handle* hd) -> Task<void> {
          co_await hd->request("live.status").to(0).call();
        }(h.get()));

  timed("log", "records reduced & filtered to a session-root log",
        "log.append+get", [](Handle* hd) -> Task<void> {
          Json rec = Json::object({{"level", 3},
                                   {"component", "bench"},
                                   {"text", "table1"}});
          co_await hd->request("log.append").payload(std::move(rec)).call();
          Json query = Json::object({{"max", 1}});
          co_await hd->request("log.get").payload(std::move(query)).call();
        }(h.get()));

  timed("mon", "KVS-activated heartbeat-synchronized sampling, tree-reduced",
        "kvs-activate+sample", [](Handle* hd) -> Task<void> {
          KvsClient kvs(*hd);
          Json samplers = Json::array({"load"});
          co_await kvs.put("mon.samplers", std::move(samplers));
          co_await kvs.commit();
          co_await hd->sleep(std::chrono::milliseconds(4));
          (void)co_await kvs.list_dir("mon.data.load");
        }(h.get()));

  timed("group", "process collections for collective operations",
        "group.join+info", [](Handle* hd) -> Task<void> {
          Json j = Json::object({{"name", "t1"}});
          co_await hd->request("group.join").payload(std::move(j)).call();
          Json q = Json::object({{"name", "t1"}});
          Message info = co_await hd->request("group.info").payload(std::move(q)).call();
          if (info.payload().get_int("size") != 1)
            throw FluxException(Error(errc::proto, "bad group size"));
        }(h.get()));

  timed("barrier", "collective synchronization across Flux groups",
        "barrier.enter", [](Handle* hd) -> Task<void> {
          co_await hd->barrier("t1", 1);
        }(h.get()));

  timed("kvs", "distributed key-value store (hash tree + caches)",
        "put+commit+get", [](Handle* hd) -> Task<void> {
          KvsClient kvs(*hd);
          co_await kvs.put("table1.k", "v");
          co_await kvs.commit();
          (void)co_await kvs.get("table1.k");
        }(h.get()));

  timed("wexec",
        "bulk remote processes; stdio returned with the exit reduction",
        "wexec.run(hostname)", [](Handle* hd) -> Task<void> {
          Json payload = Json::object({{"jobid", "t1"},
                                       {"cmd", "hostname"},
                                       {"args", Json::object()},
                                       {"ranks", Json()}});
          Message r = co_await hd->request("wexec.run").payload(std::move(payload)).call();
          if (!r.payload().get_bool("success"))
            throw FluxException(Error(errc::proto, "job failed"));
        }(h.get()));

  timed("resvc", "resources enumerated in the KVS and allocated",
        "resvc.alloc+free", [](Handle* hd) -> Task<void> {
          Json a = Json::object({{"jobid", "t1"}, {"nnodes", 4}});
          co_await hd->request("resvc.alloc").payload(std::move(a)).call();
          Json f = Json::object({{"jobid", "t1"}});
          co_await hd->request("resvc.free").payload(std::move(f)).call();
        }(h.get()));

  std::printf("%-8s %-8s %-24s %12s  %s\n", "module", "status", "operation",
              "latency(us)", "description");
  bool all_ok = true;
  for (const Row& row : rows) {
    std::printf("%-8s %-8s %-24s %12.1f  %s\n", row.module,
                row.ok ? "OK" : "FAILED", row.op.c_str(), row.latency_us,
                row.description);
    all_ok &= row.ok;
    Json metric = Json::object({{"module", row.module},
                                {"op", row.op},
                                {"latency_us", row.latency_us},
                                {"ok", row.ok}});
    metrics_add(std::move(metric));
  }
  std::printf("\n%s: %zu/%zu Table-I modules functional on a %u-broker "
              "session\n",
              all_ok ? "PASS" : "FAIL", rows.size(), rows.size(), nnodes);
  return all_ok ? 0 : 1;
}
