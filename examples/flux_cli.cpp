// The `flux` utility (paper §IV-A: "A flux utility wraps command line
// access to about two dozen modular Flux sub-commands, and a custom PMI
// library allows MPI run-times to access the Flux KVS...").
//
// Spins up a threaded comms session in-process and executes sub-commands
// against it through the blocking client API:
//
//   $ ./flux_cli [-n brokers] <subcommand> [args...]     one-shot
//   $ ./flux_cli [-n brokers] script                     commands from stdin
//
//   $ ./flux_cli help                                    lists everything
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/sync_handle.hpp"
#include "broker/session.hpp"
#include "core/jobspec.hpp"
#include "obs/stats_client.hpp"

using namespace flux;

namespace {

using Args = std::vector<std::string>;

struct Cli {
  Session* session = nullptr;
  SyncHandle* h = nullptr;
};

Json parse_value(const std::string& text) {
  auto parsed = Json::parse(text);
  if (parsed.has_value()) return std::move(parsed).value();
  return Json(text);  // bare words are strings
}

int need(const Args& args, std::size_t n, const char* usage) {
  if (args.size() >= n) return 0;
  std::fprintf(stderr, "usage: %s\n", usage);
  return 2;
}

// A malformed number in any argument throws std::invalid_argument or
// std::out_of_range; run_command() turns either into the usage line.
NodeId rank_arg(const std::string& text) {
  return static_cast<NodeId>(std::stoul(text));
}

struct Command {
  const char* usage;
  const char* help;
  std::function<int(Cli&, const Args&)> run;
};

// Shared by run/submit: args are <cmd> [nnodes] [json-args] [priority].
// Routes through the full lifecycle pipeline (job.submit -> job-manager).
std::uint64_t submit_job(Cli& c, const Args& a) {
  const long long nnodes = a.size() > 1 ? std::stoll(a[1]) : 1;
  JobSpec spec = JobSpec::app("cli", nnodes, std::chrono::seconds(60));
  spec.command = a[0];
  if (a.size() > 2) spec.args = parse_value(a[2]);
  if (a.size() > 3) spec.priority = std::stoi(a[3]);
  Json payload = Json::object({{"jobspec", spec.to_json()}});
  // Checked: surfaces job_rejected / alloc_unsatisfiable as errors.
  Message r =
      c.h->call(c.h->request("job.submit").payload(std::move(payload)));
  return static_cast<std::uint64_t>(r.payload().get_int("id"));
}

const std::map<std::string, Command>& commands() {
  static const std::map<std::string, Command> table = {
      // --- session / cmb -----------------------------------------------------
      {"info",
       {"info", "broker identity, size, depth",
        [](Cli& c, const Args&) {
          Message r = c.h->send(c.h->request("cmb.info"));
          std::printf("%s\n", r.payload().dump_pretty().c_str());
          return r.errnum;
        }}},
      {"ping",
       {"ping <rank>", "ring-addressed round trip to a broker rank",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "ping <rank>")) return rc;
          Json pong = c.h->ping(rank_arg(a[0]));
          std::printf("rank %lld: pong\n",
                      static_cast<long long>(pong.get_int("rank")));
          return 0;
        }}},
      {"lsmod",
       {"lsmod [rank]", "list comms modules loaded on a broker",
        [](Cli& c, const Args& a) {
          auto req = c.h->request("cmb.lsmod");
          if (!a.empty()) req.to(rank_arg(a[0]));
          Message r = c.h->call(std::move(req));
          for (const Json& m : r.payload().at("modules").as_array())
            std::printf("%s\n", m.as_string().c_str());
          return 0;
        }}},
      {"hb",
       {"hb", "current heartbeat epoch",
        [](Cli& c, const Args&) {
          Message r = c.h->send(c.h->request("hb.get"));
          std::printf("epoch %lld (period %lld us)\n",
                      static_cast<long long>(r.payload().get_int("epoch")),
                      static_cast<long long>(r.payload().get_int("period_us")));
          return r.errnum;
        }}},
      {"live",
       {"live <rank>", "liveness status tracked by a broker",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "live <rank>")) return rc;
          Message r = c.h->send(c.h->request("live.status").to(rank_arg(a[0])));
          std::printf("%s\n", r.payload().dump_pretty().c_str());
          return r.errnum;
        }}},
      {"event-pub",
       {"event-pub <topic> [json]", "publish an event",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "event-pub <topic> [json]")) return rc;
          c.h->publish(a[0], a.size() > 1 ? parse_value(a[1]) : Json::object());
          return 0;
        }}},
      {"barrier",
       {"barrier <name> <nprocs>", "enter a collective barrier",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 2, "barrier <name> <nprocs>")) return rc;
          c.h->barrier(a[0], std::stoll(a[1]));
          std::printf("barrier '%s' complete\n", a[0].c_str());
          return 0;
        }}},
      // --- kvs ---------------------------------------------------------------
      {"kvs-put",
       {"kvs-put <key> <value> [more pairs...]", "put + commit",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 2, "kvs-put <key> <value> ...")) return rc;
          for (std::size_t i = 0; i + 1 < a.size(); i += 2)
            c.h->kvs_put(a[i], parse_value(a[i + 1]));
          const CommitResult r = c.h->kvs_commit();
          std::printf("committed version %llu\n",
                      static_cast<unsigned long long>(r.version));
          return 0;
        }}},
      {"kvs-get",
       {"kvs-get <key>", "read a committed value",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "kvs-get <key>")) return rc;
          std::printf("%s\n", c.h->kvs_get(a[0]).dump().c_str());
          return 0;
        }}},
      {"kvs-dir",
       {"kvs-dir [key]", "list a KVS directory",
        [](Cli& c, const Args& a) {
          for (const auto& name : c.h->kvs_list_dir(a.empty() ? "." : a[0]))
            std::printf("%s\n", name.c_str());
          return 0;
        }}},
      {"kvs-unlink",
       {"kvs-unlink <key>", "remove a key (+ commit)",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "kvs-unlink <key>")) return rc;
          c.h->kvs_unlink(a[0]);
          c.h->kvs_commit();
          return 0;
        }}},
      {"kvs-version",
       {"kvs-version", "current root version",
        [](Cli& c, const Args&) {
          std::printf("%llu\n",
                      static_cast<unsigned long long>(c.h->kvs_get_version()));
          return 0;
        }}},
      {"kvs-wait",
       {"kvs-wait <version>", "block until the root reaches a version",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "kvs-wait <version>")) return rc;
          c.h->kvs_wait_version(std::stoull(a[0]));
          return 0;
        }}},
      {"kvs-stats",
       {"kvs-stats [rank]", "kvs module statistics",
        [](Cli& c, const Args& a) {
          auto req = c.h->request("kvs.stats.get");
          if (!a.empty()) req.to(rank_arg(a[0]));
          Message r = c.h->send(std::move(req));
          std::printf("%s\n", r.payload().dump_pretty().c_str());
          return r.errnum;
        }}},
      {"kvs-drop-cache",
       {"kvs-drop-cache <rank>", "drop a broker's slave cache",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "kvs-drop-cache <rank>")) return rc;
          Message r =
              c.h->send(c.h->request("kvs.drop_cache").to(rank_arg(a[0])));
          std::printf("evicted %lld\n",
                      static_cast<long long>(r.payload().get_int("evicted")));
          return r.errnum;
        }}},
      // --- jobs ---------------------------------------------------------------
      {"run",
       {"run <cmd> [nnodes] [json-args]", "submit a job and wait for it",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "run <cmd> [nnodes] [json-args]")) return rc;
          const std::uint64_t id = submit_job(c, a);
          Json wait = Json::object({{"id", static_cast<std::int64_t>(id)}});
          Message r = c.h->send(
              c.h->request("job-manager.wait").payload(std::move(wait)));
          std::printf("%s\n", r.payload().dump_pretty().c_str());
          return r.errnum;
        }}},
      {"submit",
       {"submit <cmd> [nnodes] [json-args] [priority]",
        "submit a job, print its id",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "submit <cmd> [nnodes] [json-args]"))
            return rc;
          std::printf("%llu\n",
                      static_cast<unsigned long long>(submit_job(c, a)));
          return 0;
        }}},
      {"job-wait",
       {"job-wait <id>", "block until a job reaches a terminal state",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "job-wait <id>")) return rc;
          Json payload = Json::object({{"id", std::stoll(a[0])}});
          Message r = c.h->send(
              c.h->request("job-manager.wait").payload(std::move(payload)));
          std::printf("%s\n", r.payload().dump_pretty().c_str());
          return r.errnum;
        }}},
      {"job-state",
       {"job-state <id>", "current lifecycle state of a job",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "job-state <id>")) return rc;
          Json payload = Json::object({{"id", std::stoll(a[0])}});
          Message r = c.h->send(
              c.h->request("job-manager.state").payload(std::move(payload)));
          std::printf("%s\n", r.payload().get_string("state").c_str());
          return r.errnum;
        }}},
      {"cancel",
       {"cancel <id>", "cancel a pending or running job",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "cancel <id>")) return rc;
          Json payload = Json::object({{"id", std::stoll(a[0])}});
          Message r = c.h->send(
              c.h->request("job-manager.cancel").payload(std::move(payload)));
          return r.errnum;
        }}},
      {"jobs",
       {"jobs", "list active jobs known to the job manager",
        [](Cli& c, const Args&) {
          Message r = c.h->call(c.h->request("job-manager.list"));
          for (const Json& j : r.payload().at("jobs").as_array())
            std::printf("%-8lld %s\n",
                        static_cast<long long>(j.get_int("id")),
                        j.get_string("state").c_str());
          return 0;
        }}},
      {"ps",
       {"ps <rank>", "list running wexec tasks on a broker",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "ps <rank>")) return rc;
          Message r = c.h->send(c.h->request("wexec.ps").to(rank_arg(a[0])));
          std::printf("%s\n", r.payload().dump_pretty().c_str());
          return r.errnum;
        }}},
      // --- log ---------------------------------------------------------------
      {"log",
       {"log [max]", "tail the session log at the root",
        [](Cli& c, const Args& a) {
          Json query =
              Json::object({{"max", a.empty() ? 20 : std::stoll(a[0])}});
          Message r = c.h->call(
              c.h->request("log.get").payload(std::move(query)));
          for (const Json& rec : r.payload().at("records").as_array())
            std::printf("[%lld] rank%lld %s: %s\n",
                        static_cast<long long>(rec.get_int("level")),
                        static_cast<long long>(rec.get_int("rank")),
                        rec.get_string("component").c_str(),
                        rec.get_string("text").c_str());
          return 0;
        }}},
      {"log-append",
       {"log-append <level> <component> <text>", "append a log record",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 3, "log-append <level> <component> <text>"))
            return rc;
          Json rec = Json::object({{"level", std::stoll(a[0])},
                                   {"component", a[1]},
                                   {"text", a[2]}});
          Message r = c.h->send(
              c.h->request("log.append").payload(std::move(rec)));
          return r.errnum;
        }}},
      {"log-dump",
       {"log-dump <rank>", "dump a broker's circular debug buffer",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "log-dump <rank>")) return rc;
          Message r = c.h->call(c.h->request("log.dump").to(rank_arg(a[0])));
          std::printf("%zu records in ring\n", r.payload().at("records").size());
          return 0;
        }}},
      // --- resources ----------------------------------------------------------
      {"resource-status",
       {"resource-status", "free/allocated/down node counts",
        [](Cli& c, const Args&) {
          Message r = c.h->send(c.h->request("resvc.status"));
          std::printf("%s\n", r.payload().dump_pretty().c_str());
          return r.errnum;
        }}},
      {"resource-alloc",
       {"resource-alloc <jobid> <nnodes>", "allocate nodes to a job",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 2, "resource-alloc <jobid> <nnodes>")) return rc;
          Json payload =
              Json::object({{"jobid", a[0]}, {"nnodes", std::stoll(a[1])}});
          Message r = c.h->send(
              c.h->request("resvc.alloc").payload(std::move(payload)));
          std::printf("%s\n", r.payload().dump().c_str());
          return r.errnum;
        }}},
      {"resource-free",
       {"resource-free <jobid>", "release a job's nodes",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "resource-free <jobid>")) return rc;
          Json payload = Json::object({{"jobid", a[0]}});
          Message r = c.h->send(
              c.h->request("resvc.free").payload(std::move(payload)));
          return r.errnum;
        }}},
      // --- groups -------------------------------------------------------------
      {"group-join",
       {"group-join <name>", "join a Flux group",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "group-join <name>")) return rc;
          Json payload =
              Json::object({{"name", a[0]}, {"member", std::string("cli")}});
          Message r = c.h->send(
              c.h->request("group.join").payload(std::move(payload)));
          return r.errnum;
        }}},
      {"group-info",
       {"group-info <name>", "group membership",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "group-info <name>")) return rc;
          Json payload = Json::object({{"name", a[0]}});
          Message r = c.h->send(
              c.h->request("group.info").payload(std::move(payload)));
          std::printf("%s\n", r.payload().dump_pretty().c_str());
          return r.errnum;
        }}},
      {"group-list",
       {"group-list", "list all groups",
        [](Cli& c, const Args&) {
          Message r = c.h->call(c.h->request("group.list"));
          for (const Json& g : r.payload().at("groups").as_array())
            std::printf("%s\n", g.as_string().c_str());
          return 0;
        }}},
      // --- observability ------------------------------------------------------
      {"stats",
       {"stats [service] [all]", "aggregated session-wide counters/histograms",
        [](Cli& c, const Args& a) {
          std::string service = "cmb";
          bool all = false;
          for (const auto& arg : a) {
            if (arg == "all")
              all = true;
            else
              service = arg;
          }
          Json merged = c.h->stats(service, all);
          std::printf("%s (%lld ranks)\n%s", service.c_str(),
                      static_cast<long long>(merged.get_int("ranks")),
                      obs::format_snapshot(merged).c_str());
          const Json& counters = merged.at("counters");
          if (counters.is_object()) {
            const std::int64_t hits = counters.get_int("kvs.cache.hits");
            const std::int64_t misses = counters.get_int("kvs.cache.misses");
            if (hits + misses > 0)
              std::printf("%-36s %11.1f%%\n", "kvs.cache.hit_rate",
                          100.0 * static_cast<double>(hits) /
                              static_cast<double>(hits + misses));
          }
          return 0;
        }}},
      {"trace",
       {"trace <topic> [rank] [json]", "send a traced request, print each hop",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "trace <topic> [rank] [json]")) return rc;
          auto req = c.h->request(a[0]).trace();
          if (a.size() > 1) req.to(rank_arg(a[1]));
          if (a.size() > 2) req.payload(parse_value(a[2]));
          Message r = c.h->send(std::move(req));
          std::int64_t prev = r.trace.empty() ? 0 : r.trace.front().t_ns;
          for (const TraceHop& hop : r.trace) {
            std::printf("rank %-4u %-6s t=%lldns (+%lldns)\n", hop.rank,
                        std::string(trace_plane_name(hop.plane)).c_str(),
                        static_cast<long long>(hop.t_ns),
                        static_cast<long long>(hop.t_ns - prev));
            prev = hop.t_ns;
          }
          std::printf("%zu hops, errnum %d\n", r.trace.size(), r.errnum);
          return r.errnum;
        }}},
      // --- mon ----------------------------------------------------------------
      {"mon-activate",
       {"mon-activate <sampler> [...]", "activate samplers through the KVS",
        [](Cli& c, const Args& a) {
          if (int rc = need(a, 1, "mon-activate <sampler> ...")) return rc;
          Json samplers = Json::array();
          for (const auto& s : a) samplers.push_back(s);
          c.h->kvs_put("mon.samplers", std::move(samplers));
          c.h->kvs_commit();
          return 0;
        }}},
  };
  return table;
}

int run_command(Cli& cli, const std::string& name, const Args& args) {
  if (name == "help") {
    std::printf("flux sub-commands (%zu):\n", commands().size());
    for (const auto& [cmd_name, cmd] : commands())
      std::printf("  %-44s %s\n", cmd.usage, cmd.help);
    return 0;
  }
  auto it = commands().find(name);
  if (it == commands().end()) {
    std::fprintf(stderr, "flux: unknown sub-command '%s' (try help)\n",
                 name.c_str());
    return 2;
  }
  try {
    return it->second.run(cli, args);
  } catch (const FluxException& e) {
    std::fprintf(stderr, "flux %s: %s\n", name.c_str(), e.what());
    return 1;
  } catch (const std::invalid_argument&) {
    std::fprintf(stderr, "usage: %s\n", it->second.usage);
    return 2;
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "usage: %s\n", it->second.usage);
    return 2;
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: flux_cli [-n brokers] <subcommand> [args...]\n"
               "       flux_cli [-n brokers] script   (commands on stdin)\n"
               "       flux_cli help\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint32_t nbrokers = 4;
  int argi = 1;
  if (argi + 1 < argc && std::strcmp(argv[argi], "-n") == 0) {
    char* end = nullptr;
    const unsigned long n = std::strtoul(argv[argi + 1], &end, 10);
    if (*end != '\0' || argv[argi + 1][0] == '-' || n < 1 || n > UINT32_MAX)
      return usage();
    nbrokers = static_cast<std::uint32_t>(n);
    argi += 2;
  }
  if (argi >= argc) return usage();
  const std::string sub = argv[argi++];
  if (sub == "help") {
    Cli no_session;
    return run_command(no_session, "help", {});
  }

  SessionConfig cfg;
  cfg.size = nbrokers;
  auto session = Session::create_threaded(cfg);
  if (!session->wait_online()) {
    std::fprintf(stderr, "flux: session failed to come online\n");
    return 1;
  }
  SyncHandle handle(*session, 0);
  Cli cli{session.get(), &handle};

  if (sub == "script") {
    std::string line;
    int rc = 0;
    while (std::getline(std::cin, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream is(line);
      std::string name;
      is >> name;
      Args args;
      std::string word;
      while (is >> word) args.push_back(word);
      std::printf("flux> %s\n", line.c_str());
      rc = run_command(cli, name, args);
      if (rc != 0) break;
    }
    return rc;
  }

  Args args;
  for (; argi < argc; ++argi) args.emplace_back(argv[argi]);
  return run_command(cli, sub, args);
}
