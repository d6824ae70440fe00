#include "kap/kap.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "api/handle.hpp"
#include "base/rng.hpp"
#include "broker/session.hpp"
#include "kvs/kvs_client.hpp"

namespace flux::kap {

std::uint32_t total_procs(const KapConfig& cfg) {
  return cfg.nnodes * cfg.procs_per_node;
}

std::string object_key(const KapConfig& cfg, std::uint64_t idx) {
  if (cfg.single_directory) return "kap.k" + std::to_string(idx);
  return "kap.d" + std::to_string(idx / cfg.dir_fanout) + ".k" +
         std::to_string(idx);
}

namespace {

struct ProcShared {
  const KapConfig* cfg;
  std::uint32_t nprod, ncons, nprocs;
  std::uint64_t total_objects;
  std::vector<Duration> producer_lat;
  std::vector<Duration> sync_lat;
  std::vector<Duration> consumer_lat;
  std::uint32_t done = 0;
  std::string redundant_value;  // shared payload for the redundant case
};

PhaseStats summarize(std::vector<Duration> lats) {
  PhaseStats out;
  if (lats.empty()) return out;
  std::sort(lats.begin(), lats.end());
  out.max = lats.back();
  out.p50 = lats[lats.size() / 2];
  out.p99 = lats[(lats.size() * 99) / 100];
  Duration::rep sum = 0;
  for (Duration d : lats) sum += d.count();
  out.mean = Duration{sum / static_cast<Duration::rep>(lats.size())};
  return out;
}

/// One KAP tester process (paper: a rank of the KAP MPI-style job).
Task<void> kap_proc(Handle* h, ProcShared* sh, std::uint32_t proc) {
  const KapConfig& cfg = *sh->cfg;
  KvsClient kvs(*h);
  Executor& ex = h->executor();
  const bool is_producer = proc < sh->nprod;
  const bool is_consumer = proc < sh->ncons;

  // -- setup phase: simultaneous start -----------------------------------
  co_await h->barrier("kap.start", sh->nprocs);

  // -- producer phase ------------------------------------------------------
  const TimePoint prod_start = ex.now();
  if (is_producer) {
    Rng rng(cfg.seed ^ (0x9d0ull << 32) ^ proc);
    for (std::uint32_t j = 0; j < cfg.puts_per_producer; ++j) {
      const std::uint64_t idx =
          static_cast<std::uint64_t>(proc) * cfg.puts_per_producer + j;
      std::string value = cfg.redundant_values ? sh->redundant_value
                                               : rng.bytes(cfg.value_size);
      co_await kvs.put(object_key(cfg, idx), std::move(value));
    }
  }
  sh->producer_lat[proc] = ex.now() - prod_start;

  // -- synchronization phase ----------------------------------------------
  const TimePoint sync_start = ex.now();
  if (cfg.sync == KapConfig::Sync::Fence) {
    co_await kvs.fence("kap.sync", sh->nprocs);
  } else {
    // Producers commit individually; everyone waits for the resulting
    // version. Version after all commits = 1 (bootstrap) + nprod.
    if (is_producer) co_await kvs.commit();
    co_await kvs.wait_version(1 + sh->nprod);
  }
  sh->sync_lat[proc] = ex.now() - sync_start;

  // -- consumer phase --------------------------------------------------------
  // Paper §V-B: "G objects are read collectively by C consumers" — every
  // consumer reads the SAME G-object set (contiguous by default; the
  // access_stride option spreads the set across the key space / across
  // directories, one of KAP's "different striding" patterns).
  const TimePoint cons_start = ex.now();
  if (is_consumer && sh->total_objects > 0) {
    const std::uint64_t stride = cfg.access_stride ? cfg.access_stride : 1;
    for (std::uint32_t j = 0; j < cfg.gets_per_consumer; ++j) {
      const std::uint64_t idx =
          (static_cast<std::uint64_t>(j) * stride) % sh->total_objects;
      Json v = co_await kvs.get(object_key(cfg, idx));
      if (!v.is_string() ||
          v.as_string().size() != cfg.value_size)
        throw FluxException(
            Error(errc::proto, "kap: consumer read unexpected value"));
    }
  }
  sh->consumer_lat[proc] = ex.now() - cons_start;

  ++sh->done;
}

}  // namespace

KapResult run_kap(const KapConfig& cfg) {
  const auto host_start = std::chrono::steady_clock::now();

  SimExecutor ex;
  SessionConfig scfg;
  scfg.size = cfg.nnodes;
  scfg.tree_arity = cfg.tree_arity;
  scfg.net = cfg.net;
  scfg.seed = cfg.seed;
  // The paper's sessions run the full module stack; KAP needs hb (cache
  // expiry pacing), live (hello traffic = realistic background noise),
  // barrier and kvs.
  scfg.modules = {"hb", "live", "barrier", "kvs"};
  // Heartbeat cadence matches production practice (seconds-scale relative
  // to the workload): with an aggressive ms-scale heartbeat, bulk fence
  // transfers starve hello messages and the live module declares healthy
  // brokers dead mid-benchmark.
  scfg.module_config = Json::object(
      {{"kvs", Json::object({{"expiry_epochs", cfg.kvs_expiry_epochs}})},
       {"hb", Json::object({{"period_us", 100000}})},
       {"live", Json::object({{"missed_max", 100}})}});

  auto session = Session::create_sim(ex, scfg);
  KapResult result;
  result.wireup = session->run_until_online();

  ProcShared sh;
  sh.cfg = &cfg;
  sh.nprocs = total_procs(cfg);
  sh.nprod = cfg.nproducers ? cfg.nproducers : sh.nprocs;
  sh.ncons = cfg.nconsumers ? cfg.nconsumers : sh.nprocs;
  if (sh.nprod > sh.nprocs || sh.ncons > sh.nprocs)
    throw std::invalid_argument("kap: producer/consumer count exceeds procs");
  sh.total_objects =
      static_cast<std::uint64_t>(sh.nprod) * cfg.puts_per_producer;
  sh.producer_lat.assign(sh.nprocs, Duration{0});
  sh.sync_lat.assign(sh.nprocs, Duration{0});
  sh.consumer_lat.assign(sh.nprocs, Duration{0});
  {
    Rng rng(cfg.seed ^ 0xedull);
    sh.redundant_value = rng.bytes(cfg.value_size);
  }

  // Setup phase: consecutive process ranks land on consecutive nodes.
  std::vector<std::unique_ptr<Handle>> handles;
  handles.reserve(sh.nprocs);
  for (std::uint32_t p = 0; p < sh.nprocs; ++p) {
    handles.push_back(session->attach(p % cfg.nnodes));
    co_spawn(ex, kap_proc(handles.back().get(), &sh, p),
             "kap.proc" + std::to_string(p));
  }

  ex.run();
  if (sh.done != sh.nprocs)
    throw std::runtime_error("kap: stalled with " +
                             std::to_string(sh.nprocs - sh.done) +
                             " unfinished processes");

  // Each phase is summarized over its participants only.
  result.producer = summarize(std::vector<Duration>(
      sh.producer_lat.begin(), sh.producer_lat.begin() + sh.nprod));
  result.sync = summarize(sh.sync_lat);
  result.consumer = summarize(std::vector<Duration>(
      sh.consumer_lat.begin(), sh.consumer_lat.begin() + sh.ncons));
  result.total_objects = sh.total_objects;
  result.net_messages = session->simnet()->stats().messages;
  result.net_bytes = session->simnet()->stats().bytes;
  for (NodeId r = 0; r < cfg.nnodes; ++r) {
    const obs::StatsRegistry& reg = session->broker(r).stats_registry();
    result.cache_hits += reg.counter_value("kvs.cache.hits");
    result.cache_misses += reg.counter_value("kvs.cache.misses");
    result.faults_issued += reg.counter_value("kvs.faults_issued");
  }
  result.sim_events = ex.executed();
  result.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    host_start)
          .count();
  return result;
}

}  // namespace flux::kap
