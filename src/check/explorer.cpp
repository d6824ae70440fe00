#include "check/explorer.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "api/handle.hpp"
#include "api/job_client.hpp"
#include "base/retry.hpp"
#include "broker/session.hpp"
#include "check/history.hpp"
#include "exec/sim_executor.hpp"
#include "fault/plan.hpp"
#include "kvs/content_backend.hpp"
#include "kvs/kvs_client.hpp"
#include "kvs/kvs_module.hpp"
#include "kvs/shard_map.hpp"
#include "obs/stats.hpp"

namespace flux::check {

namespace {

/// Separate stream for fault-plan synthesis so the jitter stream (seeded with
/// the run seed directly) stays independent of which faults are on.
constexpr std::uint64_t kFaultStream = 0x9e3779b97f4a7c15ULL;

SessionConfig dst_config(std::uint64_t seed, const DstOptions& opt,
                         const std::string& persist_path) {
  SessionConfig cfg;
  cfg.size = opt.size;
  cfg.tree_arity = opt.arity;
  cfg.seed = seed;
  Json kvs = Json::object();
  if (opt.shards > 1) {
    kvs["shards"] = static_cast<std::int64_t>(opt.shards);
    if (opt.failover) kvs["failover"] = true;
  }
  if (!persist_path.empty()) {
    // Tight cadences so a short DST run still crosses checkpoint and GC
    // boundaries (the interesting recovery states live there).
    kvs["persist"] = Json::object({{"path", persist_path},
                                   {"checkpoint_every", 8},
                                   {"gc_every", 16},
                                   {"retention", 4}});
  }
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 100}})},
                    {"live", Json::object({{"missed_max", 3}})},
                    {"kvs", std::move(kvs)}});
  // No-hang safety net (the chaos-suite idiom): every client RPC gets a
  // deadline plus retries, so a lost message surfaces as a typed error the
  // recorder logs instead of wedging the run.
  // With the job workload on, waits span queueing + scheduling + execution,
  // so the per-attempt deadline is widened (virtual time is free; this only
  // bounds how long a genuinely lost message can wedge a client).
  cfg.rpc = opt.jobs ? RetryPolicy{std::chrono::milliseconds(20), 3,
                                   std::chrono::microseconds(200)}
                     : RetryPolicy{std::chrono::milliseconds(2), 3,
                                   std::chrono::microseconds(100)};
  cfg.net.jitter_max = opt.jitter_max;
  cfg.net.jitter_seed = seed;
  return cfg;
}

/// A read that tolerates its own typed failure. The recorder logged the get
/// (absent, or with its errc) either way; swallowing here keeps one failed
/// read — possibly the very violation a mutation injects — from skipping the
/// rest of the round, in particular the peer fence read that distinguishes
/// fence-atomicity from read-your-writes.
Task<void> try_get(KvsClient* kvs, std::string key) {
  try {
    (void)co_await kvs->get(std::move(key));
  } catch (const FluxException&) {
  }
}

Task<void> dst_client(Handle* h, KvsClient* kvs, int id, int nclients,
                      int rounds, int* done) {
  for (int r = 0; r < rounds; ++r) {
    try {
      co_await h->sleep(std::chrono::microseconds(150 + 70 * id));
      if (id == 0) {
        // The watched key: rewritten once per round by client 0 only, so
        // every other commit below is a root update that does NOT change it.
        // (Json literals are hoisted out of the co_await expressions here and
        // below: gcc 12 cannot keep an initializer_list temporary alive
        // across a suspension point — "array used as initializer".)
        Json wv = Json::object({{"r", r}});
        co_await kvs->put("w.main", std::move(wv));
        co_await kvs->commit();
      }
      // Solo commit + own read-back (read-your-writes). Top-level dirs are
      // per client, so sharded sessions spread these across shards.
      const std::string own =
          "c" + std::to_string(id) + ".k" + std::to_string(r);
      Json ov = Json::object({{"c", id}, {"r", r}});
      co_await kvs->put(own, std::move(ov));
      co_await kvs->commit();
      co_await try_get(kvs, own);
      // Collective fence + own and peer reads (fence atomicity).
      const std::string fkey =
          "f" + std::to_string(id) + ".r" + std::to_string(r);
      Json fv = Json::object({{"f", id}, {"r", r}});
      co_await kvs->put(fkey, std::move(fv));
      co_await kvs->fence("dstfence.r" + std::to_string(r), nclients);
      co_await try_get(kvs, fkey);
      co_await try_get(kvs, "f" + std::to_string((id + 1) % nclients) + ".r" +
                                std::to_string(r));
    } catch (const FluxException&) {
      // Typed failure under faults: the recorder taps logged it with its
      // errc; the oracle excuses the affected keys.
    }
  }
  ++*done;
}

/// Job-lifecycle client: submits jobs_per_client jobs through the full
/// pipeline, cycling through three shapes — a synthetic walltime sleep, a
/// registered command, and a spinner that gets canceled mid-flight. Every
/// observed jobid lands in `ids` in submission order (the monotonicity
/// oracle's input). Typed failures under faults are tolerated: the job
/// oracles run on what the KVS says afterwards, not on this client's view.
Task<void> jobs_dst_client(Handle* h, int id, int rounds,
                           std::vector<std::uint64_t>* ids, int* done) {
  for (int r = 0; r < rounds; ++r) {
    try {
      co_await h->sleep(std::chrono::microseconds(100 + 80 * id + 17 * r));
      std::optional<JobHandle> jh;
      switch ((id + r) % 3) {
        case 0: {
          JobHandle j = co_await h->job().name("dst-sleep").walltime(
              std::chrono::microseconds(300)).submit();
          jh.emplace(j);
          break;
        }
        case 1: {
          Json args = Json::object({{"text", "dst"}});
          JobHandle j = co_await h->job()
                            .name("dst-echo")
                            .command("echo", std::move(args))
                            .submit();
          jh.emplace(j);
          break;
        }
        default: {
          JobHandle j =
              co_await h->job().name("dst-spin").command("spin").submit();
          jh.emplace(j);
          break;
        }
      }
      ids->push_back(jh->id());
      if ((id + r) % 3 == 2) {
        for (int i = 0; i < 50; ++i) {
          if (co_await jh->state() != JobState::Pending) break;
          co_await h->sleep(std::chrono::microseconds(100));
        }
        co_await jh->cancel();
      }
      (void)co_await jh->wait();
    } catch (const FluxException&) {
      // Lost RPC or dead broker under faults: the submission either never
      // happened or will finish without this client watching. Both are
      // legitimate; the post-run oracles judge the outcome.
    }
  }
  ++*done;
}

}  // namespace

Task<void> jobs_post_check(Handle* h, const std::vector<std::uint64_t>* ids,
                           std::vector<std::string>* out) {
  KvsClient kvs(*h);
  // Per-rank busy intervals [alloc, finish] from each job's eventlog. A
  // job's resources are freed only after its finish event, and the next
  // alloc strictly follows the free, so any overlap is a real
  // double-allocation, never a release-in-flight artifact.
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      busy;
  // A job can legitimately lose its record to a fault, but if no acked job
  // could be read the oracles below checked nothing (a stale path, say).
  std::size_t read = 0;
  for (const std::uint64_t id : *ids) {
    const std::string base = job_kvs_path(id) + ".";
    Json log;
    try {
      log = co_await kvs.get(base + "eventlog");
    } catch (const FluxException&) {
      continue;  // submission raced a fault before the first commit
    }
    ++read;
    std::int64_t t_alloc = -1, t_finish = -1;
    for (const Json& e : log.as_array()) {
      const std::string name = e.get_string("name");
      if (name == "alloc") t_alloc = e.get_int("t");
      if (name == "finish") t_finish = e.get_int("t");
    }
    if (t_alloc >= 0 && t_finish >= 0) {
      try {
        Json ranks = co_await kvs.get(base + "ranks");
        for (const Json& rk : ranks.as_array())
          busy[rk.as_int()].emplace_back(t_alloc, t_finish);
      } catch (const FluxException&) {
      }
    }
    try {
      Json st = co_await kvs.get(base + "state");
      const std::string s = st.as_string();
      if (s != "complete" && s != "canceled" && s != "failed")
        out->push_back("job " + std::to_string(id) +
                       " ended in non-terminal state '" + s + "'");
    } catch (const FluxException&) {
    }
  }
  if (!ids->empty() && read == 0)
    out->push_back("no eventlog of the " + std::to_string(ids->size()) +
                   " acked jobs could be read (first: " +
                   job_kvs_path(ids->front()) + ".eventlog)");
  for (auto& [rank, iv] : busy) {
    std::sort(iv.begin(), iv.end());
    for (std::size_t i = 1; i < iv.size(); ++i)
      if (iv[i].first < iv[i - 1].second)
        out->push_back("rank " + std::to_string(rank) +
                       " double-allocated: [" +
                       std::to_string(iv[i - 1].first) + "," +
                       std::to_string(iv[i - 1].second) + "] overlaps [" +
                       std::to_string(iv[i].first) + "," +
                       std::to_string(iv[i].second) + "]");
  }
  // End state: every allocation returned (a crashed broker's job must Fail
  // and release, never leave resvc holding nodes for a dead job).
  try {
    Message st = co_await h->request("resvc.status").call();
    const Json& p = st.payload();
    if (!p.at("jobs").as_array().empty())
      out->push_back("resvc still holds " +
                     std::to_string(p.at("jobs").size()) +
                     " allocation(s) after all jobs finished: " +
                     p.at("jobs").dump());
    const std::int64_t total = p.get_int("total");
    const std::int64_t reachable = p.get_int("free") + p.get_int("down");
    if (reachable != total)
      out->push_back("resvc accounting leak: free+down=" +
                     std::to_string(reachable) + " of " +
                     std::to_string(total) + " nodes");
  } catch (const FluxException&) {
    // Status unreachable under a still-degraded session; the KVS-side
    // oracles above already ran.
  }
}

std::optional<Json> resolve_key(const ContentStore& store, const Sha1& root,
                                const std::string& key) {
  Sha1 cur = root;
  for (const std::string& comp : split_key(key)) {
    ObjPtr obj = store.get(cur);
    const std::optional<Sha1> ref = obj ? obj->child(comp) : std::nullopt;
    if (!ref) return std::nullopt;
    cur = *ref;
  }
  ObjPtr leaf = store.get(cur);
  if (!leaf || !leaf->is_val()) return std::nullopt;
  return leaf->value();
}

namespace {

/// What the workload was *told* is durable, derived from the recorded
/// history: every key staged by a put and covered by a commit/fence that
/// returned ok. A failed commit/fence conservatively drops its puts: it may
/// still have applied server-side (lost response), which leaves extra data
/// behind — never checked as missing, never a violation.
struct AckedKey {
  Json value;              ///< the value of the last acked write
  std::int64_t t_ns = 0;   ///< when the acking commit/fence was issued
  int writes = 0;          ///< ok puts of the key, by any client
};

std::map<std::string, AckedKey> acked_keys(const std::vector<OpRecord>& ops) {
  std::map<std::string, AckedKey> acked;
  std::map<std::string, int> writes;
  std::map<int, std::map<std::string, Json>> staged;
  for (const OpRecord& op : ops) {
    switch (op.kind) {
      case OpKind::put:
        if (op.err == errc::ok) {
          staged[op.client][op.key] = op.value;
          ++writes[op.key];
        }
        break;
      case OpKind::commit:
      case OpKind::fence:
        if (op.err == errc::ok)
          for (auto& [k, v] : staged[op.client]) acked[k] = {v, op.t_ns, 0};
        staged[op.client].clear();
        break;
      default:
        break;
    }
  }
  for (auto& [k, a] : acked) a.writes = writes[k];
  return acked;
}

/// Ranks the plan crashed at least once.
std::set<NodeId> crashed_ranks(const std::optional<fault::FaultPlan>& plan) {
  std::set<NodeId> crashed;
  if (plan)
    for (const fault::NodeEvent& ev : plan->events())
      if (ev.kind == fault::NodeEvent::Kind::crash) crashed.insert(ev.rank);
  return crashed;
}

/// With failover on, a shard whose home master crashed is served by a
/// promoted master that starts from an empty root and persists nothing, by
/// design (DESIGN §4c): its acked data is not expected to survive.
bool shard_lost_by_design(const DstOptions& opt, const ShardMap& sm,
                          std::uint32_t shard,
                          const std::set<NodeId>& crashed) {
  return opt.failover && crashed.count(sm.master_rank(shard)) != 0;
}

/// The persistence-aware oracle: an offline durability audit run after the
/// session (and with it every backend) is gone. It reopens the on-disk
/// log(s), recovers into a fresh store, and requires each acked key to be
/// reachable under the recovered root. Values are compared only for keys
/// written exactly once: for a rewritten key a lost commit *response*
/// legitimately leaves the store one write ahead of the last ack. Shards
/// lost by design under failover are skipped; everything else is a hard
/// violation: ack-after-sync means a crash, even with a torn unsynced tail,
/// never loses an acked commit.
void audit_durability(const std::map<std::string, AckedKey>& acked,
                      const DstOptions& opt, const std::set<NodeId>& crashed,
                      const std::string& path,
                      std::vector<std::string>* out) {
  if (acked.empty()) return;

  const std::uint32_t nshards = std::max(1u, opt.shards);
  const ShardMap sm(opt.size, nshards, opt.arity);
  std::vector<std::optional<Sha1>> roots(nshards);
  std::vector<std::unique_ptr<ContentStore>> stores(nshards);
  for (std::uint32_t s = 0; s < nshards; ++s) {
    const std::string file =
        nshards > 1 ? path + ".s" + std::to_string(s) : path;
    std::error_code ec;
    if (!std::filesystem::exists(file, ec)) continue;
    stores[s] = std::make_unique<ContentStore>();
    try {
      FileLogBackend backend(file);
      const FileLogBackend::Recovered rec = backend.recover(*stores[s]);
      backend.close();
      if (rec.has_root(s)) roots[s] = rec.roots[s];
    } catch (const FluxException& e) {
      out->push_back("shard " + std::to_string(s) +
                     " log unrecoverable: " + std::string(e.what()));
      stores[s].reset();
    }
  }

  for (const auto& [key, a] : acked) {
    const std::uint32_t s = nshards > 1 ? sm.shard_of(key) : 0;
    if (shard_lost_by_design(opt, sm, s, crashed)) continue;
    if (!stores[s] || !roots[s]) {
      out->push_back("acked key '" + key + "' lost: shard " +
                     std::to_string(s) + " has no recovered root");
      continue;
    }
    const std::optional<Json> got = resolve_key(*stores[s], *roots[s], key);
    if (!got) {
      out->push_back("acked key '" + key +
                     "' not reachable from the recovered root");
      continue;
    }
    if (a.writes == 1 && got->dump() != a.value.dump())
      out->push_back("acked key '" + key + "' recovered with wrong value: " +
                     got->dump() + " != acked " + a.value.dump());
  }
}

/// Read every key of `keys` through `h` and require the acked value; each
/// miss or mismatch is appended to `out`.
Task<void> read_back(Handle* h, NodeId rank,
                     std::vector<std::pair<std::string, Json>> keys,
                     std::vector<std::string>* out) {
  KvsClient kvs(*h);
  for (const auto& [key, want] : keys) {
    const std::string who = "restarted rank " + std::to_string(rank);
    try {
      const Json got = co_await kvs.get(key);
      if (got.dump() != want.dump())
        out->push_back(who + " reads '" + key + "' as " + got.dump() +
                       ", acked " + want.dump() + " before its restart");
    } catch (const FluxException& e) {
      out->push_back(who + " cannot read '" + key + "', acked before its " +
                     "restart: " + e.error().to_string());
    }
  }
}

/// The post-run recovery checks (DstResult::recovery_violations).
void check_recovery(Session& session, SimExecutor& ex, const DstOptions& opt,
                    const fault::FaultPlan& plan, TimePoint armed,
                    const std::set<NodeId>& crashed,
                    const std::map<std::string, AckedKey>& acked,
                    std::vector<std::string>* out) {
  std::map<NodeId, const fault::NodeEvent*> last;
  for (const fault::NodeEvent& ev : plan.events()) {
    const auto it = last.find(ev.rank);
    if (it == last.end() || it->second->at <= ev.at) last[ev.rank] = &ev;
  }
  const std::uint32_t nshards = std::max(1u, opt.shards);
  const ShardMap sm(opt.size, nshards, opt.arity);

  std::vector<std::unique_ptr<Handle>> readers;
  for (const auto& [rank, ev] : last) {
    if (ev->kind != fault::NodeEvent::Kind::restart) continue;
    Broker& b = session.broker(rank);
    if (!b.online() || b.failed()) {
      out->push_back("restarted rank " + std::to_string(rank) +
                     " not online" + (b.failed() ? " (failed)" : ""));
      continue;
    }
    // A rank `live` declared dead again after its rejoin is healed around
    // and gets no further setroots, so it serves a stale root by a known,
    // still open fault (ROADMAP, "Two failure gaps"); its reads are not
    // judged, as the oracle excuses its clients' timeouts.
    if (session.broker(0).dead_ranks().count(rank) != 0) continue;
    const std::int64_t restart_ns = (armed + ev->at).count();
    std::vector<std::pair<std::string, Json>> keys;
    for (const auto& [key, a] : acked) {
      const std::uint32_t s = nshards > 1 ? sm.shard_of(key) : 0;
      if (a.writes == 1 && a.t_ns < restart_ns &&
          !shard_lost_by_design(opt, sm, s, crashed))
        keys.emplace_back(key, a.value);
    }
    readers.push_back(session.attach(rank));
    co_spawn(ex, read_back(readers.back().get(), rank, std::move(keys), out),
             "dst-read-back");
  }
  ex.run();

  if (!opt.failover || nshards < 2) return;
  const KvsModule* ref = nullptr;
  NodeId ref_rank = 0;
  for (NodeId r = 0; r < opt.size; ++r) {
    if (session.broker(r).failed()) continue;
    const auto* k =
        dynamic_cast<const KvsModule*>(session.broker(r).find_module("kvs"));
    if (!k) continue;
    if (!ref) {
      ref = k;
      ref_rank = r;
      for (std::uint32_t s = 0; s < nshards; ++s)
        if (crashed.count(sm.master_rank(s)) != 0 &&
            k->shard_masters()[s] == sm.master_rank(s))
          out->push_back("shard " + std::to_string(s) + " kept crashed " +
                         "master " + std::to_string(sm.master_rank(s)) +
                         " (rank " + std::to_string(r) + "'s view)");
    } else if (k->shard_masters() != ref->shard_masters()) {
      out->push_back("rank " + std::to_string(r) +
                     " disagrees on the shard masters with rank " +
                     std::to_string(ref_rank));
    }
  }
}

/// Best-effort removal of a run's backing files (log, per-shard logs, and
/// compaction temp files).
void remove_persist_files(const std::string& path, std::uint32_t shards) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".tmp", ec);
  for (std::uint32_t s = 0; s < std::max(1u, shards); ++s) {
    std::filesystem::remove(path + ".s" + std::to_string(s), ec);
    std::filesystem::remove(path + ".s" + std::to_string(s) + ".tmp", ec);
  }
}

DstResult run_impl(std::uint64_t seed, const DstOptions& opt,
                   std::optional<fault::FaultPlan> plan) {
  DstResult out;
  out.seed = seed;
  if (plan) out.fault_plan = plan->to_json();
  const std::set<NodeId> crashed = crashed_ranks(plan);

  // Unique backing file per run: pid + process-wide counter + seed, so
  // parallel ctest invocations and repeated seeds never collide.
  std::string persist_path;
  if (opt.persist) {
    static std::atomic<std::uint64_t> counter{0};
    persist_path =
        (std::filesystem::temp_directory_path() /
         ("flux-dst-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter.fetch_add(1)) + "-" + std::to_string(seed) +
          ".log"))
            .string();
  }

  HistoryRecorder rec;
  try {
    SimExecutor ex;
    SessionConfig cfg = dst_config(seed, opt, persist_path);
    auto session = Session::create_sim(ex, cfg);
    session->run_until_online();
    const TimePoint armed = ex.now();
    if (plan) plan->arm(*session);

    const int nclients = std::max(1, opt.clients);
    std::vector<NodeId> ranks;
    std::vector<std::unique_ptr<Handle>> handles;
    std::vector<std::unique_ptr<KvsClient>> clients;
    std::vector<WatchHandle> watches;
    for (int i = 0; i < nclients; ++i) {
      // Spread clients over non-root ranks (the root's kvs instance is the
      // master in single-master mode; slaves are where the contract can
      // break), falling back to rank 0 in a 1-node session.
      const NodeId rank =
          opt.size > 1 ? 1 + static_cast<NodeId>(i) % (opt.size - 1) : 0;
      ranks.push_back(rank);
      handles.push_back(session->attach(rank));
      clients.push_back(std::make_unique<KvsClient>(*handles.back()));
      clients.back()->set_recorder(&rec, i);
      watches.push_back(
          clients.back()->watch("w.main", [](const std::optional<Json>&) {}));
    }

    int done = 0;
    for (int i = 0; i < nclients; ++i)
      co_spawn(ex,
               dst_client(handles[static_cast<std::size_t>(i)].get(),
                          clients[static_cast<std::size_t>(i)].get(), i,
                          nclients, opt.rounds, &done),
               "dst-client");

    // Job-lifecycle workload: its clients run concurrently with the KVS
    // clients, sharing the same network, faults, and jitter stream.
    const int njobs_clients = opt.jobs ? nclients : 0;
    std::vector<std::unique_ptr<Handle>> job_handles;
    std::vector<std::vector<std::uint64_t>> job_ids(
        static_cast<std::size_t>(njobs_clients));
    int jobs_done = 0;
    for (int i = 0; i < njobs_clients; ++i) {
      const NodeId rank =
          opt.size > 1 ? 1 + static_cast<NodeId>(nclients + i) % (opt.size - 1)
                       : 0;
      job_handles.push_back(session->attach(rank));
      co_spawn(ex,
               jobs_dst_client(job_handles.back().get(), i,
                               opt.jobs_per_client,
                               &job_ids[static_cast<std::size_t>(i)],
                               &jobs_done),
               "dst-jobs-client");
    }

    ex.run();
    ex.run_for(std::chrono::milliseconds(3));  // heal / failover epochs
    ex.run();                                  // late restarts, rejoins
    out.stalled_clients = (nclients - done) + (njobs_clients - jobs_done);

    if (opt.jobs) {
      // Jobid oracle: per-client submission order is strictly increasing
      // (the root hands ids out monotonically) and no id is ever reused.
      std::set<std::uint64_t> seen;
      std::vector<std::uint64_t> all_ids;
      for (int i = 0; i < njobs_clients; ++i) {
        const auto& ids = job_ids[static_cast<std::size_t>(i)];
        for (std::size_t k = 0; k < ids.size(); ++k) {
          if (k > 0 && ids[k] <= ids[k - 1])
            out.job_violations.push_back(
                "client " + std::to_string(i) + " saw non-monotonic jobids " +
                std::to_string(ids[k - 1]) + " -> " + std::to_string(ids[k]));
          if (!seen.insert(ids[k]).second)
            out.job_violations.push_back("jobid " + std::to_string(ids[k]) +
                                         " assigned twice");
          all_ids.push_back(ids[k]);
        }
      }
      auto checker = session->attach(0);
      co_spawn(ex,
               jobs_post_check(checker.get(), &all_ids, &out.job_violations),
               "dst-jobs-oracle");
      ex.run();
    }

    if (plan)
      check_recovery(*session, ex, opt, *plan, armed, crashed,
                     acked_keys(rec.ops()), &out.recovery_violations);

    // Clients on ranks a fault schedule crashed (or restarted): their local
    // version vector may legitimately regress mid-resync.
    OracleOptions oracle_opt;
    if (plan) {
      for (const fault::NodeEvent& ev : plan->events())
        for (int i = 0; i < nclients; ++i)
          if (ranks[static_cast<std::size_t>(i)] == ev.rank)
            oracle_opt.tainted_clients.push_back(i);
    }
    out.history_len = rec.size();
    out.report = check_history(rec.ops(), oracle_opt,
                               &session->broker(0).stats_registry());

    // Drop watches and recorder taps before the session goes away.
    watches.clear();
    for (auto& c : clients) c->set_recorder(nullptr, -1);
    session->set_fault_injector(nullptr);
  } catch (const std::exception& e) {
    out.workload_error = true;
    out.error = e.what();
  }

  // The session (and with it every backend) is destroyed by now — the clean
  // shutdown wrote its final checkpoint, a crashed broker left its torn
  // tail. Audit the on-disk state against the acked history, then clean up.
  if (!persist_path.empty()) {
    if (!out.workload_error)
      audit_durability(acked_keys(rec.ops()), opt, crashed, persist_path,
                       &out.durability_violations);
    remove_persist_files(persist_path, opt.shards);
  }
  return out;
}

}  // namespace

DstResult run_schedule(std::uint64_t seed, const DstOptions& opt) {
  std::optional<fault::FaultPlan> plan;
  const bool root_crash = opt.persist && opt.master_crash;
  if (opt.crashes || opt.restarts || opt.drops || opt.delays || root_crash) {
    fault::FaultPlan::RandomOptions fo;
    fo.size = opt.size;
    fo.horizon = std::chrono::milliseconds(8);
    fo.crashes = opt.crashes;
    fo.restarts = opt.restarts;
    fo.drops = opt.drops;
    fo.delays = opt.delays;
    fo.corruption = false;  // see header: corruption blinds the oracle
    fo.max_crashes = opt.max_crashes;
    // The kill-and-restart scenario: crash the root (the persisting KVS
    // master) and torn-write its unsynced tail; recovery must still serve
    // every acked commit.
    fo.crash_root = root_crash;
    fo.torn_writes = opt.persist;
    plan.emplace(fault::FaultPlan::random(seed ^ kFaultStream, fo));
  }
  return run_impl(seed, opt, std::move(plan));
}

DstResult run_schedule(std::uint64_t seed, const DstOptions& opt,
                       const Json& fault_plan) {
  std::optional<fault::FaultPlan> plan;
  if (!fault_plan.is_null()) plan.emplace(fault::FaultPlan::from_json(fault_plan));
  return run_impl(seed, opt, std::move(plan));
}

std::vector<DstResult> explore(std::uint64_t first, int n,
                               const DstOptions& opt) {
  std::vector<DstResult> failures;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = first + static_cast<std::uint64_t>(i);
    DstResult res = run_schedule(seed, opt);
    if (res.failed()) {
      std::fprintf(stderr, "dst: seed %llu FAILED: %s\n",
                   static_cast<unsigned long long>(seed),
                   res.workload_error ? res.error.c_str()
                                      : res.report.to_string().c_str());
      for (const std::string& v : res.job_violations)
        std::fprintf(stderr, "dst:   job oracle: %s\n", v.c_str());
      for (const std::string& v : res.durability_violations)
        std::fprintf(stderr, "dst:   durability: %s\n", v.c_str());
      for (const std::string& v : res.recovery_violations)
        std::fprintf(stderr, "dst:   recovery: %s\n", v.c_str());
      failures.push_back(std::move(res));
    }
  }
  return failures;
}

}  // namespace flux::check
