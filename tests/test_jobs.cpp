// The job lifecycle pipeline: ingest -> queue -> schedule -> execute ->
// complete, with every transition folded into the KVS, fronted by the fluent
// h.job() client API (ctest -L jobs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "api/job_client.hpp"
#include "sim_fixture.hpp"

namespace flux {
namespace {

using testing::SimSession;

TEST(JobKvsPath, FourEightBitGroupsMostSignificantFirst) {
  EXPECT_EQ(job_kvs_path(1), "job.00.00.00.01");
  EXPECT_EQ(job_kvs_path(255), "job.00.00.00.ff");
  EXPECT_EQ(job_kvs_path(256), "job.00.00.01.00");
  EXPECT_EQ(job_kvs_path(1024), "job.00.00.04.00");
  EXPECT_EQ(job_kvs_path(65535), "job.00.00.ff.ff");
  EXPECT_EQ(job_kvs_path(65536), "job.00.01.00.00");
  // The top group holds id >> 24 and widens past 2^32.
  EXPECT_EQ(job_kvs_path(std::uint64_t{1} << 32), "job.100.00.00.00");
  EXPECT_EQ(job_kvs_path(std::numeric_limits<std::uint64_t>::max()),
            "job.ffffffffff.ff.ff.ff");
}

TEST(JobKvsPath, DistinctIdsGiveDistinctPrefixFreePaths) {
  const std::vector<std::uint64_t> ids{
      1,     255,   256, 65535, 65536, std::uint64_t{1} << 32,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t a : ids) {
    for (const std::uint64_t b : ids) {
      if (a == b) continue;
      const std::string pa = job_kvs_path(a), pb = job_kvs_path(b);
      EXPECT_NE(pa, pb) << a << " vs " << b;
      // No job directory may contain another's: "<pa>." never starts <pb>.
      EXPECT_NE(pb.rfind(pa + ".", 0), 0u) << pa << " is a prefix of " << pb;
    }
  }
}

TEST(Jobs, SubmitWaitComplete) {
  SimSession s(SimSession::default_config(8));
  auto h = s.attach(5);
  JobResult r = s.run([](Handle* hd) -> Task<JobResult> {
    Json args = Json::object({{"text", "hi"}});  // hoisted (gcc 12 + co_await)
    JobHandle jh = co_await hd->job()
                       .name("hello")
                       .command("echo", std::move(args))
                       .nnodes(2)
                       .walltime(std::chrono::milliseconds(1))
                       .submit();
    if (!jh.valid()) throw FluxException(Error(errc::proto, "invalid handle"));
    JobResult out = co_await jh.wait();
    co_return out;
  }(h.get()));
  EXPECT_EQ(r.state, JobState::Complete);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.ntasks, 2);
  EXPECT_EQ(r.exits.get_int("0"), 2);
}

TEST(Jobs, LifecycleFoldedIntoKvs) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    JobHandle jh = co_await hd->job().nnodes(2).submit();
    (void)co_await jh.wait();
    // Everything under the job's directory: jobspec, state, ranks, result,
    // the stdio capture, and the event log recording every transition in
    // order.
    KvsClient kvs(*hd);
    const std::string base = jh.kvs_dir();
    Json spec = co_await kvs.get(base + ".jobspec");
    if (spec.get_int("request", -1) == -1 && !spec.contains("request"))
      throw FluxException(Error(errc::proto, "jobspec not folded back"));
    Json state = co_await kvs.get(base + ".state");
    if (state != Json("complete"))
      throw FluxException(Error(errc::proto, "state not complete"));
    Json ranks = co_await kvs.get(base + ".ranks");
    if (ranks.size() != 2)
      throw FluxException(Error(errc::proto, "ranks not folded back"));
    Json result = co_await kvs.get(base + ".result");
    if (!result.get_bool("success"))
      throw FluxException(Error(errc::proto, "result not folded back"));
    for (const Json& rk : ranks.as_array())
      (void)co_await kvs.get(base + ".stdio." + std::to_string(rk.as_int()) +
                             ".exitcode");

    Json log = co_await jh.events();
    std::vector<std::string> names;
    for (const Json& e : log.as_array()) names.push_back(e.get_string("name"));
    const std::vector<std::string> want{"submit", "alloc", "start", "finish"};
    if (names != want)
      throw FluxException(Error(errc::proto, "unexpected event sequence"));
    // Timestamps are monotone.
    std::int64_t last = -1;
    for (const Json& e : log.as_array()) {
      if (e.get_int("t") < last)
        throw FluxException(Error(errc::proto, "eventlog time regression"));
      last = e.get_int("t");
    }
  }(h.get()));
}

TEST(Jobs, WatchDrivenStateObservation) {
  // The existing KVS watch machinery observes job state transitions — no
  // polling API needed.
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  std::vector<std::string> states;
  s.run([](Handle* hd, std::vector<std::string>* out) -> Task<void> {
    KvsClient kvs(*hd);
    JobHandle jh = co_await hd->job().command("spin").nnodes(1).submit();
    WatchHandle w = kvs.watch(jh.kvs_dir() + ".state",
                              [out](const std::optional<Json>& v) {
                                if (v) out->push_back(v->as_string());
                              });
    while (co_await jh.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(200));
    co_await jh.cancel();
    (void)co_await jh.wait();
    co_await hd->sleep(std::chrono::milliseconds(1));  // drain watch refresh
  }(h.get(), &states));
  ASSERT_GE(states.size(), 2u);
  EXPECT_EQ(states.back(), "canceled");
}

TEST(Jobs, CancelPendingJob) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    // Occupy the whole session so the next job stays Pending.
    JobHandle blocker = co_await hd->job().command("spin").nnodes(4).submit();
    JobHandle queued = co_await hd->job().nnodes(4).submit();
    if (co_await queued.state() != JobState::Pending)
      throw FluxException(Error(errc::proto, "expected queued job pending"));
    co_await queued.cancel();
    JobResult r = co_await queued.wait();
    if (r.state != JobState::Canceled)
      throw FluxException(Error(errc::proto, "cancel did not stick"));
    co_await blocker.cancel();
    (void)co_await blocker.wait();
  }(h.get()));
}

TEST(Jobs, PriorityOrdersPendingQueue) {
  SimSession s(SimSession::default_config(2));
  auto h = s.attach(1);
  // While a blocker holds every node, submit low-priority then high-priority
  // full-width jobs; the high-priority one must run (and finish) first.
  std::vector<std::uint64_t> finish_order;
  s.run([](Handle* hd, std::vector<std::uint64_t>* order) -> Task<void> {
    JobHandle blocker = co_await hd->job().command("spin").nnodes(2).submit();
    while (co_await blocker.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(200));
    JobHandle low = co_await hd->job().nnodes(2).priority(0).submit();
    JobHandle high = co_await hd->job().nnodes(2).priority(10).submit();
    co_await blocker.cancel();
    (void)co_await blocker.wait();
    KvsClient kvs(*hd);
    (void)co_await low.wait();
    (void)co_await high.wait();
    // Reconstruct execution order from the committed eventlogs.
    auto start_time = [](const Json& log) -> std::int64_t {
      for (const Json& e : log.as_array())
        if (e.get_string("name") == "start") return e.get_int("t");
      return -1;
    };
    Json llog = co_await low.events();
    Json hlog = co_await high.events();
    if (start_time(hlog) >= start_time(llog))
      throw FluxException(Error(errc::proto, "priority did not reorder"));
    order->push_back(high.id());
    order->push_back(low.id());
  }(h.get(), &finish_order));
  ASSERT_EQ(finish_order.size(), 2u);
}

TEST(Jobs, FullWidthJobsAtEqualPriorityRunInSubmitOrder) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  s.run([](Handle* hd) -> Task<void> {
    JobHandle first = co_await hd->job().command("hostname").nnodes(4).submit();
    JobHandle second =
        co_await hd->job().command("hostname").nnodes(4).submit();
    JobResult r1 = co_await first.wait();
    JobResult r2 = co_await second.wait();
    if (r1.state != JobState::Complete || r2.state != JobState::Complete)
      throw FluxException(Error(errc::proto, "full-width job did not complete"));
    auto event_time = [](const Json& log, const std::string& name) {
      for (const Json& e : log.as_array())
        if (e.get_string("name") == name) return e.get_int("t");
      return std::int64_t{-1};
    };
    Json log1 = co_await first.events();
    Json log2 = co_await second.events();
    // The second needs every node, so it starts only once the first is done.
    if (event_time(log2, "start") < event_time(log1, "finish"))
      throw FluxException(Error(errc::proto, "jobs overlapped or reordered"));
  }(h.get()));
}

TEST(Jobs, NonzeroExitEndsFailed) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  JobResult r = s.run([](Handle* hd) -> Task<JobResult> {
    Json args = Json::object({{"code", 9}});
    JobHandle jh =
        co_await hd->job().command("exit", std::move(args)).nnodes(2).submit();
    co_return co_await jh.wait();
  }(h.get()));
  EXPECT_EQ(r.state, JobState::Failed);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.exits.get_int("9"), 2);
}

TEST(Jobs, FirstFitRunsManyConcurrentSmallJobs) {
  SessionConfig cfg = SimSession::default_config(8);
  cfg.module_config = Json::object(
      {{"job-manager", Json::object({{"policy", "firstfit"}})}});
  SimSession s(cfg);
  auto h = s.attach(0);
  const int completed = s.run([](Handle* hd) -> Task<int> {
    std::vector<JobHandle> jobs;
    for (int i = 0; i < 12; ++i)
      jobs.push_back(co_await hd->job()
                         .command("hostname")
                         .nnodes(2)
                         .walltime(std::chrono::milliseconds(2))
                         .submit());
    int n = 0;
    for (JobHandle& jh : jobs)
      if ((co_await jh.wait()).state == JobState::Complete) ++n;
    co_return n;
  }(h.get()));
  EXPECT_EQ(completed, 12);
}

TEST(Jobs, DirectAllocationDelaysJobUntilFreed) {
  // resvc and the job-manager allocate from one pool: nodes held by a
  // direct resvc.alloc keep a job pending, and resvc.free starts it.
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  JobResult r = s.run([](Handle* hd) -> Task<JobResult> {
    Json take = Json::object({{"jobid", "direct"}, {"nnodes", 4}});
    (void)co_await hd->request("resvc.alloc").payload(std::move(take)).call();
    JobHandle jh = co_await hd->job().nnodes(4).submit();
    co_await hd->sleep(std::chrono::milliseconds(5));
    if (co_await jh.state() != JobState::Pending)
      throw FluxException(Error(errc::proto, "job did not wait for nodes"));
    Json give = Json::object({{"jobid", "direct"}});
    (void)co_await hd->request("resvc.free").payload(std::move(give)).call();
    for (int i = 0; i < 50 && co_await jh.state() == JobState::Pending; ++i)
      co_await hd->sleep(std::chrono::microseconds(100));
    if (co_await jh.state() == JobState::Pending)
      throw FluxException(Error(errc::proto, "freed nodes did not start job"));
    co_return co_await jh.wait();
  }(h.get()));
  EXPECT_EQ(r.state, JobState::Complete);
  EXPECT_TRUE(r.success);
}

TEST(Jobs, AdmissionControlRejectsWhenQueueFull) {
  SessionConfig cfg = SimSession::default_config(2);
  cfg.module_config =
      Json::object({{"job-manager", Json::object({{"max_queue", 1}})}});
  SimSession s(cfg);
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    JobHandle blocker = co_await hd->job().command("spin").nnodes(2).submit();
    while (co_await blocker.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(200));
    JobHandle queued = co_await hd->job().nnodes(2).submit();  // fills queue
    try {
      (void)co_await hd->job().nnodes(2).submit();
      throw FluxException(Error(errc::proto, "over-admission"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::job_rejected) throw;
    }
    co_await blocker.cancel();
    co_await queued.cancel();
    (void)co_await blocker.wait();
    (void)co_await queued.wait();
  }(h.get()));
}

TEST(Jobs, InfeasibleRequestIsUnsatisfiable) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  s.run([](Handle* hd) -> Task<void> {
    try {
      (void)co_await hd->job().nnodes(5).submit();  // session has 4 nodes
      throw FluxException(Error(errc::proto, "impossible job accepted"));
    } catch (const FluxException& e) {
      if (e.error().code != errc::alloc_unsatisfiable) throw;
    }
  }(h.get()));
}

TEST(Jobs, MalformedSpecRejectedAtFirstHop) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(3);
  s.run([](Handle* hd) -> Task<void> {
    try {
      (void)co_await hd->job().nnodes(0).submit();
    } catch (const FluxException& e) {
      if (e.error().code != errc::job_rejected) throw;
      co_return;
    }
    throw FluxException(Error(errc::proto, "invalid jobspec accepted"));
  }(h.get()));
}

TEST(Jobs, UnknownJobErrors) {
  SimSession s(SimSession::default_config(2));
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    JobHandle ghost(*hd, 424242);
    for (int op = 0; op < 3; ++op) {
      try {
        if (op == 0)
          (void)co_await ghost.state();
        else if (op == 1)
          (void)co_await ghost.wait();
        else
          co_await ghost.cancel();
        throw FluxException(Error(errc::proto, "ghost job answered"));
      } catch (const FluxException& e) {
        if (e.error().code != errc::job_unknown) throw;
      }
    }
  }(h.get()));
}

TEST(Jobs, StatsExposedThroughRegistry) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(1);
  Json stats = s.run([](Handle* hd) -> Task<Json> {
    for (int i = 0; i < 3; ++i) {
      JobHandle jh = co_await hd->job().nnodes(1).submit();
      (void)co_await jh.wait();
    }
    // All job-manager state lives at the root; ask its registry directly
    // (the aggregated path is obs::aggregate_stats / `flux stats job-manager`).
    Message resp =
        co_await hd->request("job-manager.stats.get").to(0).call();
    co_return resp.payload();
  }(h.get()));
  const Json& counters = stats.at("counters");
  EXPECT_EQ(counters.get_int("job-manager.submitted"), 3);
  EXPECT_EQ(counters.get_int("job-manager.completed"), 3);
  EXPECT_EQ(counters.get_int("job-manager.sched.completed"), 3);
  EXPECT_GE(counters.get_int("job-manager.sched.passes"), 1);
  const Json& hists = stats.at("histograms");
  EXPECT_EQ(hists.at("job-manager.alloc_ns").get_int("count"), 3);
  EXPECT_EQ(stats.get_int("queue_depth", -1), 0);
  EXPECT_EQ(stats.get_int("running", -1), 0);
}

/// Count the entries under `dir`, `depth` directory levels down, and fail
/// if any directory on the way holds more than 256.
Task<std::size_t> walk_bounded(KvsClient* kvs, std::string dir, int depth) {
  const std::vector<std::string> names = co_await kvs->list_dir(dir);
  if (names.size() > 256)
    throw FluxException(Error(errc::proto, dir + " has " +
                                               std::to_string(names.size()) +
                                               " entries"));
  if (depth == 0) co_return names.size();
  std::size_t leaves = 0;
  for (const std::string& n : names)
    leaves += co_await walk_bounded(kvs, dir + "." + n, depth - 1);
  co_return leaves;
}

TEST(Jobs, LongSessionJobDirectoriesStayBounded) {
  // 640 jobs in one session fill job.00.00.00 and job.00.00.01 (256 entries
  // each) and start job.00.00.02; no directory under "job" may grow past
  // 256 entries, and every
  // job's record and capture must be reachable from its kvs_dir().
  constexpr int kSubmitters = 16;
  constexpr int kPerSubmitter = 40;
  SimSession s(SimSession::default_config(8));
  std::vector<std::unique_ptr<Handle>> handles;
  std::vector<JobHandle> jobs;
  int done = 0;
  for (int w = 0; w < kSubmitters; ++w) {
    handles.push_back(s.attach(static_cast<NodeId>(w % 8)));
    co_spawn(s.ex(),
             [](Handle* hd, std::vector<JobHandle>* out, int* fin) -> Task<void> {
               for (int i = 0; i < kPerSubmitter; ++i) {
                 JobHandle jh = co_await hd->job()
                                    .walltime(std::chrono::microseconds(100))
                                    .submit();
                 (void)co_await jh.wait();
                 out->push_back(jh);
               }
               ++*fin;
             }(handles.back().get(), &jobs, &done),
             "submitter");
  }
  s.ex().run();
  ASSERT_EQ(done, kSubmitters);
  ASSERT_EQ(jobs.size(), std::size_t{kSubmitters * kPerSubmitter});

  auto h = s.attach(0);
  const std::size_t leaves = s.run(
      [](Handle* hd, const std::vector<JobHandle>* all) -> Task<std::size_t> {
        KvsClient kvs(*hd);
        // job / <id>>24 / <id>>16 / <id>>8 / <id> / {eventlog, result, ...}
        const std::size_t n = co_await walk_bounded(&kvs, "job", 4);
        for (const JobHandle& jh : *all) {
          const std::string dir = jh.kvs_dir();
          (void)co_await kvs.get(dir + ".eventlog");
          Json result = co_await kvs.get(dir + ".result");
          if (!result.get_bool("success"))
            throw FluxException(Error(errc::proto, dir + " did not succeed"));
          Json ranks = co_await kvs.get(dir + ".ranks");
          for (const Json& rk : ranks.as_array())
            (void)co_await kvs.get(dir + ".stdio." +
                                   std::to_string(rk.as_int()) + ".exitcode");
        }
        co_return n;
      }(h.get(), &jobs));
  // Each job directory holds six keys: jobspec, state, eventlog, ranks,
  // result and stdio.
  EXPECT_EQ(leaves, jobs.size() * 6);
}

TEST(Jobs, BrokerCrashMidJobNeverOrphansAllocation) {
  // The chaos acceptance scenario: a broker dies while its rank runs job
  // tasks. The job must end Failed, its nodes must return to the pool
  // except the dead one, the event log must say why, and the abandoned run
  // must settle at once rather than at its backstop deadline.
  SessionConfig cfg = SimSession::default_config(8);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 100}})},
                    {"live", Json::object({{"missed_max", 3}})}});
  SimSession s(cfg);
  auto h = s.attach(0);

  // The crash must land while the job runs, so inject it from inside the
  // simulation: SimSession::run drains to idle, which would otherwise march
  // virtual time through the job's whole lifetime before we ever pulled the
  // plug.
  JobHandle jh;
  JobResult r = s.run([](SimSession* sim, Handle* hd,
                         JobHandle* out) -> Task<JobResult> {
    JobHandle j = co_await hd->job().command("spin").nnodes(3).submit();
    while (co_await j.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(200));
    KvsClient kvs(*hd);
    Json ranks = co_await kvs.get(j.kvs_dir() + ".ranks");
    // Kill a non-root participant mid-run.
    NodeId victim = 0;
    for (const Json& rk : ranks.as_array())
      if (rk.as_int() != 0) victim = static_cast<NodeId>(rk.as_int());
    if (victim == 0)
      throw FluxException(Error(errc::proto, "no non-root rank allocated"));
    sim->session().fail(victim);
    *out = j;
    co_return co_await j.wait();  // node_down detection must unpark this
  }(&s, h.get(), &jh));
  EXPECT_EQ(r.state, JobState::Failed);
  EXPECT_LT(s.ex().now(), TimePoint{std::chrono::milliseconds(10)});

  // Allocation returned: everything except the dead node is free again.
  s.run([](Handle* hd, JobHandle j) -> Task<void> {
    Message resp = co_await hd->request("resvc.status").call();
    if (resp.payload().get_int("free") != 7)
      throw FluxException(Error(errc::proto, "allocation orphaned"));
    if (resp.payload().get_int("down") != 1)
      throw FluxException(Error(errc::proto, "dead node not excluded"));
    if (resp.payload().at("jobs").size() != 0)
      throw FluxException(Error(errc::proto, "allocation record leaked"));
    Json log = co_await j.events();
    bool node_down = false;
    for (const Json& e : log.as_array())
      if (e.get_string("name") == "node_down") node_down = true;
    if (!node_down)
      throw FluxException(
          Error(errc::proto, "no node_down event in " + log.dump()));
    // And the session still runs new jobs on exactly the surviving nodes.
    JobHandle next = co_await hd->job().nnodes(7).submit();
    JobResult nr = co_await next.wait();
    if (nr.state != JobState::Complete)
      throw FluxException(Error(errc::proto, "session wedged after crash"));
    if (nr.ntasks != 7)
      throw FluxException(Error(errc::proto, "survivor job ran short"));
  }(h.get(), jh));
}

// -- job-ingest validates every field that reaches a pool -------------------

/// Submit `spec`; the errc it was refused with (errc{} when accepted).
Task<errc> refusal(Handle* hd, JobSpec spec) {
  try {
    (void)co_await hd->job().spec(std::move(spec)).submit();
  } catch (const FluxException& e) {
    co_return e.error().code;
  }
  co_return errc{};
}

/// Submit each spec, expect errc::job_rejected for all, and check that the
/// session pool was never charged for them.
void expect_rejected(std::vector<JobSpec> specs) {
  SimSession s(SimSession::default_config(4));
  auto h = s.attach(2);
  for (JobSpec& spec : specs)
    EXPECT_EQ(s.run(refusal(h.get(), std::move(spec))), errc::job_rejected);
  Message status = s.run(h->request("resvc.status").call());
  EXPECT_EQ(status.payload().get_double("power_in_use_w", -1), 0.0);
  EXPECT_EQ(status.payload().get_double("io_bw_in_use_gbs", -1), 0.0);
  EXPECT_EQ(s.stats(0).counter_value("job-manager.submitted"), 0u);
}

JobSpec app_spec() {
  return JobSpec::app("v", 1, std::chrono::milliseconds(1));
}

TEST(Jobs, RejectsNegativeOrNonFinitePower) {
  std::vector<JobSpec> specs(3, app_spec());
  specs[0].request.power_w = -1e9;
  specs[1].request.power_w = std::numeric_limits<double>::infinity();
  specs[2].request.power_w = std::numeric_limits<double>::quiet_NaN();
  expect_rejected(std::move(specs));
}

TEST(Jobs, RejectsNegativeOrNonFiniteIoBandwidth) {
  std::vector<JobSpec> specs(2, app_spec());
  specs[0].request.io_bw_gbs = -5;
  specs[1].request.io_bw_gbs = std::numeric_limits<double>::infinity();
  expect_rejected(std::move(specs));
}

TEST(Jobs, RejectsCoresPerNodeBelowOne) {
  std::vector<JobSpec> specs(2, app_spec());
  specs[0].request.cores_per_node = 0;
  specs[1].request.cores_per_node = -4;
  expect_rejected(std::move(specs));
}

TEST(Jobs, RejectsUnknownChildPolicy) {
  // Refused at the first hop, before the root's scheduler callback could
  // build the child level, and also when the bad policy is a subjob's.
  JobSpec inner = JobSpec::instance("inner", 1, "lottery", {app_spec()});
  expect_rejected({JobSpec::instance("bad", 2, "lottery", {app_spec()}),
                   JobSpec::instance("outer", 2, "fcfs", {inner})});
}

// -- nested instances: the §III hierarchy in the job pipeline ---------------
//
// A 32-broker session: resvc's defaults (16 cores, 32 GB, 350 W per node,
// 100 GB/s filesystem) make its pool the 32-node center the hierarchy
// rules are stated against.

SessionConfig center_config(std::uint32_t size = 32) {
  return SimSession::default_config(size);
}

Task<Json> call(Handle* hd, std::string topic, Json payload) {
  Message resp = co_await hd->request(std::move(topic))
                     .payload(std::move(payload))
                     .call();
  co_return resp.payload();
}

Task<Json> job_state(Handle* hd, std::uint64_t id) {
  Json req = Json::object({{"id", static_cast<std::int64_t>(id)}});
  co_return co_await call(hd, "job-manager.state", std::move(req));
}

/// Poll until instance `id` runs with a child pool; returns its state.
Task<Json> running_pool(Handle* hd, std::uint64_t id) {
  for (int i = 0; i < 200; ++i) {
    Json st = co_await job_state(hd, id);
    if (st.contains("pool")) co_return st;
    co_await hd->sleep(std::chrono::microseconds(100));
  }
  throw FluxException(Error(errc::proto, "instance never started"));
}

Task<std::int64_t> session_free(Handle* hd) {
  Json st = co_await call(hd, "resvc.status", Json::object());
  co_return st.get_int("free", -1);
}

/// Every job the manager holds whose parent is `parent`: id -> state.
Task<std::map<std::uint64_t, std::string>> subjobs_of(Handle* hd,
                                                      std::uint64_t parent) {
  Json list = co_await call(hd, "job-manager.list", Json::object());
  std::map<std::uint64_t, std::string> out;
  for (const Json& j : list.at("jobs").as_array())
    if (j.get_int("parent") == static_cast<std::int64_t>(parent))
      out.emplace(static_cast<std::uint64_t>(j.get_int("id")),
                  j.get_string("state"));
  co_return out;
}

std::int64_t event_time(const Json& log, std::string_view name) {
  for (const Json& e : log.as_array())
    if (e.get_string("name") == name) return e.get_int("t");
  return -1;
}

Task<JobResult> run_to_end(Handle* hd, JobSpec spec) {
  JobHandle jh = co_await hd->job().spec(std::move(spec)).submit();
  co_return co_await jh.wait();
}

TEST(Instance, RunsAppJobsToCompletion) {
  SimSession s(center_config());
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    std::vector<JobHandle> jobs;
    for (int i = 0; i < 4; ++i)
      jobs.push_back(co_await hd->job()
                         .spec(JobSpec::app("app" + std::to_string(i), 8,
                                            std::chrono::milliseconds(2)))
                         .submit());
    for (JobHandle& jh : jobs)
      if ((co_await jh.wait()).state != JobState::Complete)
        throw FluxException(Error(errc::proto, "app job did not complete"));
  }(h.get()));
  EXPECT_EQ(s.run(session_free(h.get())), 32);
  EXPECT_EQ(s.stats(0).counter_value("job-manager.completed"), 4u);
}

TEST(Instance, NestedInstanceRunsSubjobs) {
  SimSession s(center_config());
  auto h = s.attach(3);
  std::vector<JobSpec> subjobs;
  for (int i = 0; i < 6; ++i)
    subjobs.push_back(JobSpec::app("sub" + std::to_string(i), 4,
                                   std::chrono::milliseconds(1)));
  JobHandle inst;
  JobResult r = s.run([](Handle* hd, std::vector<JobSpec> subs,
                         JobHandle* out) -> Task<JobResult> {
    *out = co_await hd->job()
               .spec(JobSpec::instance("ensemble", 16, "fcfs", std::move(subs)))
               .submit();
    co_return co_await out->wait();
  }(h.get(), subjobs, &inst));
  EXPECT_EQ(r.state, JobState::Complete);
  // 6 subjobs + the instance job itself, in the one job table.
  EXPECT_EQ(s.stats(0).counter_value("job-manager.completed"), 7u);
  EXPECT_EQ(s.stats(0).counter_value("job-manager.sched.completed"), 7u);
  const auto subs = s.run(subjobs_of(h.get(), inst.id()));
  ASSERT_EQ(subs.size(), 6u);
  for (const auto& [id, state] : subs) {
    EXPECT_EQ(state, "complete");
    // Each subjob has its own KVS record and event log.
    Json log = s.run(JobHandle(*h, id).events());
    EXPECT_EQ(event_time(log, "submit") >= 0 && event_time(log, "finish") >= 0,
              true);
  }
  EXPECT_EQ(s.run(session_free(h.get())), 32);
}

TEST(Instance, ThreeLevelHierarchy) {
  SimSession s(center_config());
  auto h = s.attach(0);
  // session -> campaign instance -> uq instance -> apps
  std::vector<JobSpec> leaves;
  for (int i = 0; i < 4; ++i)
    leaves.push_back(JobSpec::app("leaf" + std::to_string(i), 2,
                                  std::chrono::milliseconds(1)));
  JobSpec mid = JobSpec::instance("uq", 8, "easy", leaves);
  JobHandle top;
  JobResult r = s.run([](Handle* hd, JobSpec spec,
                         JobHandle* out) -> Task<JobResult> {
    *out = co_await hd->job().spec(std::move(spec)).submit();
    co_return co_await out->wait();
  }(h.get(), JobSpec::instance("campaign", 16, "fcfs", {mid}), &top));
  EXPECT_EQ(r.state, JobState::Complete);
  EXPECT_EQ(s.stats(0).counter_value("job-manager.completed"), 6u);
  const auto level1 = s.run(subjobs_of(h.get(), top.id()));
  ASSERT_EQ(level1.size(), 1u);
  EXPECT_EQ(s.run(subjobs_of(h.get(), level1.begin()->first)).size(), 4u);
}

TEST(Instance, ParentBoundingRuleCapsChild) {
  SimSession s(center_config());
  auto h = s.attach(0);
  // The child gets 4 nodes; a subjob needing 8 can never run there.
  JobHandle inst;
  JobResult r = s.run([](Handle* hd, JobHandle* out) -> Task<JobResult> {
    std::vector<JobSpec> work;
    work.push_back(JobSpec::app("too-wide", 8, std::chrono::milliseconds(1)));
    JobSpec spec = JobSpec::instance("narrow", 4, "fcfs", std::move(work));
    *out = co_await hd->job().spec(std::move(spec)).submit();
    co_return co_await out->wait();
  }(h.get(), &inst));
  // The instance completes: the infeasible subjob was refused, not hung.
  EXPECT_EQ(r.state, JobState::Complete);
  EXPECT_EQ(s.stats(0).counter_value("job-manager.completed"), 1u);
  Json log = s.run(inst.events());
  bool refused = false;
  for (const Json& e : log.as_array())
    if (e.get_string("name") == "subjob_rejected") refused = true;
  EXPECT_TRUE(refused) << log.dump();
}

TEST(Instance, SiblingInstancesScheduleConcurrently) {
  // Two sibling instances each run a serial chain of full-width jobs; their
  // levels schedule independently, so the makespan is one chain, not two.
  SimSession s(center_config());
  auto h = s.attach(0);
  std::vector<JobSpec> chain;
  for (int i = 0; i < 5; ++i)
    chain.push_back(JobSpec::app(std::string("j").append(std::to_string(i)), 8,
                                 std::chrono::milliseconds(10)));
  const TimePoint t0 = s.ex().now();
  std::vector<JobResult> results = s.run(
      [](Handle* hd,
         std::vector<JobSpec> work) -> Task<std::vector<JobResult>> {
        JobHandle a = co_await hd->job()
                          .spec(JobSpec::instance("childA", 8, "fcfs", work))
                          .submit();
        JobHandle b = co_await hd->job()
                          .spec(JobSpec::instance("childB", 8, "fcfs", work))
                          .submit();
        std::vector<JobResult> out;
        out.push_back(co_await a.wait());
        out.push_back(co_await b.wait());
        co_return out;
      }(h.get(), chain));
  const Duration makespan = s.ex().now() - t0;
  EXPECT_EQ(results[0].state, JobState::Complete);
  EXPECT_EQ(results[1].state, JobState::Complete);
  // Serial would be >= 100 ms; concurrent ~50 ms.
  EXPECT_LT(makespan, std::chrono::milliseconds(80));
  EXPECT_GE(makespan, std::chrono::milliseconds(50));
}

TEST(Instance, GrowWithParentalConsent) {
  SimSession s(center_config());
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    // A long-lived instance (kept alive by a long subjob).
    std::vector<JobSpec> work;
    work.push_back(JobSpec::app("long", 2, std::chrono::milliseconds(50)));
    JobSpec spec = JobSpec::instance("elastic", 4, "fcfs", std::move(work));
    JobHandle inst = co_await hd->job().spec(std::move(spec)).submit();
    Json st = co_await running_pool(hd, inst.id());
    if (st.at("pool").get_int("nodes") != 4)
      throw FluxException(Error(errc::proto, "child pool is not 4 nodes"));
    const auto id = static_cast<std::int64_t>(inst.id());
    Json more = Json::object({{"id", id}, {"nnodes", 3}});
    Json grown = co_await call(hd, "job-manager.grow", std::move(more));
    if (grown.get_int("nodes") != 7)
      throw FluxException(Error(errc::proto, "grow: " + grown.dump()));
    // The parent's books reflect the grant.
    if (co_await session_free(hd) != 32 - 7)
      throw FluxException(Error(errc::proto, "grant not taken from parent"));
    Json back = Json::object({{"id", id}, {"nnodes", 3}});
    Json shrunk = co_await call(hd, "job-manager.shrink", std::move(back));
    if (shrunk.get_int("nodes") != 4)
      throw FluxException(Error(errc::proto, "shrink: " + shrunk.dump()));
    if (co_await session_free(hd) != 32 - 4)
      throw FluxException(Error(errc::proto, "shrink not returned to parent"));
    if ((co_await inst.wait()).state != JobState::Complete)
      throw FluxException(Error(errc::proto, "elastic instance failed"));
  }(h.get()));
  EXPECT_EQ(s.run(session_free(h.get())), 32);
}

TEST(Instance, GrowDeniedWhenParentExhausted) {
  SimSession s(center_config(8));
  auto h = s.attach(0);
  const errc code = s.run([](Handle* hd) -> Task<errc> {
    std::vector<JobSpec> work;
    work.push_back(JobSpec::app("long", 1, std::chrono::milliseconds(50)));
    JobSpec spec = JobSpec::instance("greedy", 8, "fcfs", std::move(work));
    JobHandle inst = co_await hd->job().spec(std::move(spec)).submit();
    (void)co_await running_pool(hd, inst.id());
    errc out{};
    try {
      const auto id = static_cast<std::int64_t>(inst.id());
      Json more = Json::object({{"id", id}, {"nnodes", 1}});
      (void)co_await call(hd, "job-manager.grow", std::move(more));
    } catch (const FluxException& e) {
      out = e.error().code;
    }
    (void)co_await inst.wait();
    co_return out;
  }(h.get()));
  EXPECT_EQ(code, errc::no_spc);  // nothing left anywhere up the hierarchy
}

TEST(Instance, RootGrowHasNoParent) {
  SimSession s(center_config());
  auto h = s.attach(5);
  const errc code = s.run([](Handle* hd) -> Task<errc> {
    try {
      Json more = Json::object({{"nnodes", 1}});
      (void)co_await call(hd, "job-manager.grow", std::move(more));
    } catch (const FluxException& e) {
      co_return e.error().code;
    }
    co_return errc{};
  }(h.get()));
  EXPECT_EQ(code, errc::perm);
}

TEST(Instance, PowerCapShedsMalleableJobs) {
  SimSession s(center_config());  // 32 nodes x 350 W
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    JobSpec hungry =
        JobSpec::app("hungry", 4, std::chrono::milliseconds(50), 4000);
    hungry.malleable = true;
    JobSpec rigid =
        JobSpec::app("rigid", 4, std::chrono::milliseconds(50), 2000);
    JobHandle a = co_await hd->job().spec(hungry).submit();
    JobHandle b = co_await hd->job().spec(rigid).submit();
    while (co_await a.state() != JobState::Running ||
           co_await b.state() != JobState::Running)
      co_await hd->sleep(std::chrono::microseconds(100));
    Json before = co_await call(hd, "resvc.status", Json::object());
    if (before.get_double("power_in_use_w") != 6000)
      throw FluxException(Error(errc::proto, "power use " + before.dump()));
    // A site-wide cap of 4000 W: the malleable job sheds ~2000 W.
    Json cap = Json::object({{"watts", 4000}});
    Json pool = co_await call(hd, "job-manager.power_cap", std::move(cap));
    if (pool.get_double("power_in_use_w") > 4000.001 ||
        pool.get_double("power_budget_w") != 4000)
      throw FluxException(Error(errc::proto, "cap not honored " + pool.dump()));
    (void)co_await a.wait();
    (void)co_await b.wait();
  }(h.get()));
}

TEST(Instance, PowerCapCascadesToChildren) {
  SimSession s(center_config());
  auto h = s.attach(0);
  s.run([](Handle* hd) -> Task<void> {
    std::vector<JobSpec> work;
    work.push_back(JobSpec::app("long", 1, std::chrono::milliseconds(50)));
    JobSpec spec = JobSpec::instance("powered", 8, "fcfs", std::move(work));
    spec.child_power_budget_w = 2000;
    spec.request.power_w = 2000;
    JobHandle inst = co_await hd->job().spec(spec).submit();
    Json st = co_await running_pool(hd, inst.id());
    if (st.at("pool").get_double("power_budget_w") != 2000)
      throw FluxException(Error(errc::proto, "child budget " + st.dump()));
    Json cap = Json::object({{"watts", 1000}});  // below the child's budget
    (void)co_await call(hd, "job-manager.power_cap", std::move(cap));
    st = co_await job_state(hd, inst.id());
    if (st.at("pool").get_double("power_budget_w") >= 2000)
      throw FluxException(Error(errc::proto, "cap did not cascade"));
    (void)co_await inst.wait();
  }(h.get()));
}

TEST(Instance, SchedulingSpecializationPerChild) {
  // §III: "specialize the scheduling behaviors on subsets of resources".
  SimSession s(center_config());
  auto h = s.attach(0);
  const std::set<std::string> policies =
      s.run([](Handle* hd) -> Task<std::set<std::string>> {
        std::vector<JobSpec> xs, ys;
        xs.push_back(JobSpec::app("x", 8, std::chrono::milliseconds(5)));
        ys.push_back(JobSpec::app("y", 8, std::chrono::milliseconds(5)));
        JobSpec strict = JobSpec::instance("strict", 8, "fcfs", std::move(xs));
        JobSpec backfilling =
            JobSpec::instance("backfilling", 8, "easy", std::move(ys));
        JobHandle a = co_await hd->job().spec(std::move(strict)).submit();
        JobHandle b = co_await hd->job().spec(std::move(backfilling)).submit();
        std::set<std::string> out;
        Json sa = co_await running_pool(hd, a.id());
        out.insert(sa.at("pool").get_string("policy"));
        Json sb = co_await running_pool(hd, b.id());
        out.insert(sb.at("pool").get_string("policy"));
        (void)co_await a.wait();
        (void)co_await b.wait();
        co_return out;
      }(h.get()));
  EXPECT_TRUE(policies.contains("fcfs"));
  EXPECT_TRUE(policies.contains("easy"));
}

TEST(Instance, EmptyInstanceCompletesImmediately) {
  SimSession s(center_config());
  auto h = s.attach(0);
  JobResult r = s.run(
      run_to_end(h.get(), JobSpec::instance("empty", 4, "fcfs", {})));
  EXPECT_EQ(r.state, JobState::Complete);
  EXPECT_EQ(s.run(session_free(h.get())), 32);
}

TEST(Instance, CancelEndsSubjobsBeforeTheInstance) {
  SimSession s(center_config(8));
  auto h = s.attach(0);
  JobHandle inst;
  const JobResult r = s.run([](Handle* hd, JobHandle* out) -> Task<JobResult> {
    JobSpec spin = JobSpec::app("spin", 4, std::chrono::milliseconds(1));
    spin.command = "spin";
    std::vector<JobSpec> work{spin, spin};
    work.push_back(JobSpec::app("queued", 8, std::chrono::milliseconds(1)));
    JobSpec spec = JobSpec::instance("doomed", 8, "fcfs", std::move(work));
    *out = co_await hd->job().spec(std::move(spec)).submit();
    // Both spinners run; the full-width subjob waits behind them.
    for (int i = 0;; ++i) {
      const auto subs = co_await subjobs_of(hd, out->id());
      int running = 0;
      for (const auto& [id, state] : subs) running += state == "running";
      if (subs.size() == 3 && running == 2) break;
      if (i == 200)
        throw FluxException(Error(errc::proto, "spinners never started"));
      co_await hd->sleep(std::chrono::microseconds(100));
    }
    co_await out->cancel();
    co_return co_await out->wait();
  }(h.get(), &inst));
  EXPECT_EQ(r.state, JobState::Canceled);
  const auto subs = s.run(subjobs_of(h.get(), inst.id()));
  ASSERT_EQ(subs.size(), 3u);
  const std::int64_t inst_end = event_time(s.run(inst.events()), "finish");
  for (const auto& [id, state] : subs) {
    EXPECT_EQ(state, "canceled") << "subjob " << id;
    EXPECT_LE(event_time(s.run(JobHandle(*h, id).events()), "finish"),
              inst_end);
  }
  EXPECT_EQ(s.run(session_free(h.get())), 8);
}

TEST(Instance, NodeDownFailsOnlyTheSubjobsOnThatRank) {
  SessionConfig cfg = center_config(8);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 100}})},
                    {"live", Json::object({{"missed_max", 3}})}});
  SimSession s(cfg);
  auto h = s.attach(0);
  JobHandle inst;
  NodeId victim = 0;
  const JobResult r = s.run([](SimSession* sim, Handle* hd, JobHandle* out,
                               NodeId* dead) -> Task<JobResult> {
    std::vector<JobSpec> work;
    for (int i = 0; i < 4; ++i)
      work.push_back(JobSpec::app("w" + std::to_string(i), 1,
                                  std::chrono::milliseconds(5)));
    // Queued behind the four; runs on the three survivors afterwards.
    work.push_back(JobSpec::app("after", 3, std::chrono::milliseconds(1)));
    *out = co_await hd->job()
               .spec(JobSpec::instance("resilient", 4, "fcfs", work))
               .submit();
    std::uint64_t target = 0;
    KvsClient kvs(*hd);
    for (int i = 0; i < 200 && target == 0; ++i) {
      const auto subs = co_await subjobs_of(hd, out->id());
      for (const auto& [id, state] : subs) {
        if (state != "running") continue;
        Json ranks = co_await kvs.get(job_kvs_path(id) + ".ranks");
        const std::int64_t rank = ranks.as_array().front().as_int();
        if (rank != 0) {
          target = id;
          *dead = static_cast<NodeId>(rank);
          break;
        }
      }
      if (target == 0) co_await hd->sleep(std::chrono::microseconds(100));
    }
    if (target == 0)
      throw FluxException(Error(errc::proto, "no subjob off the root rank"));
    sim->session().fail(*dead);
    JobResult lost = co_await JobHandle(*hd, target).wait();
    if (lost.state != JobState::Failed)
      throw FluxException(Error(errc::proto, "subjob on the dead rank ran on"));
    // The node is down in the instance's pool as well as the session's.
    Json st = co_await job_state(hd, out->id());
    if (st.at("pool").get_int("down") != 1)
      throw FluxException(Error(errc::proto, "instance pool " + st.dump()));
    co_return co_await out->wait();
  }(&s, h.get(), &inst, &victim));
  EXPECT_EQ(r.state, JobState::Complete);
  int failed = 0, complete = 0;
  for (const auto& [id, state] : s.run(subjobs_of(h.get(), inst.id()))) {
    failed += state == "failed";
    complete += state == "complete";
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(complete, 4);
  Json status = s.run(call(h.get(), "resvc.status", Json::object()));
  EXPECT_EQ(status.get_int("down"), 1);
  EXPECT_EQ(status.get_int("free"), 7);
}

TEST(Instance, NodeDownFailsAPendingSubjobThatCanNoLongerFit) {
  // A down node never returns: a pending subjob as wide as the whole
  // instance can never run once one of the instance's nodes dies. It must
  // fail, not wait forever, so the instance still drains.
  SessionConfig cfg = center_config(8);
  cfg.module_config =
      Json::object({{"hb", Json::object({{"period_us", 100}})},
                    {"live", Json::object({{"missed_max", 3}})}});
  SimSession s(cfg);
  auto h = s.attach(0);
  JobHandle inst;
  std::uint64_t wide = 0;
  const JobResult r = s.run([](SimSession* sim, Handle* hd, JobHandle* out,
                               std::uint64_t* wide_id) -> Task<JobResult> {
    std::vector<JobSpec> work{
        JobSpec::app("narrow", 2, std::chrono::milliseconds(5)),
        JobSpec::app("wide", 4, std::chrono::milliseconds(1))};
    *out = co_await hd->job()
               .spec(JobSpec::instance("shrinking", 4, "fcfs", work))
               .submit();
    // The narrow subjob runs; the wide one waits behind it.
    std::uint64_t narrow = 0;
    for (int i = 0; narrow == 0 || *wide_id == 0; ++i) {
      if (i == 200)
        throw FluxException(Error(errc::proto, "subjobs never settled"));
      co_await hd->sleep(std::chrono::microseconds(100));
      narrow = *wide_id = 0;
      const auto subs = co_await subjobs_of(hd, out->id());
      for (const auto& [id, state] : subs) {
        if (state == "running") narrow = id;
        if (state == "pending") *wide_id = id;
      }
    }
    // Kill an instance node the narrow subjob does not use (never rank 0,
    // the session root).
    KvsClient kvs(*hd);
    const Json inst_ranks = co_await kvs.get(job_kvs_path(out->id()) + ".ranks");
    const Json busy = co_await kvs.get(job_kvs_path(narrow) + ".ranks");
    std::optional<NodeId> victim;
    for (const Json& rank : inst_ranks.as_array()) {
      const bool used = std::find(busy.as_array().begin(), busy.as_array().end(),
                                  rank) != busy.as_array().end();
      if (rank.as_int() != 0 && !used)
        victim = static_cast<NodeId>(rank.as_int());
    }
    if (!victim)
      throw FluxException(Error(errc::proto, "no idle instance node to kill"));
    sim->session().fail(*victim);
    if ((co_await JobHandle(*hd, narrow).wait()).state != JobState::Complete)
      throw FluxException(Error(errc::proto, "narrow subjob did not complete"));
    // Bounded: a wide subjob left pending would hold the instance open.
    for (int i = 0; (co_await job_state(hd, out->id())).get_string("state") ==
                     "running";
         ++i) {
      if (i == 200)
        throw FluxException(Error(errc::proto, "the instance never drained"));
      co_await hd->sleep(std::chrono::microseconds(100));
    }
    co_return co_await out->wait();
  }(&s, h.get(), &inst, &wide));
  EXPECT_EQ(r.state, JobState::Complete);
  const JobResult lost = s.run(JobHandle(*h, wide).wait());
  EXPECT_EQ(lost.state, JobState::Failed);
  const Json log = s.run(JobHandle(*h, wide).events());
  ASSERT_FALSE(log.as_array().empty());
  EXPECT_EQ(log.as_array().back().get_string("why"), "unsatisfiable")
      << log.dump();
  EXPECT_EQ(event_time(log, "start"), -1) << "the wide subjob never ran";
}

TEST(Instance, CompletesOnlyAfterEverySubmissionIsAnswered) {
  // Refused subjobs leave the child level idle from the start; the instance
  // must still wait for every job.submit answer before it ends.
  SimSession s(center_config());
  auto h = s.attach(0);
  JobHandle inst;
  const JobResult r = s.run([](Handle* hd, JobHandle* out) -> Task<JobResult> {
    std::vector<JobSpec> work;
    for (int i = 0; i < 3; ++i)
      work.push_back(JobSpec::app("wide" + std::to_string(i), 8,
                                  std::chrono::milliseconds(1)));
    JobSpec spec = JobSpec::instance("picky", 4, "fcfs", std::move(work));
    *out = co_await hd->job().spec(std::move(spec)).submit();
    co_return co_await out->wait();
  }(h.get(), &inst));
  EXPECT_EQ(r.state, JobState::Complete);
  const Json log = s.run(inst.events());
  const std::int64_t end = event_time(log, "finish");
  int answered = 0;
  for (const Json& e : log.as_array())
    if (e.get_string("name") == "subjob_rejected") {
      ++answered;
      EXPECT_LE(e.get_int("t"), end);
    }
  EXPECT_EQ(answered, 3) << log.dump();
}

}  // namespace
}  // namespace flux
