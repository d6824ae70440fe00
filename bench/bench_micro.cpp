// Wall-clock micro-benchmarks of the run-time building blocks (google-benchmark).
#include <benchmark/benchmark.h>

#include "base/rng.hpp"
#include "hash/sha1.hpp"
#include "json/json.hpp"
#include "kvs/content_store.hpp"
#include "msg/codec.hpp"

namespace {

using namespace flux;

void BM_Sha1(benchmark::State& state) {
  Rng rng(1);
  const std::string data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::of(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(32768);

// The three document shapes the data plane actually serializes: a small RPC
// payload (the per-message steady state), a deeply nested directory treeobj
// (stresses recursion + key sorting), and a ~4 KB jobspec (the largest doc a
// single job submission moves).
Json shape_small_payload() {
  return Json::object(
      {{"key", "job.42.state"}, {"flags", 3}, {"val", "running"}});
}

Json shape_deep_dir_treeobj() {
  Json doc = Json::object();
  Json* cur = &doc;
  for (int depth = 0; depth < 32; ++depth) {
    (*cur)["t"] = "dir";
    (*cur)["e"] = Json::object(
        {{"a", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
         {"b", "da39a3ee5e6b4b0d3255bfef95601890afd80709"}});
    cur = &(*cur)["e"]["sub"];
  }
  *cur = Json::object({{"t", "val"}, {"d", "leaf"}});
  return doc;
}

Json shape_jobspec_4k() {
  Rng rng(7);
  Json env = Json::object();
  for (int i = 0; i < 44; ++i)
    env["FLUX_JOB_ENV_" + std::to_string(i)] = rng.bytes(56);
  Json core = Json::object({{"type", "core"}, {"count", 16}});
  Json node = Json::object(
      {{"type", "node"}, {"count", 4}, {"with", Json::array({std::move(core)})}});
  Json task = Json::object(
      {{"command", Json::array({"app", "--verbose", "--input=/scratch/x"})},
       {"slot", "task"},
       {"count", Json::object({{"per_slot", 1}})}});
  return Json::object(
      {{"version", 1},
       {"resources", Json::array({std::move(node)})},
       {"tasks", Json::array({std::move(task)})},
       {"attributes",
        Json::object({{"system", Json::object({{"duration", 3600},
                                               {"environment", std::move(env)}})}})}});
}

void BM_JsonParse(benchmark::State& state, Json doc) {
  const std::string text = doc.dump();
  for (auto _ : state) {
    auto v = Json::parse(text);
    benchmark::DoNotOptimize(v);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK_CAPTURE(BM_JsonParse, small_payload, shape_small_payload());
BENCHMARK_CAPTURE(BM_JsonParse, deep_dir_treeobj, shape_deep_dir_treeobj());
BENCHMARK_CAPTURE(BM_JsonParse, jobspec_4k, shape_jobspec_4k());

void BM_JsonSerialize(benchmark::State& state, Json doc) {
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    doc.dump_into(buf);
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK_CAPTURE(BM_JsonSerialize, small_payload, shape_small_payload());
BENCHMARK_CAPTURE(BM_JsonSerialize, deep_dir_treeobj, shape_deep_dir_treeobj());
BENCHMARK_CAPTURE(BM_JsonSerialize, jobspec_4k, shape_jobspec_4k());

void BM_MessageCodecRoundTrip(benchmark::State& state) {
  Rng rng(4);
  Message m = Message::request("kvs.put", Json::object({{"key", "a.b.c"}}));
  m.route = {RouteHop{RouteHop::Kind::Client, 3, 12},
             RouteHop{RouteHop::Kind::Broker, 1, 0}};
  m.set_data(std::make_shared<const std::string>(
      rng.bytes(static_cast<std::size_t>(state.range(0)))));
  for (auto _ : state) {
    auto wire = encode(m);
    auto back = decode(wire);
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.wire_size()));
}
BENCHMARK(BM_MessageCodecRoundTrip)->Arg(8)->Arg(512)->Arg(32768);

// Forwarding-hop encode cost. An interior broker re-encodes each message it
// relays; the body encoding (JSON dump + data + attachment) is memoized on
// the Message, so hop N memcpys the cached bytes instead of re-serializing.
// Arg 1 selects the path: 1 = cached (forwarding steady state), 0 = the
// cache invalidated every iteration (the pre-memoization cost, kept as the
// comparison baseline).
void BM_MessageForwardEncode(benchmark::State& state) {
  const bool cached = state.range(1) != 0;
  Rng rng(6);
  Message m = Message::request(
      "kvs.load", Json::object({{"refs", Json::array()}, {"shard", 0}}));
  m.route = {RouteHop{RouteHop::Kind::Client, 3, 12},
             RouteHop{RouteHop::Kind::Broker, 1, 0}};
  m.set_data(std::make_shared<const std::string>(
      rng.bytes(static_cast<std::size_t>(state.range(0)))));
  auto warm = encode(m);
  benchmark::DoNotOptimize(warm);
  for (auto _ : state) {
    if (!cached) m.set_payload(Json(m.payload()));
    auto wire = encode(m);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m.wire_size()));
}
BENCHMARK(BM_MessageForwardEncode)
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({32768, 0})
    ->Args({32768, 1});

void BM_KvsApplyTransaction(benchmark::State& state) {
  const auto ntuples = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    ContentStore store;
    ObjPtr root = empty_dir_object();
    store.put(root);
    std::vector<Tuple> tuples;
    tuples.reserve(ntuples);
    for (std::size_t i = 0; i < ntuples; ++i) {
      ObjPtr obj = make_val_object(rng.bytes(16));
      store.put(obj);
      tuples.push_back(Tuple{std::string("d")
                                 .append(std::to_string(i / 128))
                                 .append(".k")
                                 .append(std::to_string(i)),
                             obj->id});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(apply_transaction(store, root->id, tuples));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_KvsApplyTransaction)->Arg(16)->Arg(256)->Arg(4096);

// One job's commit in job-stream's shape: 4 tuples into the job's own
// directory, one entry of a group directory holding N jobs. The apply parses
// and rebuilds only the path; the group's N entries are copied into its new
// object as stored, so what still grows with N is copying, serializing and
// hashing that one object.
void BM_KvsApplyIntoLargeDir(benchmark::State& state) {
  const auto njobs = static_cast<std::size_t>(state.range(0));
  ContentStore store;
  store.put(empty_dir_object());
  ObjPtr state_val = make_val_object("R");
  store.put(state_val);
  std::vector<Tuple> fill;
  fill.reserve(njobs);
  for (std::size_t i = 0; i < njobs; ++i)
    fill.push_back(Tuple{std::string("g.j").append(std::to_string(i)).append(
                             ".state"),
                         state_val->id});
  const Sha1 root = apply_transaction(store, empty_dir_object()->id, fill);
  std::vector<Tuple> job;
  for (const char* leaf : {"eventlog", "jobspec", "R", "state"}) {
    ObjPtr v = make_val_object(leaf);
    store.put(v);
    job.push_back(Tuple{std::string("g.j").append(std::to_string(njobs / 2))
                            .append(".")
                            .append(leaf),
                        v->id});
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(apply_transaction(store, root, job));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(job.size()));
}
BENCHMARK(BM_KvsApplyIntoLargeDir)->Arg(256)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
