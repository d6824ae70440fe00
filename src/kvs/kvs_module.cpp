#include "kvs/kvs_module.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <set>

#include "base/log.hpp"
#include "broker/broker.hpp"
#include "broker/session.hpp"
#include "check/mutation.hpp"
#include "fault/injector.hpp"
#include "kvs/content_backend.hpp"

namespace flux {

namespace {
/// Data frame aliasing an object's serialized bytes (zero-copy).
std::shared_ptr<const std::string> object_frame(const ObjPtr& obj) {
  return {obj, &obj->bytes};
}

/// Host wall time of a synchronous apply (virtual time doesn't advance
/// inside one reactor turn, so the apply histogram samples the real CPU
/// cost of the hash-tree update).
std::uint64_t wall_ns_since(
    std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

Json string_array(std::vector<std::string> items) {
  Json out = Json::array();
  for (std::string& s : items) out.push_back(std::move(s));
  return out;
}

std::vector<std::string> strings_of(const Json& array) {
  std::vector<std::string> out;
  if (array.is_array())
    for (const Json& s : array.as_array())
      if (s.is_string()) out.push_back(s.as_string());
  return out;
}
}  // namespace

KvsModule::KvsModule(Broker& b) : Module(b) {
  ObjectBundle::register_codec();

  on("stage", [this](Message& m) { op_stage(m); });
  on("get", [this](Message& m) { op_get(m); });
  on("lookup_ref", [this](Message& m) { op_lookup_ref(m); });
  on("get_version", [this](Message& m) { op_get_version(m); });
  on("wait_version", [this](Message& m) { op_wait_version(m); });
  on("commit", [this](Message& m) { op_commit(m); });
  on("fence", [this](Message& m) { op_fence(m); });
  on("flush", [this](Message& m) { op_flush(m); });
  on("load", [this](Message& m) { op_load(m); });
  on("drop_cache", [this](Message& m) { op_drop_cache(m); });

  broker().module_subscribe(*this, "kvs.setroot");
  broker().module_subscribe(*this, "live.down");
  broker().module_subscribe(*this, "hb");
  broker().module_subscribe(*this, "cmb.rejoin");
}

KvsModule::~KvsModule() = default;

bool KvsModule::is_master() const noexcept { return broker().is_root(); }

bool KvsModule::is_shard_master(std::uint32_t shard) const noexcept {
  return shard < shard_masters_.size() &&
         shard_masters_[shard] == broker().rank();
}

std::optional<std::uint32_t> KvsModule::mastered_by(NodeId rank) const {
  for (std::uint32_t s = 0; s < shard_masters_.size(); ++s)
    if (shard_masters_[s] == rank) return s;
  return std::nullopt;
}

void KvsModule::start() {
  const Json cfg = broker().module_config("kvs");
  expiry_epochs_ =
      static_cast<std::uint64_t>(cfg.get_int("expiry_epochs", 0));

  const auto shards_cfg = static_cast<std::uint32_t>(
      std::max<std::int64_t>(1, cfg.get_int("shards", 1)));
  shard_map_ =
      ShardMap(broker().size(), shards_cfg, broker().topology().arity());
  shards_ = shard_map_.shards();
  shard_roots_.assign(shards_, Sha1{});
  shard_versions_.assign(shards_, 0);
  shard_dead_.assign(shards_, false);
  shard_masters_.resize(shards_);
  for (std::uint32_t s = 0; s < shards_; ++s)
    shard_masters_[s] = shard_map_.master_rank(s);
  masters_.assign(shards_, Master{});
  recovered_versions_.assign(shards_, 0);
  failover_ = cfg.get_bool("failover", false);

  // Apply rate limit, per shard master; each apply's announce leaves in
  // the same turn. Deferral trades commit latency for throughput: it only
  // pays when the O(tree) broadcasts and per-apply freeze dwarf the added
  // wait. Every fence is announced by each of the k shards, so it costs k
  // broadcasts of `size` deliveries each: the window stays OFF below 48
  // such deliveries per fence — at small and mid sizes the window shows up
  // directly in latency-sensitive clients (measured: scheduler alloc RPCs
  // +2-22 µs) for little host-side gain — and opens to 40 µs above, where
  // each skipped round of announces saves k trees' worth of deliveries.
  // 40 µs is the measured knee: wider keeps shrinking host work but costs
  // more virtual throughput than the congestion relief returns.
  apply_window_ = std::chrono::microseconds(
      broker().size() * shards_ < 48 ? 0 : 40);

  // Durable content store (ROADMAP: checkpoint/restart + GC). Config shape:
  //   {"persist": {"path": "...", "checkpoint_every": N,
  //                "gc_every": M, "retention": R}}
  // Only masters open a backend (persist_open); everyone else just remembers
  // the config was absent for them.
  if (cfg.is_object() && cfg.contains("persist") &&
      cfg.at("persist").is_object()) {
    const Json& pcfg = cfg.at("persist");
    if (!pcfg.get_string("path").empty()) {
      PersistConfig pc;
      pc.path = pcfg.get_string("path");
      pc.checkpoint_every = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, pcfg.get_int("checkpoint_every", 16)));
      pc.gc_every = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, pcfg.get_int("gc_every", 0)));
      pc.retention = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, pcfg.get_int("retention", 4)));
      persist_ = std::move(pc);
    }
  }

  rejoining_ = broker().incarnation() > 0 && !broker().is_root();
  if (const auto s = shard_map_.shard_of_master(broker().rank()))
    start_master(*s);
}

void KvsModule::start_master(std::uint32_t shard) {
  bind_master(shard);
  // Recover from the durable log when one exists; else bootstrap fresh
  // (version 1 is the shard's empty root directory). A recovered root is
  // re-announced one version above the recovered one — the recovery epoch —
  // so the shard's setroot version stream stays strictly monotonic across a
  // master restart.
  if (!persist_open(shard)) {
    ObjPtr empty = empty_dir_object();
    shard_roots_[shard] = empty->id;
    store_.set_birth_version(1);
    store_.put(std::move(empty));
    shard_versions_[shard] = 1;
  }
  // A restarted non-root master announces nothing yet: the shard may have
  // moved far past this version while it was down. resync_after_rejoin
  // adopts the session's masters and versions, then re-announces one above.
  if (rejoining_) {
    refresh_scalar_root();
    return;
  }
  persist_root(shard);
  refresh_scalar_root();
  announce_root(shard, {});
}

void KvsModule::bind_master(std::uint32_t shard) {
  shard_masters_[shard] = broker().rank();
  shard_dead_[shard] = false;
  if (my_shard_) return;
  my_shard_ = shard;
}

void KvsModule::shutdown() {
  // Settle every module-internal promise a coroutine may be parked on
  // (version waits, shard-ready waits, coalesced object faults): the frame
  // owns the Future and the Future's state owns the frame's handle, so an
  // unsettled promise strands the whole chain. Session teardown drains the
  // posted resumes while the module is still alive (see Session::~Session),
  // so each parked get/commit unwinds with a typed error instead of leaking.
  const Error bye(errc::canceled, "kvs: session shutdown");
  for (auto& [version, promise] : version_waiters_) promise.set_error(bye);
  version_waiters_.clear();
  for (auto& [shard, promise] : shard_ready_waiters_) promise.set_error(bye);
  shard_ready_waiters_.clear();
  for (auto& [id, promise] : faults_) promise.set_error(bye);
  faults_.clear();
  if (backend_) {
    // Clean shutdown: one final checkpoint so a restart recovers the exact
    // served state, then sync and close.
    backend_->append_checkpoint(shard_roots_, shard_versions_);
    backend_->close();
  }
}

void KvsModule::on_fail() {
  if (!backend_) return;
  // Crash semantics: the unsynced tail is lost — unless the installed fault
  // injector keeps a torn prefix of it (a partial flush that reached disk).
  std::uint64_t keep = 0;
  if (fault::Injector* inj = broker().session().fault_injector())
    keep = inj->on_crash_unsynced(broker().rank(), backend_->unsynced_bytes());
  backend_->crash(keep);
}

// ---------------------------------------------------------------------------
// Persistence (durable content store + checkpoint/restart + GC)
// ---------------------------------------------------------------------------

bool KvsModule::persist_open(std::uint32_t shard) {
  if (!persist_) return false;
  std::string path = persist_->path;
  if (sharded()) path += ".s" + std::to_string(shard);
  backend_ = std::make_unique<FileLogBackend>(path, &broker().stats_registry(),
                                              "kvs.persist");
  const FileLogBackend::Recovered rec = backend_->recover(store_);
  recovered_objects_.inc(rec.objects);
  truncated_bytes_.inc(rec.truncated_bytes);

  bool recovered = false;
  if (rec.has_root(shard) && store_.contains(rec.roots[shard])) {
    const std::uint64_t v = rec.versions[shard] + 1;  // recovery epoch
    shard_roots_[shard] = rec.roots[shard];
    shard_versions_[shard] = v;
    recovered_versions_[shard] = v;
    store_.set_birth_version(v);
    recovered = true;
    log::info("kvs", "rank ", broker().rank(), ": recovered ", rec.objects,
              " objects from ", path, ", serving version ", v,
              rec.truncated_bytes ? " (torn tail truncated)" : "");
  }
  // Attach AFTER replay so recovered objects are not re-appended; from here
  // every new store_.put mirrors into the log.
  store_.attach_backend(backend_.get());
  return recovered;
}

void KvsModule::persist_root(std::uint32_t shard) {
  if (!backend_) return;
  // Ack-after-sync: the root record (and every object it references, which
  // precedes it in the log) is durable before any announce or response goes
  // out, so an acked version can always be recovered. The skip_sync mutation
  // breaks exactly this — acks go out with the tail still buffered — so a
  // crash loses acked commits and the durability audit must flag it
  // (tests/test_persist.cpp teeth test).
  backend_->append_root(shard, shard_versions_[shard], shard_roots_[shard]);
  if (!check::mutation("kvs.skip_sync")) backend_->sync();
  Master& m = masters_[shard];
  if (persist_->checkpoint_every != 0 &&
      ++m.applies_since_checkpoint >= persist_->checkpoint_every) {
    m.applies_since_checkpoint = 0;
    backend_->append_checkpoint(shard_roots_, shard_versions_);
    backend_->sync();
  }
  if (persist_->gc_every != 0 && ++m.applies_since_gc >= persist_->gc_every) {
    m.applies_since_gc = 0;
    run_gc();
  }
}

std::vector<Sha1> KvsModule::gc_roots() const {
  std::vector<Sha1> roots;
  for (const Sha1& r : shard_roots_)
    if (r != Sha1{}) roots.push_back(r);
  return roots;
}

std::vector<Sha1> KvsModule::gc_pins() const {
  // In-flight fences: their tuple objects are in the store but not yet
  // reachable from any root.
  std::vector<Sha1> pins;
  auto add_tuples = [&pins](const std::vector<Tuple>& tuples) {
    for (const Tuple& t : tuples)
      if (!t.is_unlink()) pins.push_back(t.ref);
  };
  for (const auto& [name, fence] : fences_) {
    pins.insert(pins.end(), fence.pins.begin(), fence.pins.end());
    for (const Part& part : fence.parts) {
      add_tuples(part.pending_tuples);
      add_tuples(part.total_tuples);
    }
  }
  for (const Master& m : masters_)
    for (const auto& [name, tuples] : m.batch) add_tuples(tuples);
  return pins;
}

void KvsModule::run_gc() {
  const auto t0 = std::chrono::steady_clock::now();
  GcOptions opt;
  opt.current_version = root_version_;
  opt.retention = persist_->retention;
  opt.pins = gc_pins();
  const GcStats gs = mark_and_sweep(store_, gc_roots(), opt);
  gc_swept_.inc(gs.swept);
  gc_swept_bytes_.inc(gs.swept_bytes);
  // Reclaim the log space too: rewrite it to the swept store plus one
  // checkpoint (atomic temp-file + rename).
  if (gs.swept > 0) backend_->compact(store_, shard_roots_, shard_versions_);
  gc_pause_ns_.record(wall_ns_since(t0));
}

void KvsModule::handle_event(const Message& msg) {
  if (msg.topic == "hb") {
    epoch_ = static_cast<std::uint64_t>(msg.payload().get_int("epoch", 0));
    // Pinned (dirty) entries survive expiry regardless.
    if (expiry_epochs_ > 0) cache_.expire(epoch_, expiry_epochs_);
    if (failover_ && !pending_failover_.empty()) check_failovers();
    return;
  }
  if (msg.topic == "cmb.rejoin") {
    // Our broker restarted and was just re-admitted (this module instance is
    // the fresh one built by Broker::restart). Pull authoritative roots and
    // versions from upstream; objects fault back in from the distributed
    // content store on demand.
    const auto back = static_cast<NodeId>(msg.payload().get_int("rank", -1));
    if (back == broker().rank() && !broker().is_root())
      co_spawn(broker().executor(), resync_after_rejoin(), "kvs.resync");
    return;
  }
  if (msg.topic == "live.down")
    on_live_down(msg);
  else if (msg.topic.starts_with("kvs.setroot"))
    on_setroot(msg);
}

// ---------------------------------------------------------------------------
// Transactions: the requester key and write-back staging
// ---------------------------------------------------------------------------

KvsModule::TxnKey KvsModule::txn_key(const Message& msg) {
  if (msg.route.empty()) return {kNodeAny, 0};
  const RouteHop& origin = msg.route.front();
  return {origin.rank, origin.id};
}

void KvsModule::op_stage(Message& msg) {
  // Write-back caching for client-side transactions (paper: "objects are
  // cached in write-back mode at kvs_put time"). The value objects are
  // positioned here at put() time; the (key, ref) tuples stay in the
  // client's KvsTxn until commit/fence ships them. Not pinned: the commit
  // re-ships its bundle, so these entries may expire like any cached object.
  auto bundle = std::dynamic_pointer_cast<const ObjectBundle>(msg.attachment());
  if (!bundle) {
    respond_error(msg, errc::inval, "stage: missing object bundle");
    return;
  }
  for (const ObjPtr& obj : bundle->objects()) {
    puts_.inc();
    cache_.put(obj, epoch_);
  }
  respond_ok(msg);
}

// ---------------------------------------------------------------------------
// Fences: op_fence -> fence_add -> flush_fence (one hop up the shard tree)
// ---------------------------------------------------------------------------

void KvsModule::op_commit(Message& msg) {
  commits_.inc();
  // A commit is a single-party fence with a unique name (the same
  // unification flux-core later adopted). Completion — and therefore the
  // response — happens only after the local root has been updated, which is
  // what gives read-your-writes consistency.
  const TxnKey key = txn_key(msg);
  const std::string name = "#commit." + std::to_string(key.first) + "." +
                           std::to_string(key.second) + "." +
                           std::to_string(++commit_seq_);
  // Annotate the fence fields in place — a commit payload can carry large
  // transaction ops, so copying it wholesale just to add two keys is waste.
  Json& payload = msg.mutable_payload();
  payload["name"] = name;
  payload["nprocs"] = 1;
  op_fence(msg);
}

std::optional<KvsModule::Txn> KvsModule::claim_txn(Message& msg) {
  // Claim the caller's transaction: the "ops" tuples and the object bundle
  // carried by this very request.
  Txn txn;
  if (msg.payload().contains("ops")) {
    auto tuples = tuples_from_json(msg.payload().at("ops"));
    if (!tuples) {
      respond_error(msg, errc::inval, "fence: malformed ops");
      return std::nullopt;
    }
    if (msg.attachment()) {
      auto bundle =
          std::dynamic_pointer_cast<const ObjectBundle>(msg.attachment());
      if (!bundle) {
        respond_error(msg, errc::inval, "fence: non-bundle attachment");
        return std::nullopt;
      }
      txn.objects = bundle->objects();
    }
    txn.tuples = std::move(tuples).value();
  }
  return txn;
}

void KvsModule::op_fence(Message& msg) {
  fence_ops_.inc();
  const std::string name = msg.payload().get_string("name");
  const std::int64_t nprocs = msg.payload().get_int("nprocs", 0);
  if (name.empty() || nprocs <= 0) {
    respond_error(msg, errc::inval, "fence: need name and nprocs > 0");
    return;
  }
  auto txn = claim_txn(msg);
  if (!txn) return;

  // Split the transaction into per-shard parts. Objects follow the tuples
  // that reference them (an object referenced from two shards ships to
  // both — content addressing makes that a harmless duplicate).
  std::vector<std::vector<Tuple>> tuples_by(shards_);
  std::vector<std::vector<ObjPtr>> objects_by(shards_);
  std::unordered_map<Sha1, ObjPtr> by_id;
  for (const ObjPtr& obj : txn->objects) by_id.emplace(obj->id, obj);
  std::vector<std::unordered_set<Sha1>> routed(shards_);
  for (Tuple& t : txn->tuples) {
    const std::uint32_t s = shard_map_.shard_of(t.key);
    if (auto it = by_id.find(t.ref);
        it != by_id.end() && routed[s].insert(t.ref).second)
      objects_by[s].push_back(it->second);
    tuples_by[s].push_back(std::move(t));
  }

  // Writes against a dead shard fail fast instead of hanging the fence.
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (!tuples_by[s].empty() && shard_dead_[s]) {
      respond_error(msg, errc::host_down,
                    "fence: master of shard " + std::to_string(s) + " is down");
      return;
    }
  }

  Fence& fence = fence_state(name, nprocs);
  fence.waiters.push_back(msg);
  const std::string origin = fence_origin_key(msg);
  // EVERY live shard receives this participant's contribution — empty parts
  // included — so each master independently detects completion at nprocs.
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (shard_dead_[s]) continue;
    // Objects bound for another broker's store wait in the local cache,
    // pinned so they survive eviction until the fence completes.
    if (!is_shard_master(s)) {
      for (const ObjPtr& obj : objects_by[s]) {
        cache_.put(obj, epoch_);
        cache_.pin(obj->id);
        fence.pins.push_back(obj->id);
      }
    }
    fence_add(name, s, nprocs, {origin}, std::move(tuples_by[s]),
              objects_by[s]);
  }
}

KvsModule::Fence& KvsModule::fence_state(const std::string& name,
                                         std::int64_t nprocs) {
  Fence& fence = fences_[name];
  if (fence.parts.empty()) {
    fence.parts.resize(shards_);
    fence.nprocs = nprocs;
  } else if (fence.nprocs != nprocs) {
    log::warn("kvs", "fence '", name, "': inconsistent nprocs ", nprocs,
              " vs ", fence.nprocs);
  }
  return fence;
}

std::string KvsModule::fence_origin_key(const Message& msg) {
  if (msg.route.empty())
    return "anon:" + std::to_string(++fence_anon_seq_);
  const RouteHop& origin = msg.route.front();
  return std::to_string(origin.rank) + ":" + std::to_string(origin.id);
}

void KvsModule::fence_add(const std::string& name, std::uint32_t shard,
                          std::int64_t nprocs,
                          std::vector<std::string> contributors,
                          std::vector<Tuple> tuples,
                          const std::vector<ObjPtr>& objects) {
  Fence& fence = fence_state(name, nprocs);
  Part& part = fence.parts[shard];
  part.held = true;
  if (!tuples.empty()) part.touched = true;
  // Retry detection, uniform for local clients (op_fence) and relayed
  // flushes (op_flush): a contributor this broker already forwarded means
  // some downstream attempt timed out, so the earlier flush carrying its
  // object frames may be lost anywhere up the tree — including in a master
  // that crashed and restarted with only its synced store. The contribution
  // still goes up (the master's identity set collapses the duplicate count);
  // forgetting the forwarded ids makes this wave re-ship its objects too.
  bool retried = false;
  for (const std::string& c : contributors)
    if (!part.origins.insert(c).second) retried = true;
  if (retried) part.forwarded_ids.clear();

  if (is_shard_master(shard)) {
    for (const ObjPtr& obj : objects) store_.put(obj);
    // Tuples of a re-delivered contributor concatenate twice; applying the
    // same (key, SHA1) assignment again is value-idempotent.
    for (std::string& c : contributors) part.counted.insert(std::move(c));
    std::move(tuples.begin(), tuples.end(),
              std::back_inserter(part.total_tuples));
    const auto counted = static_cast<std::int64_t>(part.counted.size());
    if (counted < fence.nprocs) return;
    if (counted > fence.nprocs)
      log::warn("kvs", "fence '", name, "' shard ", shard, ": ", counted,
                " contributors for nprocs=", fence.nprocs);
    if (part.apply_pending) return;
    part.apply_pending = true;
    // Coalesce: every part that becomes ready before the flush shares one
    // root transition (production flux-core batches ready transactions the
    // same way). The posted flush applies the batch in readiness order.
    masters_[shard].batch.emplace_back(name, std::move(part.total_tuples));
    part.total_tuples.clear();
    schedule_master_apply(shard);
    return;
  }

  std::move(contributors.begin(), contributors.end(),
            std::back_inserter(part.pending_contributors));
  std::move(tuples.begin(), tuples.end(),
            std::back_inserter(part.pending_tuples));
  // SHA1 dedup: redundant values are *reduced* here while the (key, SHA1)
  // tuples above are concatenated — the asymmetry behind Figure 3.
  for (const ObjPtr& obj : objects)
    if (part.forwarded_ids.insert(obj->id).second)
      part.pending_objects.push_back(obj);
  if (part.flush_scheduled) return;
  part.flush_scheduled = true;
  // Posted (not inline) so contributions arriving in the same reactor turn
  // coalesce into one upstream message per tree edge — the module-level
  // data reduction of the paper's tree overlay.
  broker().executor().post([this, name, shard] { flush_fence(name, shard); });
}

void KvsModule::flush_fence(const std::string& name, std::uint32_t shard) {
  const auto it = fences_.find(name);
  if (it == fences_.end()) return;
  Part& part = it->second.parts[shard];
  part.flush_scheduled = false;
  if (part.pending_contributors.empty()) return;
  // A dead master (or an orphaned broker) makes the flush undeliverable;
  // the live shards' announces or the client's retry settle the fence. A
  // relay's part on a dead shard (relayed here after its live.down) sees
  // no announce, so it goes now.
  if (shard_dead_[shard] && it->second.waiters.empty()) {
    drop_relay_part(it, shard);
    return;
  }
  const auto up = shard_dead_[shard] ? std::nullopt : tree_parent(shard);
  if (up) {
    flushes_forwarded_.inc();
    Message flush = Message::request(
        "kvs.flush",
        Json::object({{"name", name},
                      {"nprocs", it->second.nprocs},
                      {"contributors",
                       string_array(std::move(part.pending_contributors))},
                      {"shard", static_cast<std::int64_t>(shard)},
                      {"tuples", tuples_to_json(part.pending_tuples)}}));
    if (!part.pending_objects.empty())
      flush.set_attachment(
          std::make_shared<ObjectBundle>(std::move(part.pending_objects)));
    broker().forward_direct(*up, std::move(flush));
  }
  part.pending_contributors.clear();
  part.pending_tuples.clear();
  part.pending_objects.clear();
  // forwarded_ids intentionally NOT cleared: dedup spans flush waves.
}

void KvsModule::op_flush(Message& msg) {
  const std::string name = msg.payload().get_string("name");
  const std::int64_t nprocs = msg.payload().get_int("nprocs", 0);
  const std::int64_t shard = msg.payload().get_int("shard", -1);
  std::vector<std::string> contributors =
      strings_of(msg.payload().at("contributors"));
  auto tuples = tuples_from_json(msg.payload().at("tuples"));
  if (name.empty() || nprocs <= 0 || contributors.empty() || !tuples ||
      shard < 0 || shard >= static_cast<std::int64_t>(shards_)) {
    log::error("kvs", "malformed flush for fence '", name, "'");
    return;
  }
  std::vector<ObjPtr> objects;
  if (msg.attachment()) {
    auto bundle = std::dynamic_pointer_cast<const ObjectBundle>(msg.attachment());
    if (!bundle) {
      log::error("kvs", "flush with non-bundle attachment");
      return;
    }
    objects = bundle->objects();
  }
  fence_add(name, static_cast<std::uint32_t>(shard), nprocs,
            std::move(contributors), std::move(tuples).value(), objects);
}

void KvsModule::fence_announced(const std::string& name, std::uint32_t shard) {
  const auto it = fences_.find(name);
  if (it == fences_.end()) return;  // no part or waiter here
  Fence& fence = it->second;
  if (fence.waiters.empty()) {
    // Relay: the shard applied its part. A part relayed here after another
    // shard's announce ends with its own shard's announce. Under the
    // early-fuse mutation the first announce drops the whole fence, parts
    // not yet flushed included, as completing it did.
    if (check::mutation("kvs.fence_fuse_early"))
      fences_.erase(it);
    else
      drop_relay_part(it, shard);
    return;
  }
  if (fence.owed.empty()) {
    // First announce: the completion set is the shards alive now. A shard
    // revived later never saw the fence and is not added.
    fence.owed.resize(shards_);
    for (std::uint32_t s = 0; s < shards_; ++s) fence.owed[s] = !shard_dead_[s];
  }
  fence.owed[shard] = false;
  if (fence_ready(fence)) complete_fence(it, fence.tainted);
}

void KvsModule::drop_relay_part(FenceMap::iterator it, std::uint32_t shard) {
  std::vector<Part>& parts = it->second.parts;
  parts[shard].held = false;
  if (std::none_of(parts.begin(), parts.end(),
                   [](const Part& p) { return p.held; }))
    fences_.erase(it);
  else
    parts[shard] = Part{};
}

bool KvsModule::fence_ready(const Fence& fence) {
  // Mutation "kvs.fence_fuse_early" (tests only): complete the fence after
  // the first shard's announce — clients then observe it partially applied
  // across shards, breaking fence atomicity.
  return std::find(fence.owed.begin(), fence.owed.end(), true) ==
             fence.owed.end() ||
         check::mutation("kvs.fence_fuse_early");
}

void KvsModule::complete_fence(FenceMap::iterator it, bool failed) {
  auto node = fences_.extract(it);
  const std::string& name = node.key();
  Fence& fence = node.mapped();
  for (const Sha1& id : fence.pins) cache_.unpin(id);
  // Even when the live shards completed the fence, writes this broker
  // routed to a now-dead shard are gone — its waiters must hear that.
  for (std::uint32_t s = 0; s < fence.parts.size(); ++s)
    if (shard_dead_[s] && fence.parts[s].touched) failed = true;
  if (failed) {
    for (const Message& waiter : fence.waiters)
      respond_error(waiter, errc::host_down,
                    "fence '" + name + "': a shard master died");
    return;
  }
  Json out = Json::object(
      {{"version", root_version_}, {"rootref", root_ref_.hex()}});
  if (sharded()) {
    Json vv = Json::array();
    for (const std::uint64_t v : shard_versions_)
      vv.push_back(static_cast<std::int64_t>(v));
    out["vv"] = std::move(vv);
  }
  for (const Message& waiter : fence.waiters)
    broker().respond(waiter.respond(out));
}

// ---------------------------------------------------------------------------
// Shard masters: apply batch -> master_apply -> announce
// ---------------------------------------------------------------------------

void KvsModule::schedule_master_apply(std::uint32_t shard) {
  Master& m = masters_[shard];
  if (m.apply_scheduled) return;
  m.apply_scheduled = true;
  Executor& ex = broker().executor();
  // Rate-limited: the first flush after an idle window runs this turn
  // (lone-op latency untouched); under sustained load, commits landing at
  // distinct instants wait for one timer and share one apply — one
  // directory freeze, one hash and one announce for the whole window.
  if (m.last_apply == TimePoint{} || ex.now() - m.last_apply >= apply_window_) {
    ex.post([this, shard] { flush_apply_batch(shard); });
    return;
  }
  ex.post_at(m.last_apply + apply_window_,
             [this, shard, tok = std::weak_ptr<const bool>(timer_token_)] {
               if (tok.expired()) return;  // module destroyed (restart)
               flush_apply_batch(shard);
             });
}

void KvsModule::flush_apply_batch(std::uint32_t shard) {
  Master& m = masters_[shard];
  m.apply_scheduled = false;
  m.last_apply = broker().executor().now();
  if (m.batch.empty() || rejoining_) return;  // resync reschedules it
  if (broker().failed()) {
    // Master crashed mid-batch: never half-apply. The coalesced committers'
    // RPCs settle with typed host-down errors through the failure path (a
    // restarted master re-counts from retried flushes).
    m.batch.clear();
    return;
  }
  std::size_t ntuples = 0;
  for (const auto& [name, tuples] : m.batch) ntuples += tuples.size();
  std::vector<Tuple> tuples;
  tuples.reserve(ntuples);
  std::vector<std::string> names;
  names.reserve(m.batch.size());
  for (auto& [name, fence_tuples] : m.batch) {
    names.push_back(std::move(name));
    std::move(fence_tuples.begin(), fence_tuples.end(),
              std::back_inserter(tuples));
  }
  m.batch.clear();
  apply_batch_size_.record(names.size());
  master_apply(shard, tuples, std::move(names));
}

void KvsModule::master_apply(std::uint32_t shard,
                             const std::vector<Tuple>& tuples,
                             std::vector<std::string> fences) {
  const auto t0 = std::chrono::steady_clock::now();
  store_.set_birth_version(root_version_ + 1);
  shard_roots_[shard] = apply_transaction(store_, shard_roots_[shard], tuples);
  // Mutation "kvs.skip_version_bump" (tests only): publish a new root under
  // a stale version number — breaks setroot-sequence monotonicity.
  if (!check::mutation("kvs.skip_version_bump")) ++shard_versions_[shard];
  persist_root(shard);
  apply_ns_.record(wall_ns_since(t0));
  // The master bumps its version here, so the adopt guard on the announce
  // path won't fire for it: refresh the scalar root and local waiters now.
  refresh_scalar_root();
  announce_root(shard, std::move(fences));
}

void KvsModule::announce_root(std::uint32_t shard,
                              std::vector<std::string> fences, bool remaster) {
  // One payload for every k; the topic names the shard when k > 1. Every
  // broker adopts the root and counts the announce toward the listed fences
  // (on_setroot); the root broker delivers to this module synchronously, so
  // a root-mastered shard's own waiters may be answered right here. Another
  // master's announce goes to the root over a direct edge, like its flushes:
  // fences complete only once it is broadcast, so it must not wait on (or
  // be lost in) the interior brokers of the session tree.
  Json ev = Json::object({{"version", shard_versions_[shard]},
                          {"rootref", shard_roots_[shard].hex()},
                          {"fences", string_array(std::move(fences))}});
  if (remaster) ev["master"] = broker().rank();
  broker().publish_direct(Message::event(
      sharded() ? "kvs.setroot." + std::to_string(shard) : "kvs.setroot",
      std::move(ev)));
}

// ---------------------------------------------------------------------------
// Root state: announces, versions
// ---------------------------------------------------------------------------

void KvsModule::on_setroot(const Message& msg) {
  const Json& p = msg.payload();
  // "kvs.setroot" is shard 0 of a one-shard map; "kvs.setroot.<s>" names s.
  constexpr std::string_view prefix = "kvs.setroot.";
  std::uint32_t s = 0;
  if (msg.topic.size() > prefix.size()) {
    const char* first = msg.topic.data() + prefix.size();
    const char* last = msg.topic.data() + msg.topic.size();
    const auto [end, ec] = std::from_chars(first, last, s);
    if (ec != std::errc{} || end != last) s = shards_;
  }
  const auto version = static_cast<std::uint64_t>(p.get_int("version", 0));
  const auto ref = Sha1::parse(p.get_string("rootref"));
  if (s >= shards_ || !ref) {
    log::error("kvs", "setroot event with bad shard or rootref");
    return;
  }
  // Failover / post-rejoin announcement: a "master" field re-binds the shard
  // to a new authoritative rank. Adopt it before the version check so the
  // shard counts as live again even on ranks that raced ahead.
  if (p.contains("master")) {
    const auto m = static_cast<NodeId>(p.get_int("master", -1));
    if (m < broker().size() && shard_masters_[s] != m) {
      shard_masters_[s] = m;
      shard_dead_[s] = false;
      pending_failover_.erase(s);
      log::info("kvs", "rank ", broker().rank(), ": shard ", s,
                " now mastered by rank ", m);
    }
  }
  // Adopt the root before completing anything: read-your-writes, and a
  // fence completed by its last shard's announce finds every shard's root
  // that includes it already adopted here.
  adopt_root(s, version, *ref);
  refresh_scalar_root();
  if (const Json& fences = p.at("fences"); fences.is_array())
    for (const Json& name : fences.as_array())
      if (name.is_string()) fence_announced(name.as_string(), s);
}

void KvsModule::adopt_roots(const Json& payload) {
  const Json& vv = payload.at("vv");
  const Json& rootrefs = payload.at("rootrefs");
  if (vv.is_array() && rootrefs.is_array()) {
    const std::size_t n =
        std::min<std::size_t>({shards_, vv.size(), rootrefs.size()});
    for (std::size_t s = 0; s < n; ++s) {
      const Json& v = vv.as_array()[s];
      const Json& r = rootrefs.as_array()[s];
      if (!v.is_int() || !r.is_string()) continue;
      if (const auto ref = Sha1::parse(r.as_string()))
        adopt_root(static_cast<std::uint32_t>(s),
                   static_cast<std::uint64_t>(v.as_int()), *ref);
    }
  }
  refresh_scalar_root();
}

void KvsModule::adopt_root(std::uint32_t shard, std::uint64_t version,
                           const Sha1& ref) {
  // Never apply roots out of order (monotonic reads; paper §IV-B).
  if (version <= shard_versions_[shard]) return;
  if (check::mutation("kvs.skip_apply") && shard_versions_[shard] >= 1) {
    // Mutation (tests only): complete fences without adopting the new root
    // — waiters get responses naming a root this instance never serves,
    // breaking read-your-writes.
    return;
  }
  shard_roots_[shard] = ref;
  // Mutation "kvs.regress_root" (tests only): adopt the root but roll the
  // version counter backwards — clients sampling the local version see it
  // regress, breaking monotonic reads.
  shard_versions_[shard] =
      check::mutation("kvs.regress_root") && version >= 3 ? version - 2 : version;
}

void KvsModule::refresh_scalar_root() {
  std::uint64_t sum = 0;
  for (const std::uint64_t v : shard_versions_) sum += v;
  root_version_ = sum;
  root_ref_ = shard_roots_[0];
  complete_version_waiters();
  auto it = shard_ready_waiters_.begin();
  while (it != shard_ready_waiters_.end()) {
    if (shard_versions_[it->first] >= 1) {
      auto promise = it->second;
      it = shard_ready_waiters_.erase(it);
      promise.set_value(1);
    } else {
      ++it;
    }
  }
}

Future<std::uint64_t> KvsModule::shard_ready(std::uint32_t shard) {
  Promise<std::uint64_t> p(broker().executor());
  if (shard_versions_[shard] >= 1)
    p.set_value(shard_versions_[shard]);
  else
    shard_ready_waiters_.emplace_back(shard, p);
  return p.future();
}

void KvsModule::complete_version_waiters() {
  auto it = version_waiters_.begin();
  while (it != version_waiters_.end()) {
    if (it->first <= root_version_) {
      it->second.set_value(root_version_);
      it = version_waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

Future<std::uint64_t> KvsModule::version_reached(std::uint64_t version) {
  Promise<std::uint64_t> p(broker().executor());
  if (root_version_ >= version)
    p.set_value(root_version_);
  else
    version_waiters_.emplace_back(version, p);
  return p.future();
}

// ---------------------------------------------------------------------------
// Failover / rejoin recovery
// ---------------------------------------------------------------------------

void KvsModule::on_live_down(const Message& msg) {
  const auto dead = static_cast<NodeId>(msg.payload().get_int("rank", -1));
  if (dead >= broker().size()) return;
  dead_ranks_.insert(dead);
  const auto s = mastered_by(dead);
  if (!s || shard_dead_[*s]) return;
  shard_dead_[*s] = true;
  log::warn("kvs", "rank ", broker().rank(), ": shard ", *s,
            " master (rank ", dead, ") died");
  // Gets blocked on this shard's bootstrap can never proceed.
  auto it = shard_ready_waiters_.begin();
  while (it != shard_ready_waiters_.end()) {
    if (it->first == *s) {
      auto promise = it->second;
      it = shard_ready_waiters_.erase(it);
      promise.set_error(Error(errc::host_down, "shard master died"));
    } else {
      ++it;
    }
  }
  // Every fence with an announce lost its part on this shard (the dead
  // master held the only copy): drop the shard from its completion set and
  // fail it. Fences without an announce yet complete over the live shards.
  // A relay drops its part on the shard, which will announce nothing more.
  std::vector<std::string> ready;
  for (auto next = fences_.begin(); next != fences_.end();) {
    const auto cur = next++;
    Fence& fence = cur->second;
    if (fence.waiters.empty()) {
      drop_relay_part(cur, *s);
      continue;
    }
    if (fence.owed.empty()) continue;
    fence.owed[*s] = false;
    fence.tainted = true;
    if (fence_ready(fence)) ready.push_back(cur->first);
  }
  // Answered in name order, whatever the table's order.
  std::sort(ready.begin(), ready.end());
  for (const std::string& name : ready)
    if (const auto f = fences_.find(name); f != fences_.end())
      complete_fence(f, true);
  // Failover: the designated successor promotes itself two epochs from now
  // (hb-driven, so detection and takeover are both heartbeat-clocked). Every
  // rank schedules the same deadline; only the successor acts on it, and a
  // setroot-with-master announcement cancels it everywhere.
  if (failover_ && !pending_failover_.contains(*s))
    pending_failover_[*s] = epoch_ + 2;
}

NodeId KvsModule::successor_for(std::uint32_t shard) const {
  // Next live rank after the dead master in ring order. The event plane is
  // root-sequenced, so every rank has seen the same ordered live.down
  // history and computes the same successor — no election needed.
  const NodeId start = shard_masters_[shard];
  for (std::uint32_t i = 1; i < broker().size(); ++i) {
    const NodeId cand = (start + i) % broker().size();
    if (!dead_ranks_.contains(cand)) return cand;
  }
  return start;
}

void KvsModule::check_failovers() {
  auto it = pending_failover_.begin();
  while (it != pending_failover_.end()) {
    const std::uint32_t s = it->first;
    if (!shard_dead_[s]) {  // someone already took over
      it = pending_failover_.erase(it);
      continue;
    }
    if (epoch_ < it->second || successor_for(s) != broker().rank()) {
      ++it;
      continue;
    }
    it = pending_failover_.erase(it);
    promote_shard(s);
  }
}

void KvsModule::promote_shard(std::uint32_t shard) {
  // Take over a dead shard with an EMPTY root at version+1. The dead
  // master's tree is unrecoverable (it held the only authoritative copy),
  // so we choose explicit, consistent data loss — readers see ENOENT at a
  // strictly higher version — over hanging fences or serving torn state.
  log::warn("kvs", "rank ", broker().rank(), ": taking over shard ", shard,
            " from dead rank ", shard_masters_[shard]);
  ObjPtr empty = empty_dir_object();
  const Sha1 root = empty->id;
  store_.put(std::move(empty));
  bind_master(shard);
  shard_roots_[shard] = root;
  ++shard_versions_[shard];
  refresh_scalar_root();
  announce_root(shard, {}, /*remaster=*/true);
}

Task<void> KvsModule::resync_after_rejoin() {
  try {
    Message req = Message::request("kvs.get_version", Json::object());
    req.nodeid = kNodeUpstream;
    Message resp = co_await broker().rpc(origin(), std::move(req));
    if (!resp.ok())
      throw FluxException(Error(resp.error(), "kvs.get_version refused"));
    // Adopt masters first: shard-tree parent links and write authority both
    // key off them.
    const Json& ms = resp.payload().at("masters");
    if (ms.is_array()) {
      for (std::uint32_t s = 0; s < shards_ && s < ms.size(); ++s) {
        if (!ms.as_array()[s].is_int()) continue;
        const auto m = static_cast<NodeId>(ms.as_array()[s].as_int());
        if (m < broker().size() && shard_masters_[s] != m) {
          shard_masters_[s] = m;
          shard_dead_[s] = false;
          pending_failover_.erase(s);
        }
      }
    }
    adopt_roots(resp.payload());
    // A restarted broker that still masters a shard: with a durable backend,
    // start() already recovered the shard's tree from its log — re-assert
    // mastership one version up so peers that raced ahead of the start()
    // publish converge and every broker marks the shard live again. Without
    // one, the crashed store is unrecoverable: re-bootstrap EMPTY at
    // adopted_version + 1 (same explicit data-loss policy as hb failover).
    for (std::uint32_t s = 0; s < shards_; ++s) {
      if (shard_masters_[s] != broker().rank()) continue;
      const bool kept = recovered_versions_[s] != 0 &&
                        shard_versions_[s] <= recovered_versions_[s];
      if (!kept) {
        ObjPtr empty = empty_dir_object();
        shard_roots_[s] = empty->id;
        store_.put(std::move(empty));
      }
      ++shard_versions_[s];
      if (kept) recovered_versions_[s] = shard_versions_[s];
      persist_root(s);
      refresh_scalar_root();
      announce_root(s, {}, /*remaster=*/true);
    }
  } catch (const FluxException& ex) {
    log::warn("kvs", "rank ", broker().rank(),
              ": post-rejoin resync failed: ", ex.what());
  }
  // Fences that completed here while the resync ran apply now, above the
  // re-announced version (or, if the resync failed, above the local one).
  rejoining_ = false;
  for (std::uint32_t s = 0; s < shards_; ++s)
    if (is_shard_master(s) && !masters_[s].batch.empty())
      schedule_master_apply(s);
}

// ---------------------------------------------------------------------------
// Lookups (get / lookup_ref / load)
// ---------------------------------------------------------------------------

std::optional<NodeId> KvsModule::tree_parent(std::uint32_t shard) const {
  const NodeId master = shard_masters_[shard];
  if (master == broker().rank()) return std::nullopt;
  // A tree rooted at the session root is the session tree itself
  // (ShardMap), so follow the broker's own parent link: it heals around
  // dead ranks and re-attaches rejoined ones.
  if (master == 0) return broker().parent();
  // Other shard trees are arithmetic, relabeled so the current master —
  // home or failed-over successor — is the tree root; unlike the session
  // tree they have no heal_around, so climb over dead interior ranks here.
  auto up = shard_map_.parent(shard, broker().rank(), master);
  while (up && dead_ranks_.contains(*up))
    up = shard_map_.parent(shard, *up, master);
  return up;
}

Task<ObjPtr> KvsModule::lookup_chain(Sha1 ref, std::vector<std::string> walk,
                                     std::uint32_t shard) {
  std::vector<ObjPtr> objs =
      co_await ensure_objects(std::vector<Sha1>(1, ref), std::move(walk), shard);
  co_return objs[0];
}

Task<std::vector<ObjPtr>> KvsModule::ensure_objects(
    std::vector<Sha1> refs, std::vector<std::string> walk, std::uint32_t shard) {
  std::vector<ObjPtr> out(refs.size());
  if (is_shard_master(shard)) {
    for (std::size_t i = 0; i < refs.size(); ++i) out[i] = store_.get(refs[i]);
    co_return out;
  }

  // Partition the batch: local hits / misses already in flight (join them) /
  // fresh misses this call must fetch. A duplicate ref inside one batch
  // joins the first occurrence's fault.
  std::vector<Future<ObjPtr>> joined;
  std::vector<std::size_t> joined_idx;
  std::vector<Sha1> fresh;
  std::vector<std::size_t> fresh_idx;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    out[i] = cache_.get(refs[i], epoch_);
    if (out[i]) continue;
    if (auto it = faults_.find(refs[i]); it != faults_.end()) {
      joined.push_back(it->second.future());
      joined_idx.push_back(i);
      continue;
    }
    Promise<ObjPtr> promise(broker().executor());
    faults_.emplace(refs[i], promise);
    fresh.push_back(refs[i]);
    fresh_idx.push_back(i);
  }

  if (!fresh.empty()) {
    // One upstream round-trip for the whole batch.
    faults_issued_.inc();
    // The chain hint only helps if we are the ones fetching the walk base;
    // otherwise the caller re-batches from the first missing link.
    const bool send_walk = !walk.empty() && fresh.front() == refs.front();
    Json jrefs = Json::array();
    for (const Sha1& r : fresh) jrefs.push_back(r.hex());
    Json payload = Json::object({{"refs", std::move(jrefs)},
                                 {"shard", static_cast<std::int64_t>(shard)}});
    if (send_walk) payload["walk"] = string_array(walk);

    // A dropped/corrupted batch must taint or retry, never hang: with a
    // session RPC policy the attempt gets a deadline (+ retries); without
    // one a dead parent still settles the RPC (EHOSTDOWN on live.down).
    const RetryPolicy policy = broker().session().config().rpc;
    Message resp;
    bool have_resp = false;
    Duration backoff = policy.backoff;
    int attempts_left = policy.has_retries() ? policy.retries : 0;
    for (;;) {
      // Climb the shard's tree over a direct edge.
      const auto up = tree_parent(shard);
      bool failed = !up;
      if (up) {
        try {
          Message req = Message::request("kvs.load", payload);
          req.nodeid = *up;
          resp = co_await broker().rpc(origin(RouteHop::Kind::Direct),
                                       std::move(req), policy.timeout);
        } catch (const FluxException&) {
          failed = true;
        }
      }
      if (!failed) {
        have_resp = true;
        break;
      }
      if (attempts_left-- <= 0) break;
      faults_issued_.inc();  // the retry is another upstream round-trip
      if (backoff.count() > 0) {
        co_await sleep_for(broker().executor(), backoff);
        backoff *= 2;
      }
    }

    // Cache everything the bundle brought (requested + walked chain) and
    // settle every parked fault it satisfies — walk prefetches routinely
    // complete fetches other waiters are parked on.
    std::unordered_map<Sha1, ObjPtr> got;
    if (have_resp && resp.ok()) {
      if (auto bundle = std::dynamic_pointer_cast<const ObjectBundle>(
              resp.attachment())) {
        for (const ObjPtr& obj : bundle->objects()) {
          if (!obj) continue;
          cache_.put(obj, epoch_);
          objects_faulted_.inc();
          got.emplace(obj->id, obj);
          if (auto it = faults_.find(obj->id); it != faults_.end()) {
            auto promise = it->second;
            faults_.erase(it);
            promise.set_value(obj);
          }
        }
      }
    }
    // Settle what's left of our fresh set as misses (unknown upstream, or
    // the fetch failed). Promises are first-settle-wins, so a concurrent
    // batch that already delivered an id makes these no-ops.
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      if (auto it = faults_.find(fresh[k]); it != faults_.end()) {
        auto promise = it->second;
        faults_.erase(it);
        promise.set_value(nullptr);
      }
      auto it = got.find(fresh[k]);
      out[fresh_idx[k]] = it != got.end() ? it->second
                                          : cache_.get(fresh[k], epoch_);
    }
  }

  for (std::size_t k = 0; k < joined.size(); ++k)
    out[joined_idx[k]] = co_await joined[k];
  co_return out;
}

Task<void> KvsModule::serve_load(Message req, std::vector<Sha1> refs,
                                 std::vector<std::string> walk,
                                 std::uint32_t shard) {
  const bool authoritative = is_shard_master(shard);
  std::vector<ObjPtr> objs = co_await ensure_objects(refs, walk, shard);

  std::vector<ObjPtr> found;
  std::unordered_set<Sha1> included;
  const auto include = [&](const ObjPtr& obj) {
    if (obj && included.insert(obj->id).second) found.push_back(obj);
  };
  Json missing = Json::array();
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (objs[i])
      include(objs[i]);
    else
      missing.push_back(refs[i].hex());
  }

  // Speculative chain walk from refs[0]: bundle every object the named path
  // crosses, so a cold downstream get costs one round-trip total. A link
  // missing here is itself chain-faulted upstream in one batched hop.
  ObjPtr node = objs.empty() ? nullptr : objs[0];
  std::size_t wi = 0;
  while (node && wi < walk.size()) {
    const auto ref = node->child(walk[wi]);
    if (!ref) break;
    ObjPtr next = authoritative ? store_.get(*ref) : cache_.get(*ref, epoch_);
    if (!next) {
      std::vector<std::string> rest(
          walk.begin() + static_cast<std::ptrdiff_t>(wi) + 1, walk.end());
      std::vector<ObjPtr> fetched =
          co_await ensure_objects(std::vector<Sha1>(1, *ref), std::move(rest), shard);
      next = fetched[0];
    }
    if (!next) break;
    include(next);
    node = std::move(next);
    ++wi;
  }

  Message resp = req.respond(Json::object({{"missing", std::move(missing)}}));
  if (!found.empty())
    resp.set_attachment(std::make_shared<ObjectBundle>(std::move(found)));
  broker().respond(std::move(resp));
}

void KvsModule::op_load(Message& msg) {
  loads_served_.inc();
  const Json& jrefs = msg.payload().at("refs");
  const std::int64_t shard = msg.payload().get_int("shard", 0);
  if (!jrefs.is_array() || jrefs.as_array().empty() || shard < 0 ||
      shard >= static_cast<std::int64_t>(shards_)) {
    respond_error(msg, errc::inval, "load: need refs[] and a valid shard");
    return;
  }
  std::vector<Sha1> refs;
  refs.reserve(jrefs.as_array().size());
  for (const Json& r : jrefs.as_array()) {
    std::optional<Sha1> ref;
    if (r.is_string()) ref = Sha1::parse(r.as_string());
    if (!ref) {
      respond_error(msg, errc::inval, "load: bad ref");
      return;
    }
    refs.push_back(*ref);
  }
  std::vector<std::string> walk = strings_of(msg.payload().at("walk"));
  co_spawn(broker().executor(),
           serve_load(std::move(msg), std::move(refs), std::move(walk),
                      static_cast<std::uint32_t>(shard)),
           "kvs.load");
}

void KvsModule::op_get(Message& msg) {
  gets_.inc();
  co_spawn(broker().executor(), do_get(std::move(msg), /*ref_only=*/false),
           "kvs.get");
}

void KvsModule::op_lookup_ref(Message& msg) {
  co_spawn(broker().executor(), do_get(std::move(msg), /*ref_only=*/true),
           "kvs.lookup_ref");
}

Task<void> KvsModule::do_get_root(Message req, bool ref_only, bool want_dir) {
  if (ref_only) {
    // The scalar root mirror is shard 0's root (as is the "rootref" every
    // commit/fence response reports).
    if (shard_versions_[0] == 0) {
      try {
        co_await shard_ready(0);
      } catch (const FluxException& e) {
        respond_error(req, e.error().code, "lookup_ref: shard 0 has no root");
        co_return;
      }
    }
    respond_ok(req, Json::object({{"ref", shard_roots_[0].hex()}}));
    co_return;
  }
  if (!want_dir) {
    respond_error(req, errc::is_dir, "get: '.' is a directory");
    co_return;
  }
  // The logical root directory is the union of the shards' top levels.
  std::set<std::string> merged;
  for (std::uint32_t s = 0; s < shards_; ++s) {
    if (shard_dead_[s]) continue;
    if (shard_versions_[s] == 0) {
      try {
        co_await shard_ready(s);
      } catch (const FluxException&) {
        continue;
      }
    }
    ObjPtr dir = co_await lookup_chain(shard_roots_[s], {}, s);
    if (!dir || !dir->is_dir()) continue;
    for (const DirEntry& e : dir->entries()) merged.insert(e.name);
  }
  Json names = Json::array();
  for (const std::string& name : merged) names.push_back(name);
  respond_ok(req, Json::object({{"dir", true}, {"entries", std::move(names)}}));
}

Task<void> KvsModule::do_get(Message req, bool ref_only) {
  const std::string key = req.payload().get_string("key");
  const bool want_dir = req.payload().get_bool("dir", false);
  const auto path = split_key(key);
  if (path.empty()) {
    co_await do_get_root(std::move(req), ref_only, want_dir);
    co_return;
  }

  const std::uint32_t shard = shard_map_.shard_of(path[0]);
  const std::string down =
      "get: master of shard " + std::to_string(shard) + " is down";
  if (shard_dead_[shard]) {
    respond_error(req, errc::host_down, down);
    co_return;
  }
  if (shard_versions_[shard] == 0) {
    try {
      co_await shard_ready(shard);
    } catch (const FluxException& e) {
      respond_error(req, e.error().code, down);
      co_return;
    }
  }

  Sha1 cur = shard_roots_[shard];
  for (std::size_t ci = 0; ci < path.size(); ++ci) {
    const std::string& component = path[ci];
    // Chain lookup: a cold miss batches the entire remaining path into one
    // upstream round-trip, so the later iterations (and the terminal value
    // fetch) hit the cache.
    ObjPtr dir = co_await lookup_chain(
        cur,
        std::vector<std::string>(path.begin() + static_cast<std::ptrdiff_t>(ci),
                                 path.end()),
        shard);
    if (!dir) {
      if (shard_dead_[shard])
        respond_error(req, errc::host_down, down);
      else
        respond_error(req, errc::noent, "get: dangling ref on path of " + key);
      co_return;
    }
    if (!dir->is_dir()) {
      respond_error(req, errc::not_dir, "get: '" + key + "' crosses a value");
      co_return;
    }
    const auto ref = dir->child(component);
    if (!ref) {
      respond_error(req, errc::noent, "get: no such key '" + key + "'");
      co_return;
    }
    cur = *ref;
  }

  if (ref_only) {
    respond_ok(req, Json::object({{"ref", cur.hex()}}));
    co_return;
  }

  ObjPtr obj = co_await lookup_chain(cur, {}, shard);
  if (!obj) {
    if (shard_dead_[shard])
      respond_error(req, errc::host_down, down);
    else
      respond_error(req, errc::noent, "get: dangling terminal ref for " + key);
    co_return;
  }
  if (obj->is_dir()) {
    if (!want_dir) {
      respond_error(req, errc::is_dir, "get: '" + key + "' is a directory");
      co_return;
    }
    Json names = Json::array();
    for (const DirEntry& e : obj->entries()) names.push_back(e.name);
    respond_ok(req, Json::object({{"dir", true}, {"entries", std::move(names)}}));
    co_return;
  }
  if (want_dir) {
    respond_error(req, errc::not_dir, "get: '" + key + "' is not a directory");
    co_return;
  }
  // Carry the terminal ref alongside the value frame: both come from the
  // same walk of the same root snapshot, so watchers get a consistent
  // (ref, value) pair in one round-trip.
  Message resp = req.respond(Json::object({{"ref", cur.hex()}}));
  resp.set_data(object_frame(obj));
  broker().respond(std::move(resp));
}

// ---------------------------------------------------------------------------
// Versions / stats / cache control
// ---------------------------------------------------------------------------

void KvsModule::op_get_version(Message& msg) {
  Json vv = Json::array();
  Json rootrefs = Json::array();
  Json masters = Json::array();
  for (std::uint32_t s = 0; s < shards_; ++s) {
    vv.push_back(static_cast<std::int64_t>(shard_versions_[s]));
    rootrefs.push_back(shard_roots_[s].hex());
    masters.push_back(static_cast<std::int64_t>(shard_masters_[s]));
  }
  respond_ok(msg, Json::object({{"version", root_version_},
                                {"rootref", root_ref_.hex()},
                                {"vv", std::move(vv)},
                                {"rootrefs", std::move(rootrefs)},
                                {"masters", std::move(masters)}}));
}

void KvsModule::op_wait_version(Message& msg) {
  const auto version =
      static_cast<std::uint64_t>(msg.payload().get_int("version", 0));
  if (root_version_ >= version) {
    op_get_version(msg);
    return;
  }
  co_spawn(
      broker().executor(),
      [](KvsModule* self, Message req, std::uint64_t v) -> Task<void> {
        co_await self->version_reached(v);
        self->op_get_version(req);
      }(this, std::move(msg), version),
      "kvs.wait_version");
}

Json KvsModule::stats_json() const {
  Json out = Module::stats_json();
  out["master"] = is_master();
  out["version"] = root_version_;
  out["store_objects"] = store_.count();
  out["store_bytes"] = store_.bytes();
  out["cache_objects"] = cache_.count();
  out["cache_bytes"] = cache_.bytes();
  out["fences"] = fences_.size();
  if (backend_ != nullptr) {
    out["persist"] = true;
    out["recovered_version"] = my_shard_ ? recovered_versions_[*my_shard_] : 0;
  }
  if (sharded()) {
    out["shards"] = static_cast<std::int64_t>(shards_);
    out["shard_master"] = my_shard_.has_value();
    if (my_shard_) out["shard"] = static_cast<std::int64_t>(*my_shard_);
    Json vv = Json::array();
    for (const std::uint64_t v : shard_versions_)
      vv.push_back(static_cast<std::int64_t>(v));
    out["vv"] = std::move(vv);
  }
  return out;
}

KvsModule::PersistStats KvsModule::persist_stats() const noexcept {
  return PersistStats{
      broker().stats_registry().counter_value("kvs.persist.checkpoints"),
      recovered_objects_.value()};
}

void KvsModule::op_drop_cache(Message& msg) {
  const std::size_t evicted = cache_.drop_all();
  respond_ok(msg, Json::object({{"evicted", evicted}}));
}

}  // namespace flux
