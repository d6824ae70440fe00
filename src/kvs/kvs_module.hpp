// The kvs comms module (paper §IV-B), with the master distributable over k
// shards (§VII).
//
// One instance runs inside each broker where the module is loaded. The
// namespace is hash-partitioned by top-level directory into k shards
// (module config {"shards": k}, default 1); a deterministic ShardMap
// (rendezvous hashing, shard_map.hpp) lets every broker compute a key's
// owner locally. Each shard has a *master* broker (master_rank(s) =
// s*size/k, so shard 0 is mastered by the session root) that holds that
// shard's authoritative content store, applies its transactions, and
// announces its new roots. Every broker also keeps a *slave cache*: gets
// resolve against it, faulting missing objects from the parent in the
// shard's reduction tree "recursively up the tree until the request can be
// fulfilled", and roots switch in version order as announces arrive. The
// paper's single master is exactly k = 1: shard 0 of a one-shard map, its
// tree the session tree.
//
// One fence path serves every k. A fence (and a commit, which is a
// one-party fence) is split into one part per shard (empty parts still carry
// their participant count); each part climbs its shard's tree, reduced at
// every hop (op_fence -> fence_add -> flush_fence); the shard master counts
// distinct contributors and, at nprocs, queues the part into its apply batch
// (flush_apply_batch -> master_apply), which coalesces fences under a
// rate-limit window and announces each new root in the turn it is applied
// (announce_root, DESIGN §4e).
// The announce is the paper's "kvs.setroot" event ("kvs.setroot.<s>" when
// k > 1), and its "fences" list names the fences the new root includes.
// Every broker adopts the root and completes a fence once every shard in
// the fence's completion set (the shards alive at its first announce) has
// announced it. Events are root-sequenced, so every broker makes the same
// decision in the same order, and a completed fence's writes are readable
// on every shard (collective-commit semantics plus cross-shard visibility).
//
// Consistency (Vogels' taxonomy, as claimed by the paper):
//  - monotonic reads: each shard's roots apply in that shard's version
//    order, and gets walk an immutable snapshot;
//  - read-your-writes: commit/fence responses carry the new root, which the
//    local instance applies *before* responding to the caller;
//  - causal: get_version/wait_version let one process pass a version to
//    another, which waits for it before reading. The scalar version is the
//    sum of the per-shard vector (the vector itself rides along as "vv"
//    when k > 1).
//
// A dead shard master ("live.down") fails fast: in-flight direct RPCs to it
// settle EHOSTDOWN, fences some shard had already announced complete as
// failed, new operations on its shard are refused, and the other shards keep
// serving; with {"failover": true} a successor re-masters the shard.
//
// Client-visible operations (via kvs_client.hpp):
//   stage, get, lookup_ref, commit, fence, get_version, wait_version,
//   stats.get, drop_cache. A transaction lives client-side (KvsTxn) and
//   arrives whole with its commit or fence; the module keeps no staged ops.
// Internal (module-to-module):
//   flush (aggregated dirty state heading to a shard master), load
//   (batched object fetch from the shard-tree parent).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "broker/module.hpp"
#include "exec/future.hpp"
#include "exec/task.hpp"
#include "kvs/content_store.hpp"
#include "kvs/object_bundle.hpp"
#include "kvs/shard_map.hpp"

namespace flux {

class KvsModule final : public Module {
 public:
  explicit KvsModule(Broker& broker);
  ~KvsModule() override;

  [[nodiscard]] std::string_view name() const override { return "kvs"; }
  void start() override;
  /// The "kvs.stats.get" payload: the registry's kvs.* slice plus the state
  /// that is not a counter (version, master, store/cache sizes, shards/vv).
  [[nodiscard]] Json stats_json() const override;
  void shutdown() override;
  void on_fail() override;
  void handle_event(const Message& msg) override;

  /// True on the session root (master of shard 0).
  [[nodiscard]] bool is_master() const noexcept;

  /// More than one shard (module config {"shards": k>1}).
  [[nodiscard]] bool sharded() const noexcept { return shards_ > 1; }
  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }
  [[nodiscard]] const ShardMap& shard_map() const noexcept { return shard_map_; }
  /// The shard this broker masters, if any.
  [[nodiscard]] std::optional<std::uint32_t> my_shard() const noexcept {
    return my_shard_;
  }

  // Introspection for tests/benches.
  /// Sum of the per-shard versions (shard 0's version when k = 1).
  [[nodiscard]] std::uint64_t root_version() const noexcept { return root_version_; }
  /// Shard 0's root (the whole namespace when k = 1).
  [[nodiscard]] const Sha1& root_ref() const noexcept { return root_ref_; }
  [[nodiscard]] const ObjectCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const ContentStore& store() const noexcept { return store_; }
  // Read by hostbench only; goes when hostbench reads a registry dump.
  struct OpStats {
    std::uint64_t faults_issued, flushes_forwarded, apply_batches,
        apply_batched_fences, announces;
  };
  /// Every apply batch is announced in its own turn, so `announces` is the
  /// apply histogram's count.
  [[nodiscard]] OpStats op_stats() const noexcept {
    return {faults_issued_.value(), flushes_forwarded_.value(),
            apply_batch_size_.count(), apply_batch_size_.sum(),
            apply_batch_size_.count()};
  }
  // Read by hostbench only; goes when hostbench reads a registry dump.
  struct PersistStats {
    std::uint64_t checkpoints, recovered_objects;
  };
  [[nodiscard]] PersistStats persist_stats() const noexcept;
  [[nodiscard]] const std::vector<std::uint64_t>& shard_versions() const noexcept {
    return shard_versions_;
  }
  [[nodiscard]] const std::vector<Sha1>& shard_roots() const noexcept {
    return shard_roots_;
  }
  /// Current master rank per shard (updated by hb-driven failover).
  [[nodiscard]] const std::vector<NodeId>& shard_masters() const noexcept {
    return shard_masters_;
  }

 private:
  // -- request handlers -------------------------------------------------------
  void op_stage(Message& msg);
  void op_get(Message& msg);
  void op_lookup_ref(Message& msg);
  void op_get_version(Message& msg);
  void op_wait_version(Message& msg);
  void op_commit(Message& msg);
  void op_fence(Message& msg);
  void op_flush(Message& msg);
  void op_load(Message& msg);
  void op_drop_cache(Message& msg);

  // -- fences ------------------------------------------------------------------
  /// Key identifying a requester (origin rank + endpoint); names commits.
  using TxnKey = std::pair<NodeId, std::uint64_t>;
  struct Txn {
    std::vector<Tuple> tuples;
    std::vector<ObjPtr> objects;
  };
  static TxnKey txn_key(const Message& msg);
  /// Claim the caller's transaction (payload ops + object bundle); returns
  /// nullopt after responding with an error on malformed input.
  std::optional<Txn> claim_txn(Message& msg);

  /// One shard's slice of a fence on this broker.
  struct Part {
    // Contributor identities not yet flushed upstream. May repeat across
    // waves — the master's `counted` set dedupes.
    std::vector<std::string> pending_contributors;
    std::vector<Tuple> pending_tuples;
    std::vector<ObjPtr> pending_objects;
    /// Objects already forwarded upstream for this part: cumulative, so an
    /// object crosses each broker at most once no matter how contributions
    /// stagger ("values are reduced while being sent up the tree").
    std::unordered_set<Sha1> forwarded_ids;
    /// Contributor identities seen at this broker — local clients and
    /// relayed flushes alike (retry detection — see fence_add).
    std::set<std::string> origins;
    bool flush_scheduled = false;
    // Tuples were routed to this shard through this broker; if the shard's
    // master then dies mid-fence, local waiters must see an error even when
    // the live shards complete the fence.
    bool touched = false;
    // Shard master only: distinct contributor identities seen so far. The
    // part is ready when this reaches nprocs. Counting identities instead of
    // arrivals makes client RPC retries idempotent end-to-end: a duplicate
    // flush (the original was merely slow) collapses here instead of letting
    // the fence fuse without the slowest participant's ops, while a retry
    // whose original flush was lost to a crashed broker re-supplies it.
    std::set<std::string> counted;
    std::vector<Tuple> total_tuples;
    // Shard master only: already queued in the apply batch — extra
    // contributions past nprocs must not enqueue it twice.
    bool apply_pending = false;
  };
  struct Fence {
    std::int64_t nprocs = 0;
    std::vector<Part> parts;  // one per shard
    // Requests from clients of *this* broker awaiting completion.
    std::vector<Message> waiters;
    // Local cache pins to release at completion.
    std::vector<Sha1> pins;
    // Completion, kept in event order on every broker: the shards that still
    // owe an announce of this fence (those alive at its first announce;
    // empty before it).
    std::vector<bool> owed;
    // A shard master died after the first announce: the fence's part on it
    // is lost, so the fence completes failed.
    bool tainted = false;
  };
  Fence& fence_state(const std::string& name, std::int64_t nprocs);

  /// Identity of the requesting endpoint, stable across its RPC retries.
  std::string fence_origin_key(const Message& msg);

  /// Add contributions to shard `shard`'s part of fence `name`: a shard
  /// master counts them and queues the part into its apply batch once it
  /// reaches nprocs; everyone else queues them for flush_fence.
  void fence_add(const std::string& name, std::uint32_t shard,
                 std::int64_t nprocs, std::vector<std::string> contributors,
                 std::vector<Tuple> tuples, const std::vector<ObjPtr>& objects);
  /// Ship the part's pending contributions one hop up the shard's tree.
  void flush_fence(const std::string& name, std::uint32_t shard);
  /// Shard `shard` announced a root that includes fence `name`: complete
  /// the fence once every shard in its completion set has announced it.
  void fence_announced(const std::string& name, std::uint32_t shard);
  /// No shard owes an announce of this (already announced) fence.
  [[nodiscard]] static bool fence_ready(const Fence& fence);
  /// Complete a fence locally: release pins and answer its waiters.
  void complete_fence(const std::string& name, bool failed);

  // -- shard masters -----------------------------------------------------------
  /// Master-side state of one shard this broker masters.
  struct Master {
    /// Parts ready to apply — {fence, tuples in readiness order}. Flushed by
    /// one posted task; under sustained load the flush is additionally
    /// rate-limited to one per apply window, so commits arriving at
    /// distinct instants still share one root transition (one directory
    /// freeze/hash and one O(tree) announce). The first flush after an idle
    /// window stays synchronous, so lone-op latency is untouched. Zero
    /// window disables deferral.
    std::vector<std::pair<std::string, std::vector<Tuple>>> batch;
    bool apply_scheduled = false;
    TimePoint last_apply{};
    std::uint64_t applies_since_checkpoint = 0;
    std::uint64_t applies_since_gc = 0;
  };

  [[nodiscard]] bool is_shard_master(std::uint32_t shard) const noexcept;
  /// The shard currently mastered by `rank`, consulting failover state.
  [[nodiscard]] std::optional<std::uint32_t> mastered_by(NodeId rank) const;
  /// Post one apply for the shard's batch (idempotent while one is pending).
  void schedule_master_apply(std::uint32_t shard);
  /// The posted flush: concatenates the batch (readiness order) into ONE
  /// apply_transaction + ONE version bump, so all coalesced committers
  /// observe the same new root.
  void flush_apply_batch(std::uint32_t shard);
  /// Apply tuples, bump the shard's version, persist, announce the new
  /// root naming `fences`.
  void master_apply(std::uint32_t shard, const std::vector<Tuple>& tuples,
                    std::vector<std::string> fences);
  /// Publish shard `shard`'s current root and the `fences` it includes.
  /// `remaster` re-binds the shard to this broker on every rank
  /// (failover/rejoin).
  void announce_root(std::uint32_t shard, std::vector<std::string> fences,
                     bool remaster = false);
  /// Bootstrap or recover the shard this broker masters at start().
  void start_master(std::uint32_t shard);
  /// Make this broker the shard's master (start or failover promotion).
  void bind_master(std::uint32_t shard);

  // -- root state ----------------------------------------------------------------
  void on_setroot(const Message& msg);
  void on_live_down(const Message& msg);
  /// Adopt a newer root for `shard` (per-shard version order). The caller
  /// runs refresh_scalar_root() afterwards.
  void adopt_root(std::uint32_t shard, std::uint64_t version, const Sha1& ref);
  /// Adopt every newer root of a {"vv": [...], "rootrefs": [...]} payload,
  /// then refresh the scalar root.
  void adopt_roots(const Json& payload);
  /// Recompute the scalar mirror (root_version_ = sum of shard versions,
  /// root_ref_ = shard 0's root) and complete waiters it unblocks.
  void refresh_scalar_root();
  /// Resolves once shard `shard` has a root (version >= 1).
  Future<std::uint64_t> shard_ready(std::uint32_t shard);
  /// Wait until the local root version reaches `version`.
  Future<std::uint64_t> version_reached(std::uint64_t version);
  void complete_version_waiters();

  // -- failover / rejoin recovery ---------------------------------------------
  /// Deterministic successor for a dead shard master: the next live rank
  /// after it in ring order (every broker computes the same answer from the
  /// globally-ordered live.down history).
  [[nodiscard]] NodeId successor_for(std::uint32_t shard) const;
  /// hb tick: promote this broker for any shard whose failover grace period
  /// has elapsed and whose designated successor we are.
  void check_failovers();
  /// Take over a dead shard: re-bootstrap it one version above the last
  /// published root and announce mastership via "kvs.setroot.<s>".
  void promote_shard(std::uint32_t shard);
  /// After a broker restart+rejoin: re-adopt roots/versions/masters from the
  /// upstream kvs instance (objects fault back in on demand).
  Task<void> resync_after_rejoin();

  // -- lookups -------------------------------------------------------------------
  /// Next hop toward shard `shard`'s master; nullopt at the master or when
  /// the whole chain above is dead. A tree rooted at the session root is
  /// the session tree itself, so it follows the broker's own (healed,
  /// rejoin-aware) parent link; other trees climb over dead ranks here.
  [[nodiscard]] std::optional<NodeId> tree_parent(std::uint32_t shard) const;
  /// Merged top-level listing / root ref (get of the root directory).
  Task<void> do_get_root(Message req, bool ref_only, bool want_dir);

  /// Local-or-fault object lookup in shard `shard` (coalesces concurrent
  /// faults; misses climb that shard's tree). On a miss, one batched
  /// kvs.load round-trip brings in `ref` plus (speculatively) the whole
  /// directory chain named by `walk` below it.
  Task<ObjPtr> lookup_chain(Sha1 ref, std::vector<std::string> walk,
                            std::uint32_t shard);

  /// Batched fault core: make `refs` locally available, fetching every miss
  /// in a single upstream kvs.load round-trip (per-id coalescing across
  /// concurrent batches via faults_). `walk` is the speculative chain hint
  /// forwarded when refs[0] itself is missing. Returns objects positionally
  /// (null = unknown upstream, or fetch tainted by timeout/host-down).
  Task<std::vector<ObjPtr>> ensure_objects(std::vector<Sha1> refs,
                                           std::vector<std::string> walk,
                                           std::uint32_t shard);

  /// Server side of one kvs.load request; responds with an ObjectBundle of
  /// everything located (requested refs + walked chain) and the missing ids.
  Task<void> serve_load(Message req, std::vector<Sha1> refs,
                        std::vector<std::string> walk, std::uint32_t shard);

  /// Async get walk; responds to `req` when done.
  Task<void> do_get(Message req, bool ref_only);

  // -- persistence (durable content store + checkpoint/restart + GC) ----------
  /// Module config {"persist": {"path": ..., "checkpoint_every": N,
  /// "gc_every": M, "retention": R}}. Only masters open a backend; with
  /// k > 1 the path gets a ".s<shard>" suffix.
  struct PersistConfig {
    std::string path;
    std::uint64_t checkpoint_every = 16;  ///< applies per checkpoint record
    std::uint64_t gc_every = 0;           ///< applies per GC pass (0 = off)
    std::uint64_t retention = 4;          ///< versions kept past reachability
  };
  /// Open the backend for this master and replay the durable log. Returns
  /// true when a prior root was recovered (the caller re-announces it one
  /// version up — the recovery epoch — instead of bootstrapping empty).
  bool persist_open(std::uint32_t shard);
  /// Durability point after one master apply: append the root record, sync
  /// (ack-after-sync: announce only happens after this), then run the
  /// shard's checkpoint and GC cadences.
  void persist_root(std::uint32_t shard);
  /// Live roots and GC pins (in-flight fence objects) for mark_and_sweep.
  [[nodiscard]] std::vector<Sha1> gc_roots() const;
  [[nodiscard]] std::vector<Sha1> gc_pins() const;
  void run_gc();

  // -- state -------------------------------------------------------------------
  Sha1 root_ref_{};                 // shard 0's root
  std::uint64_t root_version_ = 0;  // sum of shard versions; 0 == no root yet
  ContentStore store_;              // shard masters only
  ObjectCache cache_{stats_registry(), "kvs.cache"};  // every broker
  // Instruments in the broker's registry, resolved at construction. A shard
  // master's apply batches are a histogram of fences per batch: count =
  // batches (and announces), sum = fences they covered.
  obs::Counter& puts_ = stats_registry().counter("kvs.puts");
  obs::Counter& gets_ = stats_registry().counter("kvs.gets");
  obs::Counter& commits_ = stats_registry().counter("kvs.commits");
  obs::Counter& fence_ops_ = stats_registry().counter("kvs.fences");
  /// Upstream fault round-trips issued (a batched kvs.load counts once no
  /// matter how many objects it brings in).
  obs::Counter& faults_issued_ = stats_registry().counter("kvs.faults_issued");
  /// Batched kvs.load requests handled for downstream brokers.
  obs::Counter& loads_served_ = stats_registry().counter("kvs.loads_served");
  /// Objects brought into the local cache by load responses.
  obs::Counter& objects_faulted_ = stats_registry().counter("kvs.objects_faulted");
  obs::Counter& flushes_forwarded_ = stats_registry().counter("kvs.flushes_forwarded");
  obs::Histogram& apply_batch_size_ = stats_registry().histogram("kvs.apply.batch_size");
  obs::Histogram& apply_ns_ = stats_registry().histogram("kvs.apply.ns");
  // Recovery and GC (persisting masters; the content log counts its own
  // appends, syncs and checkpoints under "kvs.persist"). truncated_bytes is
  // the torn tail dropped at recovery; gc.pause_ns counts the GC passes.
  obs::Counter& recovered_objects_ =
      stats_registry().counter("kvs.persist.recovered_objects");
  obs::Counter& truncated_bytes_ =
      stats_registry().counter("kvs.persist.truncated_bytes");
  obs::Counter& gc_swept_ = stats_registry().counter("kvs.gc.swept");
  obs::Counter& gc_swept_bytes_ = stats_registry().counter("kvs.gc.swept_bytes");
  obs::Histogram& gc_pause_ns_ = stats_registry().histogram("kvs.gc.pause_ns");
  std::uint64_t epoch_ = 0;
  std::uint64_t expiry_epochs_ = 0;  // 0 == expiry disabled

  std::uint64_t commit_seq_ = 0;
  std::uint64_t fence_anon_seq_ = 0;  // fence_origin_key fallback counter
  std::map<std::string, Fence> fences_;

  std::uint32_t shards_ = 1;
  ShardMap shard_map_;
  std::optional<std::uint32_t> my_shard_;
  std::vector<Sha1> shard_roots_;
  std::vector<std::uint64_t> shard_versions_;
  std::vector<bool> shard_dead_;           // indexed by shard (master died)
  std::unordered_set<NodeId> dead_ranks_;  // every dead rank (tree healing)
  // Current master per shard (ShardMap home ranks until failover moves one).
  std::vector<NodeId> shard_masters_;
  std::vector<Master> masters_;  // indexed by shard; used where we master
  // hb-driven failover (module config {"failover": true}): shard -> epoch at
  // which the designated successor self-promotes.
  bool failover_ = false;
  std::map<std::uint32_t, std::uint64_t> pending_failover_;

  /// Apply rate limit: 0 while size × shards < 48, else 40 µs.
  Duration apply_window_{};
  /// Liveness token for the deferred apply timer: ThreadExecutor
  /// timers are not cancelable, and a broker restart destroys this module
  /// instance while an armed timer may still fire — the callbacks hold a
  /// weak_ptr and become no-ops once the token dies with the module.
  std::shared_ptr<const bool> timer_token_ = std::make_shared<const bool>(true);

  std::unordered_map<Sha1, Promise<ObjPtr>> faults_;
  std::vector<std::pair<std::uint64_t, Promise<std::uint64_t>>> version_waiters_;
  std::vector<std::pair<std::uint32_t, Promise<std::uint64_t>>> shard_ready_waiters_;

  // Persistence state (masters with {"persist": ...} config only).
  std::optional<PersistConfig> persist_;
  std::unique_ptr<FileLogBackend> backend_;
  /// Per-shard version this instance re-established from its durable log at
  /// start() (post recovery-epoch bump); 0 = not recovered. Consulted by
  /// resync_after_rejoin to keep recovered data instead of re-bootstrapping
  /// empty.
  std::vector<std::uint64_t> recovered_versions_;
  /// A restarted non-root instance until resync_after_rejoin finishes: its
  /// masters neither announce nor apply, so no shard version it publishes
  /// falls below one the session already saw.
  bool rejoining_ = false;
};

}  // namespace flux
