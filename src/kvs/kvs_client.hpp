// Client-side KVS API (the kvs_* functions of paper §IV-B).
//
//   kvs_put(key,val)      -> KvsClient::put        (async, write-back)
//   kvs_commit()          -> KvsClient::commit     (synchronous flush)
//   kvs_fence(name,n)     -> KvsClient::fence      (collective commit)
//   kvs_get(key)          -> KvsClient::get
//   kvs_get_version()     -> KvsClient::get_version
//   kvs_wait_version(v)   -> KvsClient::wait_version
//   kvs_watch(key,cb)     -> KvsClient::watch      (per-root-update compare)
//
// Writes accumulate in an explicit KvsTxn on the *client* side ("cached
// locally pending commit"); commit(txn)/fence(...,txn) ship the whole
// transaction — (key, ref) tuples plus the content-addressed objects — to
// the kvs module in a single RPC. KvsClient::put/unlink/mkdir are sugar over
// a default transaction, so fence semantics stay per-process exactly as in
// the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "api/handle.hpp"
#include "kvs/treeobj.hpp"

namespace flux::check {
class HistoryRecorder;
enum class OpKind : std::uint8_t;
}

namespace flux {

class KvsClient;

namespace detail {
/// Shared liveness anchor between a KvsClient and its WatchHandle guards
/// (same pattern as SubOwner in api/handle.hpp): the client nulls `owner`
/// on destruction, so a guard outliving the client is a harmless no-op.
struct WatchOwner {
  KvsClient* owner = nullptr;
};
}  // namespace detail

/// Move-only RAII guard for a KVS watch. Destroying (or reset()ing) it
/// cancels the watch; destroying it after the KvsClient is gone is a no-op.
class [[nodiscard]] WatchHandle {
 public:
  WatchHandle() noexcept = default;
  WatchHandle(WatchHandle&& o) noexcept
      : state_(std::move(o.state_)), id_(std::exchange(o.id_, 0)) {}
  WatchHandle& operator=(WatchHandle&& o) noexcept {
    if (this != &o) {
      reset();
      state_ = std::move(o.state_);
      id_ = std::exchange(o.id_, 0);
    }
    return *this;
  }
  ~WatchHandle() { reset(); }
  WatchHandle(const WatchHandle&) = delete;
  WatchHandle& operator=(const WatchHandle&) = delete;

  /// Cancel the watch now (idempotent).
  void reset() noexcept;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] bool active() const noexcept { return id_ != 0; }
  explicit operator bool() const noexcept { return active(); }

 private:
  friend class KvsClient;
  WatchHandle(std::weak_ptr<detail::WatchOwner> s, std::uint64_t id) noexcept
      : state_(std::move(s)), id_(id) {}

  std::weak_ptr<detail::WatchOwner> state_;
  std::uint64_t id_ = 0;
};

struct CommitResult {
  std::uint64_t version = 0;
  std::string rootref;
  /// Per-shard version vector; empty unless the session runs sharded KVS
  /// masters (module config {"shards": k>1}). vv[s] is shard s's version as
  /// of this commit; `version` is the sum of the vector.
  std::vector<std::uint64_t> vv;
};

/// An explicit KVS transaction: an ordered list of (key, object) operations
/// staged client-side. Nothing touches the session until the transaction is
/// handed to KvsClient::commit()/fence(); applying is atomic (one root swap
/// covers every op). Value objects are hashed at put() time, so a txn also
/// pre-computes the content addresses the commit will reference.
class KvsTxn {
 public:
  /// Stage a write. Throws FluxException(EINVAL) for an empty key.
  KvsTxn& put(std::string key, Json value);
  /// Stage a removal (tombstone tuple).
  KvsTxn& unlink(std::string key);
  /// Stage an (empty) directory creation.
  KvsTxn& mkdir(std::string key);

  [[nodiscard]] bool empty() const noexcept { return tuples_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return tuples_.size(); }
  void clear() {
    tuples_.clear();
    objects_.clear();
  }

 private:
  friend class KvsClient;
  std::vector<Tuple> tuples_;
  std::vector<ObjPtr> objects_;
};

class KvsClient {
 public:
  explicit KvsClient(Handle& h)
      : h_(h), watch_state_(std::make_shared<detail::WatchOwner>()) {
    watch_state_->owner = this;
  }
  ~KvsClient();
  KvsClient(const KvsClient&) = delete;
  KvsClient& operator=(const KvsClient&) = delete;

  /// The default transaction put/unlink/mkdir stage into.
  [[nodiscard]] KvsTxn& txn() noexcept { return txn_; }

  /// Write-back put: sugar over txn().put(); visibility requires
  /// commit()/fence().
  Task<void> put(std::string key, Json value);
  /// Remove a key: sugar over txn().unlink() (takes effect at commit).
  Task<void> unlink(std::string key);
  /// Create an (empty) directory: sugar over txn().mkdir().
  Task<void> mkdir(std::string key);

  /// Ship an explicit transaction and wait for the new root to be applied
  /// locally (read-your-writes).
  Task<CommitResult> commit(KvsTxn txn);
  /// Flush the default transaction (this process's staged puts).
  Task<CommitResult> commit();
  /// Collective commit of an explicit transaction across `nprocs` processes.
  Task<CommitResult> fence(std::string name, std::int64_t nprocs, KvsTxn txn);
  /// Collective commit of the default transaction.
  Task<CommitResult> fence(std::string name, std::int64_t nprocs);

  /// Committed-state read; throws FluxException(ENOENT/EISDIR/...) on error.
  Task<Json> get(std::string key);
  /// Read a directory: returns sorted entry names.
  Task<std::vector<std::string>> list_dir(std::string key);
  /// Resolve a key to its content address without fetching the object.
  Task<std::string> lookup_ref(std::string key);

  Task<std::uint64_t> get_version();
  Task<void> wait_version(std::uint64_t version);

  /// Watch a key: `cb` fires once with the current value (nullopt if the key
  /// does not exist), then again on every root update that changes it
  /// (paper: "internally performing a get ... in response to each root
  /// update, comparing the new and old values"). Directory keys change when
  /// anything beneath them changes — the hash-tree property. The returned
  /// guard owns the watch: it cancels on destruction. In sharded sessions
  /// the watch also re-fires across a shard-master failover (the successor's
  /// "kvs.setroot.<s>" announcement is a root update like any other).
  using WatchFn = std::function<void(const std::optional<Json>&)>;
  WatchHandle watch(std::string key, WatchFn cb);

  /// DST tap (check/history.hpp): append every client-visible op this client
  /// performs — put/get/commit/fence/watch callback, plus every observed
  /// "kvs.setroot*" event — to `rec` under logical client id `client`.
  /// Pass nullptr to detach. Recording is off (and free) by default.
  void set_recorder(check::HistoryRecorder* rec, int client);

 private:
  friend class WatchHandle;

  void unwatch_impl(std::uint64_t id);

  struct Watch {
    std::uint64_t id;
    std::string key;
    WatchFn fn;
    std::optional<std::string> last_ref;  // nullopt until first lookup
    bool first_fired = false;
    // Refreshes are serialized per watch: at most one refresh_watch coroutine
    // runs at a time (in_flight), and setroots observed meanwhile coalesce
    // into a single follow-up pass (rerun). Without this, two refreshes can
    // interleave and deliver values out of commit order.
    bool in_flight = false;
    bool rerun = false;
  };

  /// The one body behind commit(txn) and fence(name, nprocs, txn): ship
  /// `txn` as a `topic` request (payload plus its "ops", objects as a
  /// bundle) and record the op under `kind`/`key` for the DST oracles.
  Task<CommitResult> ship_txn(std::string topic, Json payload, KvsTxn txn,
                              check::OpKind kind, std::string key);

  Task<void> refresh_watch(Watch* w);
  void on_setroot();
  Watch* find_watch(std::uint64_t id);

  /// Recorder helpers (no-ops when rec_ == nullptr).
  [[nodiscard]] std::vector<std::uint64_t> sample_vv() const;
  void record_setroot(const Message& ev);

  Handle& h_;
  KvsTxn txn_;
  std::uint64_t next_watch_ = 1;
  std::vector<std::unique_ptr<Watch>> watches_;
  std::shared_ptr<detail::WatchOwner> watch_state_;
  Subscription setroot_sub_;
  check::HistoryRecorder* rec_ = nullptr;
  int rec_client_ = -1;
  Subscription rec_sub_;
};

}  // namespace flux
