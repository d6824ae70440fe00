// Blocking facade over the async Handle API for threaded sessions.
//
// Ordinary (non-reactor) threads — example main()s, the flux CLI — call
// these methods; each call posts a coroutine onto the broker's reactor and
// blocks on its future. Never call from a reactor thread (it would deadlock
// waiting on itself); an assertion guards this in debug builds.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/handle.hpp"
#include "broker/session.hpp"
#include "kvs/kvs_client.hpp"

namespace flux {

class SyncHandle {
 public:
  /// Attach to the broker at `rank` (handle creation itself runs on the
  /// broker's reactor).
  SyncHandle(Session& session, NodeId rank);
  ~SyncHandle();
  SyncHandle(const SyncHandle&) = delete;
  SyncHandle& operator=(const SyncHandle&) = delete;

  [[nodiscard]] NodeId rank() const noexcept { return rank_; }
  [[nodiscard]] std::uint32_t size() const noexcept { return session_.size(); }
  /// The underlying async handle (only touch it from the reactor).
  [[nodiscard]] Handle& async() noexcept { return *handle_; }

  /// Blocking mirror of Handle::request():
  ///   sh.request("kvs.get").payload(j).to(rank).get()
  /// .get() blocks for the raw response; .call() additionally throws
  /// FluxException if the response carries an error.
  class Request {
   public:
    Request& to(NodeId rank) noexcept {
      nodeid_ = rank;
      return *this;
    }
    Request& payload(Json j) {
      payload_ = std::move(j);
      return *this;
    }
    Request& data(std::shared_ptr<const std::string> d) noexcept {
      data_ = std::move(d);
      return *this;
    }
    Request& timeout(Duration d) noexcept {
      timeout_ = d;
      return *this;
    }
    /// Mirror of RequestBuilder::retry(): retry timed-out / host-down
    /// attempts with exponential backoff (needs a timeout, per-request or
    /// session default).
    Request& retry(int n, Duration backoff = std::chrono::milliseconds(1)) noexcept {
      retries_ = n;
      backoff_ = backoff;
      return *this;
    }
    /// Disable retries and the default deadline for this request.
    Request& no_retry() noexcept {
      retries_ = 0;
      timeout_ = Duration{-1};
      return *this;
    }
    Request& trace(bool on = true) noexcept {
      trace_ = on;
      return *this;
    }
    Message get();   ///< block for the raw response
    Message call();  ///< get() + Handle::check()

   private:
    friend class SyncHandle;
    Request(SyncHandle& h, std::string topic)
        : h_(&h), topic_(std::move(topic)) {}

    SyncHandle* h_;
    std::string topic_;
    Json payload_;
    NodeId nodeid_ = kNodeAny;
    std::shared_ptr<const std::string> data_;
    Duration timeout_{0};  // 0 = inherit; <0 = explicitly none
    int retries_ = -1;     // -1 = inherit
    Duration backoff_{0};
    bool trace_ = false;
  };

  [[nodiscard]] Request request(std::string topic) {
    return Request(*this, std::move(topic));
  }

  /// Deprecated: thin wrapper over request(topic).payload(p).get().
  Message rpc(std::string topic, Json payload = Json::object());
  Json ping(NodeId target);
  /// Session-wide merged stats snapshot (obs::aggregate_stats).
  Json stats(std::string service, bool all = false);
  void barrier(std::string name, std::int64_t nprocs);
  void publish(std::string topic, Json payload = Json::object());

  // KVS convenience (mirrors KvsClient).
  void kvs_put(std::string key, Json value);
  void kvs_unlink(std::string key);
  Json kvs_get(std::string key);
  std::vector<std::string> kvs_list_dir(std::string key);
  CommitResult kvs_commit();
  CommitResult kvs_fence(std::string name, std::int64_t nprocs);
  std::uint64_t kvs_get_version();
  void kvs_wait_version(std::uint64_t version);

 private:
  friend class Request;

  /// Run a coroutine factory on the reactor; block for its result.
  template <class T>
  T run(std::function<Task<T>()> make);

  Session& session_;
  NodeId rank_;
  std::unique_ptr<Handle> handle_;
  std::unique_ptr<KvsClient> kvs_;
};

}  // namespace flux
