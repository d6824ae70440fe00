// Blocking facade over the async Handle API for threaded sessions.
//
// Ordinary (non-reactor) threads — example main()s, the flux CLI — call
// these methods; each call posts a coroutine onto the broker's reactor and
// blocks on its future. Never call from a reactor thread (it would deadlock
// waiting on itself); an assertion guards this in debug builds. Requests are
// built with the async API's RequestBuilder (request()) and sent through the
// blocking terminals send()/call().
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
  /// Start a request with the same fluent RequestBuilder the async API
  /// uses. Building only fills in a Message, so it is safe off the reactor;
  /// hand the finished builder to send() or call(), which run it there:
  ///   Message r = sh.call(sh.request("kvs.get").payload(j).to(rank));
  [[nodiscard]] RequestBuilder request(std::string topic) {
    return handle_->request(std::move(topic));
  }
  /// Send `req` and block for the raw response (errnum may be set); throws
  /// FluxException only on a local failure (timeout, broker down).
  Message send(RequestBuilder req);
  /// send() + Handle::check(): also throws FluxException if the response
  /// carries an error.
  Message call(RequestBuilder req);

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
  /// Run a coroutine factory on the reactor; block for its result.
  template <class T>
  T run(std::function<Task<T>()> make);

  Session& session_;
  NodeId rank_;
  std::unique_ptr<Handle> handle_;
  std::unique_ptr<KvsClient> kvs_;
};

}  // namespace flux
