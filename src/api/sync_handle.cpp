#include "api/sync_handle.hpp"

#include <cassert>

#include "exec/thread_executor.hpp"
#include "obs/stats_client.hpp"

namespace flux {

namespace {
void assert_not_reactor(Executor& ex) {
  auto* tex = dynamic_cast<ThreadExecutor*>(&ex);
  assert((tex == nullptr || !tex->in_loop_thread()) &&
         "SyncHandle used from its own reactor thread");
  (void)tex;
}
}  // namespace

template <class T>
T SyncHandle::run(std::function<Task<T>()> make) {
  Executor& ex = session_.executor(rank_);
  assert_not_reactor(ex);
  Promise<T> promise(ex);
  ex.post([&ex, make = std::move(make), promise] {
    co_spawn(ex,
             [](std::function<Task<T>()> factory, Promise<T> p) -> Task<void> {
               try {
                 p.set_value(co_await factory());
               } catch (const FluxException& e) {
                 p.set_error(e.error());
               } catch (const std::exception& e) {
                 p.set_error(Error(errc::proto, e.what()));
               }
             }(std::move(make), promise),
             "sync-op");
  });
  return promise.future().wait();
}

SyncHandle::SyncHandle(Session& session, NodeId rank)
    : session_(session), rank_(rank) {
  Executor& ex = session_.executor(rank_);
  assert_not_reactor(ex);
  Promise<Unit> done(ex);
  ex.post([this, done] {
    handle_ = std::make_unique<Handle>(session_.broker(rank_));
    kvs_ = std::make_unique<KvsClient>(*handle_);
    done.set_value(Unit{});
  });
  done.future().wait();
}

SyncHandle::~SyncHandle() {
  Executor& ex = session_.executor(rank_);
  Promise<Unit> done(ex);
  ex.post([this, done] {
    kvs_.reset();
    handle_.reset();
    done.set_value(Unit{});
  });
  done.future().wait();
}

Message SyncHandle::send(RequestBuilder req) {
  return run<Message>([req = std::move(req)]() mutable -> Task<Message> {
    Message resp = co_await req.send();
    co_return resp;
  });
}

Message SyncHandle::call(RequestBuilder req) {
  Message resp = send(std::move(req));
  Handle::check(resp);
  return resp;
}

Json SyncHandle::ping(NodeId target) {
  return run<Json>([this, target]() { return handle_->ping(target); });
}

Json SyncHandle::stats(std::string service, bool all) {
  return run<Json>([this, service = std::move(service), all]() mutable {
    return obs::aggregate_stats(*handle_, std::move(service), all);
  });
}

void SyncHandle::barrier(std::string name, std::int64_t nprocs) {
  run<Unit>([this, name = std::move(name), nprocs]() -> Task<Unit> {
    co_await handle_->barrier(name, nprocs);
    co_return Unit{};
  });
}

void SyncHandle::publish(std::string topic, Json payload) {
  run<Unit>([this, topic = std::move(topic),
             payload = std::move(payload)]() mutable -> Task<Unit> {
    handle_->publish(std::move(topic), std::move(payload));
    co_return Unit{};
  });
}

void SyncHandle::kvs_put(std::string key, Json value) {
  run<Unit>([this, key = std::move(key),
             value = std::move(value)]() mutable -> Task<Unit> {
    co_await kvs_->put(std::move(key), std::move(value));
    co_return Unit{};
  });
}

void SyncHandle::kvs_unlink(std::string key) {
  run<Unit>([this, key = std::move(key)]() mutable -> Task<Unit> {
    co_await kvs_->unlink(std::move(key));
    co_return Unit{};
  });
}

Json SyncHandle::kvs_get(std::string key) {
  return run<Json>([this, key = std::move(key)]() mutable {
    return kvs_->get(std::move(key));
  });
}

std::vector<std::string> SyncHandle::kvs_list_dir(std::string key) {
  return run<std::vector<std::string>>([this, key = std::move(key)]() mutable {
    return kvs_->list_dir(std::move(key));
  });
}

CommitResult SyncHandle::kvs_commit() {
  return run<CommitResult>([this]() { return kvs_->commit(); });
}

CommitResult SyncHandle::kvs_fence(std::string name, std::int64_t nprocs) {
  return run<CommitResult>([this, name = std::move(name), nprocs]() mutable {
    return kvs_->fence(std::move(name), nprocs);
  });
}

std::uint64_t SyncHandle::kvs_get_version() {
  return run<std::uint64_t>([this]() { return kvs_->get_version(); });
}

void SyncHandle::kvs_wait_version(std::uint64_t version) {
  run<Unit>([this, version]() -> Task<Unit> {
    co_await kvs_->wait_version(version);
    co_return Unit{};
  });
}

}  // namespace flux
