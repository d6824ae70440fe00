#include "kvs/kvs_client.hpp"

#include <algorithm>

#include "base/log.hpp"
#include "check/history.hpp"
#include "check/mutation.hpp"
#include "kvs/kvs_module.hpp"
#include "kvs/object_bundle.hpp"

namespace flux {

namespace {
void check_key(std::string_view op, std::string_view key) {
  if (key.empty() || split_key(key).empty())
    throw FluxException(
        Error(errc::inval, std::string(op) + ": empty key"));
}

CommitResult parse_commit_result(const Message& resp) {
  CommitResult out{
      static_cast<std::uint64_t>(resp.payload().get_int("version")),
      resp.payload().get_string("rootref"),
      {}};
  const Json& vv = resp.payload().at("vv");
  if (vv.is_array())
    for (const Json& v : vv.as_array())
      out.vv.push_back(static_cast<std::uint64_t>(v.as_int()));
  return out;
}
}  // namespace

KvsTxn& KvsTxn::put(std::string key, Json value) {
  check_key("put", key);
  ObjPtr obj = make_val_object(std::move(value));
  tuples_.push_back(Tuple{std::move(key), obj->id});
  objects_.push_back(std::move(obj));
  return *this;
}

KvsTxn& KvsTxn::unlink(std::string key) {
  check_key("unlink", key);
  tuples_.push_back(Tuple{std::move(key), Sha1{}});
  return *this;
}

KvsTxn& KvsTxn::mkdir(std::string key) {
  check_key("mkdir", key);
  ObjPtr obj = empty_dir_object();
  tuples_.push_back(Tuple{std::move(key), obj->id});
  objects_.push_back(std::move(obj));
  return *this;
}

void WatchHandle::reset() noexcept {
  if (id_ == 0) return;
  if (auto s = state_.lock(); s && s->owner) s->owner->unwatch_impl(id_);
  id_ = 0;
  state_.reset();
}

KvsClient::~KvsClient() {
  // Outstanding WatchHandle guards become no-ops; setroot_sub_ (an RAII
  // Subscription) detaches from the Handle on member destruction.
  watch_state_->owner = nullptr;
}

// ---------------------------------------------------------------------------
// DST history recording (check/history.hpp). All taps are dead when rec_ is
// null — the always case outside the simulation test harness.
// ---------------------------------------------------------------------------

void KvsClient::set_recorder(check::HistoryRecorder* rec, int client) {
  rec_ = rec;
  rec_client_ = client;
  if (rec_) {
    if (!rec_sub_)
      rec_sub_ = h_.subscribe(
          "kvs.setroot", [this](const Message& ev) { record_setroot(ev); });
  } else {
    rec_sub_ = Subscription{};
  }
}

std::vector<std::uint64_t> KvsClient::sample_vv() const {
  auto* mod = dynamic_cast<KvsModule*>(h_.broker().find_module("kvs"));
  if (!mod) return {};
  return mod->shard_versions();
}

void KvsClient::record_setroot(const Message& ev) {
  if (!rec_) return;
  check::OpRecord r;
  r.client = rec_client_;
  r.kind = check::OpKind::setroot;
  r.seq = ev.seq;
  r.t_ns = h_.executor().now().count();
  constexpr std::string_view prefix = "kvs.setroot.";
  if (ev.topic.size() > prefix.size() && ev.topic.starts_with(prefix))
    r.shard = std::strtoll(ev.topic.c_str() + prefix.size(), nullptr, 10);
  try {
    r.version = static_cast<std::uint64_t>(ev.payload().get_int("version"));
    r.ref = ev.payload().get_string("rootref");
  } catch (const FluxException& e) {
    r.err = e.error().code;
  }
  rec_->record(std::move(r));
}

Task<void> KvsClient::put(std::string key, Json value) {
  if (rec_) {
    // The staged write is the client-visible "I wrote this" moment; the
    // kvs.stage RPC below only positions the value object.
    check::OpRecord r;
    r.client = rec_client_;
    r.kind = check::OpKind::put;
    r.key = key;
    r.value = value;
    r.vv_begin = sample_vv();
    r.vv_end = r.vv_begin;
    r.t_ns = h_.executor().now().count();
    rec_->record(std::move(r));
  }
  txn_.put(std::move(key), std::move(value));
  // Write-back caching (paper §IV-B): the value object is shipped to the
  // nearest KVS instance at put() time so it is already positioned when the
  // commit/fence flushes; the (key, ref) tuple stays staged client-side.
  // Put latency is this one RPC — the paper's kvs_put cost.
  std::vector<ObjPtr> objs;
  objs.push_back(txn_.objects_.back());
  RequestBuilder req = h_.request("kvs.stage");
  req.attachment(std::make_shared<ObjectBundle>(std::move(objs)));
  (void)co_await req.call();
}

Task<void> KvsClient::unlink(std::string key) {
  txn_.unlink(std::move(key));
  co_return;
}

Task<void> KvsClient::mkdir(std::string key) {
  txn_.mkdir(std::move(key));
  co_return;
}

Task<CommitResult> KvsClient::ship_txn(std::string topic, Json payload,
                                       KvsTxn txn, check::OpKind kind,
                                       std::string key) {
  check::OpRecord r;
  if (rec_) {
    r.client = rec_client_;
    r.kind = kind;
    r.key = std::move(key);
    r.vv_begin = sample_vv();
    r.t_ns = h_.executor().now().count();
  }
  payload["ops"] = tuples_to_json(txn.tuples_);
  RequestBuilder req = h_.request(std::move(topic)).payload(std::move(payload));
  if (!txn.objects_.empty())
    req.attachment(std::make_shared<ObjectBundle>(std::move(txn.objects_)));
  try {
    Message resp = co_await req.call();
    CommitResult res = parse_commit_result(resp);
    if (rec_) {
      r.result_version = res.version;
      r.result_vv = res.vv;
      r.ref = res.rootref;
      r.vv_end = sample_vv();
      rec_->record(std::move(r));
    }
    co_return res;
  } catch (const FluxException& e) {
    if (rec_) {
      r.err = e.error().code;
      r.vv_end = sample_vv();
      rec_->record(std::move(r));
    }
    throw;
  }
}

Task<CommitResult> KvsClient::commit(KvsTxn txn) {
  return ship_txn("kvs.commit", Json::object(), std::move(txn),
                  check::OpKind::commit, {});
}

Task<CommitResult> KvsClient::commit() {
  KvsTxn staged = std::move(txn_);
  txn_ = KvsTxn{};
  return commit(std::move(staged));
}

Task<CommitResult> KvsClient::fence(std::string name, std::int64_t nprocs,
                                    KvsTxn txn) {
  Json payload = Json::object({{"name", name}, {"nprocs", nprocs}});
  return ship_txn("kvs.fence", std::move(payload), std::move(txn),
                  check::OpKind::fence, std::move(name));
}

Task<CommitResult> KvsClient::fence(std::string name, std::int64_t nprocs) {
  KvsTxn staged = std::move(txn_);
  txn_ = KvsTxn{};
  return fence(std::move(name), nprocs, std::move(staged));
}

Task<Json> KvsClient::get(std::string key) {
  check::OpRecord r;
  if (rec_) {
    r.client = rec_client_;
    r.kind = check::OpKind::get;
    r.key = key;
    r.vv_begin = sample_vv();
    r.t_ns = h_.executor().now().count();
  }
  Json payload = Json::object({{"key", std::move(key)}});
  try {
    Message resp =
        co_await h_.request("kvs.get").payload(std::move(payload)).call();
    if (!resp.data())
      throw FluxException(Error(errc::proto, "kvs.get: response without data"));
    ObjPtr obj = parse_object(*resp.data());
    if (!obj || !obj->is_val())
      throw FluxException(
          Error(errc::proto, "kvs.get: malformed value object"));
    if (rec_) {
      r.value = obj->value();
      r.vv_end = sample_vv();
      rec_->record(std::move(r));
    }
    co_return obj->value();
  } catch (const FluxException& e) {
    if (rec_) {
      r.err = e.error().code;
      r.absent = e.error().code == errc::noent;
      r.vv_end = sample_vv();
      rec_->record(std::move(r));
    }
    throw;
  }
}

Task<std::vector<std::string>> KvsClient::list_dir(std::string key) {
  Json payload = Json::object({{"key", std::move(key)}, {"dir", true}});
  Message resp =
      co_await h_.request("kvs.get").payload(std::move(payload)).call();
  std::vector<std::string> names;
  for (const Json& n : resp.payload().at("entries").as_array())
    names.push_back(n.as_string());
  std::sort(names.begin(), names.end());
  co_return names;
}

Task<std::string> KvsClient::lookup_ref(std::string key) {
  Json payload = Json::object({{"key", std::move(key)}});
  Message resp =
      co_await h_.request("kvs.lookup_ref").payload(std::move(payload)).call();
  co_return resp.payload().get_string("ref");
}

Task<std::uint64_t> KvsClient::get_version() {
  Message resp = co_await h_.request("kvs.get_version").call();
  co_return static_cast<std::uint64_t>(resp.payload().get_int("version"));
}

Task<void> KvsClient::wait_version(std::uint64_t version) {
  Json payload = Json::object({{"version", version}});
  (void)co_await
      h_.request("kvs.wait_version").payload(std::move(payload)).call();
}

// ---------------------------------------------------------------------------
// Watch
// ---------------------------------------------------------------------------

WatchHandle KvsClient::watch(std::string key, WatchFn cb) {
  if (!setroot_sub_) {
    // Prefix subscription: matches the single-master "kvs.setroot" and every
    // sharded "kvs.setroot.<s>" (including failover announcements).
    setroot_sub_ = h_.subscribe("kvs.setroot",
                                [this](const Message&) { on_setroot(); });
  }
  auto w = std::make_unique<Watch>();
  w->id = next_watch_++;
  w->key = std::move(key);
  w->fn = std::move(cb);
  Watch* raw = w.get();
  watches_.push_back(std::move(w));
  co_spawn(h_.executor(), refresh_watch(raw), "kvs.watch");
  return WatchHandle(watch_state_, raw->id);
}

void KvsClient::unwatch_impl(std::uint64_t id) {
  std::erase_if(watches_,
                [id](const std::unique_ptr<Watch>& w) { return w->id == id; });
}

void KvsClient::on_setroot() {
  for (auto& w : watches_) {
    if (w->in_flight)
      w->rerun = true;  // coalesce: the in-flight refresh re-runs on exit
    else
      co_spawn(h_.executor(), refresh_watch(w.get()), "kvs.watch");
  }
}

KvsClient::Watch* KvsClient::find_watch(std::uint64_t id) {
  auto it = std::find_if(watches_.begin(), watches_.end(),
                         [id](const auto& p) { return p->id == id; });
  return it == watches_.end() ? nullptr : it->get();
}

Task<void> KvsClient::refresh_watch(Watch* w) {
  const std::uint64_t id = w->id;
  w->in_flight = true;

  // One-RPC snapshot: the get response carries the terminal ref alongside
  // the value frame, both taken from a single walk of a single root, so the
  // delivered value is exactly the content of the delivered ref.
  std::optional<std::string> ref;
  std::optional<Json> value;
  bool deliverable = true;
  bool want_ref_fallback = false;  // key exists but is not a plain value
  try {
    Json payload = Json::object({{"key", w->key}});
    Message resp =
        co_await h_.request("kvs.get").payload(std::move(payload)).call();
    ref = resp.payload().get_string("ref");
    ObjPtr obj = resp.data() ? parse_object(*resp.data()) : nullptr;
    value = (obj && obj->is_val()) ? obj->value() : Json();
  } catch (const FluxException& e) {
    if (e.error().code == errc::noent) {
      ref = std::nullopt;  // key (currently) absent
    } else if (e.error().code == errc::is_dir ||
               e.error().code == errc::not_dir) {
      want_ref_fallback = true;
    } else {
      // Transient failure (master down, dropped RPC): deliver nothing — a
      // synthetic "absent" would be indistinguishable from a real delete.
      deliverable = false;
    }
  }
  if (want_ref_fallback) {
    // Directory (or path crossing a value): report existence only.
    try {
      ref = co_await lookup_ref(w->key);
      value = Json();
    } catch (const FluxException&) {
      deliverable = false;  // raced away mid-refresh; next setroot retries
    }
  }

  // The watch may have been cancelled while the fetch was in flight, and
  // `fn` below may unwatch: always re-resolve by id before touching *w.
  w = find_watch(id);
  if (w == nullptr) co_return;

  if (deliverable) {
    const bool changed = !w->first_fired || ref != w->last_ref ||
                         check::mutation("kvs.watch_refire");
    w->first_fired = true;
    w->last_ref = ref;
    if (changed) {
      if (rec_) {
        check::OpRecord r;
        r.client = rec_client_;
        r.kind = check::OpKind::watch;
        r.key = w->key;
        if (ref) r.ref = *ref;
        r.absent = !ref;
        if (value) r.value = *value;
        r.vv_end = sample_vv();
        r.t_ns = h_.executor().now().count();
        rec_->record(std::move(r));
      }
      w->fn(ref ? value : std::nullopt);
      w = find_watch(id);
      if (w == nullptr) co_return;
    }
  }

  w->in_flight = false;
  if (w->rerun) {
    w->rerun = false;
    co_spawn(h_.executor(), refresh_watch(w), "kvs.watch");
  }
}

}  // namespace flux
