#include "modules/barrier.hpp"

#include "base/log.hpp"
#include "broker/broker.hpp"

namespace flux::modules {

Barrier::Barrier(Broker& b) : Module(b) {
  on("enter", [this](Message& m) {
    const std::string bname = m.payload().get_string("name");
    const std::int64_t nprocs = m.payload().get_int("nprocs", 0);
    if (bname.empty() || nprocs <= 0) {
      respond_error(m, errc::inval, "barrier: need name and nprocs > 0");
      return;
    }
    entered_.inc();
    barriers_[bname].waiters.push_back(m);
    enter(bname, nprocs, 1);
  });
  // Aggregated subtree counts from downstream instances.
  on("reduce", [this](Message& m) {
    const std::string bname = m.payload().get_string("name");
    const std::int64_t nprocs = m.payload().get_int("nprocs", 0);
    const std::int64_t count = m.payload().get_int("count", 0);
    if (bname.empty() || nprocs <= 0 || count <= 0) {
      log::error("barrier", "malformed reduce for '", bname, "'");
      return;
    }
    enter(bname, nprocs, count);
  });
  on("status", [this](Message& m) {
    Json names = Json::array();
    for (const auto& [bname, st] : barriers_) names.push_back(bname);
    respond_ok(m, Json::object({{"active", std::move(names)}}));
  });
  broker().module_subscribe(*this, "barrier.exit");
}

void Barrier::enter(const std::string& bname, std::int64_t nprocs,
                    std::int64_t count) {
  State& st = barriers_[bname];
  if (st.nprocs == 0) st.nprocs = nprocs;
  if (st.nprocs != nprocs)
    log::warn("barrier", "'", bname, "': inconsistent nprocs ", nprocs, " vs ",
              st.nprocs);
  st.pending += count;
  if (st.flush_scheduled) return;
  st.flush_scheduled = true;
  // Micro-batch: increments arriving in the same reactor turn coalesce into
  // one upstream message.
  broker().executor().post([this, bname] { flush(bname); });
}

void Barrier::flush(const std::string& bname) {
  auto it = barriers_.find(bname);
  if (it == barriers_.end()) return;
  State& st = it->second;
  st.flush_scheduled = false;
  if (st.pending == 0) return;

  if (broker().is_root()) {
    st.total += st.pending;
    st.pending = 0;
    if (st.total < st.nprocs) return;
    if (st.total > st.nprocs)
      log::warn("barrier", "'", bname, "': overshoot ", st.total, "/", st.nprocs);
    broker().publish("barrier.exit",
                     Json::object({{"name", bname}, {"nprocs", st.nprocs}}));
    return;
  }
  forwarded_.inc();
  Message reduce = Message::request(
      "barrier.reduce", Json::object({{"name", bname},
                                      {"nprocs", st.nprocs},
                                      {"count", st.pending}}));
  st.pending = 0;
  broker().forward_upstream(std::move(reduce));
}

void Barrier::handle_event(const Message& msg) {
  if (msg.topic != "barrier.exit") return;
  const std::string bname = msg.payload().get_string("name");
  auto it = barriers_.find(bname);
  if (it == barriers_.end()) return;
  State st = std::move(it->second);
  barriers_.erase(it);
  completed_.inc();
  for (const Message& waiter : st.waiters)
    broker().respond(waiter.respond(Json::object({{"name", bname}})));
}

}  // namespace flux::modules
