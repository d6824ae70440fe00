#include "modules/resvc.hpp"

#include <algorithm>

#include "api/handle.hpp"
#include "base/log.hpp"
#include "broker/broker.hpp"
#include "kvs/kvs_client.hpp"

namespace flux::modules {

Resvc::Resvc(Broker& b) : Module(b) {
  on("alloc", [this](Message& m) { op_alloc(m); });
  on("free", [this](Message& m) { op_free(m); });
  on("status", [this](Message& m) { op_status(m); });
  broker().module_subscribe(*this, "live.down");
  if (!broker().is_root()) return;
  const Json cfg = broker().module_config("resvc");
  cores_per_node_ = cfg.get_int("cores_per_node", 16);
  graph_ = ResourceGraph::build_center(
      "session", 1, 1, broker().size(), static_cast<unsigned>(cores_per_node_),
      static_cast<double>(kMemPerNodeGb));
  node_of_rank_ = graph_.find("node");  // creation order == rank order
  pool_ = std::make_unique<ResourcePool>(graph_);
}

Resvc::~Resvc() = default;

void Resvc::start() {
  if (!broker().is_root()) return;
  handle_ = std::make_unique<Handle>(broker());
  kvs_ = std::make_unique<KvsClient>(*handle_);
  if (!broker().module_config("resvc").get_bool("enumerate", true)) return;
  KvsTxn txn;
  for (NodeId r = 0; r < broker().size(); ++r)
    txn.put("resource.nodes.n" + std::to_string(r), node_record("up"));
  co_spawn(broker().executor(), commit(std::move(txn), "enumeration"),
           "resvc.enumerate");
}

std::vector<NodeId> Resvc::ranks_of(const Allocation& alloc) const {
  std::vector<NodeId> ranks;
  ranks.reserve(alloc.nodes.size());
  for (ResourceId n : alloc.nodes)
    ranks.push_back(static_cast<NodeId>(
        std::lower_bound(node_of_rank_.begin(), node_of_rank_.end(), n) -
        node_of_rank_.begin()));
  return ranks;
}

Json Resvc::node_record(std::string_view state) const {
  return Json::object({{"cores", cores_per_node_},
                       {"mem_gb", kMemPerNodeGb},
                       {"state", std::string(state)}});
}

Task<void> Resvc::commit(KvsTxn txn, std::string what) {
  try {
    (void)co_await kvs_->commit(std::move(txn));
  } catch (const FluxException& e) {
    log::warn("resvc", "failed to record ", what, ": ", e.what());
  }
}

void Resvc::op_alloc(Message& msg) {
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  const std::string jobid = msg.payload().get_string("jobid");
  ResourceRequest req;
  req.nnodes = msg.payload().get_int("nnodes", 1);
  if (jobid.empty() || req.nnodes <= 0) {
    respond_error(msg, errc::inval, "resvc.alloc: need jobid and nnodes > 0");
    return;
  }
  if (direct_.contains(jobid)) {
    respond_error(msg, errc::exist, "resvc.alloc: jobid already allocated");
    return;
  }
  Expected<Allocation> alloc = pool_->allocate(req);
  if (!alloc) {
    respond_error(msg, errc::no_spc, "resvc.alloc: insufficient free nodes");
    return;
  }
  direct_.emplace(jobid, alloc->id);
  Json ranks = Json::array();
  for (NodeId r : ranks_of(*alloc)) ranks.push_back(r);
  co_spawn(broker().executor(),
           record_alloc(std::move(msg), jobid, std::move(ranks)),
           "resvc.record");
}

Task<void> Resvc::record_alloc(Message req, std::string jobid, Json ranks) {
  KvsTxn txn;
  txn.put("lwj." + jobid + ".resources", ranks);
  co_await commit(std::move(txn), "allocation for " + jobid);
  respond_ok(req, Json::object({{"jobid", std::move(jobid)},
                                {"ranks", std::move(ranks)},
                                {"cores_per_node", cores_per_node_}}));
}

void Resvc::op_free(Message& msg) {
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  const std::string jobid = msg.payload().get_string("jobid");
  auto it = direct_.find(jobid);
  if (it == direct_.end()) {
    respond_error(msg, errc::noent, "resvc.free: no such allocation");
    return;
  }
  (void)pool_->release(it->second);
  direct_.erase(it);
  if (on_free_) on_free_();
  respond_ok(msg, Json::object({{"jobid", jobid}}));
}

void Resvc::op_status(Message& msg) {
  if (!broker().is_root()) {
    broker().forward_upstream(std::move(msg));
    return;
  }
  // Every live allocation: direct ones by jobid, scheduler-made ones by
  // their pool allocation id.
  std::map<std::uint64_t, std::string> label;
  for (const auto& [jobid, id] : direct_) label.emplace(id, jobid);
  Json jobs = Json::array();
  for (const auto& [id, alloc] : pool_->allocations()) {
    auto it = label.find(id);
    jobs.push_back(it != label.end() ? it->second
                                     : "alloc." + std::to_string(id));
  }
  respond_ok(msg,
             Json::object({{"total", broker().size()},
                           {"free", pool_->free_nodes()},
                           {"down", pool_->down_nodes()},
                           {"power_budget_w", pool_->power_budget()},
                           {"power_in_use_w", pool_->power_in_use()},
                           {"io_bw_budget_gbs", pool_->io_bw_budget()},
                           {"io_bw_in_use_gbs", pool_->io_bw_in_use()},
                           {"jobs", std::move(jobs)}}));
}

void Resvc::handle_event(const Message& msg) {
  if (msg.topic != "live.down" || !broker().is_root()) return;
  const auto rank = static_cast<NodeId>(msg.payload().get_int("rank", -1));
  if (rank >= broker().size()) return;
  pool_->mark_down(node_of_rank_[rank]);
  KvsTxn txn;
  txn.put("resource.nodes.n" + std::to_string(rank), node_record("down"));
  co_spawn(broker().executor(), commit(std::move(txn), "node state"),
           "resvc.down");
}

}  // namespace flux::modules
