#include "sched/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace flux {

std::vector<std::size_t> FcfsPolicy::select(
    const std::vector<PendingJob>& queue, const SchedContext& ctx) const {
  std::vector<std::size_t> out;
  std::int64_t free_nodes = static_cast<std::int64_t>(ctx.pool.free_nodes());
  double power_left = ctx.pool.power_budget() - ctx.pool.power_in_use();
  double io_left = ctx.pool.io_bw_budget() - ctx.pool.io_bw_in_use();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const ResourceRequest& r = queue[i].request;
    if (r.nnodes > free_nodes || r.power_w > power_left ||
        r.io_bw_gbs > io_left)
      break;  // strict order: the head blocks everyone behind it
    out.push_back(i);
    free_nodes -= r.nnodes;
    power_left -= r.power_w;
    io_left -= r.io_bw_gbs;
  }
  return out;
}

std::vector<std::size_t> FirstFitPolicy::select(
    const std::vector<PendingJob>& queue, const SchedContext& ctx) const {
  std::vector<std::size_t> out;
  std::int64_t free_nodes = static_cast<std::int64_t>(ctx.pool.free_nodes());
  double power_left = ctx.pool.power_budget() - ctx.pool.power_in_use();
  double io_left = ctx.pool.io_bw_budget() - ctx.pool.io_bw_in_use();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const ResourceRequest& r = queue[i].request;
    if (r.nnodes > free_nodes || r.power_w > power_left ||
        r.io_bw_gbs > io_left)
      continue;
    out.push_back(i);
    free_nodes -= r.nnodes;
    power_left -= r.power_w;
    io_left -= r.io_bw_gbs;
  }
  return out;
}

std::vector<std::size_t> EasyBackfillPolicy::select(
    const std::vector<PendingJob>& queue, const SchedContext& ctx) const {
  std::vector<std::size_t> out;
  if (queue.empty()) return out;

  std::int64_t free_nodes = static_cast<std::int64_t>(ctx.pool.free_nodes());
  double power_left = ctx.pool.power_budget() - ctx.pool.power_in_use();
  double io_left = ctx.pool.io_bw_budget() - ctx.pool.io_bw_in_use();

  // Start in order while the head fits.
  std::size_t head = 0;
  while (head < queue.size()) {
    const ResourceRequest& r = queue[head].request;
    if (r.nnodes > free_nodes || r.power_w > power_left ||
        r.io_bw_gbs > io_left)
      break;
    out.push_back(head);
    free_nodes -= r.nnodes;
    power_left -= r.power_w;
    io_left -= r.io_bw_gbs;
    ++head;
  }
  if (head >= queue.size()) return out;

  // Blocked head: compute its shadow time — the earliest time running jobs
  // will have released enough nodes — and the extra nodes free at that
  // time. Jobs picked earlier in this very pass count as running too.
  std::vector<RunningJob> ends(ctx.running);
  for (std::size_t i : out)
    ends.push_back(RunningJob{queue[i].jobid, queue[i].request.nnodes,
                              ctx.now + queue[i].walltime});
  std::sort(ends.begin(), ends.end(),
            [](const RunningJob& a, const RunningJob& b) {
              return a.expected_end < b.expected_end;
            });
  std::int64_t avail = free_nodes;
  TimePoint shadow = ctx.now;
  const std::int64_t head_need = queue[head].request.nnodes;
  for (const RunningJob& rj : ends) {
    if (avail >= head_need) break;
    avail += rj.nnodes;
    shadow = rj.expected_end;
  }
  if (avail < head_need) return out;  // cannot even eventually fit (caller
                                      // rejects infeasible jobs up front)
  const std::int64_t spare_at_shadow = avail - head_need;

  // Backfill: a later job may start if it fits now AND will not delay the
  // reservation (finishes before the shadow time, or fits into the spare
  // nodes at the shadow time).
  for (std::size_t i = head + 1; i < queue.size(); ++i) {
    const PendingJob& job = queue[i];
    const ResourceRequest& r = job.request;
    if (r.nnodes > free_nodes || r.power_w > power_left ||
        r.io_bw_gbs > io_left)
      continue;
    const bool finishes_before = ctx.now + job.walltime <= shadow;
    const bool within_spare = r.nnodes <= spare_at_shadow;
    if (!finishes_before && !within_spare) continue;
    out.push_back(i);
    free_nodes -= r.nnodes;
    power_left -= r.power_w;
    io_left -= r.io_bw_gbs;
  }
  return out;
}

bool known_policy(std::string_view policy_name) noexcept {
  return policy_name == "fcfs" || policy_name == "firstfit" ||
         policy_name == "easy";
}

std::unique_ptr<Policy> make_policy(std::string_view policy_name) {
  if (policy_name == "fcfs") return std::make_unique<FcfsPolicy>();
  if (policy_name == "firstfit") return std::make_unique<FirstFitPolicy>();
  if (policy_name == "easy") return std::make_unique<EasyBackfillPolicy>();
  throw std::invalid_argument("unknown policy: " + std::string(policy_name));
}

}  // namespace flux
