// Scheduling policies.
//
// §III: "higher-level schedulers must allow a site to impose site-wide
// policies ... while lower-level schedulers should allow efficient use of
// any subsets of resources in accordance with workload types." Policies are
// pluggable per instance; FCFS (strict), first-fit, and EASY backfill are
// provided.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/executor.hpp"
#include "resource/pool.hpp"

namespace flux {

struct PendingJob {
  std::uint64_t jobid = 0;
  ResourceRequest request;
  Duration walltime{0};
  TimePoint submit_time{0};
  int priority = 0;
};

struct RunningJob {
  std::uint64_t jobid = 0;
  std::int64_t nnodes = 0;
  TimePoint expected_end{0};
};

struct SchedContext {
  const ResourcePool& pool;
  TimePoint now{0};
  const std::vector<RunningJob>& running;
};

class Policy {
 public:
  virtual ~Policy() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Queue positions (ascending FIFO order input) to start now, in start
  /// order. The scheduler re-checks fits_now before each start.
  [[nodiscard]] virtual std::vector<std::size_t> select(
      const std::vector<PendingJob>& queue, const SchedContext& ctx) const = 0;
};

/// Strict FCFS: start jobs in order; stop at the first that does not fit.
class FcfsPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "fcfs"; }
  [[nodiscard]] std::vector<std::size_t> select(
      const std::vector<PendingJob>& queue,
      const SchedContext& ctx) const override;
};

/// First-fit: scan the whole queue, starting anything that fits (can starve
/// wide jobs — kept as a baseline for the backfill comparison).
class FirstFitPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "firstfit"; }
  [[nodiscard]] std::vector<std::size_t> select(
      const std::vector<PendingJob>& queue,
      const SchedContext& ctx) const override;
};

/// EASY backfill: the head job gets a node-count reservation at the shadow
/// time; later jobs may start only if they fit now and either finish before
/// the shadow time or leave the reservation intact.
class EasyBackfillPolicy final : public Policy {
 public:
  [[nodiscard]] std::string_view name() const override { return "easy"; }
  [[nodiscard]] std::vector<std::size_t> select(
      const std::vector<PendingJob>& queue,
      const SchedContext& ctx) const override;
};

/// Factory by name ("fcfs", "firstfit", "easy"); throws
/// std::invalid_argument for any other name.
std::unique_ptr<Policy> make_policy(std::string_view policy_name);
/// True for the names make_policy() accepts.
bool known_policy(std::string_view policy_name) noexcept;

}  // namespace flux
