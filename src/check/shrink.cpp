#include "check/shrink.hpp"

#include <memory>

#include "base/error.hpp"
#include "check/mutation.hpp"

namespace flux::check {

namespace {

Json strings_to_json(const std::vector<std::string>& v) {
  Json out = Json::array();
  for (const std::string& s : v) out.push_back(s);
  return out;
}

std::vector<std::string> strings_from_json(const Json& j) {
  std::vector<std::string> out;
  if (!j.is_array()) return out;
  for (const Json& s : j.as_array()) out.push_back(s.as_string());
  return out;
}

}  // namespace

Json Repro::to_json() const {
  return Json::object({{"seed", static_cast<std::int64_t>(seed)},
                       {"size", static_cast<std::int64_t>(opt.size)},
                       {"arity", static_cast<std::int64_t>(opt.arity)},
                       {"shards", static_cast<std::int64_t>(opt.shards)},
                       {"failover", opt.failover},
                       {"clients", opt.clients},
                       {"rounds", opt.rounds},
                       {"jitter_max_ns", opt.jitter_max.count()},
                       {"crashes", opt.crashes},
                       {"restarts", opt.restarts},
                       {"drops", opt.drops},
                       {"delays", opt.delays},
                       {"max_crashes", opt.max_crashes},
                       {"persist", opt.persist},
                       {"master_crash", opt.master_crash},
                       {"jobs", opt.jobs},
                       {"jobs_per_client", opt.jobs_per_client},
                       {"fault_plan", fault_plan},
                       {"mutations", strings_to_json(mutations)},
                       {"expect", strings_to_json(expect)}});
}

Repro Repro::from_json(const Json& j) {
  if (!j.is_object())
    throw FluxException(Error(errc::inval, "repro: not an object"));
  // An absent field keeps DstOptions' default, so older repro files load.
  const DstOptions d;
  Repro r;
  r.seed = static_cast<std::uint64_t>(j.get_int("seed", 1));
  r.opt.size = static_cast<std::uint32_t>(j.get_int("size", d.size));
  r.opt.arity = static_cast<std::uint32_t>(j.get_int("arity", d.arity));
  r.opt.shards = static_cast<std::uint32_t>(j.get_int("shards", d.shards));
  r.opt.failover = j.get_bool("failover", d.failover);
  r.opt.clients = static_cast<int>(j.get_int("clients", d.clients));
  r.opt.rounds = static_cast<int>(j.get_int("rounds", d.rounds));
  r.opt.jitter_max =
      Duration{j.get_int("jitter_max_ns", d.jitter_max.count())};
  r.opt.crashes = j.get_bool("crashes", d.crashes);
  r.opt.restarts = j.get_bool("restarts", d.restarts);
  r.opt.drops = j.get_bool("drops", d.drops);
  r.opt.delays = j.get_bool("delays", d.delays);
  r.opt.max_crashes = static_cast<int>(j.get_int("max_crashes", d.max_crashes));
  r.opt.persist = j.get_bool("persist", d.persist);
  r.opt.master_crash = j.get_bool("master_crash", d.master_crash);
  r.opt.jobs = j.get_bool("jobs", d.jobs);
  r.opt.jobs_per_client =
      static_cast<int>(j.get_int("jobs_per_client", d.jobs_per_client));
  r.fault_plan = j.at("fault_plan");
  r.mutations = strings_from_json(j.at("mutations"));
  r.expect = strings_from_json(j.at("expect"));
  return r;
}

DstResult replay(const Repro& r) {
  std::vector<std::unique_ptr<MutationGuard>> guards;
  guards.reserve(r.mutations.size());
  for (const std::string& m : r.mutations)
    guards.push_back(std::make_unique<MutationGuard>(m));
  return run_schedule(r.seed, r.opt, r.fault_plan);
}

Repro shrink(Repro failing, int max_rounds) {
  const auto fails = [](const Repro& c) { return replay(c).failed(); };

  bool progress = true;
  while (progress && max_rounds-- > 0) {
    progress = false;

    // Delete fault-plan components one at a time, back to front (so kept
    // indices stay valid across erases).
    for (const char* list : {"events", "links", "nth", "torn"}) {
      if (!failing.fault_plan.is_object() ||
          !failing.fault_plan.at(list).is_array())
        continue;
      for (std::size_t n = failing.fault_plan.at(list).size(); n-- > 0;) {
        Repro cand = failing;
        JsonArray& arr = cand.fault_plan[list].as_array();
        arr.erase(arr.begin() + static_cast<std::ptrdiff_t>(n));
        if (fails(cand)) {
          failing = std::move(cand);
          progress = true;
        }
      }
    }
    // A plan shrunk to nothing becomes "no plan at all".
    if (failing.fault_plan.is_object() &&
        failing.fault_plan.at("events").size() == 0 &&
        failing.fault_plan.at("links").size() == 0 &&
        failing.fault_plan.at("nth").size() == 0 &&
        failing.fault_plan.at("torn").size() == 0) {
      Repro cand = failing;
      cand.fault_plan = Json();
      if (fails(cand)) {
        failing = std::move(cand);
        progress = true;
      }
    }

    // Perturbation off: does the failure even need the jitter?
    if (failing.opt.jitter_max.count() > 0) {
      Repro cand = failing;
      cand.opt.jitter_max = Duration{0};
      if (fails(cand)) {
        failing = std::move(cand);
        progress = true;
      }
    }

    // Fewer workload rounds.
    while (failing.opt.rounds > 1) {
      Repro cand = failing;
      --cand.opt.rounds;
      if (!fails(cand)) break;
      failing = std::move(cand);
      progress = true;
    }
  }

  failing.expect = replay(failing).report.properties();
  return failing;
}

}  // namespace flux::check
