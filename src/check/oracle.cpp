#include "check/oracle.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "obs/stats.hpp"

namespace flux::check {

namespace {

/// One value a writer put under a key, in staging order.
struct StagedWrite {
  std::size_t put_index;     ///< history index of the put record
  std::size_t commit_index;  ///< index of the commit/fence that carried it
  bool committed = false;    ///< that commit/fence succeeded
  Json value;
};

std::string vv_str(const std::vector<std::uint64_t>& vv) {
  std::string out = "[";
  for (std::size_t i = 0; i < vv.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(vv[i]);
  }
  return out + "]";
}

}  // namespace

std::vector<std::string> OracleReport::properties() const {
  std::set<std::string> props;
  for (const Violation& v : violations) props.insert(v.property);
  return {props.begin(), props.end()};
}

bool OracleReport::violates(std::string_view property) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.property == property; });
}

std::string OracleReport::to_string() const {
  if (ok()) return "oracle: ok";
  std::ostringstream os;
  os << "oracle: " << violations.size() << " violation(s)";
  for (const Violation& v : violations)
    os << "\n  [" << v.property << "] op#" << v.index << ": " << v.detail;
  return os.str();
}

OracleReport check_history(const std::vector<OpRecord>& ops,
                           const OracleOptions& opt, obs::StatsRegistry* stats) {
  OracleReport rep;
  const auto flag = [&](const char* prop, std::size_t idx, std::string detail) {
    if (stats) stats->counter(std::string("check.violation.") + prop).inc();
    rep.violations.push_back(Violation{prop, idx, std::move(detail)});
  };
  const std::set<int> tainted(opt.tainted_clients.begin(),
                              opt.tainted_clients.end());
  const auto ok_client = [&](int c) { return tainted.find(c) == tainted.end(); };

  // -- pass 1: associate staged puts with the commit/fence that carried them,
  // identify single-writer keys, and mark keys tainted by failed flushes.
  std::map<std::string, std::set<int>> writers;        // key -> writer clients
  std::map<std::string, std::vector<StagedWrite>> kv;  // key -> staged writes
  std::set<std::string> tainted_keys;  // a failed commit/fence touched these
  // Successful fence completion index per (fence name, client).
  std::map<std::string, std::map<int, std::size_t>> fence_acked;
  {
    // Puts staged by a client since its last commit/fence, as kv[] positions.
    std::map<int, std::vector<std::pair<std::string, std::size_t>>> pending;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const OpRecord& op = ops[i];
      switch (op.kind) {
        case OpKind::put: {
          writers[op.key].insert(op.client);
          kv[op.key].push_back(StagedWrite{i, 0, false, op.value});
          pending[op.client].emplace_back(op.key, kv[op.key].size() - 1);
          break;
        }
        case OpKind::commit:
        case OpKind::fence: {
          const bool good = op.err == errc::ok;
          for (const auto& [key, slot] : pending[op.client]) {
            StagedWrite& w = kv[key][slot];
            w.commit_index = i;
            w.committed = good;
            if (!good) tainted_keys.insert(key);
          }
          pending[op.client].clear();
          if (op.kind == OpKind::fence && good)
            fence_acked[op.key][op.client] = i;
          break;
        }
        default:
          break;
      }
    }
    // Puts never flushed: no visibility expectations, but they still count
    // as writes for the single-writer restriction (already in writers[]).
  }

  // Checkable key: exactly one writer, that writer untainted, and no failed
  // flush touched it.
  const auto checkable_key = [&](const std::string& key) -> int {
    const auto wit = writers.find(key);
    if (wit == writers.end() || wit->second.size() != 1) return -1;
    const int w = *wit->second.begin();
    if (!ok_client(w)) return -1;
    if (tainted_keys.count(key)) return -1;
    return w;
  };

  // Visibility index of staged write `w` (on a checkable key, writer wr) for
  // reader `c`: the point in the history after which c must see it.
  //   - reader == writer: the commit/fence record itself (read-your-writes);
  //   - reader != writer and the carrier was a fence the reader completed
  //     successfully too: the reader's own fence record (fence-atomicity);
  //   - otherwise: never guaranteed (eventual only) -> SIZE_MAX.
  const auto visible_at = [&](const StagedWrite& w, int wr,
                             int c) -> std::size_t {
    if (!w.committed) return SIZE_MAX;
    const OpRecord& carrier = ops[w.commit_index];
    if (c == wr) return w.commit_index;
    if (carrier.kind != OpKind::fence) return SIZE_MAX;
    const auto fit = fence_acked.find(carrier.key);
    if (fit == fence_acked.end()) return SIZE_MAX;
    const auto cit = fit->second.find(c);
    if (cit == fit->second.end()) return SIZE_MAX;
    return cit->second;
  };

  // -- pass 2: per-record checks ---------------------------------------------
  // monotonic-reads state: last observed vv per client.
  std::map<int, std::vector<std::uint64_t>> last_vv;
  // setroot-sequence state.
  std::map<int, std::uint64_t> last_seq;                       // per client
  std::map<int, std::map<std::int64_t, std::uint64_t>> last_ver;  // client -> shard -> version
  struct SeqFact {
    std::int64_t shard;
    std::uint64_t version;
    std::string ref;
  };
  std::map<std::uint64_t, SeqFact> seq_facts;  // global seq -> content
  // watch-order state: client -> key -> (last absent, last ref); plus a
  // cursor into the writer's staged values for the subsequence check.
  std::map<int, std::map<std::string, std::pair<bool, std::string>>> last_watch;
  std::map<int, std::map<std::string, std::size_t>> watch_cursor;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    if (!ok_client(op.client)) continue;

    // monotonic-reads: the completion-time sample must be component-wise >=
    // the client's previous completion-time sample. Only vv_end qualifies:
    // vv_begin is sampled when the op *starts*, but the record lands in the
    // history at completion, so a watch callback firing in between leaves a
    // fresher sample earlier in the log than a staler begin-sample — an
    // artifact of recording order, not a regression.
    for (const std::vector<std::uint64_t>* vv : {&op.vv_end}) {
      if (vv->empty()) continue;
      auto& prev = last_vv[op.client];
      if (prev.size() == vv->size()) {
        for (std::size_t s = 0; s < vv->size(); ++s) {
          if ((*vv)[s] < prev[s]) {
            flag("monotonic-reads", i,
                 "client " + std::to_string(op.client) + " " +
                     op_kind_name(op.kind).data() + ": local vv regressed " +
                     vv_str(prev) + " -> " + vv_str(*vv));
            break;
          }
        }
      }
      // Keep the component-wise max so one bad sample flags once, not on
      // every later op.
      if (prev.size() != vv->size()) {
        prev = *vv;
      } else {
        for (std::size_t s = 0; s < vv->size(); ++s)
          prev[s] = std::max(prev[s], (*vv)[s]);
      }
    }

    switch (op.kind) {
      case OpKind::get: {
        if (op.err != errc::ok && !op.absent) break;  // transport error
        const int wr = checkable_key(op.key);
        if (wr < 0) break;
        const auto kit = kv.find(op.key);
        if (kit == kv.end()) break;
        const std::vector<StagedWrite>& writes = kit->second;
        // The newest write that must be visible to this reader.
        std::size_t required = SIZE_MAX;  // index into writes
        for (std::size_t wi = 0; wi < writes.size(); ++wi) {
          if (visible_at(writes[wi], wr, op.client) < i) required = wi;
        }
        if (required == SIZE_MAX) break;  // nothing guaranteed yet
        const char* prop =
            op.client == wr ? "read-your-writes" : "fence-atomicity";
        if (op.absent) {
          flag(prop, i,
               "client " + std::to_string(op.client) + " get '" + op.key +
                   "': absent after a completed " +
                   std::string(op_kind_name(ops[writes[required].commit_index].kind)) +
                   " made it visible");
          break;
        }
        // Allowed observations: the required value or any later staged value
        // whose put preceded this get (a newer commit racing in is fine —
        // monotonic, not stale).
        bool allowed = false;
        for (std::size_t wi = required; wi < writes.size(); ++wi) {
          if (wi > required && writes[wi].put_index >= i) break;
          if (writes[wi].value == op.value) {
            allowed = true;
            break;
          }
        }
        if (!allowed)
          flag(prop, i,
               "client " + std::to_string(op.client) + " get '" + op.key +
                   "': observed a stale value (expected write #" +
                   std::to_string(required) + " of the key's " +
                   std::to_string(writes.size()) + ")");
        break;
      }

      case OpKind::commit:
      case OpKind::fence: {
        // Read-your-writes at the response boundary: the local instance must
        // have adopted the committed root before the client saw the result.
        if (op.err != errc::ok) break;
        if (!op.result_vv.empty() && op.vv_end.size() == op.result_vv.size()) {
          for (std::size_t s = 0; s < op.result_vv.size(); ++s) {
            if (op.vv_end[s] < op.result_vv[s]) {
              flag("read-your-writes", i,
                   "client " + std::to_string(op.client) + " " +
                       std::string(op_kind_name(op.kind)) +
                       ": local vv " + vv_str(op.vv_end) +
                       " behind committed vv " + vv_str(op.result_vv) +
                       " at response time");
              break;
            }
          }
        }
        break;
      }

      case OpKind::setroot: {
        if (op.err != errc::ok) break;  // malformed event payload
        auto [sit, fresh] = last_seq.emplace(op.client, op.seq);
        if (!fresh) {
          if (op.seq <= sit->second)
            flag("setroot-sequence", i,
                 "client " + std::to_string(op.client) +
                     ": event seq went " + std::to_string(sit->second) +
                     " -> " + std::to_string(op.seq));
          sit->second = std::max(sit->second, op.seq);
        }
        auto& per_shard = last_ver[op.client];
        auto [vit, first] = per_shard.emplace(op.shard, op.version);
        if (!first) {
          if (op.version <= vit->second)
            flag("setroot-sequence", i,
                 "client " + std::to_string(op.client) + ": shard " +
                     std::to_string(op.shard) + " setroot version went " +
                     std::to_string(vit->second) + " -> " +
                     std::to_string(op.version));
          vit->second = std::max(vit->second, op.version);
        }
        // Cross-observer agreement: one global seq, one content.
        auto [fit, unseen] =
            seq_facts.emplace(op.seq, SeqFact{op.shard, op.version, op.ref});
        if (!unseen && (fit->second.shard != op.shard ||
                        fit->second.version != op.version ||
                        fit->second.ref != op.ref))
          flag("setroot-sequence", i,
               "event seq " + std::to_string(op.seq) +
                   " observed with conflicting contents across clients");
        break;
      }

      case OpKind::watch: {
        auto& prev = last_watch[op.client];
        const auto wit = prev.find(op.key);
        if (wit != prev.end() && wit->second.first == op.absent &&
            wit->second.second == op.ref)
          flag("watch-order", i,
               "client " + std::to_string(op.client) + " watch '" + op.key +
                   "': callback re-fired for unchanged ref '" + op.ref + "'");
        prev[op.key] = {op.absent, op.ref};

        // Value ordering: observed values must follow the writer's staging
        // order (watch coalescing may skip, never reorder).
        if (op.absent || op.value.is_null()) break;
        const int wr = checkable_key(op.key);
        if (wr < 0) break;
        const auto kit = kv.find(op.key);
        if (kit == kv.end()) break;
        const std::vector<StagedWrite>& writes = kit->second;
        std::size_t& cur = watch_cursor[op.client][op.key];
        std::size_t match = SIZE_MAX;
        for (std::size_t wi = cur; wi < writes.size(); ++wi) {
          if (writes[wi].value == op.value) {
            match = wi;
            break;
          }
        }
        if (match == SIZE_MAX) {
          flag("watch-order", i,
               "client " + std::to_string(op.client) + " watch '" + op.key +
                   "': delivered a value out of the writer's commit order");
        } else {
          cur = match + 1;
        }
        break;
      }

      default:
        break;
    }
  }

  return rep;
}

}  // namespace flux::check
