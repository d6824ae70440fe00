#include "kvs/treeobj.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

namespace flux {

namespace {

// Content-addressed parse memo. Objects are immutable and identified by
// SHA1, so when the same serialized object reaches many brokers (a hot
// directory replicating through 512 slave caches), parsing it once is
// enough — the digest check still runs per call. Keyed weakly so retired
// objects do not accumulate: a sweep drops expired entries whenever the
// memo doubles past what the last sweep left alive, so the cost stays
// amortized O(1) per insert even when every object stays alive.
class ParseMemo {
 public:
  ObjPtr find(const Sha1& id) {
    std::lock_guard lk(mu_);
    auto it = memo_.find(id);
    if (it == memo_.end()) return nullptr;
    ObjPtr obj = it->second.lock();
    if (!obj) memo_.erase(it);
    return obj;
  }

  void insert(const ObjPtr& obj) {
    std::lock_guard lk(mu_);
    if (memo_.size() >= next_sweep_) sweep();
    memo_.insert_or_assign(obj->id, obj);
  }

 private:
  void sweep() {
    for (auto it = memo_.begin(); it != memo_.end();)
      it = it->second.expired() ? memo_.erase(it) : std::next(it);
    next_sweep_ = std::max(kMinSweep, 2 * memo_.size());
  }

  static constexpr std::size_t kMinSweep = 1 << 16;
  std::size_t next_sweep_ = kMinSweep;
  std::mutex mu_;
  std::unordered_map<Sha1, std::weak_ptr<const StoredObject>> memo_;
};

ParseMemo& parse_memo() {
  static ParseMemo memo;
  return memo;
}

}  // namespace

ObjPtr make_object(Json doc) {
  auto obj = std::make_shared<StoredObject>();
  obj->doc = std::move(doc);
  // Stored bytes live as long as the object: size exactly (dump_size is
  // allocation-free) so the retained buffer carries no growth slack.
  obj->bytes.reserve(obj->doc.dump_size());
  obj->doc.dump_into(obj->bytes);
  obj->id = Sha1::of(obj->bytes);
  parse_memo().insert(obj);
  return obj;
}

namespace {

/// The two-entry document {"<key>": payload, "t": type}, built by move: an
/// initializer list would deep-copy the payload (its elements are const).
/// `key` sorts before "t", so both emplaces append in canonical order.
Json typed_doc(const char* key, Json payload, const char* type) {
  JsonObject doc;
  doc.reserve(2);
  doc.emplace(key, std::move(payload));
  doc.emplace("t", type);
  return doc;
}

}  // namespace

ObjPtr make_val_object(Json value) {
  return make_object(typed_doc("d", std::move(value), "val"));
}

ObjPtr make_dir_object(JsonObject entries) {
  return make_object(typed_doc("e", std::move(entries), "dir"));
}

ObjPtr empty_dir_object() {
  static const ObjPtr empty = make_dir_object(JsonObject{});
  return empty;
}

ObjPtr parse_object(std::string bytes) {
  const Sha1 id = Sha1::of(bytes);
  if (ObjPtr hit = parse_memo().find(id)) return hit;
  auto parsed = Json::parse(bytes);
  if (!parsed) return nullptr;
  Json doc = std::move(parsed).value();
  const std::string t = doc.get_string("t");
  if (t == "val") {
    if (!doc.contains("d")) return nullptr;
  } else if (t == "dir") {
    if (!doc.at("e").is_object()) return nullptr;
    for (const auto& [name, ref] : doc.at("e").as_object())
      if (!ref.is_string() || !Sha1::parse(ref.as_string())) return nullptr;
  } else {
    return nullptr;
  }
  auto obj = std::make_shared<StoredObject>();
  obj->doc = std::move(doc);
  obj->bytes = std::move(bytes);
  obj->id = id;
  parse_memo().insert(obj);
  return obj;
}

std::vector<std::string> split_key(std::string_view key) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= key.size()) {
    const auto dot = key.find('.', start);
    const auto end = (dot == std::string_view::npos) ? key.size() : dot;
    if (end > start) out.emplace_back(key.substr(start, end - start));
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return out;
}

Json tuples_to_json(const std::vector<Tuple>& tuples) {
  Json arr = Json::array();
  for (const Tuple& t : tuples)
    arr.push_back(Json::array({t.key, t.ref.hex()}));
  return arr;
}

Expected<std::vector<Tuple>> tuples_from_json(const Json& array) {
  if (!array.is_array())
    return Error(errc::proto, "tuples: expected array");
  std::vector<Tuple> out;
  out.reserve(array.size());
  for (const Json& item : array.as_array()) {
    if (!item.is_array() || item.size() != 2 || !item.as_array()[0].is_string() ||
        !item.as_array()[1].is_string())
      return Error(errc::proto, "tuples: expected [key, refhex] pairs");
    auto ref = Sha1::parse(item.as_array()[1].as_string());
    if (!ref) return Error(errc::proto, "tuples: bad sha1 ref");
    out.push_back(Tuple{item.as_array()[0].as_string(), *ref});
  }
  return out;
}

}  // namespace flux
