#include "kvs/treeobj.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <unordered_map>

#include "base/hex.hpp"

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

// The fixed text around a value's payload and a directory's entries: the
// canonical serialization of {"d":...,"t":"val"} and {"e":{...},"t":"dir"}
// ("d" and "e" sort before "t").
constexpr std::string_view kValHead = R"({"d":)";
constexpr std::string_view kValTail = R"(,"t":"val"})";
constexpr std::string_view kDirHead = R"({"e":{)";
constexpr std::string_view kDirTail = R"(},"t":"dir"})";
constexpr std::size_t kQuotedHex = 2 * Sha1::kSize + 2;

ObjPtr store(const Sha1& id, std::string bytes,
             std::variant<Json, DirEntries> body) {
  auto obj = std::make_shared<StoredObject>();
  obj->id = id;
  obj->bytes = std::move(bytes);
  obj->body = std::move(body);
  parse_memo().insert(obj);
  return obj;
}

/// The canonical bytes of a directory. Stored bytes live as long as the
/// object: sized exactly, so the retained buffer carries no growth slack.
std::string encode_dir(const DirEntries& entries) {
  std::size_t n = kDirHead.size() + kDirTail.size();
  for (const DirEntry& e : entries)
    n += json_escaped_size(e.name) + 1 + kQuotedHex + 1;
  if (!entries.empty()) --n;  // no comma after the last entry
  std::string out;
  out.reserve(n);
  out += kDirHead;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) out.push_back(',');
    json_escape_to(out, entries[i].name);
    out += ":\"";
    hex_encode_to(out, entries[i].ref.raw());
    out.push_back('"');
  }
  out += kDirTail;
  return out;
}

/// Decode a directory's "e" member; nullopt unless every ref is a 40-hex
/// string. The names come out sorted: the parsed object keeps key order.
std::optional<DirEntries> decode_entries(JsonObject& e) {
  DirEntries entries;
  entries.reserve(e.size());
  for (auto& [name, ref] : e) {
    if (!ref.is_string()) return std::nullopt;
    const auto sha = Sha1::parse(ref.as_string());
    if (!sha) return std::nullopt;
    entries.push_back(DirEntry{std::move(name), *sha});
  }
  return entries;
}

}  // namespace

std::optional<Sha1> StoredObject::child(std::string_view name) const {
  const auto* entries = std::get_if<DirEntries>(&body);
  if (!entries) return std::nullopt;
  const auto it = std::lower_bound(
      entries->begin(), entries->end(), name,
      [](const DirEntry& e, std::string_view n) { return e.name < n; });
  if (it == entries->end() || it->name != name) return std::nullopt;
  return it->ref;
}

ObjPtr make_val_object(Json value) {
  std::string bytes;
  bytes.reserve(kValHead.size() + value.dump_size() + kValTail.size());
  bytes += kValHead;
  value.dump_into(bytes);
  bytes += kValTail;
  const Sha1 id = Sha1::of(bytes);
  return store(id, std::move(bytes), std::move(value));
}

ObjPtr make_dir_object(DirEntries entries) {
  assert(std::adjacent_find(entries.begin(), entries.end(),
                            [](const DirEntry& a, const DirEntry& b) {
                              return a.name >= b.name;
                            }) == entries.end());
  std::string bytes = encode_dir(entries);
  const Sha1 id = Sha1::of(bytes);
  return store(id, std::move(bytes), std::move(entries));
}

ObjPtr empty_dir_object() {
  static const ObjPtr empty = make_dir_object({});
  return empty;
}

ObjPtr parse_object(std::string bytes) {
  const Sha1 id = Sha1::of(bytes);
  if (ObjPtr hit = parse_memo().find(id)) return hit;
  auto parsed = Json::parse(bytes);
  if (!parsed) return nullptr;
  Json doc = std::move(parsed).value();
  const std::string t = doc.get_string("t");
  if (t != "val" && t != "dir") return nullptr;
  JsonObject& o = doc.as_object();
  if (t == "val") {
    auto d = o.find("d");
    if (d == o.end()) return nullptr;
    return store(id, std::move(bytes), std::move(d->second));
  }
  auto e = o.find("e");
  if (e == o.end() || !e->second.is_object()) return nullptr;
  auto entries = decode_entries(e->second.as_object());
  if (!entries) return nullptr;
  return store(id, std::move(bytes), std::move(*entries));
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
