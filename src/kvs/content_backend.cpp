#include "kvs/content_backend.hpp"

#include <cassert>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "base/error.hpp"
#include "json/json.hpp"

namespace flux {

namespace contentlog {

namespace {

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t get_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// First four digest bytes of SHA1 over the framed prefix (type || len ||
/// payload) — the record checksum.
std::uint32_t frame_check(std::string_view framed_prefix) {
  const Sha1 d = Sha1::of(framed_prefix);
  return get_u32le(d.raw().data());
}

}  // namespace

std::string header_bytes() {
  std::string out;
  out.reserve(kHeaderSize);
  out.append(kMagic);
  put_u32le(out, kFormatVersion);
  put_u32le(out, 0);  // reserved
  return out;
}

std::string frame(RecordType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameOverhead + payload.size());
  out.push_back(static_cast<char>(type));
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_u32le(out, frame_check(out));
  return out;
}

std::string root_payload(std::uint32_t shard, std::uint64_t version,
                         const Sha1& rootref) {
  return Json::object({{"rootref", rootref.hex()},
                       {"shard", static_cast<std::int64_t>(shard)},
                       {"version", static_cast<std::int64_t>(version)}})
      .dump();
}

std::string checkpoint_payload(const std::vector<Sha1>& rootrefs,
                               const std::vector<std::uint64_t>& vv) {
  Json refs = Json::array();
  for (const Sha1& r : rootrefs) refs.as_array().push_back(Json(r.hex()));
  Json versions = Json::array();
  for (std::uint64_t v : vv)
    versions.as_array().push_back(Json(static_cast<std::int64_t>(v)));
  return Json::object({{"rootrefs", std::move(refs)},
                       {"vv", std::move(versions)}})
      .dump();
}

}  // namespace contentlog

// ---------------------------------------------------------------------------
// FileLogBackend
// ---------------------------------------------------------------------------

using contentlog::RecordType;

FileLogBackend::FileLogBackend(std::string path, obs::StatsRegistry* registry,
                               std::string_view prefix)
    : own_registry_(registry ? nullptr : std::make_unique<obs::StatsRegistry>()),
      registry_(registry ? *registry : *own_registry_),
      path_(std::move(path)),
      objects_appended_(registry_.counter(std::string(prefix) + ".objects_appended")),
      roots_appended_(registry_.counter(std::string(prefix) + ".roots_appended")),
      checkpoints_(registry_.counter(std::string(prefix) + ".checkpoints")),
      syncs_(registry_.counter(std::string(prefix) + ".syncs")),
      synced_bytes_(registry_.counter(std::string(prefix) + ".synced_bytes")),
      compactions_(registry_.counter(std::string(prefix) + ".compactions")),
      compacted_bytes_(registry_.counter(std::string(prefix) + ".compacted_bytes")) {}

FileLogBackend::~FileLogBackend() {
  // Destruction without close() is the crash path (Broker::restart destroys
  // modules without shutdown): the unsynced tail is simply lost.
  open_ = false;
}

FileLogBackend::Recovered FileLogBackend::recover(ContentStore& into) {
  assert(!open_ && pending_.empty());
  Recovered rec;

  std::string data;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      data.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    }
  }

  if (data.size() < contentlog::kHeaderSize) {
    // Fresh (or hopelessly truncated) file: start over with a new header.
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out)
      throw FluxException(
          Error(errc::io, "content backend: cannot create " + path_));
    const std::string hdr = contentlog::header_bytes();
    out.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
    out.flush();
    if (!out)
      throw FluxException(
          Error(errc::io, "content backend: cannot write header to " + path_));
    rec.truncated_bytes = data.size();
    durable_bytes_ = hdr.size();
    open_ = true;
    return rec;
  }
  if (std::string_view(data).substr(0, contentlog::kMagic.size()) !=
      contentlog::kMagic)
    throw FluxException(
        Error(errc::inval, "content backend: bad magic in " + path_));

  // Scan records; stop at the first damaged frame (torn tail).
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t pos = contentlog::kHeaderSize;
  std::uint64_t birth = 0;  // version context for replayed objects
  into.set_birth_version(birth);
  while (pos + contentlog::kFrameOverhead <= data.size()) {
    const std::uint8_t type = bytes[pos];
    const std::uint32_t len = contentlog::get_u32le(bytes + pos + 1);
    if (type < 1 || type > 3 || len > contentlog::kMaxPayload) break;
    const std::size_t total = contentlog::kFrameOverhead + len;
    if (pos + total > data.size()) break;
    const std::string_view framed(data.data() + pos, total);
    const std::uint32_t want = contentlog::get_u32le(
        bytes + pos + total - 4);
    if (contentlog::frame_check(framed.substr(0, total - 4)) != want) break;
    const std::string_view payload = framed.substr(5, len);

    bool ok = false;
    switch (static_cast<RecordType>(type)) {
      case RecordType::object: {
        if (ObjPtr obj = parse_object(std::string(payload))) {
          into.put(std::move(obj));
          ++rec.objects;
          ok = true;
        }
        break;
      }
      case RecordType::root: {
        auto j = Json::parse(payload);
        if (!j.has_value()) break;
        const std::int64_t shard = j->get_int("shard", 0);
        const auto version =
            static_cast<std::uint64_t>(j->get_int("version", 0));
        auto ref = Sha1::parse(j->get_string("rootref"));
        // The shard index sizes the recovered vectors, so it must be in
        // range on its own — never trusted to bound an allocation.
        if (!ref || version == 0 || shard < 0 ||
            shard >= static_cast<std::int64_t>(contentlog::kMaxShards))
          break;
        if (static_cast<std::size_t>(shard) >= rec.roots.size()) {
          rec.roots.resize(static_cast<std::size_t>(shard) + 1);
          rec.versions.resize(static_cast<std::size_t>(shard) + 1, 0);
        }
        rec.roots[static_cast<std::size_t>(shard)] = *ref;
        rec.versions[static_cast<std::size_t>(shard)] = version;
        if (version > birth) into.set_birth_version(birth = version);
        ok = true;
        break;
      }
      case RecordType::checkpoint: {
        auto j = Json::parse(payload);
        if (!j.has_value() || !j->at("rootrefs").is_array() ||
            !j->at("vv").is_array())
          break;
        const auto& refs = j->at("rootrefs").as_array();
        const auto& vv = j->at("vv").as_array();
        if (refs.size() != vv.size()) break;
        std::vector<Sha1> roots;
        std::vector<std::uint64_t> versions;
        bool bad = false;
        for (std::size_t s = 0; s < refs.size(); ++s) {
          std::optional<Sha1> ref;
          if (refs[s].is_string() && vv[s].is_int())
            ref = Sha1::parse(refs[s].as_string());
          if (!ref) {
            bad = true;
            break;
          }
          roots.push_back(*ref);
          versions.push_back(static_cast<std::uint64_t>(vv[s].as_int()));
        }
        if (bad) break;
        rec.roots = std::move(roots);
        rec.versions = std::move(versions);
        rec.found_checkpoint = true;
        for (std::uint64_t v : rec.versions)
          if (v > birth) into.set_birth_version(birth = v);
        ok = true;
        break;
      }
    }
    if (!ok) break;  // checksummed but semantically bad: treat as torn
    pos += total;
  }

  if (pos < data.size()) {
    rec.truncated_bytes = data.size() - pos;
    std::error_code ec;
    std::filesystem::resize_file(path_, pos, ec);
    if (ec)
      throw FluxException(
          Error(errc::io, "content backend: cannot truncate " + path_));
  }
  durable_bytes_ = pos;
  open_ = true;
  return rec;
}

void FileLogBackend::buffer(std::string bytes) {
  if (!open_) return;  // crashed/closed: appends are dropped on the floor
  pending_ += bytes;
}

void FileLogBackend::write_durable(std::string_view bytes) {
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out)
    throw FluxException(
        Error(errc::io, "content backend: cannot open " + path_));
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out)
    throw FluxException(
        Error(errc::io, "content backend: write failed on " + path_));
  durable_bytes_ += bytes.size();
  synced_bytes_.inc(bytes.size());
}

void FileLogBackend::append_object(const StoredObject& obj) {
  if (!open_) return;
  buffer(contentlog::frame(RecordType::object, obj.bytes));
  objects_appended_.inc();
}

void FileLogBackend::append_root(std::uint32_t shard, std::uint64_t version,
                                 const Sha1& rootref) {
  if (!open_) return;
  buffer(contentlog::frame(RecordType::root,
                           contentlog::root_payload(shard, version, rootref)));
  roots_appended_.inc();
}

void FileLogBackend::append_checkpoint(const std::vector<Sha1>& rootrefs,
                                       const std::vector<std::uint64_t>& vv) {
  if (!open_) return;
  buffer(contentlog::frame(RecordType::checkpoint,
                           contentlog::checkpoint_payload(rootrefs, vv)));
  checkpoints_.inc();
}

void FileLogBackend::sync() {
  if (!open_ || pending_.empty()) {
    if (open_) syncs_.inc();
    return;
  }
  write_durable(pending_);
  pending_.clear();
  syncs_.inc();
}

void FileLogBackend::crash(std::uint64_t keep_unsynced_bytes) {
  if (!open_) return;
  const std::size_t keep = static_cast<std::size_t>(
      std::min<std::uint64_t>(keep_unsynced_bytes, pending_.size()));
  if (keep > 0)
    write_durable(std::string_view(pending_).substr(0, keep));
  pending_.clear();
  open_ = false;
}

void FileLogBackend::close() {
  if (!open_) return;
  sync();
  open_ = false;
}

void FileLogBackend::compact(const ContentStore& live,
                             const std::vector<Sha1>& rootrefs,
                             const std::vector<std::uint64_t>& vv) {
  if (!open_) return;
  sync();  // nothing buffered may be lost by the rewrite

  std::string fresh = contentlog::header_bytes();
  live.for_each([&fresh](const ObjPtr& obj, std::uint64_t) {
    fresh += contentlog::frame(RecordType::object, obj->bytes);
  });
  fresh += contentlog::frame(RecordType::checkpoint,
                             contentlog::checkpoint_payload(rootrefs, vv));

  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw FluxException(
          Error(errc::io, "content backend: cannot open " + tmp));
    out.write(fresh.data(), static_cast<std::streamsize>(fresh.size()));
    out.flush();
    if (!out)
      throw FluxException(
          Error(errc::io, "content backend: write failed on " + tmp));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path_, ec);
  if (ec)
    throw FluxException(
        Error(errc::io, "content backend: rename failed on " + path_));

  compactions_.inc();
  if (durable_bytes_ > fresh.size())
    compacted_bytes_.inc(durable_bytes_ - fresh.size());
  durable_bytes_ = fresh.size();
  checkpoints_.inc();
}

}  // namespace flux
