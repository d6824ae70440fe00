#include "kvs/object_bundle.hpp"

#include <algorithm>

#include "msg/codec.hpp"

namespace flux {

std::size_t ObjectBundle::wire_size() const {
  std::size_t n = 4;  // count
  for (const ObjPtr& o : objects_) n += 4 + o->size();
  return n;
}

namespace {
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
bool read_u32(std::string_view body, std::size_t& pos, std::uint32_t& v) {
  if (pos + 4 > body.size()) return false;
  v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) |
        static_cast<std::uint8_t>(body[pos + static_cast<std::size_t>(i)]);
  pos += 4;
  return true;
}
}  // namespace

std::string ObjectBundle::serialize() const {
  std::string out;
  out.reserve(wire_size());
  put_u32(out, static_cast<std::uint32_t>(objects_.size()));
  for (const ObjPtr& o : objects_) {
    put_u32(out, static_cast<std::uint32_t>(o->size()));
    out += o->bytes;
  }
  return out;
}

Expected<std::shared_ptr<const Attachment>> ObjectBundle::deserialize(
    std::string_view body) {
  std::size_t pos = 0;
  std::uint32_t count = 0;
  if (!read_u32(body, pos, count))
    return Error(errc::proto, "object bundle: truncated count");
  std::vector<ObjPtr> objects;
  // Each object needs at least its 4-byte length prefix: never reserve
  // more than the remaining bytes can hold.
  objects.reserve(std::min<std::size_t>(count, (body.size() - pos) / 4));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    if (!read_u32(body, pos, len) || pos + len > body.size())
      return Error(errc::proto, "object bundle: truncated object");
    ObjPtr obj = parse_object(std::string(body.substr(pos, len)));
    if (!obj) return Error(errc::proto, "object bundle: malformed object");
    pos += len;
    objects.push_back(std::move(obj));
  }
  if (pos != body.size())
    return Error(errc::proto, "object bundle: trailing bytes");
  return std::shared_ptr<const Attachment>(
      std::make_shared<ObjectBundle>(std::move(objects)));
}

void ObjectBundle::register_codec() {
  register_attachment_codec("kvsobj", &ObjectBundle::deserialize);
}

}  // namespace flux
