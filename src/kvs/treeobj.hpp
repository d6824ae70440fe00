// KVS tree objects: the hash-tree / content-addressable representation.
//
// Paper §IV-B: "JSON objects are placed in a content-addressable object
// store, hashed by their SHA1 digests. Hierarchical key names are broken up
// into path components that reference directories. A directory is an object
// that maps a list of names to other objects by their SHA1 reference."
//
// An object is stored and hashed as canonical JSON (sorted keys — see
// json.hpp), so identical values share one address: the dedup Figure 3
// depends on.
//   value:     {"d":<any json>,"t":"val"}
//   directory: {"e":{"name":"<40-hex sha1>", ...},"t":"dir"}
// In memory a value object keeps its parsed payload, and a directory keeps
// its entries as a sorted vector of (name, Sha1): no JSON document, no hex.
// This file is the only code that knows the directory encoding. The bytes
// are written once, when a directory is built (make_dir_object), and read
// once, when one arrives (parse_object, the single point that validates a
// ref); everything else walks the typed entries.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "hash/sha1.hpp"
#include "json/json.hpp"

namespace flux {

/// One directory entry: a name and the SHA1 of the object it names.
struct DirEntry {
  std::string name;
  Sha1 ref;
  friend bool operator==(const DirEntry&, const DirEntry&) = default;
};
/// A directory's entries, sorted by name (byte order), names unique.
using DirEntries = std::vector<DirEntry>;

/// An immutable, content-addressed KVS object.
struct StoredObject {
  Sha1 id;            ///< SHA1 of `bytes`
  std::string bytes;  ///< canonical serialization
  /// The decoded object; the alternative is its kind tag. A value object's
  /// payload ("d"), or a directory's entries.
  std::variant<Json, DirEntries> body;

  [[nodiscard]] bool is_dir() const noexcept { return body.index() == 1; }
  [[nodiscard]] bool is_val() const noexcept { return body.index() == 0; }
  /// Payload of a value object.
  [[nodiscard]] const Json& value() const { return std::get<Json>(body); }
  /// Entries of a directory object.
  [[nodiscard]] const DirEntries& entries() const {
    return std::get<DirEntries>(body);
  }
  /// The ref `name` holds in this directory; nullopt when absent or when
  /// this is not a directory.
  [[nodiscard]] std::optional<Sha1> child(std::string_view name) const;
  [[nodiscard]] std::size_t size() const noexcept { return bytes.size(); }
};

using ObjPtr = std::shared_ptr<const StoredObject>;

/// Build a value object holding `value`.
ObjPtr make_val_object(Json value);
/// Build a directory object from its entries, sorted by name with unique
/// names, taken by move.
ObjPtr make_dir_object(DirEntries entries);
/// The canonical empty directory (the initial KVS root).
ObjPtr empty_dir_object();

/// Parse serialized object bytes (fault responses, wire decode). Verifies
/// the document shape and decodes every directory ref; returns nullptr on
/// malformed input. The object keeps the bytes as received.
ObjPtr parse_object(std::string bytes);

/// Split "a.b.c" into {"a","b","c"}. Empty components are dropped; "." (or
/// "") addresses the root directory and yields an empty vector.
std::vector<std::string> split_key(std::string_view key);

/// A (key, ref) commit tuple. A null (all-zero) ref is an unlink tombstone;
/// ref of the empty directory creates a directory (mkdir).
struct Tuple {
  std::string key;
  Sha1 ref;
  [[nodiscard]] bool is_unlink() const noexcept { return ref == Sha1{}; }
};

Json tuples_to_json(const std::vector<Tuple>& tuples);
Expected<std::vector<Tuple>> tuples_from_json(const Json& array);

}  // namespace flux
