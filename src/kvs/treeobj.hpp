// KVS tree objects: the hash-tree / content-addressable representation.
//
// Paper §IV-B: "JSON objects are placed in a content-addressable object
// store, hashed by their SHA1 digests. Hierarchical key names are broken up
// into path components that reference directories. A directory is an object
// that maps a list of names to other objects by their SHA1 reference."
//
// Concretely an object is a JSON document:
//   value:     {"t":"val","d":<any json>}
//   directory: {"t":"dir","e":{"name":"<40-hex sha1>", ...}}
// hashed over its canonical serialization (sorted keys — see json.hpp), so
// identical values share one address: the dedup Figure 3 depends on.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hash/sha1.hpp"
#include "json/json.hpp"

namespace flux {

/// An immutable, content-addressed KVS object.
struct StoredObject {
  Sha1 id;            ///< SHA1 of `bytes`
  std::string bytes;  ///< canonical serialization
  Json doc;           ///< parsed form

  [[nodiscard]] bool is_dir() const { return doc.get_string("t") == "dir"; }
  [[nodiscard]] bool is_val() const { return doc.get_string("t") == "val"; }
  /// Payload of a value object.
  [[nodiscard]] const Json& value() const { return doc.at("d"); }
  /// name -> sha1-hex map of a directory object.
  [[nodiscard]] const JsonObject& entries() const {
    return doc.at("e").as_object();
  }
  [[nodiscard]] std::size_t size() const noexcept { return bytes.size(); }
};

using ObjPtr = std::shared_ptr<const StoredObject>;

/// Build (serialize + hash) an object from its JSON document.
ObjPtr make_object(Json doc);
/// Build a value object holding `value`.
ObjPtr make_val_object(Json value);
/// Build a directory object from its name -> ref-hex entries, taken by move.
ObjPtr make_dir_object(JsonObject entries);
/// The canonical empty directory (the initial KVS root).
ObjPtr empty_dir_object();

/// Parse serialized object bytes (fault responses, wire decode). Verifies
/// the document shape; returns nullptr on malformed input.
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
