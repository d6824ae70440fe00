// SHA1 content digests for the Flux KVS object store.
//
// The paper's KVS places JSON objects in a content-addressable store "hashed
// by their SHA1 digests" (§IV-B). This is a from-scratch FIPS-180-1
// implementation; cryptographic strength is irrelevant here — we only need a
// stable, well-distributed content address with negligible collision odds.
//
// Every stored value and directory is hashed, so block compression is a hot
// path. Sha1Stream hands whole runs of 64-byte blocks to one kernel, chosen
// once at static initialization from what the CPU reports: the x86-64
// SHA-extensions kernel where the CPU has SHA and SSE4.1, else the portable
// reference kernel (the only one built for other architectures). Both yield
// identical digests; hash/sha1_compress.hpp exposes them to the tests.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace flux {

/// A 160-bit SHA1 digest; the object address in the KVS content store.
class Sha1 {
 public:
  static constexpr std::size_t kSize = 20;

  Sha1() = default;
  explicit Sha1(const std::array<std::uint8_t, kSize>& raw) : raw_(raw) {}

  /// Digest of a byte span.
  static Sha1 of(std::span<const std::uint8_t> data);
  /// Digest of a string's bytes.
  static Sha1 of(std::string_view data);

  /// Parse a 40-char lower/upper hex reference ("1c002dde..."), decoding
  /// straight into the digest without allocating.
  static std::optional<Sha1> parse(std::string_view hex);

  [[nodiscard]] const std::array<std::uint8_t, kSize>& raw() const noexcept {
    return raw_;
  }
  [[nodiscard]] std::string hex() const;
  /// Abbreviated reference for logs ("1c002dde").
  [[nodiscard]] std::string short_hex() const;

  friend auto operator<=>(const Sha1&, const Sha1&) = default;

 private:
  std::array<std::uint8_t, kSize> raw_{};
};

/// Streaming SHA1 for incremental hashing of serialized objects.
class Sha1Stream {
 public:
  Sha1Stream();
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view data);
  /// Finalize and return the digest. The stream must not be reused after.
  Sha1 digest();

 private:
  std::uint32_t h_[5];
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

}  // namespace flux

template <>
struct std::hash<flux::Sha1> {
  std::size_t operator()(const flux::Sha1& s) const noexcept {
    // The digest is already uniformly distributed; fold the first 8 bytes.
    std::size_t out = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i)
      out = (out << 8) | s.raw()[i];
    return out;
  }
};
