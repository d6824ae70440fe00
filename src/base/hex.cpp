#include "base/hex.hpp"

#include <array>

namespace flux {

namespace {
constexpr char kDigits[] = "0123456789abcdef";

// Byte -> two hex digits in one table lookup. Hex refs (40-char SHA1s) are
// emitted on every directory serialization and setroot announce, so encode
// and decode both sit on the data plane's hot path.
constexpr std::array<std::array<char, 2>, 256> make_pairs() {
  std::array<std::array<char, 2>, 256> t{};
  for (int b = 0; b < 256; ++b)
    t[static_cast<std::size_t>(b)] = {kDigits[b >> 4], kDigits[b & 0x0f]};
  return t;
}
constexpr auto kPairs = make_pairs();

// Char -> nibble value, -1 for non-hex.
constexpr std::array<std::int8_t, 256> make_nibbles() {
  std::array<std::int8_t, 256> t{};
  for (auto& v : t) v = -1;
  for (int i = 0; i < 10; ++i)
    t[static_cast<std::size_t>('0') + static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(i);
  for (int i = 0; i < 6; ++i) {
    t[static_cast<std::size_t>('a') + static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(10 + i);
    t[static_cast<std::size_t>('A') + static_cast<std::size_t>(i)] =
        static_cast<std::int8_t>(10 + i);
  }
  return t;
}
constexpr auto kNibbles = make_nibbles();
}  // namespace

std::string hex_encode(std::span<const std::uint8_t> bytes) {
  std::string out;
  hex_encode_to(out, bytes);
  return out;
}

void hex_encode_to(std::string& out, std::span<const std::uint8_t> bytes) {
  const std::size_t at = out.size();
  out.resize(at + bytes.size() * 2);
  char* p = out.data() + at;
  for (std::uint8_t b : bytes) {
    *p++ = kPairs[b][0];
    *p++ = kPairs[b][1];
  }
}

bool hex_decode_into(std::string_view hex, std::span<std::uint8_t> out) {
  if (hex.size() % 2 != 0 || hex.size() / 2 != out.size()) return false;
  std::uint8_t* p = out.data();
  // Accumulate validity instead of branching per character: a single bad
  // digit poisons the sign bit of `bad`.
  int bad = 0;
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = kNibbles[static_cast<std::uint8_t>(hex[i])];
    const int lo = kNibbles[static_cast<std::uint8_t>(hex[i + 1])];
    bad |= hi | lo;
    *p++ = static_cast<std::uint8_t>((hi << 4) | lo);
  }
  return bad >= 0;
}

std::optional<std::vector<std::uint8_t>> hex_decode(std::string_view hex) {
  std::vector<std::uint8_t> out(hex.size() / 2);
  if (!hex_decode_into(hex, out)) return std::nullopt;
  return out;
}

}  // namespace flux
