// Hex encoding/decoding helpers used by content addressing and diagnostics.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace flux {

/// Lower-case hex encoding of a byte span.
std::string hex_encode(std::span<const std::uint8_t> bytes);
/// Append the lower-case hex encoding of `bytes` to `out`.
void hex_encode_to(std::string& out, std::span<const std::uint8_t> bytes);

/// Decode `hex` (either case) into `out`, which must hold exactly
/// hex.size() / 2 bytes. Returns false for odd length, a size mismatch or a
/// non-hex character; `out` is then unspecified. Allocates nothing.
bool hex_decode_into(std::string_view hex, std::span<std::uint8_t> out);

/// Decode a hex string; returns nullopt for odd length or non-hex characters.
std::optional<std::vector<std::uint8_t>> hex_decode(std::string_view hex);

}  // namespace flux
