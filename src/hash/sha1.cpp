#include "hash/sha1.hpp"

#include <cstring>
#include <utility>

#include "base/hex.hpp"
#include "hash/sha1_compress.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace flux {

namespace sha1_detail {

namespace {
inline std::uint32_t rotl32(std::uint32_t x, int n) noexcept {
  return (x << n) | (x >> (32 - n));
}
}  // namespace

void compress_portable(std::uint32_t* h, const std::uint8_t* blocks,
                       std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const std::uint8_t* block = blocks;
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
             (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i)
      w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);

    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      const std::uint32_t tmp = rotl32(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = tmp;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
}

#if defined(__x86_64__)
namespace {

#define FLUX_SHA_TARGET __attribute__((target("sha,sse4.1")))

// Four-round group G of the 80 rounds (the Intel SHA-extensions sequence).
// m[G % 4] holds message words W[4G..4G+3]; while it is consumed, the
// schedule for later groups advances: sha1msg1 (groups 1-16), the W[t-8]
// xor (2-17) and sha1msg2 (3-18) finish W[4G+4..4G+7] in m[(G + 1) % 4].
// e[G % 2] carries E plus this group's words into sha1rnds4 (function G / 5);
// e[(G + 1) % 2] keeps A, which sha1nexte rotates into the next group's E.
template <int G>
FLUX_SHA_TARGET __attribute__((always_inline)) inline void sha_group(
    __m128i& abcd, __m128i* e, __m128i* m) {
  if constexpr (G == 0)
    e[0] = _mm_add_epi32(e[0], m[0]);
  else
    e[G % 2] = _mm_sha1nexte_epu32(e[G % 2], m[G % 4]);
  e[(G + 1) % 2] = abcd;
  if constexpr (G >= 3 && G <= 18)
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], m[G % 4]);
  abcd = _mm_sha1rnds4_epu32(abcd, e[G % 2], G / 5);
  if constexpr (G >= 1 && G <= 16)
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], m[G % 4]);
  if constexpr (G >= 2 && G <= 17)
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], m[G % 4]);
}

template <int... G>
FLUX_SHA_TARGET __attribute__((always_inline)) inline void sha_rounds(
    std::integer_sequence<int, G...>, __m128i& abcd, __m128i* e, __m128i* m) {
  (sha_group<G>(abcd, e, m), ...);
}

FLUX_SHA_TARGET void compress_shani(std::uint32_t* h, const std::uint8_t* blocks,
                                    std::size_t nblocks) {
  // Byte-reverses a 16-byte load into four big-endian words in W order.
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  // The instructions keep A in the high lane: reverse the word order.
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abcd_in = abcd;
    const __m128i e_in = e0;
    __m128i m[4];
    for (int i = 0; i < 4; ++i)
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
          bswap);
    __m128i e[2] = {e0, _mm_setzero_si128()};
    sha_rounds(std::make_integer_sequence<int, 20>{}, abcd, e, m);
    // e[0] holds the A that entered the last group; its rotation is the
    // block's final E.
    e0 = _mm_sha1nexte_epu32(e[0], e_in);
    abcd = _mm_add_epi32(abcd, abcd_in);
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), _mm_shuffle_epi32(abcd, 0x1B));
  h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef FLUX_SHA_TARGET

}  // namespace
#endif

CompressFn compress_accelerated() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
    return compress_shani;
#endif
  return nullptr;
}

}  // namespace sha1_detail

namespace {
// The kernel every Sha1Stream uses. Constant-initialized to the portable
// reference, so hashing from another file's static initializer is still
// correct, then switched once, during this file's static initialization, to
// the accelerated kernel when the CPU has it.
constinit sha1_detail::CompressFn g_compress = sha1_detail::compress_portable;
[[maybe_unused]] const bool g_compress_selected = [] {
  if (const auto fast = sha1_detail::compress_accelerated()) g_compress = fast;
  return true;
}();
}  // namespace

Sha1Stream::Sha1Stream() {
  h_[0] = 0x67452301u;
  h_[1] = 0xEFCDAB89u;
  h_[2] = 0x98BADCFEu;
  h_[3] = 0x10325476u;
  h_[4] = 0xC3D2E1F0u;
}

void Sha1Stream::update(std::span<const std::uint8_t> data) {
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < buffer_.size()) return;
    g_compress(h_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Every whole block of the input in one kernel call.
  const std::size_t blocks = n / 64;
  if (blocks > 0) {
    g_compress(h_, p, blocks);
    p += blocks * 64;
    n -= blocks * 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

void Sha1Stream::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha1 Sha1Stream::digest() {
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {  // no room for the length: it goes in one more block
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    g_compress(h_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[static_cast<std::size_t>(56 + i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - i * 8));
  g_compress(h_, buffer_.data(), 1);
  buffered_ = 0;

  std::array<std::uint8_t, Sha1::kSize> out{};
  for (int i = 0; i < 5; ++i) {
    out[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(h_[i]);
  }
  return Sha1(out);
}

Sha1 Sha1::of(std::span<const std::uint8_t> data) {
  Sha1Stream s;
  s.update(data);
  return s.digest();
}

Sha1 Sha1::of(std::string_view data) {
  Sha1Stream s;
  s.update(data);
  return s.digest();
}

std::optional<Sha1> Sha1::parse(std::string_view hex) {
  std::array<std::uint8_t, kSize> raw{};
  if (!hex_decode_into(hex, raw)) return std::nullopt;
  return Sha1(raw);
}

std::string Sha1::hex() const { return hex_encode(raw_); }

std::string Sha1::short_hex() const { return hex().substr(0, 8); }

}  // namespace flux
