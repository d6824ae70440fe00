// SHA1 correctness: FIPS-180 vectors, streaming equivalence, parsing, and
// the accelerated compression kernel against the portable reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <vector>

#include "base/rng.hpp"
#include "hash/sha1.hpp"
#include "hash/sha1_compress.hpp"

namespace flux {
namespace {

using sha1_detail::CompressFn;

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(Sha1::of("abc").hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(Sha1::of("").hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(
      Sha1::of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1Stream s;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) s.update(chunk);
  EXPECT_EQ(s.digest().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, StreamingMatchesOneShot) {
  const std::string data =
      "The quick brown fox jumps over the lazy dog, repeatedly and with "
      "increasing enthusiasm, until the buffer boundary is crossed.";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha1Stream s;
    s.update(std::string_view(data).substr(0, split));
    s.update(std::string_view(data).substr(split));
    EXPECT_EQ(s.digest(), Sha1::of(data)) << "split at " << split;
  }
}

TEST(Sha1, BlockBoundaries) {
  // Lengths straddling the 55/56/64-byte padding boundaries.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string data(len, 'x');
    Sha1Stream s;
    s.update(data);
    EXPECT_EQ(s.digest(), Sha1::of(data)) << "len " << len;
  }
}

TEST(Sha1, ParseRoundTrip) {
  const Sha1 digest = Sha1::of("roundtrip");
  const auto parsed = Sha1::parse(digest.hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, digest);
}

TEST(Sha1, ParseRejectsBadInput) {
  EXPECT_FALSE(Sha1::parse("").has_value());
  EXPECT_FALSE(Sha1::parse("abc").has_value());
  EXPECT_FALSE(Sha1::parse(std::string(40, 'g')).has_value());
  EXPECT_FALSE(Sha1::parse(std::string(39, 'a')).has_value());
  EXPECT_FALSE(Sha1::parse(std::string(42, 'a')).has_value());
}

TEST(Sha1, ParseAcceptsUpperAndMixedCase) {
  const Sha1 digest = Sha1::of("case");
  std::string upper = digest.hex();
  std::string mixed = upper;
  for (std::size_t i = 0; i < upper.size(); ++i) {
    upper[i] = static_cast<char>(std::toupper(static_cast<unsigned char>(upper[i])));
    if (i % 2 == 0) mixed[i] = upper[i];
  }
  ASSERT_NE(upper, digest.hex());  // the digest has letters to raise
  ASSERT_EQ(Sha1::parse(upper), digest);
  ASSERT_EQ(Sha1::parse(mixed), digest);
}

TEST(Sha1, ParseRejectsANonHexByteAtEveryPosition) {
  const std::string good = Sha1::of("positions").hex();
  // Neighbours of each hex range, plus NUL, space and a high byte.
  for (const char bad : {'/', ':', '@', 'G', '`', 'g', '\0', ' ', '\xff'}) {
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
      std::string ref = good;
      ref[pos] = bad;
      EXPECT_FALSE(Sha1::parse(ref).has_value())
          << "byte " << static_cast<int>(static_cast<unsigned char>(bad))
          << " at " << pos;
    }
  }
  EXPECT_FALSE(Sha1::parse(good.substr(0, 39)).has_value());
  EXPECT_FALSE(Sha1::parse(good + "0").has_value());
}

TEST(Sha1, ShortHex) {
  EXPECT_EQ(Sha1::of("abc").short_hex(), "a9993e36");
}

TEST(Sha1, DefaultIsZero) {
  EXPECT_EQ(Sha1{}.hex(), std::string(40, '0'));
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::of("a"), Sha1::of("b"));
  EXPECT_NE(Sha1::of("content-1"), Sha1::of("content-2"));
}

TEST(Sha1, StdHashUsable) {
  std::hash<Sha1> h;
  EXPECT_NE(h(Sha1::of("a")), h(Sha1::of("b")));
}

// -- compression kernels ----------------------------------------------------

/// Digest of `msg` computed with `compress` alone: the FIPS-180 padding done
/// here, independently of Sha1Stream, and every whole block in one call.
std::array<std::uint32_t, 5> kernel_digest(CompressFn compress,
                                           const std::vector<std::uint8_t>& msg) {
  std::array<std::uint32_t, 5> h = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                    0x10325476u, 0xC3D2E1F0u};
  const std::size_t whole = msg.size() / 64;
  if (whole > 0) compress(h.data(), msg.data(), whole);
  std::vector<std::uint8_t> tail(msg.begin() + static_cast<std::ptrdiff_t>(whole * 64),
                                 msg.end());
  tail.push_back(0x80);
  while (tail.size() % 64 != 56) tail.push_back(0);
  const std::uint64_t bits = msg.size() * 8;
  for (int i = 7; i >= 0; --i) tail.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  compress(h.data(), tail.data(), tail.size() / 64);
  return h;
}

Sha1 to_sha1(const std::array<std::uint32_t, 5>& h) {
  std::array<std::uint8_t, Sha1::kSize> raw{};
  for (std::size_t i = 0; i < 20; ++i)
    raw[i] = static_cast<std::uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  return Sha1(raw);
}

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

TEST(Sha1Kernel, PortableReferenceMatchesFips180) {
  const std::string abc = "abc";
  EXPECT_EQ(to_sha1(kernel_digest(sha1_detail::compress_portable,
                                  {abc.begin(), abc.end()}))
                .hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

// Sha1Stream (on whichever kernel the CPU selected) against the portable
// kernel with independent padding, on every length 0-1024: covers the
// multi-block update and the padding of every tail length.
TEST(Sha1Kernel, StreamMatchesPortableOnEveryLength) {
  Rng rng(0x5a1);
  const std::vector<std::uint8_t> data = random_bytes(rng, 1024);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::vector<std::uint8_t> msg(data.begin(),
                                        data.begin() + static_cast<std::ptrdiff_t>(len));
    ASSERT_EQ(Sha1::of(msg),
              to_sha1(kernel_digest(sha1_detail::compress_portable, msg)))
        << "len " << len;
  }
}

TEST(Sha1Kernel, StreamMatchesPortableOnRandomSplits) {
  Rng rng(0x5a2);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<std::uint8_t> msg = random_bytes(rng, rng.below(1200));
    Sha1Stream s;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t n = std::min<std::size_t>(rng.below(150), msg.size() - off);
      s.update(std::span<const std::uint8_t>(msg.data() + off, n));
      off += n;
    }
    ASSERT_EQ(s.digest(), to_sha1(kernel_digest(sha1_detail::compress_portable, msg)))
        << "trial " << trial << " len " << msg.size();
  }
}

TEST(Sha1Kernel, AcceleratedMatchesPortableOnEveryLength) {
  const CompressFn fast = sha1_detail::compress_accelerated();
  if (fast == nullptr) GTEST_SKIP() << "no SHA-extensions kernel on this CPU";
  Rng rng(0x5a3);
  const std::vector<std::uint8_t> data = random_bytes(rng, 1024);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const std::vector<std::uint8_t> msg(data.begin(),
                                        data.begin() + static_cast<std::ptrdiff_t>(len));
    ASSERT_EQ(kernel_digest(fast, msg),
              kernel_digest(sha1_detail::compress_portable, msg))
        << "len " << len;
  }
}

// Random block runs handed to each kernel in random-sized calls: the chaining
// state must not depend on how the blocks were batched.
TEST(Sha1Kernel, AcceleratedMatchesPortableOnRandomSplits) {
  const CompressFn fast = sha1_detail::compress_accelerated();
  if (fast == nullptr) GTEST_SKIP() << "no SHA-extensions kernel on this CPU";
  Rng rng(0x5a4);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t blocks = 1 + rng.below(24);
    const std::vector<std::uint8_t> msg = random_bytes(rng, blocks * 64);
    std::array<std::uint32_t, 5> a = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                      0x10325476u, 0xC3D2E1F0u};
    std::array<std::uint32_t, 5> b = a;
    sha1_detail::compress_portable(a.data(), msg.data(), blocks);
    for (std::size_t done = 0; done < blocks;) {
      const std::size_t n = std::min<std::size_t>(1 + rng.below(8), blocks - done);
      fast(b.data(), msg.data() + done * 64, n);
      done += n;
    }
    ASSERT_EQ(a, b) << "trial " << trial << " blocks " << blocks;
  }
}

}  // namespace
}  // namespace flux
