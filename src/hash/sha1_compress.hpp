// SHA1 compression kernels behind Sha1Stream.
//
// Internal: only sha1.cpp and the SHA1 tests include this header. The tests
// run both kernels side by side on every host, so the accelerated one is
// always checked against the portable FIPS-180-1 reference.
#pragma once

#include <cstddef>
#include <cstdint>

namespace flux::sha1_detail {

/// Fold `nblocks` consecutive 64-byte blocks into the five-word chaining
/// state `h`.
using CompressFn = void (*)(std::uint32_t* h, const std::uint8_t* blocks,
                            std::size_t nblocks);

/// The portable reference kernel; runs on every host.
void compress_portable(std::uint32_t* h, const std::uint8_t* blocks,
                       std::size_t nblocks);

/// The x86-64 SHA-extensions kernel, or nullptr when this build targets
/// another architecture or the CPU lacks SHA/SSE4.1.
CompressFn compress_accelerated();

}  // namespace flux::sha1_detail
