// Allocation cap linked into the malformed-decode suite (alloc_cap.cpp).
#pragma once

#include <cstddef>

namespace flux::testing {

/// Largest single allocation the suite's operator new grants; anything
/// bigger throws std::bad_alloc.
inline constexpr std::size_t kAllocCap = std::size_t{64} << 20;

}  // namespace flux::testing
