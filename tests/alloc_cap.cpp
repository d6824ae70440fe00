// Replacement global operator new/delete for the malformed-decode suite: any
// single allocation above kAllocCap throws std::bad_alloc, on every host.
// A decoder that reserves a count read off the wire (instead of bounding it
// by the bytes actually present) then fails the suite even where the kernel
// overcommits and a giant reserve would otherwise succeed lazily. new and
// delete are replaced together (malloc/free underneath), so the pairing
// stays consistent under AddressSanitizer too.

#include <cstdlib>
#include <new>

#include "alloc_cap.hpp"

namespace {

void* capped_alloc(std::size_t n) {
  if (n > flux::testing::kAllocCap) throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* capped_alloc_nothrow(std::size_t n) noexcept {
  if (n > flux::testing::kAllocCap) return nullptr;
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) { return capped_alloc(n); }
void* operator new[](std::size_t n) { return capped_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return capped_alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return capped_alloc_nothrow(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
