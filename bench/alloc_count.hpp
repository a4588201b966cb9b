// Process-wide heap-allocation counter: a replacement global operator new
// (operator new[] funnels through it) that counts every call. Binaries that
// prove a path allocation-free, or report how often it allocates, read
// benchalloc::count around the work.
//
// This header defines the replacement functions, so include it from exactly
// one translation unit of a binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace benchalloc {
inline std::atomic<std::uint64_t> count{0};
}  // namespace benchalloc

// The replaced operator new allocates with std::malloc, so releasing with
// std::free is the matched pair; gcc's -Wmismatched-new-delete heuristic
// cannot see through the replacement and flags it under Release -Werror.
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  benchalloc::count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
