#include "alloc_counter.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* allocate(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}

void* allocate(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a non-zero size that is a multiple of the alignment.
  const std::size_t size = n != 0 ? (n + a - 1) / a * a : a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

template <typename... Align>
void* allocate_nothrow(std::size_t n, Align... al) noexcept {
  try {
    return allocate(n, al...);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

std::uint64_t dodo::testing::allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

// Every variant is replaced, not only the plain ones: under ASan a variant
// left to the runtime would free a malloc'd block through its own operator
// delete and report an alloc-dealloc mismatch.
void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t a) { return allocate(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate_nothrow(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate_nothrow(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
