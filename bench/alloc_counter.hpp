// Heap-allocation counter for the request-path benchmark and the
// allocation-counting perf-smoke test.
//
// Exactly one translation unit per executable defines
// COPS_ALLOC_COUNTER_IMPLEMENT before including this header; that TU
// provides replacement global operator new/delete which route through
// std::malloc/std::free and bump a thread-local counter pair.  Everything
// else includes the header plainly and only sees the accessor.
//
// The counters are thread-local on purpose: the measured decode loops are
// single-threaded, and thread-locality means background threads (none in
// the benches, but cheap insurance) cannot pollute a measurement window.
// Only the owning thread writes its counters, with relaxed atomic stores
// (plain stores on x86), so another thread may sum them while they change
// by reading each word with __atomic_load_n(..., __ATOMIC_RELAXED).
#pragma once

#include <cstddef>
#include <cstdint>

namespace cops::bench {

struct AllocCounters {
  uint64_t count = 0;  // operator-new invocations on this thread
  uint64_t bytes = 0;  // bytes those invocations requested
};

// This thread's live counters (zero-initialised on first use).
AllocCounters& alloc_counters();

inline void reset_alloc_counters() {
  auto& c = alloc_counters();
  __atomic_store_n(&c.count, uint64_t{0}, __ATOMIC_RELAXED);
  __atomic_store_n(&c.bytes, uint64_t{0}, __ATOMIC_RELAXED);
}

}  // namespace cops::bench

#ifdef COPS_ALLOC_COUNTER_IMPLEMENT

#include <cstdlib>
#include <new>

// GCC pairs the visible malloc-backed operator new with the free() inside
// operator delete at STL inlining sites and warns, even though the pair is
// symmetric by construction.  Implement-TU only, so scoped to this block.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace cops::bench {

AllocCounters& alloc_counters() {
  // Trivially-constructible thread_local: its initialisation cannot recurse
  // into operator new.
  thread_local AllocCounters counters;
  return counters;
}

namespace alloc_counter_detail {

inline void count_alloc(std::size_t size) {
  auto& c = alloc_counters();
  __atomic_store_n(&c.count, c.count + 1, __ATOMIC_RELAXED);
  __atomic_store_n(&c.bytes, c.bytes + size, __ATOMIC_RELAXED);
}

inline void* counted_alloc(std::size_t size) {
  count_alloc(size);
  // malloc(0) may return nullptr legally; operator new must not.
  return std::malloc(size == 0 ? 1 : size);
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  count_alloc(size);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace alloc_counter_detail
}  // namespace cops::bench

void* operator new(std::size_t size) {
  void* p = cops::bench::alloc_counter_detail::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return cops::bench::alloc_counter_detail::counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return cops::bench::alloc_counter_detail::counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = cops::bench::alloc_counter_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return cops::bench::alloc_counter_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return cops::bench::alloc_counter_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
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

#endif  // COPS_ALLOC_COUNTER_IMPLEMENT
