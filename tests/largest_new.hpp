// tests/largest_new.hpp
//
// Replaces the global operator new with one that records the largest single
// request, so a test can assert that a parser allocated no more than its
// input justifies: reset g_largest_new to 0, parse, compare. Array new and
// the nothrow forms forward here. Include from exactly one translation unit
// per test binary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

inline std::atomic<size_t> g_largest_new{0};

// Out of line, so the compiler does not pair an inlined malloc with an
// inlined free and warn.
[[gnu::noinline]] void* operator new(size_t size) {
  size_t seen = g_largest_new.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_new.compare_exchange_weak(
                            seen, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}
