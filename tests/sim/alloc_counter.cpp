// Counting replacements for the global allocation functions. Linked into
// test_sim only; every other binary keeps the library's operator new.
#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t t_allocations = 0;
thread_local std::uint64_t t_deallocations = 0;

}  // namespace

namespace hpres::test_alloc {

std::uint64_t allocations() noexcept { return t_allocations; }
std::uint64_t deallocations() noexcept { return t_deallocations; }

}  // namespace hpres::test_alloc

// Every non-aligned form is replaced, so memory from any of them is released
// through the same malloc/free pair (sanitizers check that pairing).
void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t& /*tag*/) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  ++t_deallocations;
  std::free(p);
}

void operator delete[](void* p) noexcept { operator delete(p); }

void operator delete(void* p, std::size_t /*size*/) noexcept {
  operator delete(p);
}

void operator delete[](void* p, std::size_t /*size*/) noexcept {
  operator delete(p);
}

void operator delete(void* p, const std::nothrow_t& /*tag*/) noexcept {
  operator delete(p);
}

void operator delete[](void* p, const std::nothrow_t& /*tag*/) noexcept {
  operator delete(p);
}
