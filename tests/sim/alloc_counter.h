// Heap-allocation counters for the test_sim binary, which replaces the
// global operator new/delete (alloc_counter.cpp) to count calls made on the
// current thread.
#pragma once

#include <cstdint>

namespace hpres::test_alloc {

/// Global operator new calls on this thread since it started.
[[nodiscard]] std::uint64_t allocations() noexcept;

/// Global operator delete calls (non-null pointer) on this thread.
[[nodiscard]] std::uint64_t deallocations() noexcept;

}  // namespace hpres::test_alloc
