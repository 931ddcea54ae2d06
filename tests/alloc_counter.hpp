// Counts calls to the global allocation functions.
//
// alloc_counter.cpp replaces every variant of the global operator new and
// operator delete for the test binary it is linked into: each operator new
// bumps one counter and forwards to malloc (or aligned_alloc), each operator
// delete forwards to free. Tests read the counter before and after a stretch
// of steady-state work to pin how many heap allocations it makes, without
// timing the host.
#pragma once

#include <cstdint>

namespace dodo::testing {

/// Calls to any global operator new made by this process so far.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace dodo::testing
