// Datagram representation.
//
// A Message carries a small codec-encoded `header` (control fields) and an
// optional bulk `body`. The body has a *logical* size independent of the
// bytes actually materialized: paper-scale benchmarks run with "phantom"
// bodies (logical size but no bytes) so that multi-gigabyte datasets do not
// have to exist in host RAM, while all timing is computed from the logical
// size. Correctness tests always run with materialized bodies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "net/address.hpp"

namespace dodo::net {

using Buf = std::vector<std::uint8_t>;

/// Capacity a protocol encoder reserves for a fresh header, so that writing
/// it allocates once instead of growing byte by byte. It covers every
/// fixed-size header (the largest, a bulk DATA header, is 49 B); headers
/// with variable-length tails may still grow past it.
inline constexpr std::size_t kHeaderReserve = 64;

struct Message {
  Endpoint src;
  Endpoint dst;
  Buf header;
  Buf body;
  Bytes64 body_size = 0;  // logical body length; >= body.size()

  /// Total logical datagram size used by the timing model.
  [[nodiscard]] Bytes64 wire_bytes() const {
    return static_cast<Bytes64>(header.size()) + body_size;
  }

  /// True when the body is accounted for but not materialized.
  [[nodiscard]] bool phantom_body() const {
    return body.empty() && body_size > 0;
  }
};

}  // namespace dodo::net
