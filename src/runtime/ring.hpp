// Submission/completion ring over libdodo (DESIGN.md §16), io_uring-style.
//
// The classic API makes the caller await each op in turn, so one
// application coroutine has one round trip in flight at a time. The ring
// decouples submission from completion: the application enqueues
// mread/mwrite *descriptors* (Sqe), the ring runs each one on the client's
// ordinary mread_ex/mwrite path, and the application reaps completions (Cqe)
// from a channel whenever it likes. One submitter coroutine can keep
// `depth` ops in flight.
//
// Semantics:
//  - try_submit never suspends; it returns false (and counts a
//    ring_full_reject) when `depth` ops are already in flight.
//  - submit() is the awaitable variant: it backpressures until a slot frees.
//  - Completions are reaped in completion order, which need not be
//    submission order; Cqe carries user_data for that reason.
//  - Every op is exactly the call a caller could have awaited directly, so
//    ring reads put the same datagrams on the wire as direct mreads
//    (Ring.WindowZeroWireByteIdentity pins it).
//  - Ring counters (submitted/completed/rejects/peak depth) live in the
//    client's metrics so one snapshot covers the whole runtime; they are
//    only exported once a ring has been attached.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "runtime/dodo_client.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace dodo::runtime {

enum class RingOp : std::uint8_t {
  kRead = 0,
  kWrite = 1,
};

/// One submission: an mread/mwrite descriptor. Buffers are borrowed and
/// must stay alive until the matching Cqe is reaped.
struct Sqe {
  RingOp op = RingOp::kRead;
  int rd = -1;
  Bytes64 offset = 0;
  Bytes64 len = 0;
  std::uint8_t* buf = nullptr;        // kRead landing (nullptr = phantom)
  const std::uint8_t* wbuf = nullptr;  // kWrite source
  std::uint64_t user_data = 0;         // echoed verbatim in the Cqe
};

/// One completion. For reads, `n`/`filled`/`disk_ranges` mirror
/// DodoClient::ReadResult; for writes `n` is mwrite's return and `filled`
/// is n >= 0.
struct Cqe {
  std::uint64_t user_data = 0;
  Bytes64 n = -1;
  bool filled = false;
  bool degraded = false;  // read served partly (or wholly) from disk
  std::vector<std::pair<Bytes64, Bytes64>> disk_ranges;  // op-relative
};

class DodoRing {
 public:
  DodoRing(sim::Simulator& sim, DodoClient& client, std::size_t depth);

  DodoRing(const DodoRing&) = delete;
  DodoRing& operator=(const DodoRing&) = delete;

  /// Non-blocking submit: false when the ring is full (op not queued).
  bool try_submit(const Sqe& sqe);

  /// Awaitable submit: backpressures until an in-flight slot frees up.
  sim::Co<void> submit(Sqe sqe);

  /// Reaps the next completion, waiting for one if none is pending.
  sim::Co<Cqe> reap();

  /// Non-blocking reap.
  std::optional<Cqe> try_reap();

  /// Waits until every submitted op has completed. Completions stay queued
  /// for reaping — drain() is a barrier, not a discard.
  sim::Co<void> drain();

  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }
  /// Completions queued and not yet reaped.
  [[nodiscard]] std::size_t completions_pending() const { return cq_.size(); }

 private:
  sim::Co<void> run_op(Sqe sqe);
  void post(Cqe c);

  sim::Simulator& sim_;
  DodoClient& client_;
  std::size_t depth_;
  std::size_t in_flight_ = 0;
  sim::Channel<Cqe> cq_;
  /// One token per waiter is sent on every completion, waking submit()/
  /// drain() backpressure loops to re-check their condition.
  sim::Channel<int> slots_;
};

}  // namespace dodo::runtime
