#include "runtime/ring.hpp"

#include <algorithm>

namespace dodo::runtime {

DodoRing::DodoRing(sim::Simulator& sim, DodoClient& client, std::size_t depth)
    : sim_(sim),
      client_(client),
      depth_(std::max<std::size_t>(1, depth)),
      cq_(sim),
      slots_(sim) {
  client_.ring_register();
}

bool DodoRing::try_submit(const Sqe& sqe) {
  if (in_flight_ >= depth_) {
    client_.ring_note_reject();
    return false;
  }
  ++in_flight_;
  client_.ring_note_submit(static_cast<std::uint64_t>(in_flight_));
  sim_.spawn(run_op(sqe));
  return true;
}

sim::Co<void> DodoRing::submit(Sqe sqe) {
  while (!try_submit(sqe)) co_await slots_.recv();
}

sim::Co<void> DodoRing::run_op(Sqe sqe) {
  Cqe c;
  c.user_data = sqe.user_data;
  if (sqe.op == RingOp::kRead) {
    DodoClient::ReadResult r =
        co_await client_.mread_ex(sqe.rd, sqe.offset, sqe.buf, sqe.len);
    c.n = r.n;
    c.filled = r.filled;
    c.degraded = r.n < 0 || !r.disk_ranges.empty();
    c.disk_ranges = std::move(r.disk_ranges);
  } else {
    c.n = co_await client_.mwrite(sqe.rd, sqe.offset, sqe.wbuf, sqe.len);
    c.filled = c.n >= 0;
  }
  post(std::move(c));
}

void DodoRing::post(Cqe c) {
  --in_flight_;
  client_.ring_note_complete();
  cq_.send(std::move(c));
  // Wake every backpressured submit()/drain() to re-check its condition.
  while (slots_.pending_receivers() > 0) slots_.send(0);
}

sim::Co<Cqe> DodoRing::reap() { co_return co_await cq_.recv(); }

std::optional<Cqe> DodoRing::try_reap() { return cq_.try_recv(); }

sim::Co<void> DodoRing::drain() {
  while (in_flight_ > 0) co_await slots_.recv();
}

}  // namespace dodo::runtime
