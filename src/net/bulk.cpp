#include "net/bulk.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/codec.hpp"

namespace dodo::net {

void BulkStats::export_into(obs::MetricsSnapshot& out,
                            const std::string& prefix) const {
  out.set_counter(prefix + "sends_started", sends_started.value());
  out.set_counter(prefix + "sends_completed", sends_completed.value());
  out.set_counter(prefix + "single_packet_sends", single_packet_sends.value());
  out.set_counter(prefix + "credit_requests", credit_requests.value());
  out.set_counter(prefix + "credit_renegotiations",
                  credit_renegotiations.value());
  out.set_counter(prefix + "rounds", rounds.value());
  out.set_counter(prefix + "chunks_sent", chunks_sent.value());
  out.set_counter(prefix + "chunks_retransmitted",
                  chunks_retransmitted.value());
  out.set_counter(prefix + "nacks_received", nacks_received.value());
  out.set_counter(prefix + "acks_received", acks_received.value());
  out.set_counter(prefix + "bytes_sent", bytes_sent.value());
  out.set_counter(prefix + "recvs_started", recvs_started.value());
  out.set_counter(prefix + "recvs_completed", recvs_completed.value());
  out.set_counter(prefix + "nacks_sent", nacks_sent.value());
  out.set_counter(prefix + "window_clamps", window_clamps.value());
  out.set_counter(prefix + "bytes_received", bytes_received.value());
}

BulkFrame decode_bulk(const Buf& wire) {
  BulkFrame f;
  Reader r(wire);
  f.kind = static_cast<BulkKind>(r.u8());
  f.xfer = r.u64();
  if (f.kind != BulkKind::kData) {
    f.trace.trace_id = r.u64();
    f.trace.parent_span = r.u64();
  }
  switch (f.kind) {
    case BulkKind::kReq:
      f.total_len = r.i64();
      break;
    case BulkKind::kCredit:
      f.window = r.i64();
      break;
    case BulkKind::kData:
      f.seq = r.u64();
      f.nchunks = r.u64();
      f.offset = r.i64();
      f.chunk_len = r.i64();
      f.total_len = r.i64();
      break;
    case BulkKind::kAck:
      f.next_base = r.u64();
      break;
    case BulkKind::kNack: {
      const auto n = r.u32();
      if (n > r.remaining() / 8) return f;  // more seqs than the datagram holds
      f.missing.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) f.missing.push_back(r.u64());
      break;
    }
    default:
      return f;
  }
  f.ok = r.ok();
  if (f.ok) f.header_bytes = wire.size() - r.remaining();
  return f;
}

Buf bulk_header(BulkKind kind, std::uint64_t xfer, obs::TraceContext ctx) {
  Buf h;
  h.reserve(kHeaderReserve);
  Writer w(h);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(xfer);
  if (kind != BulkKind::kData) {
    w.u64(ctx.trace_id);
    w.u64(ctx.parent_span);
  }
  return h;
}

Buf bulk_data_header(std::uint64_t xfer, std::uint64_t seq,
                     std::uint64_t nchunks, Bytes64 offset, Bytes64 len,
                     Bytes64 total) {
  Buf h = bulk_header(BulkKind::kData, xfer);
  Writer w(h);
  w.u64(seq);
  w.u64(nchunks);
  w.i64(offset);
  w.i64(len);
  w.i64(total);
  return h;
}

BulkSender::BulkSender(std::uint64_t xfer, BodyView body, Bytes64 chunk,
                       Duration drain, const BulkParams& params,
                       obs::TraceContext ctx)
    : xfer_(xfer),
      body_(body),
      chunk_(chunk),
      nchunks_(body.size <= 0 ? 1
                              : static_cast<std::uint64_t>(
                                    (body.size + chunk - 1) / chunk)),
      drain_(drain),
      p_(params),
      ctx_(ctx),
      sent_once_(nchunks_, false) {}

void BulkSender::start() {
  if (p_.stats != nullptr) {
    p_.stats->sends_started.inc();
    if (nchunks_ == 1) p_.stats->single_packet_sends.inc();
  }
  // Multi-chunk transfers negotiate the receiver's window first (§4.4);
  // single-chunk transfers go straight to data.
  if (nchunks_ > 1) {
    negotiating_ = true;
    return send_req(false);
  }
  open_round();
}

void BulkSender::send_req(bool renegotiation) {
  if (p_.stats != nullptr) {
    p_.stats->credit_requests.inc();
    if (renegotiation) p_.stats->credit_renegotiations.inc();
  }
  Buf h = bulk_header(BulkKind::kReq, xfer_, ctx_);
  Writer(h).i64(body_.size);
  outbox.push_back({std::move(h)});
}

void BulkSender::fill_round() {
  missing_.clear();
  const std::uint64_t end = std::min(nchunks_, base_ + win_chunks_);
  for (std::uint64_t s = base_; s < end; ++s) missing_.push_back(s);
}

void BulkSender::open_round() {
  fill_round();
  stalls_ = 0;
  last_missing_ = missing_.size() + 1;
  blast();
}

void BulkSender::blast() {
  if (base_ >= nchunks_) {
    if (p_.stats != nullptr) p_.stats->sends_completed.inc();
    done_ = true;
    return;
  }
  if (p_.stats != nullptr) p_.stats->rounds.inc();
  for (const auto seq : missing_) {
    const Bytes64 off = static_cast<Bytes64>(seq) * chunk_;
    const Bytes64 len = std::min(chunk_, body_.size - off);
    if (p_.stats != nullptr) {
      if (sent_once_[seq]) {
        p_.stats->chunks_retransmitted.inc();
      } else {
        p_.stats->chunks_sent.inc();
      }
      p_.stats->bytes_sent.inc(static_cast<std::uint64_t>(len > 0 ? len : 0));
    }
    sent_once_[seq] = true;
    const BodyView payload{body_.data == nullptr ? nullptr : body_.data + off,
                           len > 0 ? len : 0};
    Buf h = bulk_data_header(xfer_, seq, nchunks_, off, len, body_.size);
    outbox.push_back({std::move(h), payload});
  }
}

void BulkSender::fail(const char* why) {
  status_ = Status(Err::kTimeout, why);
  done_ = true;
}

Duration BulkSender::wait() const {
  // The whole blast (missing_, until the next verdict) must clear the wire
  // before the receiver can possibly acknowledge; a fixed timeout shorter
  // than that would fire on every healthy round.
  return negotiating_ ? p_.ack_timeout
                      : p_.ack_timeout +
                            drain_ * static_cast<Duration>(missing_.size());
}

void BulkSender::on_timeout() {
  // A negotiation that times out asks again. In a round, a late verdict is
  // not a lost round: with several transfers sharing this node's transmit
  // link (a replicated mwrite fans a region to every copy at once), the
  // round drains in a multiple of its blast time. So a timeout sends a
  // datagram-sized credit probe instead of re-blasting window bytes —
  // re-blasting into an already-jammed link is how one slow round turns into
  // congestion collapse. If data really was lost, the receiver's progress
  // deadline NACKs exactly the missing chunks; data retransmits happen only
  // on that NACK, never on a bare timeout.
  if (++stalls_ > p_.max_retries) {
    return fail(negotiating_ ? "bulk: no credit from receiver"
                             : "bulk: receiver stopped responding");
  }
  send_req(negotiating_);
}

void BulkSender::on_frame(const BulkFrame& f) {
  const bool mine = f.ok && f.xfer == xfer_;
  if (negotiating_) {
    // Anything but a usable credit re-sends the request: a stray datagram
    // counts as a renegotiation, though not as a timeout.
    if (!mine || f.kind != BulkKind::kCredit || f.window < chunk_) {
      return send_req(true);
    }
    negotiating_ = false;
    win_chunks_ = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(f.window / chunk_));
    return open_round();
  }
  if (!mine) return;
  switch (f.kind) {
    case BulkKind::kAck:
      if (p_.stats != nullptr) p_.stats->acks_received.inc();
      if (f.next_base > base_) {  // else a duplicate: keep waiting
        base_ = f.next_base;
        open_round();  // the next round's fresh data
      }
      return;
    case BulkKind::kNack:
      if (p_.stats != nullptr) p_.stats->nacks_received.inc();
      missing_.clear();
      for (const auto s : f.missing) {
        if (s < nchunks_) missing_.push_back(s);  // past the end: forged
      }
      // Defensive: an empty NACK would livelock the blast loop.
      if (missing_.empty()) fill_round();
      if (missing_.size() < last_missing_) {
        last_missing_ = missing_.size();
        stalls_ = 0;
      } else if (++stalls_ > p_.max_retries) {
        return fail("bulk: no forward progress");
      }
      return blast();
    default:
      // A kCredit answers a probe: the receiver is alive and still waiting
      // on the wire to drain. Keep waiting; stalls stays, so patience is
      // bounded even against a receiver that only ever answers probes.
      return;
  }
}

BulkReceiver::BulkReceiver(std::uint64_t xfer, Bytes64 chunk,
                           const BulkParams& params, SimTime now)
    : xfer_(xfer),
      chunk_(chunk),
      p_(params),
      win_chunks_(std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(params.window_bytes / chunk))),
      gap_(params.recv_gap_timeout),
      armed_at_(now) {
  if (p_.stats != nullptr) {
    p_.stats->recvs_started.inc();
    // A window smaller than one chunk cannot make progress; the credit
    // grant renegotiates it up to a single chunk.
    if (p_.window_bytes < chunk) p_.stats->window_clamps.inc();
  }
}

bool BulkReceiver::admit(const BulkFrame& f, BodyView chunk) const {
  if (!f.ok || f.xfer != xfer_) return false;
  if (f.kind == BulkKind::kReq) return f.total_len >= 0;
  if (f.kind != BulkKind::kData) return true;
  // A chunk must lie inside the transfer, carry exactly the bytes it
  // claims, and not split the transfer into more chunks than it has bytes.
  const Bytes64 total = total_ < 0 ? f.total_len : total_;
  return f.chunk_len >= 0 && f.chunk_len <= total && f.offset >= 0 &&
         f.offset <= total - f.chunk_len && chunk.size == f.chunk_len &&
         f.nchunks <= static_cast<std::uint64_t>(std::max<Bytes64>(1, total));
}

void BulkReceiver::adopt(Bytes64 total, std::uint64_t nchunks) {
  if (total_ >= 0) return;
  total_ = total;
  nchunks_ = nchunks;
  have_.assign(nchunks_, false);
  round_end_ = std::min(nchunks_, base_ + win_chunks_);
  pending_ = round_end_ - base_;
}

void BulkReceiver::reply(BulkKind kind, std::uint64_t value,
                         obs::TraceContext ctx) {
  Buf h = bulk_header(kind, xfer_, ctx);
  Writer(h).u64(value);
  outbox.push_back({std::move(h)});
}

// The progress deadline is re-armed only by datagrams that advance the
// transfer: a credit request, a newly accepted in-window chunk, or a stale
// chunk that provoked a re-ACK. Duplicates of chunks already held, frames
// beyond the window, foreign transfers, and corrupt datagrams do not move it
// — a sender re-blasting bytes we hold is making no progress, and the timely
// targeted NACK (listing exactly what is missing) is what stops it. The
// deadline is absolute, not a per-recv timeout: a steady stream of useless
// datagrams must not keep resetting the clock.
//
// The deadline backs off exponentially within a round. A quiet gap can mean
// loss (the blast arrived with holes — the chunks are gone and only a NACK
// revives them) or congestion (the blast is intact but queued behind sibling
// transfers sharing the sender's link — a replicated mwrite fans K copies
// out at once, so our whole round can sit (K-1) blast-times deep in the
// transmit queue). The receiver cannot tell the two apart, so it NACKs fast
// the first time — loss recovery stays one gap away — and then waits twice
// as long before each repeat NACK for the same round. Without the backoff
// every spurious NACK triggers a full re-blast into the very queue that
// caused it, and the amplification compounds until the link collapses.
// Progress (the round advancing) resets the backoff; probes do not.
void BulkReceiver::on_deadline(SimTime now, obs::TraceContext ctx) {
  constexpr Duration kMaxGapBackoff = 8;  // cap, in multiples of the base gap
  if (++idle_ > p_.max_retries) {
    result.status = Status(Err::kTimeout, "bulk: sender stopped transmitting");
    done_ = true;
    return;
  }
  if (nchunks_ > 0) {  // NACK only once the transfer's size is known
    if (p_.stats != nullptr) p_.stats->nacks_sent.inc();
    Buf h = bulk_header(BulkKind::kNack, xfer_, ctx);
    Writer w(h);
    w.u32(static_cast<std::uint32_t>(pending_));
    for (std::uint64_t s = base_; s < round_end_; ++s) {
      if (!have_[s]) w.u64(s);
    }
    outbox.push_back({std::move(h)});
  }
  gap_ = std::min(gap_ * 2, p_.recv_gap_timeout * kMaxGapBackoff);
  armed_at_ = now;
}

void BulkReceiver::on_frame(const BulkFrame& f, BodyView chunk, SimTime now,
                            obs::TraceContext ctx) {
  if (f.kind == BulkKind::kReq) {
    const Bytes64 n = f.total_len / chunk_ + (f.total_len % chunk_ != 0);
    adopt(f.total_len,
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(n)));
    idle_ = 0;
    armed_at_ = now;
    return reply(BulkKind::kCredit,
                 win_chunks_ * static_cast<std::uint64_t>(chunk_), ctx);
  }
  if (f.kind != BulkKind::kData) return;
  adopt(f.total_len, std::max<std::uint64_t>(1, f.nchunks));
  if (f.seq >= nchunks_) return;
  if (f.seq < base_) {
    // Stale retransmit from an already-completed round: the sender missed
    // our ACK. Re-acknowledge so it advances — it is alive and waiting on
    // us, so the deadline re-arms too.
    idle_ = 0;
    armed_at_ = now;
    return reply(BulkKind::kAck, base_, ctx);
  }
  if (f.seq >= round_end_) return;  // beyond the window; drop
  if (!have_[f.seq]) {
    idle_ = 0;
    armed_at_ = now;
    have_[f.seq] = true;
    --pending_;
    if (p_.stats != nullptr) {
      p_.stats->bytes_received.inc(static_cast<std::uint64_t>(f.chunk_len));
    }
    if (chunk.data == nullptr && chunk.size > 0) {
      materialized_ = false;  // a phantom body
    } else if (materialized_ && total_ > 0) {
      if (result.data.empty()) {
        result.data.assign(static_cast<std::size_t>(total_), 0);
      }
      std::copy_n(chunk.data, chunk.size, result.data.begin() + f.offset);
    }
  }
  if (pending_ > 0) return;
  base_ = round_end_;
  gap_ = p_.recv_gap_timeout;  // progress: restore fast NACKs
  reply(BulkKind::kAck, base_, ctx);
  if (base_ < nchunks_) {
    round_end_ = std::min(nchunks_, base_ + win_chunks_);
    pending_ = round_end_ - base_;
    return;
  }
  result.size = total_;
  if (!materialized_) result.data.clear();
  result.status = Status::ok();
  if (p_.stats != nullptr) p_.stats->recvs_completed.inc();
  done_ = true;
}

// The simulator's driver.

namespace {

/// Room left for chunk payload once the data header is accounted for.
Bytes64 chunk_capacity(const NetParams& p) {
  constexpr Bytes64 kDataHeaderBytes = 1 + 8 + 8 + 8 + 8 + 8 + 8;
  const Bytes64 c = p.max_datagram - kDataHeaderBytes;
  assert(c > 0);
  return c;
}

/// Manual span handle for bulk_recv, where the span may only be opened once
/// the first datagram reveals the sender's trace context, and must close on
/// every co_return path (RAII over the coroutine frame).
struct LazySpan {
  obs::SpanRecorder* rec = nullptr;
  std::uint64_t id = 0;
  std::uint64_t trace = 0;

  void open(const char* name, obs::TraceContext parent) {
    if (rec == nullptr || id != 0) return;
    id = rec->begin(name, parent);
    trace = parent.trace_id != 0 ? parent.trace_id : id;
  }
  [[nodiscard]] obs::TraceContext ctx() const { return {trace, id}; }
  ~LazySpan() {
    if (rec != nullptr && id != 0) rec->end(id);
  }
};

/// Sends every datagram a machine queued to `dst` and empties the queue. A
/// phantom payload travels as its logical size alone.
void flush(Socket& sock, Endpoint dst, std::vector<BulkDatagram>& outbox) {
  for (auto& d : outbox) {
    Buf payload;
    if (d.payload.data != nullptr && d.payload.size > 0) {
      payload.assign(d.payload.data, d.payload.data + d.payload.size);
    }
    sock.send(dst, std::move(d.header), std::move(payload), d.payload.size);
  }
  outbox.clear();
}

}  // namespace

sim::Co<Status> bulk_send(Socket& sock, Endpoint dst, std::uint64_t xfer_id,
                          BodyView body, BulkParams params,
                          obs::TraceContext ctx) {
  auto& net = sock.network();
  const Bytes64 chunk = chunk_capacity(net.params());
  obs::ScopedSpan span(params.spans, "bulk.send", ctx);
  // Datagrams carry the send span when recording, else the caller's context
  // unchanged — so the receiver joins the trace either way. Each chunk of a
  // blast occupies this host's CPU and link before the next can leave.
  BulkSender tx(xfer_id, body, chunk,
                net.wire_time(chunk) + net.send_cpu_time(chunk), params,
                span.id() != 0 ? span.ctx() : ctx);
  tx.start();
  for (;;) {
    flush(sock, dst, tx.outbox);
    if (tx.done()) co_return tx.status();
    auto reply = co_await sock.recv_for(tx.wait());
    if (reply) {
      tx.on_frame(decode_bulk(reply->header));
    } else {
      tx.on_timeout();
    }
  }
}

sim::Co<BulkRecvResult> bulk_recv(Socket& sock, std::uint64_t xfer_id,
                                  BulkParams params, obs::TraceContext ctx) {
  auto& net = sock.network();
  auto& clock = net.simulator();
  BulkReceiver rx(xfer_id, chunk_capacity(net.params()), params, clock.now());
  LazySpan span{params.spans};
  // With a local parent, open immediately; otherwise wait for the first
  // datagram and adopt the sender's context (see below).
  if (ctx.traced()) span.open("bulk.recv", ctx);
  Endpoint peer{};
  while (!rx.done()) {
    const Duration remaining = rx.deadline() - clock.now();
    if (remaining <= 0) {
      rx.on_deadline(clock.now(), span.ctx());
    } else if (auto msg = co_await sock.recv_for(remaining)) {
      const BulkFrame f = decode_bulk(msg->header);
      const BodyView chunk =
          msg->body.empty()
              ? BodyView{nullptr, msg->body_size}
              : BodyView{msg->body.data(),
                         static_cast<Bytes64>(msg->body.size())};
      if (!rx.admit(f, chunk)) continue;
      peer = msg->src;
      // Adopt the sender's trace on first contact (no-op once open, or when
      // the sender is untraced too).
      if (f.trace.traced()) span.open("bulk.recv", f.trace);
      rx.on_frame(f, chunk, clock.now(), span.ctx());
    }
    flush(sock, peer, rx.outbox);
  }
  co_return std::move(rx.result);
}

}  // namespace dodo::net
