#include "net/bulk.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/log.hpp"
#include "net/codec.hpp"

namespace dodo::net {

namespace {

enum class Kind : std::uint8_t {
  kReq = 1,     // sender -> receiver: total length, asks for credit
  kCredit = 2,  // receiver -> sender: window bytes
  kData = 3,    // sender -> receiver: one chunk
  kAck = 4,     // receiver -> sender: round complete, next base
  kNack = 5,    // receiver -> sender: missing seqs in current round
};

// Header layout: u8 kind, u64 xfer, then for the four *control* kinds a
// trace pair (u64 trace_id, u64 parent_span) mirroring the control-plane
// envelope, then kind-specific fields. kData deliberately omits the trace
// pair: at U-Net's 1472-byte datagrams 16 extra bytes per chunk measurably
// shrinks goodput, and both ends already hold the causal context from the
// RPC that initiated the transfer (plus kReq/kCredit for multi-chunk).
// kData: u64 seq, u64 nchunks, i64 offset, i64 chunk_len, i64 total_len
// kReq:  i64 total_len
// kCredit: i64 window
// kAck:  u64 next_base
// kNack: u32 count, count * u64 seq

struct Decoded {
  Kind kind{};
  std::uint64_t xfer = 0;
  obs::TraceContext trace;
  std::uint64_t seq = 0;
  std::uint64_t nchunks = 0;
  std::uint64_t next_base = 0;
  Bytes64 offset = 0;
  Bytes64 chunk_len = 0;
  Bytes64 total_len = 0;
  Bytes64 window = 0;
  std::vector<std::uint64_t> missing;
  bool ok = false;
};

Decoded decode(const Message& msg) {
  Decoded d;
  Reader r(msg.header);
  d.kind = static_cast<Kind>(r.u8());
  d.xfer = r.u64();
  if (d.kind != Kind::kData) {
    d.trace.trace_id = r.u64();
    d.trace.parent_span = r.u64();
  }
  switch (d.kind) {
    case Kind::kReq:
      d.total_len = r.i64();
      break;
    case Kind::kCredit:
      d.window = r.i64();
      break;
    case Kind::kData:
      d.seq = r.u64();
      d.nchunks = r.u64();
      d.offset = r.i64();
      d.chunk_len = r.i64();
      d.total_len = r.i64();
      break;
    case Kind::kAck:
      d.next_base = r.u64();
      break;
    case Kind::kNack: {
      const auto n = r.u32();
      d.missing.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        d.missing.push_back(r.u64());
      }
      break;
    }
    default:
      return d;
  }
  d.ok = r.ok();
  return d;
}

Buf encode_common(Kind kind, std::uint64_t xfer, obs::TraceContext ctx) {
  Buf h;
  h.reserve(kHeaderReserve);
  Writer w(h);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(xfer);
  if (kind != Kind::kData) {
    w.u64(ctx.trace_id);
    w.u64(ctx.parent_span);
  }
  return h;
}

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

}  // namespace

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

sim::Co<Status> bulk_send(Socket& sock, Endpoint dst, std::uint64_t xfer_id,
                          BodyView body, BulkParams params,
                          obs::TraceContext ctx) {
  auto& net = sock.network();
  const Bytes64 chunk = chunk_capacity(net.params());
  const Bytes64 total = body.size;
  const std::uint64_t nchunks = total <= 0
                                    ? 1
                                    : static_cast<std::uint64_t>(
                                          (total + chunk - 1) / chunk);
  BulkStats* const st = params.stats;
  if (st != nullptr) {
    st->sends_started.inc();
    if (nchunks == 1) st->single_packet_sends.inc();
  }
  obs::ScopedSpan span(params.spans, "bulk.send", ctx);
  // Datagrams carry the send span when recording, else the caller's context
  // unchanged — so the receiver joins the trace either way.
  const obs::TraceContext wire_ctx = span.id() != 0 ? span.ctx() : ctx;

  std::vector<bool> sent_once(nchunks, false);
  auto send_data = [&](std::uint64_t seq) {
    const Bytes64 off = static_cast<Bytes64>(seq) * chunk;
    const Bytes64 len = std::min(chunk, total - off);
    Buf h = encode_common(Kind::kData, xfer_id, wire_ctx);
    Writer w(h);
    w.u64(seq);
    w.u64(nchunks);
    w.i64(off);
    w.i64(len);
    w.i64(total);
    Buf payload;
    if (body.data != nullptr && len > 0) {
      payload.assign(body.data + off, body.data + off + len);
    }
    if (st != nullptr) {
      if (sent_once[seq]) {
        st->chunks_retransmitted.inc();
      } else {
        st->chunks_sent.inc();
      }
      st->bytes_sent.inc(static_cast<std::uint64_t>(len > 0 ? len : 0));
    }
    sent_once[seq] = true;
    sock.send(dst, std::move(h), std::move(payload), len > 0 ? len : 0);
  };

  // Multi-chunk transfers negotiate the receiver's window first (§4.4);
  // single-chunk transfers go straight to data.
  Bytes64 window = chunk;
  if (nchunks > 1) {
    int tries = 0;
    int req_sends = 0;
    for (;;) {
      if (st != nullptr) {
        st->credit_requests.inc();
        if (++req_sends > 1) st->credit_renegotiations.inc();
      }
      Buf h = encode_common(Kind::kReq, xfer_id, wire_ctx);
      Writer w(h);
      w.i64(total);
      sock.send(dst, std::move(h));
      auto reply = co_await sock.recv_for(params.ack_timeout);
      if (reply) {
        const Decoded d = decode(*reply);
        if (d.ok && d.xfer == xfer_id && d.kind == Kind::kCredit &&
            d.window >= chunk) {
          window = d.window;
          break;
        }
        continue;  // stray message; keep waiting within this try
      }
      if (++tries > params.max_retries) {
        co_return Status(Err::kTimeout, "bulk: no credit from receiver");
      }
    }
  }

  const std::uint64_t win_chunks =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(window / chunk));

  std::uint64_t base = 0;
  std::vector<std::uint64_t> missing;
  auto fill_round = [&](std::uint64_t from) {
    missing.clear();
    const std::uint64_t end = std::min(nchunks, from + win_chunks);
    for (std::uint64_t s = from; s < end; ++s) missing.push_back(s);
  };
  fill_round(base);

  int stalls = 0;
  std::size_t last_missing = missing.size() + 1;
  while (base < nchunks) {
    if (st != nullptr) st->rounds.inc();
    for (const auto seq : missing) send_data(seq);
    // The whole blast must clear the wire before the receiver can possibly
    // acknowledge; a fixed timeout shorter than that would trigger
    // spurious re-blasts of the entire round.
    const Duration blast_time =
        net.wire_time(chunk) * static_cast<Duration>(missing.size()) +
        net.send_cpu_time(chunk) * static_cast<Duration>(missing.size());
    // A late verdict is not a lost round: with several transfers sharing
    // this node's transmit link (a replicated mwrite fans a region to every
    // copy at once), the round drains in a multiple of blast_time. So a
    // timeout sends a datagram-sized credit probe instead of re-blasting
    // window bytes — re-blasting into an already-jammed link is how one
    // slow round turns into congestion collapse. If data really was lost,
    // the receiver's progress deadline NACKs exactly the missing chunks;
    // data retransmits happen only on that NACK, never on a bare timeout.
    bool reblast = false;
    while (!reblast) {
      auto reply = co_await sock.recv_for(params.ack_timeout + blast_time);
      if (!reply) {
        if (++stalls > params.max_retries) {
          co_return Status(Err::kTimeout, "bulk: receiver stopped responding");
        }
        if (st != nullptr) st->credit_requests.inc();
        Buf probe = encode_common(Kind::kReq, xfer_id, wire_ctx);
        Writer w(probe);
        w.i64(total);
        sock.send(dst, std::move(probe));
        continue;
      }
      const Decoded d = decode(*reply);
      if (!d.ok || d.xfer != xfer_id) continue;
      switch (d.kind) {
        case Kind::kAck:
          if (st != nullptr) st->acks_received.inc();
          if (d.next_base > base) {
            base = d.next_base;
            fill_round(base);
            stalls = 0;
            last_missing = missing.size() + 1;
            reblast = true;  // the next round's fresh data
          }
          break;  // duplicate ack: keep waiting
        case Kind::kNack:
          if (st != nullptr) st->nacks_received.inc();
          missing = d.missing;
          if (missing.empty()) {
            // Defensive: an empty NACK would livelock the blast loop.
            fill_round(base);
          }
          if (missing.size() < last_missing) {
            last_missing = missing.size();
            stalls = 0;
          } else if (++stalls > params.max_retries) {
            co_return Status(Err::kTimeout, "bulk: no forward progress");
          }
          reblast = true;
          break;
        case Kind::kCredit:
          // Probe answered: the receiver is alive and still waiting on the
          // wire to drain. Keep waiting; stalls stays, so patience is
          // bounded even against a receiver that only ever answers probes.
          break;
        default:
          break;
      }
    }
  }
  if (st != nullptr) st->sends_completed.inc();
  co_return Status::ok();
}

sim::Co<BulkRecvResult> bulk_recv(Socket& sock, std::uint64_t xfer_id,
                                  BulkParams params, obs::TraceContext ctx) {
  auto& net = sock.network();
  const Bytes64 chunk = chunk_capacity(net.params());

  BulkStats* const st = params.stats;
  if (st != nullptr) {
    st->recvs_started.inc();
    // A window smaller than one chunk cannot make progress; the credit
    // grant below renegotiates it up to a single chunk.
    if (params.window_bytes < chunk) st->window_clamps.inc();
  }
  LazySpan span{params.spans};
  // With a local parent, open immediately; otherwise wait for the first
  // datagram and adopt the sender's context (see below).
  if (ctx.traced()) span.open("bulk.recv", ctx);

  BulkRecvResult result;
  Bytes64 total = -1;
  std::uint64_t nchunks = 0;
  std::uint64_t base = 0;
  std::uint64_t round_end = 0;
  std::uint64_t win_chunks =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     params.window_bytes / chunk));
  std::vector<bool> have;  // per-chunk received flags
  bool materialized = true;
  Endpoint peer{};
  bool know_peer = false;

  auto send_ack = [&] {
    Buf h = encode_common(Kind::kAck, xfer_id, span.ctx());
    Writer w(h);
    w.u64(base);
    sock.send(peer, std::move(h));
  };
  auto send_nack = [&] {
    if (st != nullptr) st->nacks_sent.inc();
    Buf h = encode_common(Kind::kNack, xfer_id, span.ctx());
    Writer w(h);
    std::vector<std::uint64_t> missing;
    for (std::uint64_t s = base; s < round_end; ++s) {
      if (!have[s]) missing.push_back(s);
    }
    w.u32(static_cast<std::uint32_t>(missing.size()));
    for (const auto s : missing) w.u64(s);
    sock.send(peer, std::move(h));
  };
  auto start_round = [&] {
    round_end = std::min(nchunks, base + win_chunks);
  };
  auto round_complete = [&] {
    for (std::uint64_t s = base; s < round_end; ++s) {
      if (!have[s]) return false;
    }
    return true;
  };

  // The receive-gap timer is a deadline on transfer PROGRESS, re-armed only
  // by datagrams that advance the transfer: a credit request, a newly
  // accepted in-window chunk, or a stale chunk that provoked a re-ACK.
  // Duplicates of chunks already held, frames beyond the window, foreign
  // transfers, and corrupt datagrams do not move it — a sender re-blasting
  // bytes we hold is making no progress, and the timely targeted NACK
  // (listing exactly what is missing) is what stops it from re-blasting the
  // whole round again on its own coarser timeout. Crucially the deadline is
  // absolute, not a per-recv timeout: a steady stream of useless datagrams
  // must not keep resetting the clock.
  //
  // The gap deadline backs off exponentially within a round. A quiet gap can
  // mean loss (the blast arrived with holes — the chunks are gone and only a
  // NACK revives them) or congestion (the blast is intact but queued behind
  // sibling transfers sharing the sender's link — a replicated mwrite fans K
  // copies out at once, so our whole round can sit (K-1) blast-times deep in
  // the transmit queue). The receiver cannot tell the two apart, so it NACKs
  // fast the first time — loss recovery stays one gap away — and then waits
  // twice as long before each repeat NACK for the same round. Without the
  // backoff every spurious NACK triggers a full re-blast into the very queue
  // that caused it, and the amplification compounds until the link collapses.
  // Progress (the round advancing) resets the backoff; probes do not.
  auto& simclock = net.simulator();
  constexpr Duration kMaxGapBackoff = 8;  // cap, in multiples of the base gap
  int idle = 0;
  Duration gap = params.recv_gap_timeout;
  SimTime armed_at = simclock.now();
  for (;;) {
    const Duration remaining = armed_at + gap - simclock.now();
    if (remaining <= 0) {
      // A full gap elapsed with no progress.
      if (++idle > params.max_retries) {
        result.status =
            Status(Err::kTimeout, "bulk: sender stopped transmitting");
        co_return result;
      }
      if (know_peer && nchunks > 0) send_nack();
      gap = std::min(gap * 2, params.recv_gap_timeout * kMaxGapBackoff);
      armed_at = simclock.now();
      continue;
    }
    auto msg = co_await sock.recv_for(remaining);
    if (!msg) continue;  // deadline reached; handled above
    const Decoded d = decode(*msg);
    if (!d.ok || d.xfer != xfer_id) continue;
    peer = msg->src;
    know_peer = true;
    // Adopt the sender's trace on first contact (no-op once open, or when
    // the sender is untraced too).
    if (d.trace.traced()) span.open("bulk.recv", d.trace);

    switch (d.kind) {
      case Kind::kReq: {
        if (total < 0) {
          total = d.total_len;
          nchunks = std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>((total + chunk - 1) / chunk));
          have.assign(nchunks, false);
          start_round();
        }
        idle = 0;
        armed_at = simclock.now();
        Buf h = encode_common(Kind::kCredit, xfer_id, span.ctx());
        Writer w(h);
        w.i64(static_cast<Bytes64>(win_chunks) * chunk);
        sock.send(peer, std::move(h));
        break;
      }
      case Kind::kData: {
        if (total < 0) {
          total = d.total_len;
          nchunks = std::max<std::uint64_t>(1, d.nchunks);
          have.assign(nchunks, false);
          start_round();
        }
        if (d.seq >= nchunks) break;
        if (d.seq < base) {
          // Stale retransmit from an already-completed round: the sender
          // missed our ACK. Re-acknowledge so it advances — it is alive and
          // waiting on us, so the gap timer re-arms too.
          idle = 0;
          armed_at = simclock.now();
          send_ack();
          break;
        }
        if (d.seq >= round_end) break;  // beyond window; drop
        if (!have[d.seq]) {
          idle = 0;
          armed_at = simclock.now();
          have[d.seq] = true;
          if (st != nullptr) {
            st->bytes_received.inc(
                static_cast<std::uint64_t>(d.chunk_len > 0 ? d.chunk_len : 0));
          }
          if (msg->phantom_body()) {
            materialized = false;
          } else if (materialized && total > 0) {
            const auto off = static_cast<std::size_t>(d.offset);
            const auto len =
                std::min<std::size_t>(msg->body.size(),
                                      static_cast<std::size_t>(total) - off);
            if (result.data.empty()) {
              result.data.assign(static_cast<std::size_t>(total), 0);
            }
            std::copy_n(msg->body.begin(), len, result.data.begin() + off);
          }
        }
        if (round_complete()) {
          base = round_end;
          gap = params.recv_gap_timeout;  // progress: restore fast NACKs
          send_ack();
          if (base >= nchunks) {
            result.size = total < 0 ? 0 : total;
            if (!materialized) result.data.clear();
            result.status = Status::ok();
            if (st != nullptr) st->recvs_completed.inc();
            co_return result;
          }
          start_round();
        }
        break;
      }
      default:
        break;
    }
  }
}

}  // namespace dodo::net
