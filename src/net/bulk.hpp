// The bulk data transfer protocol of paper §4.4: two state machines that do
// no I/O and read no clock, and the simulator's driver of them.
//
// Memory regions can be arbitrarily large while datagrams are bounded
// (~1500 B for U-Net, ~60 KB for UDP), so transfers are packetized with
// sequence numbers. The sender first negotiates the space available at the
// receiver, then "blasts" as many packets as fit in that window and waits.
// The receiver waits for that many packets or a timeout; on timeout it sends
// a *selective NACK* listing the missing sequence numbers. ACKs advance the
// window. Single-packet transfers skip the negotiation.
//
// BulkSender and BulkReceiver take what happened — a decoded datagram with
// its payload, a timeout, the current time — and queue the datagrams to send
// in their `outbox`. bulk_send and bulk_recv below drive them over simulated
// sockets, rtnet/rt_udp.hpp over real UDP sockets, both on one wire layout.
//
// Each bulk exchange runs on a dedicated ephemeral socket pair, so there is
// no cross-transfer multiplexing; the xfer id is carried anyway as a
// tripwire against misrouted datagrams.
//
// Wire layout: u8 kind, u64 xfer, then for the four *control* kinds a trace
// pair (u64 trace_id, u64 parent_span) mirroring the control-plane envelope,
// then kind-specific fields. kData deliberately omits the trace pair: at
// U-Net's 1472-byte datagrams 16 extra bytes per chunk measurably shrinks
// goodput, and both ends already hold the causal context from the RPC that
// initiated the transfer (plus kReq/kCredit for multi-chunk).
//   kData:   u64 seq, u64 nchunks, i64 offset, i64 chunk_len, i64 total_len,
//            then the chunk (a simulated message's body)
//   kReq:    i64 total_len
//   kCredit: i64 window
//   kAck:    u64 next_base
//   kNack:   u32 count, count * u64 seq
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"
#include "net/message.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/task.hpp"

namespace dodo::net {

/// Protocol-level counters for one endpoint's bulk transfers. Each owning
/// component (an imd, a client) keeps its own instance and points its
/// BulkParams at it, so the counters aggregate over every transfer that
/// endpoint participates in — sends and receives both.
struct BulkStats {
  // Sender side.
  obs::Counter sends_started;
  obs::Counter sends_completed;
  obs::Counter single_packet_sends;  // fast path: credit negotiation skipped
  obs::Counter credit_requests;      // kReq datagrams put on the wire
  obs::Counter credit_renegotiations;  // kReq re-sent (credit lost/timed out)
  obs::Counter rounds;               // window blasts issued
  obs::Counter chunks_sent;          // first transmissions
  obs::Counter chunks_retransmitted;
  obs::Counter nacks_received;
  obs::Counter acks_received;
  obs::Counter bytes_sent;
  // Receiver side.
  obs::Counter recvs_started;
  obs::Counter recvs_completed;
  obs::Counter nacks_sent;
  obs::Counter window_clamps;  // window_bytes < one chunk, renegotiated up
  obs::Counter bytes_received;

  /// Exports every counter into `out` under `prefix` (e.g. "imd.bulk.").
  void export_into(obs::MetricsSnapshot& out, const std::string& prefix) const;
};

struct BulkParams {
  /// Receiver window ("the amount of space available at the receiver").
  Bytes64 window_bytes = 1024 * 1024;
  /// Receiver: max quiet time within a round before it NACKs.
  Duration recv_gap_timeout = millis(20);
  /// Sender: max wait for a CREDIT/ACK/NACK (beyond the round's own wire
  /// time) before probing the receiver with a credit request. Data is only
  /// re-sent when the receiver NACKs; a bare timeout never re-blasts.
  Duration ack_timeout = millis(40);
  /// Rounds without forward progress before the transfer is abandoned.
  int max_retries = 8;
  /// Optional protocol counters, owned by the endpoint (not by the params
  /// copy). Null disables accounting.
  BulkStats* stats = nullptr;
  /// Optional span recorder: bulk_send opens a "bulk.send" span (child of
  /// the ctx it is given), bulk_recv a "bulk.recv" span. Null disables.
  obs::SpanRecorder* spans = nullptr;
};

/// A borrowed view of body bytes. `data == nullptr` with `size > 0` is a
/// phantom body: timing and protocol behaviour are identical, but no bytes
/// are materialized (used by paper-scale benchmarks).
struct BodyView {
  const std::uint8_t* data = nullptr;
  Bytes64 size = 0;
};

struct BulkRecvResult {
  Status status;
  Buf data;        // empty when the sender used a phantom body
  Bytes64 size = 0;  // logical size actually transferred
};

enum class BulkKind : std::uint8_t {
  kReq = 1,     // sender -> receiver: total length, asks for credit
  kCredit = 2,  // receiver -> sender: window bytes
  kData = 3,    // sender -> receiver: one chunk
  kAck = 4,     // receiver -> sender: round complete, next base
  kNack = 5,    // receiver -> sender: missing seqs in current round
};

/// One decoded frame. Fields a kind does not carry stay zero.
struct BulkFrame {
  bool ok = false;  // false: truncated, or an unknown kind
  BulkKind kind{};
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
  std::size_t header_bytes = 0;  // where a kData chunk starts in `wire`
};

/// Decodes the frame at the start of `wire`. Reserves no more than `wire`
/// can hold, whatever count it claims.
BulkFrame decode_bulk(const Buf& wire);

/// The prefix every frame starts with; kind-specific fields follow, written
/// with net::Writer.
Buf bulk_header(BulkKind kind, std::uint64_t xfer, obs::TraceContext ctx = {});

/// A complete kData header for body bytes [offset, offset + len) of `total`.
Buf bulk_data_header(std::uint64_t xfer, std::uint64_t seq,
                     std::uint64_t nchunks, Bytes64 offset, Bytes64 len,
                     Bytes64 total);

/// One datagram for a driver to send: `header`, then for kData the chunk's
/// bytes, borrowed from the sender's body.
struct BulkDatagram {
  Buf header;
  BodyView payload = {};
};

/// Sending side of one transfer of `body` in `chunk`-byte datagrams.
class BulkSender {
 public:
  /// `drain` is the time one chunk takes to leave this host; a round's ACK
  /// wait stretches by it per chunk blasted (0 where nothing models it).
  /// `ctx` rides every control frame.
  BulkSender(std::uint64_t xfer, BodyView body, Bytes64 chunk, Duration drain,
             const BulkParams& params, obs::TraceContext ctx);

  /// Queues the opening kReq, or the lone chunk of a one-chunk transfer.
  void start();
  /// Any datagram that arrived, decoded or not.
  void on_frame(const BulkFrame& f);
  /// wait() passed with nothing arriving.
  void on_timeout();

  /// How long to wait for the next datagram before on_timeout().
  [[nodiscard]] Duration wait() const;
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] const Status& status() const { return status_; }

  std::vector<BulkDatagram> outbox;

 private:
  void send_req(bool renegotiation);
  void fill_round();  // the whole window from base_
  void open_round();  // fill_round() with fresh patience, then blast()
  void blast();
  void fail(const char* why);

  std::uint64_t xfer_;
  BodyView body_;
  Bytes64 chunk_;
  std::uint64_t nchunks_;
  Duration drain_;
  BulkParams p_;
  obs::TraceContext ctx_;
  bool negotiating_ = false;
  std::uint64_t win_chunks_ = 1;
  std::uint64_t base_ = 0;
  std::vector<std::uint64_t> missing_;  // the last (or next) blast
  std::vector<bool> sent_once_;
  int stalls_ = 0;  // quiet waits, or NACKs without progress
  std::size_t last_missing_ = 0;
  bool done_ = false;
  Status status_;
};

/// Receiving side of one transfer; lands the bytes in `result.data`.
class BulkReceiver {
 public:
  /// `now` arms the first progress deadline.
  BulkReceiver(std::uint64_t xfer, Bytes64 chunk, const BulkParams& params,
               SimTime now);

  /// True if `f` belongs to this transfer and is safe to act on. A driver
  /// adopts the sender's address and trace only from an admitted frame.
  [[nodiscard]] bool admit(const BulkFrame& f, BodyView chunk) const;
  /// An admitted frame and its chunk bytes; `ctx` rides every reply.
  void on_frame(const BulkFrame& f, BodyView chunk, SimTime now,
                obs::TraceContext ctx);
  /// The progress deadline passed.
  void on_deadline(SimTime now, obs::TraceContext ctx);

  [[nodiscard]] SimTime deadline() const { return armed_at_ + gap_; }
  [[nodiscard]] bool done() const { return done_; }

  std::vector<BulkDatagram> outbox;
  BulkRecvResult result;  // final once done()

 private:
  void adopt(Bytes64 total, std::uint64_t nchunks);
  void reply(BulkKind kind, std::uint64_t value, obs::TraceContext ctx);

  std::uint64_t xfer_;
  Bytes64 chunk_;
  BulkParams p_;
  Bytes64 total_ = -1;  // unknown until a kReq or kData says
  std::uint64_t nchunks_ = 0;
  std::uint64_t base_ = 0;
  std::uint64_t round_end_ = 0;
  std::uint64_t pending_ = 0;  // chunks of [base_, round_end_) not yet held
  std::uint64_t win_chunks_;
  std::vector<bool> have_;
  bool materialized_ = true;
  int idle_ = 0;
  Duration gap_;
  SimTime armed_at_;
  bool done_ = false;
};

// The simulator's driver: the machines over a net::Socket, on the sim clock.

/// Sends `body` to `dst`. Returns kOk once the receiver has acknowledged
/// every packet, kTimeout if progress stalls for max_retries rounds.
/// `ctx` is the causal parent: it rides every datagram of the exchange, so
/// the receiving side parents its span to this transfer's trace.
sim::Co<Status> bulk_send(Socket& sock, Endpoint dst, std::uint64_t xfer_id,
                          BodyView body, BulkParams params = {},
                          obs::TraceContext ctx = {});

/// Receives one bulk transfer on `sock` (from whoever contacts it first).
/// If `ctx` is untraced, the receiver adopts the context carried by the
/// first datagram of the exchange (how a write-side imd joins the client's
/// trace even though the client initiates the bulk push).
sim::Co<BulkRecvResult> bulk_recv(Socket& sock, std::uint64_t xfer_id,
                                  BulkParams params = {},
                                  obs::TraceContext ctx = {});

}  // namespace dodo::net
