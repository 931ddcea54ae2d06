// Bulk data transfer protocol (paper §4.4).
//
// Memory regions can be arbitrarily large while datagrams are bounded
// (~1500 B for U-Net, ~60 KB for UDP), so transfers are packetized with
// sequence numbers. The sender first negotiates the space available at the
// receiver, then "blasts" as many packets as fit in that window and waits.
// The receiver waits for that many packets or a timeout; on timeout it sends
// a *selective NACK* listing the missing sequence numbers. ACKs advance the
// window. Single-packet transfers skip the negotiation.
//
// Each bulk exchange runs on a dedicated ephemeral socket pair, so there is
// no cross-transfer multiplexing; the xfer id is carried anyway as a
// tripwire against misrouted datagrams.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "common/units.hpp"
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

/// A borrowed view of the bytes to send. `data == nullptr` sends a phantom
/// body: timing and protocol behaviour are identical, but no bytes are
/// materialized (used by paper-scale benchmarks).
struct BodyView {
  const std::uint8_t* data = nullptr;
  Bytes64 size = 0;
};

struct BulkRecvResult {
  Status status;
  Buf data;        // empty when the sender used a phantom body
  Bytes64 size = 0;  // logical size actually transferred
};

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
