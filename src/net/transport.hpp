// Simulated cluster network: switched full-duplex Ethernet with two
// calibrated NIC/protocol timing models (UDP/IP and U-Net), per §4/§5 of the
// paper.
//
// Timing model per datagram:
//   depart  = max(now + send_cpu, tx_free[src]) ; tx link serializes
//   arrive  = depart + wire_time + propagation
//   deliver = max(arrive, rx_free[dst]) + recv_cpu ; rx link serializes
// where send/recv CPU include a per-datagram cost, a per-fragment cost
// (UDP datagrams fragment at 1500 B on the wire), and a per-byte copy cost
// (kernel copies for UDP; much cheaper for user-level U-Net).
//
// Datagrams to closed ports or down nodes vanish, exactly like UDP: all
// loss/timeout handling lives in the protocols above (bulk transfer NACKs,
// RPC retries), as in the real system.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/address.hpp"
#include "net/message.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"

namespace dodo::net {

/// Timing parameters for one transport flavour.
struct NetParams {
  std::string name;
  Bytes64 max_datagram = 0;     // largest payload send() accepts
  Bytes64 frag_size = 1500;     // wire fragmentation unit
  Bytes64 frame_overhead = 58;  // header bytes per fragment on the wire
  Duration per_dgram_send_cpu = 0;
  Duration per_frag_send_cpu = 0;
  Duration per_dgram_recv_cpu = 0;
  Duration per_frag_recv_cpu = 0;
  double per_byte_send_cpu_ns = 0.0;  // copy cost, ns per payload byte
  double per_byte_recv_cpu_ns = 0.0;
  double bandwidth_Bps = 12.5e6;  // 100 Mb/s Fast Ethernet
  Duration propagation = 0;
  double loss_rate = 0.0;  // per-datagram drop probability

  /// UDP/IP on Linux 2.0 over Fast Ethernet (paper's UDP configuration).
  /// Datagrams up to ~60 KB, fragmented at 1500 B; kernel crossing per
  /// datagram plus per-fragment IP processing plus two kernel copies.
  static NetParams udp();

  /// U-Net user-level networking (paper's fast path): 1472-byte messages,
  /// no kernel crossing, single user-space copy.
  static NetParams unet();

  /// Timing-equivalent U-Net profile for large simulations: one simulated
  /// datagram stands in for up to ~120 real U-Net packets, with the per-
  /// packet CPU and wire costs charged through the per-fragment accounting.
  /// Event counts drop by ~100x; end-to-end transfer times are identical to
  /// within the window-protocol's ACK granularity. Packet-level tests use
  /// unet(); paper-scale benchmarks use this.
  static NetParams unet_batched();

  [[nodiscard]] Bytes64 fragments_of(Bytes64 payload) const {
    if (payload <= 0) return 1;
    return (payload + frag_size - 1) / frag_size;
  }
};

struct NetMetrics {
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t datagrams_lost = 0;      // random loss injection
  std::uint64_t datagrams_dropped = 0;   // closed port / down node
  std::uint64_t datagrams_cut = 0;       // severed link (fault injection)
  std::uint64_t datagrams_duplicated = 0;  // dup-filter injected copies
  std::uint64_t payload_bytes_sent = 0;
};

class Socket;

class Network {
 public:
  Network(sim::Simulator& sim, NetParams params, std::size_t num_nodes);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Binds a socket to a well-known port. Aborts if the port is taken.
  std::unique_ptr<Socket> open(NodeId node, Port port);

  /// Binds a socket to a fresh ephemeral port on `node`.
  std::unique_ptr<Socket> open_ephemeral(NodeId node);

  /// Nodes that are "down" silently eat traffic in both directions.
  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool node_up(NodeId node) const;

  /// Fault-injection hook: changes the uniform per-datagram drop probability
  /// at runtime (correlated loss bursts raise it for a window, then restore
  /// the base rate). The loss RNG stream is unaffected, so a run with a
  /// burst diverges from the fault-free run only inside the burst window.
  void set_loss_rate(double rate) { params_.loss_rate = rate; }

  /// Fault-injection hook: severs (or restores) the bidirectional link
  /// between two nodes. Datagrams on a cut link vanish like UDP on a
  /// partitioned switch; both nodes stay reachable from everyone else.
  void set_link_cut(NodeId a, NodeId b, bool cut);
  [[nodiscard]] bool link_cut(NodeId a, NodeId b) const;

  /// Oracle hook: invoked on every datagram actually handed to a bound
  /// socket (after loss/cut/down filtering), before the socket sees it. The
  /// fuzz harness evaluates its cheap always-on invariants here. The probe
  /// must not send, close sockets, or otherwise mutate the network. Pass an
  /// empty function to uninstall.
  void set_delivery_probe(std::function<void(const Message&)> probe) {
    delivery_probe_ = std::move(probe);
  }

  /// Test-only hook: a predicate consulted right before a datagram would be
  /// delivered; returning true drops it (counted as a loss). Unlike
  /// loss_rate this is deterministic and content-aware, so a test can
  /// surgically drop, say, specific bulk DATA sequence numbers to force a
  /// selective NACK. Pass an empty function to uninstall.
  void set_drop_filter(std::function<bool(const Message&)> filter) {
    drop_filter_ = std::move(filter);
  }

  /// Test-only hook: a predicate consulted on each datagram that will be
  /// delivered; returning true delivers a SECOND copy immediately after the
  /// first (back-to-back on the receive link), modelling UDP duplicate
  /// delivery. Deterministic and content-aware, like set_drop_filter. Used
  /// to prove the daemons' dedup/replay paths open no duplicate spans and
  /// execute no duplicate work. Pass an empty function to uninstall.
  void set_dup_filter(std::function<bool(const Message&)> filter) {
    dup_filter_ = std::move(filter);
  }

  [[nodiscard]] const NetParams& params() const { return params_; }
  [[nodiscard]] NetMetrics& metrics() { return metrics_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Computes the one-way CPU+wire cost components for a payload size;
  /// exposed for the calibration tests.
  [[nodiscard]] Duration send_cpu_time(Bytes64 payload) const;
  [[nodiscard]] Duration recv_cpu_time(Bytes64 payload) const;
  [[nodiscard]] Duration wire_time(Bytes64 payload) const;

 private:
  friend class Socket;

  void send(Message msg);
  void unbind(const Endpoint& ep);

  /// Moves a datagram into a free in-flight slot and returns its index.
  std::uint32_t park(Message msg);
  void on_arrival(std::uint32_t slot);
  void on_delivery(std::uint32_t slot);

  sim::Simulator& sim_;
  NetParams params_;
  Rng loss_rng_;
  NetMetrics metrics_;
  std::vector<SimTime> tx_free_;
  std::vector<SimTime> rx_free_;
  std::vector<bool> node_up_;
  std::set<std::pair<NodeId, NodeId>> cut_links_;  // normalized (lo, hi)
  std::vector<Port> next_ephemeral_;
  std::unordered_map<Endpoint, Socket*, EndpointHash> bound_;
  // Datagrams between send() and delivery. The arrival and delivery events
  // capture only (this, slot), which fits std::function's inline buffer.
  std::vector<Message> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;
  std::function<void(const Message&)> delivery_probe_;
  std::function<bool(const Message&)> drop_filter_;
  std::function<bool(const Message&)> dup_filter_;
};

/// An open datagram endpoint. Closing (destroying) the socket unbinds it;
/// in-flight datagrams addressed to it are dropped, which is exactly how the
/// paper's daemons disappear when a workstation is reclaimed.
class Socket {
 public:
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] Endpoint local() const { return local_; }

  /// Sends a datagram. Payload larger than params().max_datagram aborts:
  /// packetization is the bulk protocol's job, not the transport's.
  void send(const Endpoint& dst, Buf header, Buf body = {},
            Bytes64 body_size = -1);

  /// Awaitable receive.
  [[nodiscard]] auto recv() { return inbox_.recv(); }
  /// Awaitable receive with timeout (std::nullopt on timeout).
  [[nodiscard]] auto recv_for(Duration d) { return inbox_.recv_for(d); }
  /// Non-blocking receive.
  std::optional<Message> try_recv() { return inbox_.try_recv(); }

  /// Delivers a message into this socket's inbox directly, bypassing the
  /// network and its timing (used for same-process control sentinels such
  /// as the rmd's shutdown signal to the imd).
  void inject(Message msg) { deliver(std::move(msg)); }

  [[nodiscard]] Network& network() { return *net_; }

 private:
  friend class Network;

  Socket(Network& net, Endpoint local)
      : net_(&net), local_(local), inbox_(net.simulator()) {}

  void deliver(Message msg) { inbox_.send(std::move(msg)); }

  Network* net_;
  Endpoint local_;
  sim::Channel<Message> inbox_;
};

}  // namespace dodo::net
