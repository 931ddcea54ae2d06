// Real Berkeley-socket UDP transport (loopback) and the §4.4 bulk protocol
// over it.
//
// Everything else in this repository runs on the simulated clock; this
// module shows that the wire protocol itself is real code that moves real
// bytes over real UDP sockets, with real packet loss injectable for tests.
// rt_bulk_send and rt_bulk_recv drive the simulator's own state machines, on
// its wire layout (net/bulk.hpp), over blocking sockets and a steady clock —
// blocking style with threads, as the 1999 daemons were written.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"

namespace dodo::rtnet {

/// A UDP socket bound to 127.0.0.1:<ephemeral>.
class UdpSocket {
 public:
  UdpSocket() = default;
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Opens and binds; returns an invalid socket (!valid()) when the
  /// environment forbids sockets (tests skip in that case).
  static UdpSocket open_loopback();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Sends one datagram to 127.0.0.1:port. Applies the test-only loss
  /// injection, if configured, *before* the syscall.
  bool send_to(std::uint16_t port, const std::uint8_t* data,
               std::size_t len);

  /// Receives one datagram; timeout in milliseconds (0 = poll). Returns
  /// payload + sender port.
  std::optional<std::pair<std::vector<std::uint8_t>, std::uint16_t>> recv(
      int timeout_ms);

  /// Test hook: drop this fraction of outgoing datagrams.
  void set_drop_rate(double rate, std::uint64_t seed) {
    drop_rate_ = rate;
    drop_rng_.reseed(seed);
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  double drop_rate_ = 0.0;
  Rng drop_rng_{1};
};

struct RtBulkParams {
  std::size_t chunk = 1400;         // payload bytes per datagram
  std::size_t window_bytes = 64 * 1024;
  int recv_gap_timeout_ms = 30;
  int ack_timeout_ms = 60;
  int max_retries = 40;
};

Status rt_bulk_send(UdpSocket& sock, std::uint16_t dst_port,
                    std::uint64_t xfer_id, const std::uint8_t* data,
                    std::size_t len, const RtBulkParams& params = {});

struct RtBulkResult {
  Status status;
  std::vector<std::uint8_t> data;
};

RtBulkResult rt_bulk_recv(UdpSocket& sock, std::uint64_t xfer_id,
                          const RtBulkParams& params = {});

}  // namespace dodo::rtnet
