#include "rtnet/rt_udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "net/bulk.hpp"

namespace dodo::rtnet {

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_),
      port_(other.port_),
      drop_rate_(other.drop_rate_),
      drop_rng_(other.drop_rng_) {
  other.fd_ = -1;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    drop_rate_ = other.drop_rate_;
    drop_rng_ = other.drop_rng_;
    other.fd_ = -1;
  }
  return *this;
}

UdpSocket UdpSocket::open_loopback() {
  UdpSocket s;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return s;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return s;
  }
  s.fd_ = fd;
  s.port_ = ntohs(addr.sin_port);
  return s;
}

bool UdpSocket::send_to(std::uint16_t port, const std::uint8_t* data,
                        std::size_t len) {
  if (fd_ < 0) return false;
  if (drop_rate_ > 0.0 && drop_rng_.chance(drop_rate_)) return true;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const auto n = ::sendto(fd_, data, len, 0,
                          reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  return n == static_cast<ssize_t>(len);
}

std::optional<std::pair<std::vector<std::uint8_t>, std::uint16_t>>
UdpSocket::recv(int timeout_ms) {
  if (fd_ < 0) return std::nullopt;
  pollfd pfd{fd_, POLLIN, 0};
  const int r = ::poll(&pfd, 1, timeout_ms);
  if (r <= 0 || (pfd.revents & POLLIN) == 0) return std::nullopt;
  std::vector<std::uint8_t> buf(65536);
  sockaddr_in from{};
  socklen_t from_len = sizeof(from);
  const auto n = ::recvfrom(fd_, buf.data(), buf.size(), 0,
                            reinterpret_cast<sockaddr*>(&from), &from_len);
  if (n < 0) return std::nullopt;
  buf.resize(static_cast<std::size_t>(n));
  return std::pair{std::move(buf), ntohs(from.sin_port)};
}

// The bulk protocol: blocking drivers of net::BulkSender and BulkReceiver.

namespace {

net::BulkParams proto_params(const RtBulkParams& p) {
  net::BulkParams b;
  b.window_bytes = static_cast<Bytes64>(p.window_bytes);
  b.recv_gap_timeout = p.recv_gap_timeout_ms * kMillisecond;
  b.ack_timeout = p.ack_timeout_ms * kMillisecond;
  b.max_retries = p.max_retries;
  return b;
}

/// Sends every datagram a machine queued to 127.0.0.1:port, payload right
/// after the header, and empties the queue.
void flush(UdpSocket& sock, std::uint16_t port,
           std::vector<net::BulkDatagram>& outbox) {
  for (auto& d : outbox) {
    const std::uint8_t* p = d.payload.data;
    if (p != nullptr) d.header.insert(d.header.end(), p, p + d.payload.size);
    sock.send_to(port, d.header.data(), d.header.size());
  }
  outbox.clear();
}

}  // namespace

Status rt_bulk_send(UdpSocket& sock, std::uint16_t dst_port,
                    std::uint64_t xfer_id, const std::uint8_t* data,
                    std::size_t len, const RtBulkParams& params) {
  // Nothing models the blast's drain time here: loopback is fast enough
  // that the plain ACK timeout covers it.
  net::BulkSender tx(xfer_id, {data, static_cast<Bytes64>(len)},
                     static_cast<Bytes64>(params.chunk), 0,
                     proto_params(params), {});
  tx.start();
  for (;;) {
    flush(sock, dst_port, tx.outbox);
    if (tx.done()) return tx.status();
    if (auto raw = sock.recv(static_cast<int>(tx.wait() / kMillisecond))) {
      tx.on_frame(net::decode_bulk(raw->first));
    } else {
      tx.on_timeout();
    }
  }
}

RtBulkResult rt_bulk_recv(UdpSocket& sock, std::uint64_t xfer_id,
                          const RtBulkParams& params) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto now = [start] {
    return static_cast<SimTime>(
        std::chrono::nanoseconds(Clock::now() - start).count());
  };
  net::BulkReceiver rx(xfer_id, static_cast<Bytes64>(params.chunk),
                       proto_params(params), now());
  std::uint16_t peer = 0;
  while (!rx.done()) {
    // poll() takes whole milliseconds; less than one left counts as passed.
    const auto remaining_ms =
        static_cast<int>((rx.deadline() - now()) / kMillisecond);
    if (remaining_ms <= 0) {
      rx.on_deadline(now(), {});
    } else if (auto raw = sock.recv(remaining_ms)) {
      const net::BulkFrame f = net::decode_bulk(raw->first);
      const net::BodyView chunk{
          raw->first.data() + f.header_bytes,
          static_cast<Bytes64>(raw->first.size() - f.header_bytes)};
      if (!rx.admit(f, chunk)) continue;
      peer = raw->second;
      rx.on_frame(f, chunk, now(), {});
    }
    flush(sock, peer, rx.outbox);
  }
  return {rx.result.status, std::move(rx.result.data)};
}

}  // namespace dodo::rtnet
