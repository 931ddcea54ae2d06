#include "rtnet/rt_udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "net/codec.hpp"

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

// ---------------------------------------------------------------------------
// Bulk protocol, blocking style. Same message kinds and semantics as the
// simulated bulk layer (net/bulk.cpp).
// ---------------------------------------------------------------------------

namespace {

enum class Kind : std::uint8_t {
  kReq = 1,
  kCredit = 2,
  kData = 3,
  kAck = 4,
  kNack = 5,
};

struct Decoded {
  Kind kind{};
  std::uint64_t xfer = 0;
  std::uint64_t seq = 0;
  std::uint64_t nchunks = 0;
  std::uint64_t next_base = 0;
  std::int64_t total_len = 0;
  std::int64_t window = 0;
  std::vector<std::uint64_t> missing;
  std::vector<std::uint8_t> payload;
  bool ok = false;
};

Decoded decode(const std::vector<std::uint8_t>& raw) {
  Decoded d;
  net::Reader r(raw);
  d.kind = static_cast<Kind>(r.u8());
  d.xfer = r.u64();
  switch (d.kind) {
    case Kind::kReq:
      d.total_len = r.i64();
      break;
    case Kind::kCredit:
      d.window = r.i64();
      break;
    case Kind::kData: {
      d.seq = r.u64();
      d.nchunks = r.u64();
      d.total_len = r.i64();
      const auto n = r.u32();
      if (n <= r.remaining()) {
        d.payload.assign(raw.end() - static_cast<std::ptrdiff_t>(n),
                         raw.end());
      }
      break;
    }
    case Kind::kAck:
      d.next_base = r.u64();
      break;
    case Kind::kNack: {
      const auto n = r.u32();
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

net::Buf header(Kind kind, std::uint64_t xfer) {
  net::Buf h;
  net::Writer w(h);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(xfer);
  return h;
}

}  // namespace

Status rt_bulk_send(UdpSocket& sock, std::uint16_t dst_port,
                    std::uint64_t xfer_id, const std::uint8_t* data,
                    std::size_t len, const RtBulkParams& params) {
  const std::size_t chunk = params.chunk;
  const std::uint64_t nchunks =
      len == 0 ? 1 : (len + chunk - 1) / chunk;

  auto send_data = [&](std::uint64_t seq) {
    const std::size_t off = static_cast<std::size_t>(seq) * chunk;
    const std::size_t n = std::min(chunk, len - off);
    net::Buf msg = header(Kind::kData, xfer_id);
    net::Writer w(msg);
    w.u64(seq);
    w.u64(nchunks);
    w.i64(static_cast<std::int64_t>(len));
    w.u32(static_cast<std::uint32_t>(n));
    if (n > 0) w.bytes(data + off, n);
    sock.send_to(dst_port, msg.data(), msg.size());
  };

  std::uint64_t win_chunks = std::max<std::uint64_t>(
      1, params.window_bytes / chunk);
  if (nchunks > 1) {
    int tries = 0;
    for (;;) {
      net::Buf msg = header(Kind::kReq, xfer_id);
      net::Writer w(msg);
      w.i64(static_cast<std::int64_t>(len));
      sock.send_to(dst_port, msg.data(), msg.size());
      auto reply = sock.recv(params.ack_timeout_ms);
      if (reply) {
        const Decoded d = decode(reply->first);
        if (d.ok && d.xfer == xfer_id && d.kind == Kind::kCredit &&
            d.window >= static_cast<std::int64_t>(chunk)) {
          win_chunks = static_cast<std::uint64_t>(d.window) / chunk;
          break;
        }
        continue;
      }
      if (++tries > params.max_retries) {
        return Status(Err::kTimeout, "rt bulk: no credit");
      }
    }
  }

  std::uint64_t base = 0;
  std::vector<std::uint64_t> missing;
  auto fill_round = [&] {
    missing.clear();
    for (std::uint64_t s = base; s < std::min(nchunks, base + win_chunks);
         ++s) {
      missing.push_back(s);
    }
  };
  fill_round();
  int stalls = 0;
  while (base < nchunks) {
    for (const auto seq : missing) send_data(seq);
    auto reply = sock.recv(params.ack_timeout_ms);
    if (!reply) {
      if (++stalls > params.max_retries) {
        return Status(Err::kTimeout, "rt bulk: receiver silent");
      }
      continue;
    }
    const Decoded d = decode(reply->first);
    if (!d.ok || d.xfer != xfer_id) continue;
    if (d.kind == Kind::kAck && d.next_base > base) {
      base = d.next_base;
      fill_round();
      stalls = 0;
    } else if (d.kind == Kind::kNack) {
      if (!d.missing.empty()) missing = d.missing;
      if (++stalls > params.max_retries) {
        return Status(Err::kTimeout, "rt bulk: no progress");
      }
    }
  }
  return Status::ok();
}

RtBulkResult rt_bulk_recv(UdpSocket& sock, std::uint64_t xfer_id,
                          const RtBulkParams& params) {
  RtBulkResult result;
  const std::size_t chunk = params.chunk;
  std::int64_t total = -1;
  std::uint64_t nchunks = 0;
  std::uint64_t base = 0;
  std::uint64_t round_end = 0;
  const std::uint64_t win_chunks = std::max<std::uint64_t>(
      1, params.window_bytes / chunk);
  std::vector<bool> have;
  std::uint16_t peer = 0;

  auto send_ack = [&] {
    net::Buf msg = header(Kind::kAck, xfer_id);
    net::Writer w(msg);
    w.u64(base);
    sock.send_to(peer, msg.data(), msg.size());
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

  // Gap timer is an absolute deadline on transfer progress, re-armed only
  // by a credit request, a newly accepted chunk, or a stale chunk answered
  // with a re-ACK — never by duplicates, out-of-window frames, or foreign
  // traffic. Mirrors the simulated receiver in net/bulk.cpp; see the
  // comment there.
  using Clock = std::chrono::steady_clock;
  int idle = 0;
  Clock::time_point armed_at = Clock::now();
  for (;;) {
    const auto remaining_ms =
        static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                             armed_at +
                             std::chrono::milliseconds(
                                 params.recv_gap_timeout_ms) -
                             Clock::now())
                             .count());
    if (remaining_ms <= 0) {
      if (++idle > params.max_retries) {
        result.status = Status(Err::kTimeout, "rt bulk: sender silent");
        return result;
      }
      if (peer != 0 && nchunks > 0) {
        net::Buf msg = header(Kind::kNack, xfer_id);
        net::Writer w(msg);
        std::vector<std::uint64_t> missing;
        for (std::uint64_t s = base; s < round_end; ++s) {
          if (!have[s]) missing.push_back(s);
        }
        w.u32(static_cast<std::uint32_t>(missing.size()));
        for (const auto s : missing) w.u64(s);
        sock.send_to(peer, msg.data(), msg.size());
      }
      armed_at = Clock::now();
      continue;
    }
    auto raw = sock.recv(remaining_ms);
    if (!raw) continue;  // deadline reached; handled above
    const Decoded d = decode(raw->first);
    if (!d.ok || d.xfer != xfer_id) continue;
    peer = raw->second;
    if (d.kind == Kind::kReq) {
      if (total < 0) {
        total = d.total_len;
        nchunks = std::max<std::uint64_t>(
            1, (static_cast<std::uint64_t>(total) + chunk - 1) / chunk);
        have.assign(nchunks, false);
        result.data.assign(static_cast<std::size_t>(total), 0);
        start_round();
      }
      idle = 0;
      armed_at = Clock::now();
      net::Buf msg = header(Kind::kCredit, xfer_id);
      net::Writer w(msg);
      w.i64(static_cast<std::int64_t>(win_chunks * chunk));
      sock.send_to(peer, msg.data(), msg.size());
    } else if (d.kind == Kind::kData) {
      if (total < 0) {
        total = d.total_len;
        nchunks = std::max<std::uint64_t>(1, d.nchunks);
        have.assign(nchunks, false);
        result.data.assign(static_cast<std::size_t>(total), 0);
        start_round();
      }
      if (d.seq >= nchunks) continue;
      if (d.seq < base) {
        idle = 0;  // sender is alive, just missed our ACK
        armed_at = Clock::now();
        send_ack();
        continue;
      }
      if (d.seq >= round_end) continue;
      if (!have[d.seq]) {
        idle = 0;
        armed_at = Clock::now();
        have[d.seq] = true;
        const std::size_t off = static_cast<std::size_t>(d.seq) * chunk;
        std::copy(d.payload.begin(), d.payload.end(),
                  result.data.begin() + static_cast<std::ptrdiff_t>(off));
      }
      if (round_complete()) {
        base = round_end;
        send_ack();
        if (base >= nchunks) {
          result.status = Status::ok();
          return result;
        }
        start_round();
      }
    }
  }
}

}  // namespace dodo::rtnet
