// Tests for the real-UDP transport and bulk protocol on loopback. These
// use actual Berkeley sockets and threads; they skip gracefully when the
// environment forbids socket creation.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "fuzz/permute.hpp"
#include "net/bulk.hpp"
#include "net/codec.hpp"
#include "rtnet/rt_udp.hpp"

namespace dodo::rtnet {
namespace {

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 11);
  }
  return v;
}

#define REQUIRE_SOCKETS(s)                                   \
  if (!(s).valid()) {                                        \
    GTEST_SKIP() << "UDP sockets unavailable in this sandbox"; \
  }

TEST(RtUdp, OpenSendRecv) {
  UdpSocket a = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(a);
  UdpSocket b = UdpSocket::open_loopback();
  ASSERT_TRUE(b.valid());
  EXPECT_NE(a.port(), b.port());

  const std::uint8_t msg[] = {1, 2, 3, 4};
  ASSERT_TRUE(a.send_to(b.port(), msg, sizeof(msg)));
  auto got = b.recv(2000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, std::vector<std::uint8_t>({1, 2, 3, 4}));
  EXPECT_EQ(got->second, a.port());
}

TEST(RtUdp, RecvTimesOut) {
  UdpSocket a = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(a);
  EXPECT_FALSE(a.recv(20).has_value());
}

void run_bulk(std::size_t len, double loss, std::uint64_t seed) {
  UdpSocket tx = UdpSocket::open_loopback();
  if (!tx.valid()) GTEST_SKIP() << "UDP sockets unavailable";
  UdpSocket rx = UdpSocket::open_loopback();
  ASSERT_TRUE(rx.valid());
  if (loss > 0) tx.set_drop_rate(loss, seed);

  const auto data = pattern(len);
  RtBulkParams params;
  params.max_retries = 100;
  RtBulkResult result;
  std::thread receiver([&] { result = rt_bulk_recv(rx, 9, params); });
  const Status st =
      rt_bulk_send(tx, rx.port(), 9, data.data(), data.size(), params);
  receiver.join();
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.data, data);
}

TEST(RtBulk, SingleChunk) { run_bulk(512, 0.0, 1); }

TEST(RtBulk, MultiWindowMegabyte) { run_bulk(1024 * 1024, 0.0, 1); }

TEST(RtBulk, SurvivesInjectedLoss) { run_bulk(300000, 0.05, 7); }

// Sweep the retransmit machinery across several loss rates and rng
// streams; each (rate, seed) pair is an independent adversary, and the
// payload must come through byte-exact in all of them.
TEST(RtBulk, SurvivesPermutedLossSweep) {
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    for (double rate : {0.02, 0.10}) {
      run_bulk(120000, rate, seed);
      if (::testing::Test::IsSkipped()) return;
    }
  }
}

// Datagram sockets promise nothing about order or multiplicity. Drive a
// real socket with an adversarial delivery plan from the fuzz permuter —
// bounded reorder plus duplicates — and check the receiver observes
// exactly the planned multiset, no more, no fewer.
TEST(RtUdp, ToleratesReorderedAndDuplicatedDatagrams) {
  UdpSocket tx = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(tx);
  UdpSocket rx = UdpSocket::open_loopback();
  ASSERT_TRUE(rx.valid());

  constexpr std::size_t kMsgs = 48;
  const auto plan =
      fuzz::permute_deliveries(kMsgs, 21, {0.0, 0.25, 4});
  ASSERT_GT(plan.size(), kMsgs);  // the dup rate must have fired

  std::map<std::uint32_t, int> expected;
  for (std::size_t idx : plan) {
    const std::uint32_t tag = static_cast<std::uint32_t>(idx);
    std::uint8_t wire[4];
    std::memcpy(wire, &tag, sizeof(tag));
    ASSERT_TRUE(tx.send_to(rx.port(), wire, sizeof(wire)));
    ++expected[tag];
  }

  // Loopback does not lose datagrams, so every planned delivery arrives.
  std::map<std::uint32_t, int> got;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    auto d = rx.recv(2000);
    ASSERT_TRUE(d.has_value()) << "datagram " << i << " never arrived";
    ASSERT_EQ(d->first.size(), 4u);
    std::uint32_t tag = 0;
    std::memcpy(&tag, d->first.data(), sizeof(tag));
    ++got[tag];
  }
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(rx.recv(20).has_value());  // and nothing extra
}

// Raw kData frame for chunk `seq` of `data` in `piece`-byte chunks, built
// with the shared bulk encoder: the header, then the chunk's bytes.
net::Buf raw_chunk(std::uint64_t xfer, std::uint64_t seq,
                   std::uint64_t nchunks,
                   const std::vector<std::uint8_t>& data, std::size_t piece) {
  const std::size_t off = static_cast<std::size_t>(seq) * piece;
  const std::size_t n = std::min(piece, data.size() - off);
  net::Buf msg = net::bulk_data_header(
      xfer, seq, nchunks, static_cast<Bytes64>(off), static_cast<Bytes64>(n),
      static_cast<Bytes64>(data.size()));
  net::Writer(msg).bytes(data.data() + off, n);
  return msg;
}

TEST(RtBulk, SlowSenderJustUnderGapDrawsNoNack) {
  // Mirror of the simulated-transport test: the receive-gap timer re-arms
  // on every in-order chunk, so pacing chunks just under the gap draws no
  // NACK and the payload lands byte-exact.
  UdpSocket tx = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(tx);
  UdpSocket rx = UdpSocket::open_loopback();
  ASSERT_TRUE(rx.valid());

  RtBulkParams params;
  params.chunk = 512;
  params.recv_gap_timeout_ms = 120;  // generous: scheduler noise can't fire it
  const auto data = pattern(4 * 512);
  RtBulkResult result;
  std::thread receiver([&] { result = rt_bulk_recv(rx, 9, params); });

  int nacks_seen = 0;
  auto drain = [&](int timeout_ms) {
    while (auto m = tx.recv(timeout_ms)) {
      if (!m->first.empty() && m->first[0] == 5) ++nacks_seen;  // kNack
      if (!m->first.empty() && m->first[0] == 4) return true;   // kAck
    }
    return false;
  };
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    if (seq > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      drain(0);
    }
    const net::Buf msg = raw_chunk(9, seq, 4, data, params.chunk);
    ASSERT_TRUE(tx.send_to(rx.port(), msg.data(), msg.size()));
  }
  drain(2000);  // wait for the final ACK
  receiver.join();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.data, data);
  EXPECT_EQ(nacks_seen, 0);
}

TEST(RtBulk, DuplicateFloodStillDrawsTargetedNack) {
  // Duplicates make no progress and must not re-arm the gap timer: a sender
  // re-blasting chunk 0 while withholding the rest gets a NACK promptly.
  UdpSocket tx = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(tx);
  UdpSocket rx = UdpSocket::open_loopback();
  ASSERT_TRUE(rx.valid());

  RtBulkParams params;
  params.chunk = 512;
  params.recv_gap_timeout_ms = 30;
  const auto data = pattern(4 * 512);
  RtBulkResult result;
  std::thread receiver([&] { result = rt_bulk_recv(rx, 9, params); });

  net::Buf first = raw_chunk(9, 0, 4, data, params.chunk);
  ASSERT_TRUE(tx.send_to(rx.port(), first.data(), first.size()));
  bool nacked = false;
  for (int i = 0; i < 200 && !nacked; ++i) {
    if (auto m = tx.recv(10)) {
      if (!m->first.empty() && m->first[0] == 5) nacked = true;
    } else {
      ASSERT_TRUE(tx.send_to(rx.port(), first.data(), first.size()));
    }
  }
  for (std::uint64_t seq = 1; seq < 4; ++seq) {
    const net::Buf msg = raw_chunk(9, seq, 4, data, params.chunk);
    ASSERT_TRUE(tx.send_to(rx.port(), msg.data(), msg.size()));
  }
  while (auto m = tx.recv(2000)) {
    if (!m->first.empty() && m->first[0] == 4) break;  // final ACK
  }
  receiver.join();
  ASSERT_TRUE(result.status.is_ok()) << result.status.to_string();
  EXPECT_EQ(result.data, data);
  EXPECT_TRUE(nacked);
}

TEST(RtBulk, AckTimeoutProbesInsteadOfReblasting) {
  // A receiver that grants credit and then goes silent. After the first
  // blast a bare ACK timeout draws a one-datagram credit probe, never a
  // re-blast: data is re-sent only on a NACK, so the sender puts exactly one
  // window of data and max_retries probes on the wire before giving up.
  UdpSocket tx = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(tx);
  UdpSocket peer = UdpSocket::open_loopback();
  ASSERT_TRUE(peer.valid());
  RtBulkParams params;
  params.ack_timeout_ms = 20;
  params.max_retries = 3;
  const auto data = pattern(100000);  // 72 chunks; one window holds 46
  const std::size_t window_chunks = params.window_bytes / params.chunk;
  Status st;
  std::thread sender([&] {
    st = rt_bulk_send(tx, peer.port(), 5, data.data(), data.size(), params);
  });
  bool granted = false;
  int probes = 0;
  std::size_t data_frames = 0;
  while (auto m = peer.recv(200)) {
    const net::BulkFrame f = net::decode_bulk(m->first);
    if (f.kind == net::BulkKind::kData) {
      ++data_frames;
    } else if (f.kind == net::BulkKind::kReq && data_frames > 0) {
      ++probes;
    } else if (f.kind == net::BulkKind::kReq && !granted) {
      granted = true;
      net::Buf credit = net::bulk_header(net::BulkKind::kCredit, 5);
      net::Writer(credit).i64(
          static_cast<std::int64_t>(window_chunks * params.chunk));
      EXPECT_TRUE(peer.send_to(m->second, credit.data(), credit.size()));
    }
  }
  sender.join();
  EXPECT_EQ(st.code(), Err::kTimeout) << st.to_string();
  EXPECT_EQ(data_frames, window_chunks);
  EXPECT_EQ(probes, params.max_retries);
}

TEST(RtBulk, ForgedDatagramsAreIgnored) {
  // Frames no honest peer sends, each from a third socket ahead of a real
  // transfer: the receiver must drop a chunk carrying more bytes than its
  // transfer has, and the sender must drop NACKs that name a seq past the
  // end or claim 0xFFFFFFFF seqs. Neither side may touch memory outside the
  // transfer (the asan-ubsan preset checks), and both transfers land
  // byte-exact.
  UdpSocket tx = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(tx);
  UdpSocket rx = UdpSocket::open_loopback();
  UdpSocket forger = UdpSocket::open_loopback();
  ASSERT_TRUE(rx.valid() && forger.valid());
  RtBulkParams params;
  params.max_retries = 100;
  auto transfer = [&](std::uint64_t xfer, std::size_t len) {
    const auto data = pattern(len);
    RtBulkResult result;
    std::thread receiver([&] { result = rt_bulk_recv(rx, xfer, params); });
    const Status st =
        rt_bulk_send(tx, rx.port(), xfer, data.data(), data.size(), params);
    receiver.join();
    EXPECT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_TRUE(result.status.is_ok()) << result.status.to_string();
    EXPECT_EQ(result.data, data);
  };

  // A chunk claiming a 1,000-byte transfer and carrying 4,000 bytes.
  const auto junk = pattern(4000);
  net::Buf big = net::bulk_data_header(9, 0, 1, 0, 4000, 1000);
  net::Writer(big).bytes(junk.data(), junk.size());
  ASSERT_TRUE(forger.send_to(rx.port(), big.data(), big.size()));
  transfer(9, 3000);

  // NACKs waiting in the sender's socket when its lone chunk goes out.
  net::Buf past = net::bulk_header(net::BulkKind::kNack, 10);
  net::Writer(past).u32(1);
  net::Writer(past).u64(1000000);
  net::Buf huge = net::bulk_header(net::BulkKind::kNack, 10);
  net::Writer(huge).u32(0xFFFFFFFFu);
  net::Writer(huge).u64(0);
  ASSERT_TRUE(forger.send_to(tx.port(), past.data(), past.size()));
  ASSERT_TRUE(forger.send_to(tx.port(), huge.data(), huge.size()));
  transfer(10, 512);
}

TEST(RtBulk, ReceiverTimesOutWithoutSender) {
  UdpSocket rx = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(rx);
  RtBulkParams params;
  params.recv_gap_timeout_ms = 5;
  params.max_retries = 3;
  const auto result = rt_bulk_recv(rx, 1, params);
  EXPECT_EQ(result.status.code(), Err::kTimeout);
}

TEST(RtBulk, SenderTimesOutWithoutReceiver) {
  UdpSocket tx = UdpSocket::open_loopback();
  REQUIRE_SOCKETS(tx);
  RtBulkParams params;
  params.ack_timeout_ms = 5;
  params.max_retries = 3;
  const auto data = pattern(100000);
  const Status st = rt_bulk_send(tx, 1 /* nobody */, 1, data.data(),
                                 data.size(), params);
  EXPECT_EQ(st.code(), Err::kTimeout);
}

}  // namespace
}  // namespace dodo::rtnet
