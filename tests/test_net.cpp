// Tests for the simulated network: codec, transport timing model, socket
// lifecycle, and the bulk blast + selective-NACK protocol of §4.4.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "common/units.hpp"
#include "net/bulk.hpp"
#include "net/codec.hpp"
#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace dodo::net {
namespace {

using sim::Co;
using sim::Simulator;

TEST(Codec, RoundTripsAllWidths) {
  Buf buf;
  Writer w(buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.str("dodo");
  Reader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.str(), "dodo");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, TruncatedInputMarksReaderBad) {
  Buf buf;
  Writer w(buf);
  w.u16(7);
  Reader r(buf);
  (void)r.u64();  // wider than available
  EXPECT_FALSE(r.ok());
}

TEST(Codec, StringWithBogusLengthIsRejected) {
  Buf buf;
  Writer w(buf);
  w.u32(1000000);  // claims a megabyte that isn't there
  Reader r(buf);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(NetParams, FragmentMath) {
  auto udp = NetParams::udp();
  EXPECT_EQ(udp.fragments_of(0), 1);
  EXPECT_EQ(udp.fragments_of(1), 1);
  EXPECT_EQ(udp.fragments_of(1500), 1);
  EXPECT_EQ(udp.fragments_of(1501), 2);
  EXPECT_EQ(udp.fragments_of(8192), 6);
}

TEST(NetParams, UnetHasLowerSmallMessageOverheadThanUdp) {
  Simulator sim;
  Network udp(sim, NetParams::udp(), 2);
  Network unet(sim, NetParams::unet(), 2);
  const Bytes64 small = 64;
  const Duration udp_cost = udp.send_cpu_time(small) + udp.wire_time(small) +
                            udp.recv_cpu_time(small);
  const Duration unet_cost = unet.send_cpu_time(small) +
                             unet.wire_time(small) + unet.recv_cpu_time(small);
  EXPECT_LT(unet_cost, udp_cost / 2);
}

Co<void> echo_server(Socket& sock) {
  for (;;) {
    Message m = co_await sock.recv();
    sock.send(m.src, m.header);
  }
}

TEST(Transport, RoundTripDeliversPayload) {
  Simulator sim;
  Network net(sim, NetParams::unet(), 3);
  auto server = net.open(1, 100);
  auto client = net.open(2, 100);
  sim.spawn(echo_server(*server));
  std::optional<Message> got;
  sim.spawn([](Simulator&, Socket& c, std::optional<Message>& g) -> Co<void> {
    c.send(Endpoint{1, 100}, Buf{1, 2, 3});
    g = co_await c.recv();
  }(sim, *client, got));
  sim.run(1_s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->header, (Buf{1, 2, 3}));
  EXPECT_EQ(got->src, (Endpoint{1, 100}));
}

TEST(Transport, DeliveryTakesModeledTime) {
  Simulator sim;
  Network net(sim, NetParams::udp(), 2);
  auto a = net.open(0, 10);
  auto b = net.open(1, 10);
  SimTime arrived = -1;
  sim.spawn([](Simulator& s, Socket& sock, SimTime& t) -> Co<void> {
    (void)co_await sock.recv();
    t = s.now();
  }(sim, *b, arrived));
  Buf big(8192, 0xCC);
  a->send(Endpoint{1, 10}, Buf{}, big);
  sim.run(1_s);
  ASSERT_GT(arrived, 0);
  const Duration expected = net.send_cpu_time(8192) + net.wire_time(8192) +
                            net.params().propagation +
                            net.recv_cpu_time(8192);
  EXPECT_EQ(arrived, expected);
}

TEST(Transport, BackToBackSendsSerializeOnTxLink) {
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto a = net.open(0, 10);
  auto b = net.open(1, 10);
  std::vector<SimTime> arrivals;
  sim.spawn([](Simulator& s, Socket& sock, std::vector<SimTime>& ts) -> Co<void> {
    for (int i = 0; i < 2; ++i) {
      (void)co_await sock.recv();
      ts.push_back(s.now());
    }
  }(sim, *b, arrivals));
  Buf pkt(1400, 0);
  a->send(Endpoint{1, 10}, Buf{}, pkt);
  a->send(Endpoint{1, 10}, Buf{}, pkt);
  sim.run(1_s);
  ASSERT_EQ(arrivals.size(), 2u);
  // Second packet waits for the first to clear the wire: the gap must be at
  // least the wire time of one packet.
  EXPECT_GE(arrivals[1] - arrivals[0], net.wire_time(1400));
}

TEST(Transport, ClosedPortDropsDatagrams) {
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto a = net.open(0, 10);
  { auto b = net.open(1, 10); }  // bound then closed
  a->send(Endpoint{1, 10}, Buf{9});
  sim.run(1_s);
  EXPECT_EQ(net.metrics().datagrams_dropped, 1u);
  EXPECT_EQ(net.metrics().datagrams_delivered, 0u);
}

TEST(Transport, DownNodeEatsTraffic) {
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto a = net.open(0, 10);
  auto b = net.open(1, 10);
  net.set_node_up(1, false);
  a->send(Endpoint{1, 10}, Buf{1});
  sim.run(1_s);
  EXPECT_EQ(net.metrics().datagrams_delivered, 0u);
  EXPECT_EQ(net.metrics().datagrams_dropped, 1u);
}

TEST(Transport, EphemeralPortsAreUnique) {
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto s1 = net.open_ephemeral(0);
  auto s2 = net.open_ephemeral(0);
  auto s3 = net.open_ephemeral(1);
  EXPECT_NE(s1->local().port, s2->local().port);
  EXPECT_EQ(s1->local().node, 0u);
  EXPECT_EQ(s3->local().node, 1u);
}

TEST(Transport, LossInjectionDropsRoughlyTheConfiguredFraction) {
  Simulator sim;
  auto params = NetParams::unet();
  params.loss_rate = 0.25;
  Network net(sim, params, 2);
  auto a = net.open(0, 10);
  auto b = net.open(1, 10);
  for (int i = 0; i < 4000; ++i) a->send(Endpoint{1, 10}, Buf{1});
  sim.run(100_s);
  const double lost = static_cast<double>(net.metrics().datagrams_lost);
  EXPECT_NEAR(lost / 4000.0, 0.25, 0.05);
}

Buf make_pattern(std::size_t n) {
  Buf b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  return b;
}

TEST(Transport, SocketClosedInFlightDropsAndSlotReuseStaysIntact) {
  // The destination closes while the datagram is on the wire: it is dropped
  // at delivery time, and the next datagram (parked in the slot the dropped
  // one released) arrives with exactly its own bytes.
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto a = net.open(0, 10);
  auto b = net.open(1, 10);
  a->send(Endpoint{1, 10}, Buf{1, 2, 3}, make_pattern(900));
  sim.schedule(1_us, [&b] { b.reset(); });
  sim.run(1_s);
  EXPECT_EQ(net.metrics().datagrams_dropped, 1u);
  EXPECT_EQ(net.metrics().datagrams_delivered, 0u);

  b = net.open(1, 10);
  std::optional<Message> got;
  sim.spawn([](Socket& sock, std::optional<Message>& g) -> Co<void> {
    g = co_await sock.recv();
  }(*b, got));
  Buf body(300);
  std::iota(body.begin(), body.end(), std::uint8_t{7});
  a->send(Endpoint{1, 10}, Buf{4, 5}, body);
  sim.run(2_s);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src, (Endpoint{0, 10}));
  EXPECT_EQ(got->dst, (Endpoint{1, 10}));
  EXPECT_EQ(got->header, (Buf{4, 5}));
  EXPECT_EQ(got->body, body);
  EXPECT_EQ(got->body_size, 300);
  EXPECT_EQ(net.metrics().datagrams_dropped, 1u);
  EXPECT_EQ(net.metrics().datagrams_delivered, 1u);
}

TEST(Transport, DupFilterDeliversOriginalThenCopyBackToBack) {
  // A duplicated datagram reaches the socket twice in a row, the second
  // copy exactly one receive-CPU slot after the first, both ahead of the
  // next datagram and both with intact bytes. The transport moves the
  // original end to end, so it still owns the sender's header buffer; the
  // copy owns a fresh one, which tells the two apart.
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto a = net.open(0, 10);
  auto b = net.open(1, 10);
  net.set_dup_filter(
      [](const Message& m) { return m.header == Buf{1}; });
  std::vector<std::pair<SimTime, Message>> got;
  sim.spawn([](Simulator& s, Socket& sock,
               std::vector<std::pair<SimTime, Message>>& g) -> Co<void> {
    for (int i = 0; i < 3; ++i) {
      Message m = co_await sock.recv();
      g.emplace_back(s.now(), std::move(m));
    }
  }(sim, *b, got));
  Buf header{1};
  const std::uint8_t* original_header = header.data();
  a->send(Endpoint{1, 10}, std::move(header), make_pattern(600));
  a->send(Endpoint{1, 10}, Buf{2}, make_pattern(200));
  sim.run(1_s);
  ASSERT_EQ(got.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    const Message& m = got[static_cast<std::size_t>(i)].second;
    EXPECT_EQ(m.header, (Buf{1})) << "copy " << i;
    EXPECT_EQ(m.body, make_pattern(600)) << "copy " << i;
    EXPECT_EQ(m.body_size, 600) << "copy " << i;
    EXPECT_EQ(m.src, (Endpoint{0, 10})) << "copy " << i;
  }
  EXPECT_EQ(got[0].second.header.data(), original_header);
  EXPECT_NE(got[1].second.header.data(), original_header);
  EXPECT_EQ(got[1].first - got[0].first, net.recv_cpu_time(601));
  EXPECT_EQ(got[2].second.header, (Buf{2}));
  EXPECT_EQ(got[2].second.body, make_pattern(200));
  EXPECT_EQ(net.metrics().datagrams_duplicated, 1u);
  EXPECT_EQ(net.metrics().datagrams_delivered, 3u);
}

TEST(Transport, DatagramsToAWaitingSocketAllocateOnlyTheirHeaders) {
  // One datagram per simulated millisecond to a socket that is always
  // already waiting. After 16 warm-up datagrams have grown the event heap,
  // the callback storage and the in-flight table to their peak, each of
  // 10,000 further datagrams makes exactly one heap allocation: its own
  // header buffer. The transport itself allocates nothing.
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto a = net.open(0, 10);
  auto b = net.open(1, 10);
  constexpr int kWarmup = 16;
  constexpr int kDatagrams = 10000;
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  int intact = 0;
  sim.spawn([](Socket& sock, int& ok) -> Co<void> {
    for (std::uint32_t expect = 0;; ++expect) {
      const Message m = co_await sock.recv();
      Reader r(m.header);
      if (r.u32() == expect && r.ok() && r.remaining() == 0) ++ok;
    }
  }(*b, intact));
  sim.spawn([](Simulator& s, Socket& sock, std::uint64_t& bf,
               std::uint64_t& af) -> Co<void> {
    for (int i = 0; i < kWarmup + kDatagrams; ++i) {
      if (i == kWarmup) bf = dodo::testing::allocation_count();
      Buf h;
      h.reserve(kHeaderReserve);
      Writer(h).u32(static_cast<std::uint32_t>(i));
      sock.send(Endpoint{1, 10}, std::move(h));
      co_await s.sleep(1_ms);  // long enough for delivery
    }
    af = dodo::testing::allocation_count();
  }(sim, *a, before, after));
  sim.run();
  EXPECT_EQ(intact, kWarmup + kDatagrams);
  EXPECT_EQ(net.metrics().datagrams_delivered,
            static_cast<std::uint64_t>(kWarmup + kDatagrams));
  EXPECT_EQ(after - before, static_cast<std::uint64_t>(kDatagrams));
}

// --------------------------------------------------------------------------
// Bulk protocol
// --------------------------------------------------------------------------

struct BulkFixtureResult {
  Status send_status;
  BulkRecvResult recv;
};

BulkFixtureResult run_bulk(NetParams params, std::size_t len,
                           BulkParams bulk = {}, bool phantom = false,
                           std::uint64_t seed = 1) {
  Simulator sim(seed);
  Network net(sim, std::move(params), 2);
  auto tx = net.open_ephemeral(0);
  auto rx = net.open_ephemeral(1);
  Buf data = phantom ? Buf{} : make_pattern(len);
  BulkFixtureResult out;
  sim.spawn([](Socket& rxs, BulkParams bp, BulkRecvResult& r) -> Co<void> {
    r = co_await bulk_recv(rxs, 77, bp);
  }(*rx, bulk, out.recv));
  sim.spawn([](Socket& txs, Endpoint dst, BodyView body, BulkParams bp,
               Status& st) -> Co<void> {
    st = co_await bulk_send(txs, dst, 77, body, bp);
  }(*tx, rx->local(),
    BodyView{phantom ? nullptr : data.data(), static_cast<Bytes64>(len)},
    bulk, out.send_status));
  sim.run(300_s);
  if (!phantom) {
    EXPECT_EQ(out.recv.data.size(), out.recv.status.is_ok() ? len : 0u);
    if (out.recv.status.is_ok()) {
      EXPECT_EQ(out.recv.data, data);
    }
  }
  return out;
}

TEST(Bulk, SingleChunkTransfer) {
  auto r = run_bulk(NetParams::unet(), 512);
  EXPECT_TRUE(r.send_status.is_ok()) << r.send_status.to_string();
  EXPECT_TRUE(r.recv.status.is_ok()) << r.recv.status.to_string();
  EXPECT_EQ(r.recv.size, 512);
}

TEST(Bulk, ZeroLengthTransfer) {
  auto r = run_bulk(NetParams::unet(), 0);
  EXPECT_TRUE(r.send_status.is_ok());
  EXPECT_TRUE(r.recv.status.is_ok());
  EXPECT_EQ(r.recv.size, 0);
}

TEST(Bulk, MultiWindowTransferUnet) {
  // 1 MiB over 1472-byte packets with a 256 KiB window: many rounds.
  auto r = run_bulk(NetParams::unet(), 1024 * 1024);
  EXPECT_TRUE(r.send_status.is_ok()) << r.send_status.to_string();
  EXPECT_TRUE(r.recv.status.is_ok()) << r.recv.status.to_string();
}

TEST(Bulk, MultiWindowTransferUdp) {
  auto r = run_bulk(NetParams::udp(), 1024 * 1024);
  EXPECT_TRUE(r.send_status.is_ok()) << r.send_status.to_string();
  EXPECT_TRUE(r.recv.status.is_ok()) << r.recv.status.to_string();
}

TEST(Bulk, PhantomBodyKeepsLogicalSize) {
  auto r = run_bulk(NetParams::unet(), 300000, {}, /*phantom=*/true);
  EXPECT_TRUE(r.send_status.is_ok());
  EXPECT_TRUE(r.recv.status.is_ok());
  EXPECT_EQ(r.recv.size, 300000);
  EXPECT_TRUE(r.recv.data.empty());
}

TEST(Bulk, SurvivesHeavyPacketLoss) {
  auto params = NetParams::unet();
  params.loss_rate = 0.10;
  BulkParams bp;
  bp.max_retries = 50;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    auto r = run_bulk(params, 200000, bp, false, seed);
    EXPECT_TRUE(r.send_status.is_ok()) << r.send_status.to_string();
    EXPECT_TRUE(r.recv.status.is_ok()) << r.recv.status.to_string();
  }
}

TEST(Bulk, SurvivesLossOnUdpToo) {
  auto params = NetParams::udp();
  params.loss_rate = 0.05;
  BulkParams bp;
  bp.max_retries = 50;
  auto r = run_bulk(params, 500000, bp, false, 7);
  EXPECT_TRUE(r.send_status.is_ok()) << r.send_status.to_string();
  EXPECT_TRUE(r.recv.status.is_ok()) << r.recv.status.to_string();
}

TEST(Bulk, SenderTimesOutWhenReceiverAbsent) {
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto tx = net.open_ephemeral(0);
  Buf data = make_pattern(100000);
  Status st;
  sim.spawn([](Socket& txs, BodyView body, Status& s) -> Co<void> {
    s = co_await bulk_send(txs, Endpoint{1, 999}, 5, body);
  }(*tx, BodyView{data.data(), static_cast<Bytes64>(data.size())}, st));
  sim.run(300_s);
  EXPECT_EQ(st.code(), Err::kTimeout);
}

TEST(Bulk, ReceiverTimesOutWhenSenderAbsent) {
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto rx = net.open_ephemeral(1);
  BulkRecvResult r;
  sim.spawn([](Socket& rxs, BulkRecvResult& out) -> Co<void> {
    out = co_await bulk_recv(rxs, 5);
  }(*rx, r));
  sim.run(300_s);
  EXPECT_EQ(r.status.code(), Err::kTimeout);
}

TEST(Bulk, ReceiverDeathMidTransferTimesOutSender) {
  Simulator sim;
  Network net(sim, NetParams::unet(), 2);
  auto tx = net.open_ephemeral(0);
  auto rx = net.open_ephemeral(1);
  Buf data = make_pattern(2 * 1024 * 1024);
  Status st;
  BulkRecvResult rr;
  sim.spawn([](Socket& rxs, BulkRecvResult& out) -> Co<void> {
    out = co_await bulk_recv(rxs, 5);
  }(*rx, rr));
  sim.spawn([](Socket& txs, Endpoint dst, BodyView body, Status& s) -> Co<void> {
    s = co_await bulk_send(txs, dst, 5, body);
  }(*tx, rx->local(), BodyView{data.data(), static_cast<Bytes64>(data.size())},
    st));
  // Kill the receiving node partway through the transfer.
  sim.schedule(100_ms, [&] { net.set_node_up(1, false); });
  sim.run(300_s);
  EXPECT_EQ(st.code(), Err::kTimeout);
}

/// run_bulk with separate sender/receiver protocol counters, as the real
/// endpoints keep them (one BulkStats per imd/client, not per transfer).
BulkFixtureResult run_bulk_with_stats(Network& net, Simulator& sim,
                                      std::size_t len, BulkParams bulk,
                                      BulkStats& tx_stats,
                                      BulkStats& rx_stats) {
  auto tx = net.open_ephemeral(0);
  auto rx = net.open_ephemeral(1);
  Buf data = make_pattern(len);
  BulkFixtureResult out;
  BulkParams rx_bulk = bulk;
  rx_bulk.stats = &rx_stats;
  BulkParams tx_bulk = bulk;
  tx_bulk.stats = &tx_stats;
  sim.spawn([](Socket& rxs, BulkParams bp, BulkRecvResult& r) -> Co<void> {
    r = co_await bulk_recv(rxs, 77, bp);
  }(*rx, rx_bulk, out.recv));
  sim.spawn([](Socket& txs, Endpoint dst, BodyView body, BulkParams bp,
               Status& st) -> Co<void> {
    st = co_await bulk_send(txs, dst, 77, body, bp);
  }(*tx, rx->local(), BodyView{data.data(), static_cast<Bytes64>(len)},
    tx_bulk, out.send_status));
  sim.run(300_s);
  if (out.recv.status.is_ok()) {
    EXPECT_EQ(out.recv.data, data);
  }
  return out;
}

TEST(Bulk, SingleChunkSkipsNegotiation) {
  // A body that fits one datagram takes the fast path: no credit request,
  // no window rounds — one data packet and one ack.
  Simulator sim(1);
  Network net(sim, NetParams::unet(), 2);
  BulkStats txs, rxs;
  auto r = run_bulk_with_stats(net, sim, 512, {}, txs, rxs);
  ASSERT_TRUE(r.send_status.is_ok()) << r.send_status.to_string();
  ASSERT_TRUE(r.recv.status.is_ok()) << r.recv.status.to_string();
  EXPECT_EQ(txs.single_packet_sends.value(), 1u);
  EXPECT_EQ(txs.credit_requests.value(), 0u);
  EXPECT_EQ(txs.rounds.value(), 1u);  // straight to a one-chunk blast
  EXPECT_EQ(txs.chunks_sent.value(), 1u);
  EXPECT_EQ(txs.chunks_retransmitted.value(), 0u);
  EXPECT_EQ(txs.bytes_sent.value(), 512u);
  EXPECT_EQ(rxs.recvs_completed.value(), 1u);
  EXPECT_EQ(rxs.bytes_received.value(), 512u);
  EXPECT_EQ(rxs.nacks_sent.value(), 0u);
}

TEST(Bulk, WindowSmallerThanChunkIsClampedUp) {
  // A receiver advertising less than one chunk of window would deadlock the
  // blast protocol; it must clamp the grant up to one chunk (counted), and
  // the transfer then proceeds one chunk per round.
  Simulator sim(1);
  Network net(sim, NetParams::unet(), 2);
  const Bytes64 chunk = NetParams::unet().max_datagram - 49;
  BulkParams bp;
  bp.window_bytes = 64;  // far below one chunk
  BulkStats txs, rxs;
  const std::size_t len = static_cast<std::size_t>(4 * chunk);
  auto r = run_bulk_with_stats(net, sim, len, bp, txs, rxs);
  ASSERT_TRUE(r.send_status.is_ok()) << r.send_status.to_string();
  ASSERT_TRUE(r.recv.status.is_ok()) << r.recv.status.to_string();
  EXPECT_EQ(r.recv.size, static_cast<Bytes64>(len));
  EXPECT_GE(rxs.window_clamps.value(), 1u);
  EXPECT_EQ(txs.chunks_sent.value(), 4u);
  // One-chunk window -> one round per chunk.
  EXPECT_EQ(txs.rounds.value(), 4u);
  EXPECT_EQ(txs.acks_received.value(), 4u);
}

TEST(Bulk, SelectiveNackRetransmitsExactlyTheMissing) {
  // Deterministically drop the first transmission of data seqs 3 and 7 (and
  // nothing else). The receiver's gap timeout must NACK exactly those two,
  // and the sender must retransmit exactly two chunks — no spray-and-pray
  // full-window re-blast.
  Simulator sim(1);
  Network net(sim, NetParams::unet(), 2);
  std::set<std::uint64_t> to_drop = {3, 7};
  net.set_drop_filter([&to_drop](const Message& m) {
    Reader rd(m.header);
    const std::uint8_t kind = rd.u8();  // bulk Kind: 3 == kData
    const std::uint64_t xfer = rd.u64();
    const std::uint64_t seq = rd.u64();
    if (kind != 3 || xfer != 77 || !rd.ok()) return false;
    return to_drop.erase(seq) > 0;  // first transmission only
  });
  BulkStats txs, rxs;
  const Bytes64 chunk = NetParams::unet().max_datagram - 49;
  const std::size_t len = static_cast<std::size_t>(12 * chunk);
  auto r = run_bulk_with_stats(net, sim, len, {}, txs, rxs);
  ASSERT_TRUE(r.send_status.is_ok()) << r.send_status.to_string();
  ASSERT_TRUE(r.recv.status.is_ok()) << r.recv.status.to_string();
  EXPECT_TRUE(to_drop.empty()) << "planned drops never matched a data seq";
  EXPECT_EQ(txs.chunks_sent.value(), 12u);
  EXPECT_EQ(txs.chunks_retransmitted.value(), 2u);
  EXPECT_EQ(txs.nacks_received.value(), rxs.nacks_sent.value());
  EXPECT_GE(rxs.nacks_sent.value(), 1u);
  // Every byte arrived exactly once at the payload level.
  EXPECT_EQ(rxs.bytes_received.value(), static_cast<std::uint64_t>(len));
  EXPECT_EQ(net.metrics().datagrams_lost, 2u);
}

/// Raw kData frame exactly as net/bulk.cpp lays it out: u8 kind(3), u64
/// xfer, u64 seq, u64 nchunks, i64 offset, i64 chunk_len, i64 total_len;
/// payload rides the body (kData carries no trace pair). Lets tests drive
/// the receiver with hand-paced and duplicated chunks.
void send_raw_chunk(Socket& s, Endpoint dst, std::uint64_t xfer,
                    std::uint64_t seq, std::uint64_t nchunks, const Buf& data,
                    Bytes64 piece) {
  const Bytes64 total = static_cast<Bytes64>(data.size());
  const Bytes64 off = static_cast<Bytes64>(seq) * piece;
  const Bytes64 len = std::min(piece, total - off);
  Buf h;
  Writer w(h);
  w.u8(3);  // kData
  w.u64(xfer);
  w.u64(seq);
  w.u64(nchunks);
  w.i64(off);
  w.i64(len);
  w.i64(total);
  Buf body(data.begin() + static_cast<std::ptrdiff_t>(off),
           data.begin() + static_cast<std::ptrdiff_t>(off + len));
  s.send(dst, std::move(h), std::move(body), len);
}

TEST(Bulk, SlowSenderJustUnderGapDrawsNoNack) {
  // Receive-gap contract: the 20 ms gap timer re-arms on EVERY in-order
  // chunk, so a sender pacing chunks just under the gap is never NACKed —
  // the whole blast lands without a single retransmit request.
  Simulator sim(1);
  Network net(sim, NetParams::unet(), 2);
  auto tx = net.open_ephemeral(0);
  auto rx = net.open_ephemeral(1);
  const Buf data = make_pattern(6 * 512);
  BulkStats rxs;
  BulkParams rbp;
  rbp.stats = &rxs;
  BulkRecvResult rr;
  sim.spawn([](Socket& s, BulkParams bp, BulkRecvResult& out) -> Co<void> {
    out = co_await bulk_recv(s, 77, bp);
  }(*rx, rbp, rr));
  sim.spawn([](Simulator& sm, Socket& s, Endpoint dst,
               const Buf& d) -> Co<void> {
    for (std::uint64_t seq = 0; seq < 6; ++seq) {
      if (seq > 0) co_await sm.sleep(millis(18));  // just under the 20ms gap
      send_raw_chunk(s, dst, 77, seq, 6, d, 512);
    }
    (void)co_await s.recv_for(millis(200));  // drain the final ack
  }(sim, *tx, rx->local(), data));
  sim.run(10_s);
  ASSERT_TRUE(rr.status.is_ok()) << rr.status.to_string();
  EXPECT_EQ(rr.data, data);
  EXPECT_EQ(rxs.nacks_sent.value(), 0u);
}

TEST(Bulk, DuplicateFloodStillDrawsTargetedNack) {
  // The flip side of the re-arm rule: duplicates of a chunk the receiver
  // already holds make no progress and must NOT re-arm the gap timer. A
  // sender re-blasting chunk 0 every 10 ms while withholding 1..3 gets a
  // targeted NACK naming exactly the missing chunks — under the old
  // reset-on-any-datagram behavior the NACK never fired and the transfer
  // sat behind the sender's own (much coarser) round timeout.
  Simulator sim(1);
  Network net(sim, NetParams::unet(), 2);
  auto tx = net.open_ephemeral(0);
  auto rx = net.open_ephemeral(1);
  const Buf data = make_pattern(4 * 512);
  BulkStats rxs;
  BulkParams rbp;
  rbp.stats = &rxs;
  BulkRecvResult rr;
  sim.spawn([](Socket& s, BulkParams bp, BulkRecvResult& out) -> Co<void> {
    out = co_await bulk_recv(s, 88, bp);
  }(*rx, rbp, rr));
  std::vector<std::uint64_t> nacked;
  sim.spawn([](Socket& s, Endpoint dst, const Buf& d,
               std::vector<std::uint64_t>& nk) -> Co<void> {
    send_raw_chunk(s, dst, 88, 0, 4, d, 512);
    for (int i = 0; i < 50 && nk.empty(); ++i) {
      auto m = co_await s.recv_for(millis(10));
      if (!m) {
        send_raw_chunk(s, dst, 88, 0, 4, d, 512);  // duplicate, no progress
        continue;
      }
      Reader r(m->header);
      if (r.u8() == 5 && r.u64() == 88) {  // kNack
        (void)r.u64();                     // trace id
        (void)r.u64();                     // parent span
        const auto n = r.u32();
        for (std::uint32_t k = 0; k < n && r.ok(); ++k) {
          nk.push_back(r.u64());
        }
      }
    }
    for (std::uint64_t seq = 1; seq < 4; ++seq) {
      send_raw_chunk(s, dst, 88, seq, 4, d, 512);
    }
    (void)co_await s.recv_for(millis(200));  // drain the final ack
  }(*tx, rx->local(), data, nacked));
  sim.run(10_s);
  ASSERT_TRUE(rr.status.is_ok()) << rr.status.to_string();
  EXPECT_EQ(rr.data, data);
  EXPECT_GE(rxs.nacks_sent.value(), 1u);
  EXPECT_EQ(nacked, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Bulk, ForgedChunkPastTotalIsDropped) {
  // A chunk whose offset lies past the total it claims, from a third
  // socket ahead of the real transfer. The receiver must drop it before
  // adopting anything from it — no size, no peer, no bytes — so the real
  // transfer that follows lands byte-exact, with nothing written outside
  // its buffer (the asan-ubsan preset checks).
  Simulator sim(1);
  Network net(sim, NetParams::unet(), 3);
  auto tx = net.open_ephemeral(0);
  auto rx = net.open_ephemeral(1);
  auto forger = net.open_ephemeral(2);
  forger->send(rx->local(), bulk_data_header(77, 0, 1, 5000, 512, 1000),
               make_pattern(512), 512);
  const Buf data = make_pattern(1000);
  BulkRecvResult rr;
  Status st;
  sim.spawn([](Socket& s, BulkRecvResult& out) -> Co<void> {
    out = co_await bulk_recv(s, 77);
  }(*rx, rr));
  sim.spawn([](Simulator& sm, Socket& s, Endpoint dst, const Buf& d,
               Status& out) -> Co<void> {
    co_await sm.sleep(millis(1));  // the forged chunk lands first
    out = co_await bulk_send(
        s, dst, 77, BodyView{d.data(), static_cast<Bytes64>(d.size())});
  }(sim, *tx, rx->local(), data, st));
  sim.run(10_s);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  ASSERT_TRUE(rr.status.is_ok()) << rr.status.to_string();
  EXPECT_EQ(rr.data, data);
}

TEST(Bulk, UnetFasterThanUdpForLargeTransfer) {
  auto time_one = [](NetParams params) {
    Simulator sim;
    Network net(sim, std::move(params), 2);
    auto tx = net.open_ephemeral(0);
    auto rx = net.open_ephemeral(1);
    Buf data = make_pattern(256 * 1024);
    SimTime done = 0;
    BulkRecvResult rr;
    Status st;
    sim.spawn([](Socket& rxs, BulkRecvResult& out, Simulator& s,
                 SimTime& t) -> Co<void> {
      out = co_await bulk_recv(rxs, 5);
      t = s.now();
    }(*rx, rr, sim, done));
    sim.spawn([](Socket& txs, Endpoint dst, BodyView body, Status& s) -> Co<void> {
      s = co_await bulk_send(txs, dst, 5, body);
    }(*tx, rx->local(),
      BodyView{data.data(), static_cast<Bytes64>(data.size())}, st));
    sim.run(300_s);
    EXPECT_TRUE(rr.status.is_ok());
    return done;
  };
  const SimTime unet = time_one(NetParams::unet());
  const SimTime udp = time_one(NetParams::udp());
  EXPECT_LT(unet, udp);
  // Both should still be within a factor of ~3 (same wire).
  EXPECT_LT(udp, unet * 3);
}

// --------------------------------------------------------------------------
// Bulk protocol state machines, driven by hand: no simulator, no sockets,
// the clock is whatever the test says it is.
// --------------------------------------------------------------------------

constexpr Bytes64 kChunk = 100;
constexpr std::uint64_t kXfer = 7;

/// A control frame as decode_bulk hands it over; `value` fills the kind's
/// one field (total_len, window or next_base).
BulkFrame control(BulkKind kind, std::uint64_t value,
                  std::uint64_t xfer = kXfer) {
  Buf h = bulk_header(kind, xfer);
  Writer(h).u64(value);
  return decode_bulk(h);
}

BulkFrame nack(const std::vector<std::uint64_t>& seqs) {
  Buf h = bulk_header(BulkKind::kNack, kXfer);
  Writer w(h);
  w.u32(static_cast<std::uint32_t>(seqs.size()));
  for (const auto s : seqs) w.u64(s);
  return decode_bulk(h);
}

/// Decodes and empties an outbox.
std::vector<BulkFrame> drain(std::vector<BulkDatagram>& outbox) {
  std::vector<BulkFrame> frames;
  for (const auto& d : outbox) frames.push_back(decode_bulk(d.header));
  outbox.clear();
  return frames;
}

std::vector<BulkKind> kinds(const std::vector<BulkFrame>& frames) {
  std::vector<BulkKind> k;
  for (const auto& f : frames) k.push_back(f.kind);
  return k;
}

/// A sender of four chunks, past negotiation: its first round (all four,
/// 1 ms of drain each) is on the wire and the outbox is empty.
BulkSender blasted_sender() {
  BulkSender tx(kXfer, {nullptr, 4 * kChunk}, kChunk, millis(1), {}, {});
  tx.start();
  tx.outbox.clear();
  tx.on_frame(control(BulkKind::kCredit, 4 * kChunk));
  tx.outbox.clear();
  return tx;
}

TEST(BulkProto, NackBackoffDoublesCapsAndResetsOnProgress) {
  BulkParams p;
  p.window_bytes = 2 * kChunk;  // two rounds of two chunks
  p.recv_gap_timeout = millis(10);
  p.max_retries = 50;
  BulkReceiver rx(kXfer, kChunk, p, 0);
  const Buf body = make_pattern(4 * kChunk);
  auto feed = [&](std::uint64_t seq, SimTime now) {
    const BulkFrame f = decode_bulk(bulk_data_header(
        kXfer, seq, 4, static_cast<Bytes64>(seq) * kChunk, kChunk,
        4 * kChunk));
    const BodyView chunk{body.data() + seq * kChunk, kChunk};
    ASSERT_TRUE(rx.admit(f, chunk));
    rx.on_frame(f, chunk, now, {});
  };
  // Quiet gaps before each NACK of one round: 1x, 2x, 4x, then capped at 8x.
  auto expect_nacks = [&](const std::vector<std::uint64_t>& missing) {
    SimTime last = rx.deadline() - millis(10);
    for (const Duration gap : {10, 20, 40, 80, 80}) {
      const SimTime now = rx.deadline();
      EXPECT_EQ(now - last, millis(gap));
      rx.on_deadline(now, {});
      const auto out = drain(rx.outbox);
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].kind, BulkKind::kNack);
      EXPECT_EQ(out[0].missing, missing);
      last = now;
    }
  };

  rx.on_frame(control(BulkKind::kReq, 4 * kChunk), {}, millis(1), {});
  EXPECT_EQ(kinds(drain(rx.outbox)), std::vector{BulkKind::kCredit});
  feed(0, millis(2));
  EXPECT_TRUE(rx.outbox.empty());
  EXPECT_EQ(rx.deadline(), millis(12));  // a new chunk re-arms the deadline
  expect_nacks({1});

  // The round advancing restores the fast first NACK.
  const SimTime t = rx.deadline() - millis(1);
  feed(1, t);
  const auto acked = drain(rx.outbox);
  ASSERT_EQ(acked.size(), 1u);
  EXPECT_EQ(acked[0].kind, BulkKind::kAck);
  EXPECT_EQ(acked[0].next_base, 2u);
  EXPECT_EQ(rx.deadline(), t + millis(10));
  expect_nacks({2, 3});
  EXPECT_FALSE(rx.done());
}

TEST(BulkProto, SenderTimeoutProbesOnceAndSendsNoData) {
  BulkParams p;
  BulkSender tx(kXfer, {nullptr, 4 * kChunk}, kChunk, millis(1), p, {});
  tx.start();
  EXPECT_EQ(kinds(drain(tx.outbox)), std::vector{BulkKind::kReq});
  EXPECT_EQ(tx.wait(), p.ack_timeout);
  tx.on_frame(control(BulkKind::kCredit, 4 * kChunk));
  EXPECT_EQ(drain(tx.outbox).size(), 4u);
  // The round's wait covers its own drain: ack_timeout + 4 chunks.
  EXPECT_EQ(tx.wait(), p.ack_timeout + millis(4));
  tx.on_timeout();
  const auto out = drain(tx.outbox);
  EXPECT_EQ(kinds(out), std::vector{BulkKind::kReq});
  EXPECT_EQ(out[0].total_len, 4 * kChunk);
  EXPECT_EQ(tx.wait(), p.ack_timeout + millis(4));  // unchanged by a probe
  EXPECT_FALSE(tx.done());
}

TEST(BulkProto, StrayOrDuplicateAckDuringRoundEmitsNothing) {
  BulkSender tx = blasted_sender();
  const Duration wait = tx.wait();
  tx.on_frame(control(BulkKind::kAck, 0));  // duplicate: base is already 0
  tx.on_frame(control(BulkKind::kAck, 4, kXfer + 1));  // another transfer's
  tx.on_frame(control(BulkKind::kCredit, 4 * kChunk));  // answers a probe
  tx.on_frame(BulkFrame{});                             // undecodable
  EXPECT_TRUE(tx.outbox.empty());
  EXPECT_EQ(tx.wait(), wait);
  EXPECT_FALSE(tx.done());
  tx.on_frame(control(BulkKind::kAck, 4));
  EXPECT_TRUE(tx.outbox.empty());
  EXPECT_TRUE(tx.done());
  EXPECT_TRUE(tx.status().is_ok());
}

TEST(BulkProto, StrayDuringNegotiationResendsRequest) {
  BulkStats stats;
  BulkParams p;
  p.stats = &stats;
  BulkSender tx(kXfer, {nullptr, 4 * kChunk}, kChunk, 0, p, {});
  tx.start();
  EXPECT_EQ(kinds(drain(tx.outbox)), std::vector{BulkKind::kReq});
  const std::vector<BulkFrame> strays = {
      control(BulkKind::kAck, 0), control(BulkKind::kCredit, kChunk - 1),
      control(BulkKind::kCredit, 4 * kChunk, kXfer + 1), BulkFrame{}};
  for (const auto& f : strays) {
    tx.on_frame(f);
    EXPECT_EQ(kinds(drain(tx.outbox)), std::vector{BulkKind::kReq});
  }
  EXPECT_EQ(stats.credit_requests.value(), 5u);
  EXPECT_EQ(stats.credit_renegotiations.value(), 4u);
  tx.on_frame(control(BulkKind::kCredit, 4 * kChunk));
  EXPECT_EQ(drain(tx.outbox).size(), 4u);  // the blast
}

TEST(BulkProto, SenderIgnoresNackSeqsPastTheEnd) {
  BulkSender tx = blasted_sender();
  tx.on_frame(nack({2, 4, 1000000}));
  const auto out = drain(tx.outbox);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, BulkKind::kData);
  EXPECT_EQ(out[0].seq, 2u);
}

TEST(BulkProto, DecoderReservesOnlyWhatTheDatagramHolds) {
  Buf h = bulk_header(BulkKind::kNack, kXfer);
  Writer w(h);
  w.u32(0xFFFFFFFFu);
  w.u64(3);
  const BulkFrame f = decode_bulk(h);
  EXPECT_FALSE(f.ok);
  EXPECT_EQ(f.missing.capacity(), 0u);
}

TEST(BulkProto, ReceiverAdmitsOnlyChunksInsideTheTransfer) {
  BulkReceiver rx(kXfer, kChunk, {}, 0);
  const Buf bytes = make_pattern(static_cast<std::size_t>(kChunk));
  const BodyView full{bytes.data(), kChunk};
  auto chunk = [](Bytes64 off, Bytes64 len, Bytes64 total,
                  std::uint64_t nchunks = 4) {
    return decode_bulk(bulk_data_header(kXfer, 0, nchunks, off, len, total));
  };
  EXPECT_TRUE(rx.admit(chunk(300, kChunk, 4 * kChunk), full));
  EXPECT_FALSE(rx.admit(chunk(5000, kChunk, 4 * kChunk), full));  // offset
  EXPECT_FALSE(rx.admit(chunk(350, kChunk, 4 * kChunk), full));   // overruns
  EXPECT_FALSE(rx.admit(chunk(-1, kChunk, 4 * kChunk), full));
  EXPECT_FALSE(rx.admit(chunk(0, kChunk, 4 * kChunk), {bytes.data(), 40}));
  EXPECT_FALSE(rx.admit(chunk(0, kChunk, 50), full));  // more than the total
  EXPECT_FALSE(rx.admit(chunk(0, kChunk, 4 * kChunk, 401), full));  // nchunks
  EXPECT_FALSE(rx.admit(control(BulkKind::kReq, static_cast<std::uint64_t>(
                                                    std::int64_t{-1})),
                        {}));
  EXPECT_FALSE(rx.admit(control(BulkKind::kReq, 400, kXfer + 1), {}));
  EXPECT_FALSE(rx.admit(BulkFrame{}, {}));
  // Once a kReq fixes the size, chunks are checked against it, whatever
  // total they claim.
  rx.on_frame(control(BulkKind::kReq, 2 * kChunk), {}, 0, {});
  EXPECT_FALSE(rx.admit(chunk(300, kChunk, 4 * kChunk), full));
  EXPECT_TRUE(rx.admit(chunk(100, kChunk, 4 * kChunk, 2), full));
}

}  // namespace
}  // namespace dodo::net
