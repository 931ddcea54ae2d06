// Submission/completion ring over libdodo (DESIGN.md §16). Every ring op
// runs the client's ordinary mread_ex/mwrite path, so these tests pin the
// ring contract (byte-exact completions, each op completed exactly once,
// backpressure at depth, a clean failure for a submit after mclose), that
// ring reads put the same datagrams on the wire as direct mreads, the
// fragment-boundary degradation rule (only the byte range whose host died
// goes to disk), and the use-after-suspension rule (mread_ex copies its
// Entry fields before the first co_await, so a prune while reads are
// suspended cannot leave a dangling pointer).
// Labeled `ring` (ctest -L ring / the ring test preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "core/cmd.hpp"
#include "core/imd.hpp"
#include "disk/filesystem.hpp"
#include "obs/span.hpp"
#include "runtime/dodo_client.hpp"
#include "runtime/ring.hpp"
#include "sim/simulator.hpp"

namespace dodo::runtime {
namespace {

using sim::Co;
using sim::Simulator;

// Node 0: cmd. Node 1: application. Nodes 2..1+hosts: imds.
struct RingFixture {
  Simulator sim{47};
  net::Network net;
  obs::SpanRecorder spans;
  core::CentralManager cmd;
  disk::SimFilesystem fs;
  std::vector<std::unique_ptr<core::IdleMemoryDaemon>> imds;
  DodoClient client;
  int fd = -1;

  explicit RingFixture(int hosts, core::CmdParams cp,
                       ClientParams clp = ClientParams{})
      : net(sim, net::NetParams::unet(),
            static_cast<std::size_t>(hosts) + 2),
        spans(sim),
        cmd(sim, net, 0, cp),
        fs(sim),
        client(sim, net, 1, net::Endpoint{0, core::kCmdPort}, fs,
               with_spans(&spans, clp)) {
    cmd.start();
    for (int i = 0; i < hosts; ++i) {
      core::ImdParams p;
      p.pool_bytes = 16_MiB;
      imds.push_back(std::make_unique<core::IdleMemoryDaemon>(
          sim, net, static_cast<net::NodeId>(i + 2), 1,
          net::Endpoint{0, core::kCmdPort}, p));
      imds.back()->start();
    }
    fs.create("backing", 8_MiB);
    fd = fs.open("backing", disk::OpenMode::kReadWrite);
    client.start();
  }

  static core::CmdParams plain(int width = 1) {
    core::CmdParams p;
    p.stripe_width = width;
    p.stripe_min_fragment = 4_KiB;
    return p;
  }

  static ClientParams with_spans(obs::SpanRecorder* rec, ClientParams p) {
    p.spans = rec;
    return p;
  }

  template <typename F>
  void run(F&& body, SimTime limit = 300_s) {
    bool finished = false;
    sim.spawn([](RingFixture& f, F fn, bool& done) -> Co<void> {
      co_await f.sim.sleep(5_ms);  // let daemons register
      co_await fn(f);
      done = true;
    }(*this, std::forward<F>(body), finished));
    sim.run(limit);
    EXPECT_TRUE(finished) << "test body did not complete";
  }
};

net::Buf pattern(std::size_t n, std::uint8_t salt = 0) {
  net::Buf b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return b;
}

// FNV-1a over everything that makes a datagram a datagram: endpoints,
// header bytes, logical body size, and any materialized body bytes.
struct WireDigest {
  std::uint64_t h = 1469598103934665603ULL;
  std::uint64_t count = 0;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void message(const net::Message& m) {
    ++count;
    u64(m.src.node);
    u64(m.src.port);
    u64(m.dst.node);
    u64(m.dst.port);
    for (std::uint8_t b : m.header) byte(b);
    u64(static_cast<std::uint64_t>(m.body_size));
    for (std::uint8_t b : m.body) byte(b);
  }
};

TEST(Ring, SubmissionCompletionOrdering) {
  // Six 4 KiB reads submitted through the ring run concurrently; each
  // completes exactly once with its own user_data, and each lands
  // byte-exact in its own slice.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 3);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    DodoRing ring(f.sim, f.client, 16);
    net::Buf got(static_cast<std::size_t>(24_KiB), 0);
    for (std::uint64_t i = 0; i < 6; ++i) {
      Sqe sqe;
      sqe.op = RingOp::kRead;
      sqe.rd = rd;
      sqe.offset = static_cast<Bytes64>(i) * 4_KiB;
      sqe.len = 4_KiB;
      sqe.buf = got.data() + static_cast<std::ptrdiff_t>(i * 4096);
      sqe.user_data = i;
      EXPECT_TRUE(ring.try_submit(sqe));
    }
    EXPECT_EQ(ring.in_flight(), 6u);
    co_await ring.drain();
    EXPECT_EQ(ring.in_flight(), 0u);
    EXPECT_EQ(ring.completions_pending(), 6u);
    std::vector<int> seen(6, 0);
    for (int i = 0; i < 6; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_LT(cqe->user_data, 6u);
      if (cqe->user_data < 6) ++seen[cqe->user_data];
      EXPECT_EQ(cqe->n, 4_KiB);
      EXPECT_TRUE(cqe->filled);
      EXPECT_FALSE(cqe->degraded);
    }
    EXPECT_FALSE(ring.try_reap().has_value());
    EXPECT_EQ(seen, std::vector<int>(6, 1));  // every op exactly once
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.ring_submitted, 6u);
  EXPECT_EQ(m.ring_completed, 6u);
  EXPECT_EQ(m.ring_full_rejects, 0u);
  EXPECT_EQ(m.ring_peak_depth, 6u);
  EXPECT_EQ(m.remote_hits, 6u);
  EXPECT_EQ(m.mreads_degraded, 0u);
}

TEST(Ring, RingFullBackpressure) {
  // Depth 2: the third try_submit is rejected (counted), while the
  // awaitable submit() parks until a completion frees a slot.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 7);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    DodoRing ring(f.sim, f.client, 2);
    net::Buf got(static_cast<std::size_t>(12_KiB), 0);
    auto make = [&](std::uint64_t i) {
      Sqe sqe;
      sqe.op = RingOp::kRead;
      sqe.rd = rd;
      sqe.offset = static_cast<Bytes64>(i) * 4_KiB;
      sqe.len = 4_KiB;
      sqe.buf = got.data() + static_cast<std::ptrdiff_t>(i * 4096);
      sqe.user_data = i;
      return sqe;
    };
    EXPECT_TRUE(ring.try_submit(make(0)));
    EXPECT_TRUE(ring.try_submit(make(1)));
    EXPECT_FALSE(ring.try_submit(make(2)));  // full: depth 2
    EXPECT_EQ(f.client.metrics().ring_full_rejects, 1u);
    co_await ring.submit(make(2));  // parks, then lands once a slot frees
    co_await ring.drain();
    for (int i = 0; i < 3; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->n, 4_KiB);
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
  });
  EXPECT_EQ(fx.client.metrics().ring_submitted, 3u);
  EXPECT_EQ(fx.client.metrics().ring_completed, 3u);
  EXPECT_LE(fx.client.metrics().ring_peak_depth, 2u);
}

TEST(Ring, CompletionAfterMcloseIsRetrySafe) {
  // Reads drained before mclose complete with real bytes; a later submit
  // against the closed descriptor completes with n < 0 through the ring
  // rather than wedging it.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 11);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    DodoRing ring(f.sim, f.client, 8);
    net::Buf got(static_cast<std::size_t>(8_KiB), 0);
    for (std::uint64_t i = 0; i < 2; ++i) {
      Sqe sqe;
      sqe.op = RingOp::kRead;
      sqe.rd = rd;
      sqe.offset = static_cast<Bytes64>(i) * 4_KiB;
      sqe.len = 4_KiB;
      sqe.buf = got.data() + static_cast<std::ptrdiff_t>(i * 4096);
      sqe.user_data = i;
      EXPECT_TRUE(ring.try_submit(sqe));
    }
    co_await ring.drain();
    for (int i = 0; i < 2; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->n, 4_KiB);
      EXPECT_TRUE(cqe->filled);
    }
    EXPECT_TRUE(std::equal(got.begin(), got.end(), data.begin()));
    EXPECT_EQ(co_await f.client.mclose(rd), 0);

    // Retry against the closed descriptor: a clean ring-level failure.
    Sqe late;
    late.op = RingOp::kRead;
    late.rd = rd;
    late.offset = 0;
    late.len = 4_KiB;
    late.buf = got.data();
    late.user_data = 99;
    EXPECT_TRUE(ring.try_submit(late));
    co_await ring.drain();
    const auto cqe = ring.try_reap();
    EXPECT_TRUE(cqe.has_value());
    if (cqe.has_value()) {
      EXPECT_EQ(cqe->user_data, 99u);
      EXPECT_LT(cqe->n, 0);
      EXPECT_TRUE(cqe->degraded);
    }
  });
  EXPECT_EQ(fx.client.metrics().ring_submitted, 3u);
  EXPECT_EQ(fx.client.metrics().ring_completed, 3u);
}

TEST(Ring, WindowZeroWireByteIdentity) {
  // One read path: the same reads, awaited directly or submitted through a
  // ring and reaped one at a time, produce the exact same datagram
  // sequence, byte for byte.
  auto drive = [](bool via_ring) {
    RingFixture fx(2, RingFixture::plain(2));
    WireDigest digest;
    fx.net.set_delivery_probe(
        [&digest](const net::Message& m) { digest.message(m); });
    fx.run([via_ring](RingFixture& f) -> Co<void> {
      const Bytes64 rlen = 64_KiB;
      const int rd = co_await f.client.mopen(rlen, f.fd, 0);
      EXPECT_GE(rd, 0);
      net::Buf data = pattern(static_cast<std::size_t>(rlen), 13);
      EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
      std::optional<DodoRing> ring;
      if (via_ring) ring.emplace(f.sim, f.client, 16);
      net::Buf back(static_cast<std::size_t>(rlen), 0);
      auto read = [&](Bytes64 off, Bytes64 len) -> Co<Bytes64> {
        if (!ring) {
          co_return co_await f.client.mread(rd, off, back.data(), len);
        }
        Sqe sqe;
        sqe.op = RingOp::kRead;
        sqe.rd = rd;
        sqe.offset = off;
        sqe.len = len;
        sqe.buf = back.data();
        co_await ring->submit(sqe);
        const Cqe cqe = co_await ring->reap();
        co_return cqe.n;
      };
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(co_await read(0, rlen), rlen);
        EXPECT_EQ(back, data);
        EXPECT_EQ(co_await read(8_KiB, 4_KiB), 4_KiB);
      }
      EXPECT_EQ(co_await f.client.msync(rd), 0);
      EXPECT_EQ(co_await f.client.mclose(rd), 0);
    });
    fx.net.set_delivery_probe(nullptr);
    return digest;
  };
  const WireDigest direct = drive(false);
  const WireDigest ringed = drive(true);
  EXPECT_GT(direct.count, 0u);
  EXPECT_EQ(direct.count, ringed.count);
  EXPECT_EQ(direct.h, ringed.h) << "ring reads changed the wire";
}

TEST(Ring, FragmentBoundaryDegradationIsRangeExact) {
  // Three ring reads around a stripe-fragment boundary where exactly one
  // fragment's host died: the op inside the dead fragment degrades over
  // its whole range, the op inside the live one stays a remote hit, and
  // the op straddling the boundary takes only its dead half from disk.
  // The mreads == hits + degraded conservation holds throughout.
  RingFixture fx(2, RingFixture::plain(2));
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;  // two 32 KiB fragments on two hosts
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 17);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    EXPECT_EQ(f.imds[0]->region_count() + f.imds[1]->region_count(), 2);

    // Kill one fragment holder; which half it owned is placement detail.
    f.net.set_node_up(f.imds[1]->node(), false);

    // 8 KiB reads at 24 KiB (fragment 0), 32 KiB (fragment 1) and 28 KiB
    // (4 KiB on each side of the boundary).
    const Bytes64 offsets[3] = {24_KiB, 32_KiB, 28_KiB};
    DodoRing ring(f.sim, f.client, 8);
    net::Buf got(static_cast<std::size_t>(24_KiB), 0);
    for (std::uint64_t i = 0; i < 3; ++i) {
      Sqe sqe;
      sqe.op = RingOp::kRead;
      sqe.rd = rd;
      sqe.offset = offsets[i];
      sqe.len = 8_KiB;
      sqe.buf = got.data() + static_cast<std::ptrdiff_t>(i * 8192);
      sqe.user_data = i;
      EXPECT_TRUE(ring.try_submit(sqe));
    }
    co_await ring.drain();
    std::vector<Cqe> cqes(3);
    for (int i = 0; i < 3; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value() || cqe->user_data >= 3) continue;
      cqes[cqe->user_data] = *cqe;
    }
    using Ranges = std::vector<std::pair<Bytes64, Bytes64>>;
    const bool first_dead = cqes[0].degraded;
    EXPECT_NE(cqes[0].degraded, cqes[1].degraded);  // exactly one fragment
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(cqes[i].n, 8_KiB);  // disk fills what the dead host cannot
      EXPECT_TRUE(cqes[i].filled);
      EXPECT_EQ(cqes[i].disk_ranges,
                (cqes[i].degraded ? Ranges{{0, 8_KiB}} : Ranges{}));
    }
    EXPECT_EQ(cqes[2].n, 8_KiB);
    EXPECT_TRUE(cqes[2].degraded);
    EXPECT_EQ(cqes[2].disk_ranges,
              (Ranges{{first_dead ? 0 : 4_KiB, 4_KiB}}));
    // Every op byte-exact: degraded ranges from the write-through disk
    // image, the rest from remote memory.
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(std::equal(
          got.begin() + static_cast<std::ptrdiff_t>(i * 8192),
          got.begin() + static_cast<std::ptrdiff_t>((i + 1) * 8192),
          data.begin() + static_cast<std::ptrdiff_t>(offsets[i])));
    }
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.mreads_total, m.remote_hits + m.mreads_degraded);
  EXPECT_EQ(m.mreads_degraded, 2u);
  EXPECT_GE(m.disk_fallbacks, m.mreads_degraded);
}

TEST(Ring, EvictionMidBatchIsUseAfterSuspensionSafe) {
  // Use-after-suspension regression: mread_ex snapshots its Entry fields
  // before the first co_await. While four ring reads on two descriptors sit
  // suspended against a dead host, the first to resolve prunes that host
  // and erases both descriptors' Entries mid-flight; the others must keep
  // working from their copies (ASan-clean) and degrade to disk.
  RingFixture fx(1, RingFixture::plain());
  fx.run([](RingFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd1 = co_await f.client.mopen(rlen, f.fd, 0);
    const int rd2 = co_await f.client.mopen(rlen, f.fd, rlen);
    EXPECT_GE(rd1, 0);
    EXPECT_GE(rd2, 0);
    net::Buf d1 = pattern(static_cast<std::size_t>(rlen), 19);
    net::Buf d2 = pattern(static_cast<std::size_t>(rlen), 23);
    EXPECT_EQ(co_await f.client.mwrite(rd1, 0, d1.data(), rlen), rlen);
    EXPECT_EQ(co_await f.client.mwrite(rd2, 0, d2.data(), rlen), rlen);

    // Both regions live on the single host; kill it, then submit two reads
    // on each descriptor. All four time out against the dead host; the
    // first to resolve prunes the host and drops both Entries out from
    // under the reads still suspended.
    f.net.set_node_up(f.imds[0]->node(), false);
    DodoRing ring(f.sim, f.client, 8);
    net::Buf got(static_cast<std::size_t>(16_KiB), 0);
    auto sub = [&](int rd, std::uint64_t ud, std::ptrdiff_t at) {
      Sqe sqe;
      sqe.op = RingOp::kRead;
      sqe.rd = rd;
      sqe.offset = static_cast<Bytes64>(ud & 1) * 4_KiB;
      sqe.len = 4_KiB;
      sqe.buf = got.data() + at;
      sqe.user_data = ud;
      EXPECT_TRUE(ring.try_submit(sqe));
    };
    sub(rd1, 0, 0);
    sub(rd1, 1, 4096);
    sub(rd2, 2, 8192);
    sub(rd2, 3, 12288);
    co_await ring.drain();
    for (int i = 0; i < 4; ++i) {
      const auto cqe = ring.try_reap();
      EXPECT_TRUE(cqe.has_value());
      if (!cqe.has_value()) continue;
      EXPECT_EQ(cqe->n, 4_KiB);  // disk keeps the data available
      EXPECT_TRUE(cqe->filled);
      EXPECT_TRUE(cqe->degraded);
      EXPECT_EQ(cqe->disk_ranges.size(), 1u);
      if (!cqe->disk_ranges.empty()) {
        EXPECT_EQ(cqe->disk_ranges[0].second, 4_KiB);
      }
    }
    // Bytes came back from the write-through disk image of each region.
    EXPECT_TRUE(std::equal(got.begin(),
                           got.begin() + static_cast<std::ptrdiff_t>(8_KiB),
                           d1.begin()));
    EXPECT_TRUE(std::equal(got.begin() + static_cast<std::ptrdiff_t>(8_KiB),
                           got.end(), d2.begin()));
    EXPECT_FALSE(f.client.active(rd1));
    EXPECT_FALSE(f.client.active(rd2));
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.mreads_total, 4u);
  EXPECT_EQ(m.mreads_degraded, 4u);
  EXPECT_EQ(m.remote_hits, 0u);
  EXPECT_EQ(m.mreads_total, m.remote_hits + m.mreads_degraded);
  EXPECT_GE(m.disk_fallbacks, 4u);
  EXPECT_EQ(m.ring_submitted, m.ring_completed);
}

}  // namespace
}  // namespace dodo::runtime
