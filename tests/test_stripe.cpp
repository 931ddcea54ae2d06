// Striped multi-imd regions (DESIGN.md §11): the cmd splits large regions
// into fragments placed on distinct idle hosts and the runtime fans
// per-fragment reads/writes out in parallel, so one mread aggregates the
// bandwidth of several imds. These tests pin down the placement policy, the
// byte-exact reassembly across fragment boundaries, fragment-granular
// failure degradation, and the sibling net.read spans in the trace tree.
// Labeled `stripe` (ctest -L stripe / the stripe test preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/units.hpp"
#include "core/cmd.hpp"
#include "core/imd.hpp"
#include "disk/filesystem.hpp"
#include "obs/span.hpp"
#include "runtime/dodo_client.hpp"
#include "sim/simulator.hpp"

namespace dodo::runtime {
namespace {

using sim::Co;
using sim::Simulator;

// Node 0: cmd. Node 1: application. Nodes 2..1+hosts: imds.
struct StripeFixture {
  Simulator sim{41};
  net::Network net;
  obs::SpanRecorder spans;
  core::CentralManager cmd;
  disk::SimFilesystem fs;
  std::vector<std::unique_ptr<core::IdleMemoryDaemon>> imds;
  DodoClient client;
  int fd = -1;

  explicit StripeFixture(int hosts, int width,
                         Bytes64 min_fragment = 4_KiB,
                         Bytes64 pool = 16_MiB)
      : net(sim, net::NetParams::unet(),
            static_cast<std::size_t>(hosts) + 2),
        spans(sim),
        cmd(sim, net, 0, make_cmd_params(width, min_fragment)),
        fs(sim),
        client(sim, net, 1, net::Endpoint{0, core::kCmdPort}, fs,
               make_client_params(&spans)) {
    cmd.start();
    for (int i = 0; i < hosts; ++i) {
      core::ImdParams p;
      p.pool_bytes = pool;
      imds.push_back(std::make_unique<core::IdleMemoryDaemon>(
          sim, net, static_cast<net::NodeId>(i + 2), 1,
          net::Endpoint{0, core::kCmdPort}, p));
      imds.back()->start();
    }
    fs.create("backing", 8_MiB);
    fd = fs.open("backing", disk::OpenMode::kReadWrite);
    client.start();
  }

  static core::CmdParams make_cmd_params(int width, Bytes64 min_fragment) {
    core::CmdParams p;
    p.stripe_width = width;
    p.stripe_min_fragment = min_fragment;
    return p;
  }

  static ClientParams make_client_params(obs::SpanRecorder* rec) {
    ClientParams p;
    p.spans = rec;
    return p;
  }

  template <typename F>
  void run(F&& body, SimTime limit = 120_s) {
    bool finished = false;
    sim.spawn([](StripeFixture& f, F fn, bool& done) -> Co<void> {
      co_await f.sim.sleep(5_ms);  // let daemons register
      co_await fn(f);
      done = true;
    }(*this, std::forward<F>(body), finished));
    sim.run(limit);
    EXPECT_TRUE(finished) << "test body did not complete";
  }

  [[nodiscard]] int hosts_holding_regions() const {
    int n = 0;
    for (const auto& imd : imds) n += imd->region_count() > 0 ? 1 : 0;
    return n;
  }
};

net::Buf pattern(std::size_t n, std::uint8_t salt = 0) {
  net::Buf b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return b;
}

TEST(Stripe, FragmentsLandOnDistinctHosts) {
  StripeFixture fx(4, 4);
  fx.run([](StripeFixture& f) -> Co<void> {
    const int rd = co_await f.client.mopen(256_KiB, f.fd, 0);
    EXPECT_GE(rd, 0);
    co_await f.sim.sleep(10_ms);
    // One directory entry, four fragments, one per host.
    EXPECT_EQ(f.cmd.region_count(), 1u);
    EXPECT_EQ(f.hosts_holding_regions(), 4);
    for (const auto& imd : f.imds) EXPECT_EQ(imd->region_count(), 1u);
  });
  EXPECT_EQ(fx.cmd.metrics().fragments_placed, 4u);
  EXPECT_EQ(fx.cmd.metrics().striped_regions, 1u);
}

TEST(Stripe, SmallRegionStaysWhole) {
  // stripe_min_fragment floors the split: a region at or below it is a
  // single fragment on a single host no matter the configured width.
  StripeFixture fx(4, 4, /*min_fragment=*/64_KiB);
  fx.run([](StripeFixture& f) -> Co<void> {
    const int rd = co_await f.client.mopen(64_KiB, f.fd, 0);
    EXPECT_GE(rd, 0);
    co_await f.sim.sleep(10_ms);
    EXPECT_EQ(f.hosts_holding_regions(), 1);
  });
  EXPECT_EQ(fx.cmd.metrics().fragments_placed, 1u);
  EXPECT_EQ(fx.cmd.metrics().striped_regions, 0u);
}

TEST(Stripe, WidthClampsToAvailableHosts) {
  // Asking for more stripes than there are idle hosts degrades gracefully
  // to the host count instead of failing or doubling up needlessly.
  StripeFixture fx(2, 4);
  fx.run([](StripeFixture& f) -> Co<void> {
    const int rd = co_await f.client.mopen(256_KiB, f.fd, 0);
    EXPECT_GE(rd, 0);
    co_await f.sim.sleep(10_ms);
    EXPECT_EQ(f.hosts_holding_regions(), 2);
  });
  EXPECT_EQ(fx.cmd.metrics().fragments_placed, 2u);
  EXPECT_EQ(fx.cmd.metrics().striped_regions, 1u);
}

TEST(Stripe, RoundTripIsByteExactAcrossFragmentBoundaries) {
  StripeFixture fx(4, 4);
  fx.run([](StripeFixture& f) -> Co<void> {
    const Bytes64 rlen = 256_KiB;  // 4 x 64 KiB fragments
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 11);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    // Full-region read.
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
    EXPECT_EQ(back, data);

    // Unaligned reads that start/end mid-fragment and span boundaries.
    const Bytes64 cases[][2] = {
        {64_KiB - 7, 14},          // straddles the first boundary
        {1, 192_KiB},              // covers two interior boundaries
        {128_KiB, 64_KiB},         // exactly one fragment
        {rlen - 1, 1},             // the final byte
        {200_KiB + 3, 56_KiB - 4}  // tail crossing into the last fragment
    };
    for (const auto& c : cases) {
      net::Buf part(static_cast<std::size_t>(c[1]), 0);
      EXPECT_EQ(co_await f.client.mread(rd, c[0], part.data(), c[1]), c[1]);
      EXPECT_TRUE(std::equal(part.begin(), part.end(),
                             data.begin() + static_cast<std::ptrdiff_t>(c[0])))
          << "read at offset " << c[0] << " len " << c[1] << " diverged";
    }

    // Unaligned write across a boundary, then read it back.
    net::Buf patch = pattern(10_KiB, 77);
    EXPECT_EQ(co_await f.client.mwrite(rd, 60_KiB, patch.data(), 10_KiB),
              10_KiB);
    net::Buf got(10_KiB, 0);
    EXPECT_EQ(co_await f.client.mread(rd, 60_KiB, got.data(), 10_KiB),
              10_KiB);
    EXPECT_EQ(got, patch);
  });
  EXPECT_EQ(fx.client.metrics().disk_fallbacks, 0u);
  EXPECT_EQ(fx.client.metrics().mreads_degraded, 0u);
  EXPECT_EQ(fx.client.metrics().mreads_total, fx.client.metrics().remote_hits);
}

TEST(Stripe, LostFragmentDegradesOnlyItsRange) {
  StripeFixture fx(4, 4);
  fx.run([](StripeFixture& f) -> Co<void> {
    const Bytes64 rlen = 256_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 23);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    // Kill one stripe owner. Write-through means disk already holds the
    // same bytes, so the degraded read must still be byte-exact.
    f.net.set_node_up(3, false);
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    const auto rr = co_await f.client.mread_ex(rd, 0, back.data(), rlen);
    EXPECT_EQ(rr.n, rlen);
    EXPECT_TRUE(rr.filled);
    EXPECT_EQ(back, data);
    // Exactly one 64 KiB fragment range fell back to the backing file.
    EXPECT_EQ(rr.disk_ranges.size(), 1u);
    if (!rr.disk_ranges.empty()) {
      EXPECT_EQ(rr.disk_ranges[0].second, 64_KiB);
    }
    // The failed host's descriptors are gone; the others were dropped with
    // it (this descriptor spans all four hosts).
    EXPECT_FALSE(f.client.active(rd));
  });
  // Fragment-granular accounting: one lost fragment, one disk fallback,
  // one degraded read; the three surviving fragments still counted reads.
  EXPECT_EQ(fx.client.metrics().disk_fallbacks, 1u);
  EXPECT_EQ(fx.client.metrics().mreads_degraded, 1u);
  EXPECT_EQ(fx.client.metrics().remote_hits, 0u);
  EXPECT_EQ(fx.client.metrics().access_failures, 1u);
  EXPECT_EQ(fx.client.metrics().nodes_dropped, 1u);
}

TEST(Stripe, SiblingNetReadSpansUnderOneMread) {
  StripeFixture fx(4, 4);
  fx.run([](StripeFixture& f) -> Co<void> {
    const Bytes64 rlen = 256_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 31);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
  });
  // Find the client.mread span and count its direct net.read children:
  // one per fragment, all under the same parent (sibling fan-out).
  std::uint64_t mread_id = 0;
  for (const obs::SpanRecord& s : fx.spans.spans()) {
    if (s.name == "client.mread") {
      EXPECT_EQ(mread_id, 0u) << "more than one client.mread span";
      mread_id = s.id;
    }
  }
  ASSERT_NE(mread_id, 0u);
  int net_reads = 0;
  for (const obs::SpanRecord& s : fx.spans.spans()) {
    if (s.name == "net.read" && s.parent == mread_id) ++net_reads;
  }
  EXPECT_EQ(net_reads, 4);
}

TEST(Stripe, ZeroLengthAndExactEndThroughStripedPath) {
  StripeFixture fx(4, 4);
  fx.run([](StripeFixture& f) -> Co<void> {
    const Bytes64 rlen = 256_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 43);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    // Zero-length: no sockets, no conservation entry, even when the region
    // is striped across four hosts.
    const auto before = f.client.metrics();
    const auto sent_before = f.net.metrics().datagrams_sent;
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), 0), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 96_KiB, back.data(), 0), 0);
    EXPECT_EQ(f.net.metrics().datagrams_sent, sent_before);
    EXPECT_EQ(f.client.metrics().mreads_total, before.mreads_total);

    // Exact-end: the last byte lives in the final fragment; an over-long
    // read clips to it and only that fragment is touched.
    EXPECT_EQ(co_await f.client.mread(rd, rlen - 1, back.data(), 100), 1);
    EXPECT_EQ(back[0], data[static_cast<std::size_t>(rlen) - 1]);
    EXPECT_EQ(co_await f.client.mwrite(rd, rlen - 1, data.data(), 100), 1);
    // Offset == len is past the end even for zero-length accesses.
    EXPECT_EQ(co_await f.client.mread(rd, rlen, back.data(), 0), -1);
    EXPECT_EQ(dodo_errno(), kDodoEINVAL);
  });
  EXPECT_EQ(fx.client.metrics().disk_fallbacks, 0u);
  EXPECT_EQ(fx.client.metrics().mreads_degraded, 0u);
}

TEST(Stripe, WidthOneMatchesLegacySingleRegionPlacement) {
  // The default width must reproduce the paper's whole-region behavior:
  // one fragment, one host, identical metrics semantics.
  StripeFixture fx(4, 1);
  fx.run([](StripeFixture& f) -> Co<void> {
    const Bytes64 rlen = 256_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    co_await f.sim.sleep(10_ms);
    EXPECT_EQ(f.hosts_holding_regions(), 1);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 3);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
    EXPECT_EQ(back, data);
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
  });
  EXPECT_EQ(fx.cmd.metrics().fragments_placed, 1u);
  EXPECT_EQ(fx.cmd.metrics().striped_regions, 0u);
  EXPECT_EQ(fx.client.metrics().remote_hits, 1u);
}

TEST(Stripe, McloseFreesEveryFragment) {
  StripeFixture fx(4, 4);
  fx.run([](StripeFixture& f) -> Co<void> {
    const int rd = co_await f.client.mopen(256_KiB, f.fd, 0);
    EXPECT_GE(rd, 0);
    co_await f.sim.sleep(10_ms);
    EXPECT_EQ(f.hosts_holding_regions(), 4);
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
    co_await f.sim.sleep(10_ms);
    EXPECT_EQ(f.cmd.region_count(), 0u);
    EXPECT_EQ(f.hosts_holding_regions(), 0);
  });
  EXPECT_EQ(fx.cmd.metrics().frees, 1u);
}

}  // namespace
}  // namespace dodo::runtime
