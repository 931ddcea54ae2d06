// Replicated hot regions (DESIGN.md §11): the cmd places up to
// replica_count copies of each fragment on distinct idle hosts, libdodo
// picks a copy per read with power-of-two-choices over per-host latency
// scores and fails over to siblings before touching disk, writes fan out
// write-through to every copy with invalidate-on-write for any copy that
// misses, and the keep-alive loop grows hot regions / shrinks cold ones
// Ditto-style. These tests pin the placement policy, the failover order
// (sibling before disk), the staleness contract (a copy that missed a
// write is never served), the elastic grow/shrink handshake (and that
// libmanage sees a grown copy), and the two data-path bugfix regressions
// that ride along (pending-free slot accounting under eviction, OR-joined
// write fan-out aggregation).
// Labeled `replica` (ctest -L replica / the replica test preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "core/cmd.hpp"
#include "core/imd.hpp"
#include "disk/filesystem.hpp"
#include "manage/region_manager.hpp"
#include "obs/span.hpp"
#include "runtime/dodo_client.hpp"
#include "sim/simulator.hpp"

namespace dodo::runtime {
namespace {

using sim::Co;
using sim::Simulator;

// Node 0: cmd. Node 1: application. Nodes 2..1+hosts: imds.
struct ReplicaFixture {
  Simulator sim{47};
  net::Network net;
  obs::SpanRecorder spans;
  core::CentralManager cmd;
  disk::SimFilesystem fs;
  std::vector<std::unique_ptr<core::IdleMemoryDaemon>> imds;
  DodoClient client;
  int fd = -1;

  explicit ReplicaFixture(int hosts, core::CmdParams cp,
                          Bytes64 pool = 16_MiB,
                          ClientParams clp = ClientParams{})
      : net(sim, net::NetParams::unet(),
            static_cast<std::size_t>(hosts) + 2),
        spans(sim),
        cmd(sim, net, 0, cp),
        fs(sim),
        client(sim, net, 1, net::Endpoint{0, core::kCmdPort}, fs,
               make_client_params(&spans, clp)) {
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

  static core::CmdParams replicated(int count, int width = 1,
                                    Bytes64 min_fragment = 4_KiB) {
    core::CmdParams p;
    p.replica_count = count;
    p.stripe_width = width;
    p.stripe_min_fragment = min_fragment;
    return p;
  }

  static ClientParams make_client_params(obs::SpanRecorder* rec,
                                         ClientParams p = ClientParams{}) {
    p.spans = rec;
    return p;
  }

  template <typename F>
  void run(F&& body, SimTime limit = 300_s) {
    bool finished = false;
    sim.spawn([](ReplicaFixture& f, F fn, bool& done) -> Co<void> {
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

  /// Hosts (node ids) whose imd currently holds at least one region.
  [[nodiscard]] std::vector<net::NodeId> holding_nodes() const {
    std::vector<net::NodeId> out;
    for (const auto& imd : imds) {
      if (imd->region_count() > 0) out.push_back(imd->node());
    }
    return out;
  }
};

net::Buf pattern(std::size_t n, std::uint8_t salt = 0) {
  net::Buf b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 131 + salt) & 0xff);
  }
  return b;
}

TEST(Replica, CopiesLandOnDistinctHosts) {
  ReplicaFixture fx(3, ReplicaFixture::replicated(2));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const int rd = co_await f.client.mopen(64_KiB, f.fd, 0);
    EXPECT_GE(rd, 0);
    co_await f.sim.sleep(10_ms);
    // One directory entry, one fragment, two copies on two distinct hosts.
    EXPECT_EQ(f.cmd.region_count(), 1u);
    EXPECT_EQ(f.hosts_holding_regions(), 2);
    EXPECT_EQ(f.cmd.rd_snapshot().size(), 2u);
  });
  EXPECT_EQ(fx.cmd.metrics().fragments_placed, 1u);
  EXPECT_EQ(fx.cmd.metrics().replicas_placed, 1u);
  EXPECT_EQ(fx.cmd.metrics().replica_shortfalls, 0u);
}

TEST(Replica, SecondaryShortfallIsNonFatal) {
  // One idle host cannot hold three distinct copies: the mandatory primary
  // lands, the secondaries are recorded as shortfalls, and the region works.
  ReplicaFixture fx(1, ReplicaFixture::replicated(3));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 5);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
    EXPECT_EQ(back, data);
    EXPECT_EQ(f.hosts_holding_regions(), 1);
  });
  EXPECT_EQ(fx.cmd.metrics().fragments_placed, 1u);
  EXPECT_EQ(fx.cmd.metrics().replicas_placed, 0u);
  EXPECT_EQ(fx.cmd.metrics().replica_shortfalls, 2u);
  // A single copy is not a replica set: reads count as plain remote hits.
  EXPECT_EQ(fx.client.metrics().replica_hits, 0u);
}

TEST(Replica, ComposesWithStriping) {
  // Width 2 at 2 replicas = 4 placements on 4 distinct hosts.
  ReplicaFixture fx(4, ReplicaFixture::replicated(2, 2));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 128_KiB;  // 2 x 64 KiB fragments
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    co_await f.sim.sleep(10_ms);
    EXPECT_EQ(f.hosts_holding_regions(), 4);
    for (const auto& imd : f.imds) EXPECT_EQ(imd->region_count(), 1u);

    net::Buf data = pattern(static_cast<std::size_t>(rlen), 17);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
    EXPECT_EQ(back, data);
  });
  EXPECT_EQ(fx.cmd.metrics().fragments_placed, 2u);
  EXPECT_EQ(fx.cmd.metrics().replicas_placed, 2u);
  EXPECT_EQ(fx.cmd.metrics().striped_regions, 1u);
  // The write fanned out to every copy of every fragment.
  EXPECT_EQ(fx.client.metrics().remote_write_bytes,
            static_cast<std::int64_t>(2 * 128_KiB));
  // Both fragment reads came from a multi-copy set.
  EXPECT_EQ(fx.client.metrics().replica_hits, 2u);
}

TEST(Replica, ReadsFailOverToSiblingBeforeDisk) {
  ReplicaFixture fx(3, ReplicaFixture::replicated(2));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 29);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    // Kill one of the two copy holders before any read samples the hosts.
    // Unsampled copies score as optimistic, so the picker must try the dead
    // copy within the first couple of reads — and every read must still be
    // served entirely from remote memory: the moment the dead copy is
    // selected, the read fails over to the live sibling instead of disk.
    const auto holders = f.holding_nodes();
    EXPECT_EQ(holders.size(), 2u);
    f.net.set_node_up(holders.front(), false);
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    for (int i = 0; i < 8; ++i) {
      std::fill(back.begin(), back.end(), 0);
      const auto rr = co_await f.client.mread_ex(rd, 0, back.data(), rlen);
      EXPECT_EQ(rr.n, rlen);
      EXPECT_EQ(back, data);
      EXPECT_TRUE(rr.disk_ranges.empty());
      EXPECT_TRUE(f.client.active(rd));  // sibling keeps the descriptor alive
    }
  });
  EXPECT_EQ(fx.client.metrics().disk_fallbacks, 0u);
  EXPECT_EQ(fx.client.metrics().mreads_degraded, 0u);
  // The dead copy was selected at least once and the read moved on.
  EXPECT_GE(fx.client.metrics().replica_failovers, 1u);
}

TEST(Replica, WriteInvalidatesCopyThatMissedIt) {
  ReplicaFixture fx(3, ReplicaFixture::replicated(2));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 31);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    EXPECT_EQ(f.cmd.rd_snapshot().size(), 2u);

    // One copy holder dies; the next write cannot reach it. The write still
    // succeeds (disk + the live copy), the dead copy leaves both the local
    // map and the cmd directory, and the descriptor stays active.
    const auto holders = f.holding_nodes();
    EXPECT_EQ(holders.size(), 2u);
    f.net.set_node_up(holders.back(), false);
    net::Buf data2 = pattern(static_cast<std::size_t>(rlen), 37);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data2.data(), rlen), rlen);
    EXPECT_TRUE(f.client.active(rd));
    EXPECT_EQ(f.cmd.rd_snapshot().size(), 1u);

    // The surviving copy serves the NEW bytes from remote memory — a stale
    // read through the invalidated copy is impossible (it is gone).
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    const auto rr = co_await f.client.mread_ex(rd, 0, back.data(), rlen);
    EXPECT_EQ(rr.n, rlen);
    EXPECT_TRUE(rr.disk_ranges.empty());
    EXPECT_EQ(back, data2);
  });
  EXPECT_EQ(fx.client.metrics().invalidations_sent, 1u);
  EXPECT_EQ(fx.cmd.metrics().invalidations, 1u);
  EXPECT_EQ(fx.client.metrics().disk_fallbacks, 0u);
}

TEST(Replica, HotRegionGrowsAndColdRegionShrinks) {
  core::CmdParams cp = ReplicaFixture::replicated(1);
  cp.replica_adapt = true;
  cp.replica_max = 2;
  cp.replica_grow_hits = 8;
  cp.replica_shrink_hits = 2;
  ReplicaFixture fx(3, cp);
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 41);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    EXPECT_EQ(f.cmd.rd_snapshot().size(), 1u);

    // Hot window: 12 read hits >= replica_grow_hits, reported on the next
    // keep-alive ping. The grow handshake (clone, write-only offer, client
    // ack, generation probe, activate) spans a few keep-alive ticks.
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    for (int i = 0; i < 12; ++i) {
      EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
      EXPECT_EQ(back, data);
    }
    co_await f.sim.sleep(seconds(7.0));
    EXPECT_EQ(f.cmd.metrics().replicas_grown, 1u);
    EXPECT_EQ(f.cmd.rd_snapshot().size(), 2u);
    EXPECT_EQ(f.hosts_holding_regions(), 2);

    // The activated copy serves reads (replica_hits) and takes writes
    // (fan-out to both copies keeps them coherent).
    net::Buf data2 = pattern(static_cast<std::size_t>(rlen), 43);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data2.data(), rlen), rlen);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
    EXPECT_EQ(back, data2);

    // Cold window: 1 hit <= replica_shrink_hits drops the extra copy and
    // frees its pool bytes; the primary never shrinks away.
    co_await f.sim.sleep(seconds(7.0));
    EXPECT_EQ(f.cmd.metrics().replicas_shrunk, 1u);
    EXPECT_EQ(f.cmd.rd_snapshot().size(), 1u);
    co_await f.sim.sleep(seconds(3.0));
    EXPECT_EQ(f.hosts_holding_regions(), 1);

    // Still byte-exact through the shrunk set, still remote.
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
    EXPECT_EQ(back, data2);
  });
  EXPECT_GE(fx.client.metrics().replica_updates_applied, 2u);
  EXPECT_EQ(fx.client.metrics().disk_fallbacks, 0u);
  // Pending-free accounting stayed exact across the shrink's free.
  EXPECT_EQ(fx.cmd.metrics().fragments_pending_free -
                fx.cmd.metrics().fragments_pending_free_resolved,
            fx.cmd.pending_free_count());
}

// libmanage's replica-safe victim pre-pass must see copies that arrive after
// mopen: regions placed with one copy that grow a second through elastic
// replication (a kActivate delta) become safe victims.
TEST(Replica, GrownCopyMakesLibmanageVictimReplicaSafe) {
  core::CmdParams cp = ReplicaFixture::replicated(1);
  cp.replica_adapt = true;
  cp.replica_max = 2;
  cp.replica_grow_hits = 8;
  cp.replica_shrink_hits = 2;
  ReplicaFixture fx(3, cp);
  manage::ManageParams mp;
  mp.local_cache_bytes = 64_KiB;  // one region: each fault reaps the other
  manage::RegionManager mgr(fx.sim, fx.client, fx.fs, mp);
  fx.run([&mgr](ReplicaFixture& f) -> Co<void> {
    const int a = mgr.copen(64_KiB, f.fd, 0);
    const int b = mgr.copen(64_KiB, f.fd, 64_KiB);
    // Ping-pong: the first reap of each region clones it to remote memory,
    // and every later fault fills from there (one client read hit each).
    for (int i = 0; i < 12; ++i) {
      co_await mgr.cread(a, 0, nullptr, 64);
      co_await mgr.cread(b, 0, nullptr, 64);
    }
    EXPECT_EQ(mgr.metrics().reaper_victims, 23u);
    EXPECT_EQ(mgr.metrics().replica_safe_evictions, 0u);  // one copy each

    // Both keys were hot in the window: each grows a second copy.
    co_await f.sim.sleep(seconds(7.0));
    EXPECT_EQ(f.cmd.metrics().replicas_grown, 2u);
    co_await mgr.cread(a, 0, nullptr, 64);  // reaps b, now on two copies
    EXPECT_FALSE(mgr.resident(b));
  });
  EXPECT_EQ(fx.cmd.metrics().replicas_placed, 0u);  // none came from mopen
  EXPECT_EQ(mgr.metrics().replica_safe_evictions, 1u);
  EXPECT_EQ(fx.client.metrics().disk_fallbacks, 0u);
}

// Bugfix regression (satellite #1): a pending-free retry slot whose owning
// imd is evicted between retry scheduling and resolution must resolve — the
// old accounting kept retrying a host whose pool was already destroyed,
// leaking the slot (and the gauge) forever.
TEST(Replica, PendingFreeSlotResolvesWhenOwnerEvictedMidRetry) {
  ReplicaFixture fx(3, ReplicaFixture::replicated(2));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 53);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);

    // Crash one copy holder mid-epoch, then write: invalidate-on-write
    // drops the copy from the directory and queues its fragment on the
    // pending-free retry list. The host is unreachable, so the free RPC
    // cannot resolve — the slot sits in retry.
    const auto holders = f.holding_nodes();
    EXPECT_EQ(holders.size(), 2u);
    const net::NodeId dead = holders.back();
    f.net.set_node_up(dead, false);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    co_await f.sim.sleep(seconds(6.0));  // a scrub tick retries and fails
    EXPECT_EQ(f.cmd.pending_free_count(), 1u);
    EXPECT_EQ(f.cmd.metrics().fragments_pending_free -
                  f.cmd.metrics().fragments_pending_free_resolved,
              f.cmd.pending_free_count());

    // The host is evicted (rmd reports busy; the pool is destroyed) while
    // the retry is still scheduled. The next scrub must resolve the slot:
    // nothing is left to free, and retrying forever leaks it.
    auto sock = f.net.open_ephemeral(1);
    net::Buf h = core::make_header(core::MsgKind::kHostStatus, 1);
    net::Writer w(h);
    w.u32(dead);
    w.u8(0);  // busy
    sock->send(net::Endpoint{0, core::kCmdPort}, std::move(h));
    co_await f.sim.sleep(seconds(6.0));
    EXPECT_EQ(f.cmd.pending_free_count(), 0u);
    EXPECT_EQ(f.cmd.metrics().fragments_pending_free,
              f.cmd.metrics().fragments_pending_free_resolved);
  });
}

// Bugfix regression (satellite #2): the mwrite fan-out join must OR the
// per-copy failure flags. A stale copy that fails fast (its region was
// freed behind the client's back — a missed invalidation) races a slower
// successful sibling; the success completing last must not mask the
// failure, and the failed copy must be invalidated, not served.
TEST(Replica, StaleCopyFailureIsNotMaskedByFastSibling) {
  ReplicaFixture fx(2, ReplicaFixture::replicated(2));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 59);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    EXPECT_EQ(f.imds[0]->region_count(), 1u);
    EXPECT_EQ(f.imds[1]->region_count(), 1u);

    // Free one copy's region directly at its imd, behind the client's and
    // the cmd's backs — the copy is now stale storage the client still
    // maps. Its next write fails immediately (unknown region) while the
    // healthy sibling's bulk transfer is still in flight.
    const auto stale = f.imds[1]->region_list();
    EXPECT_EQ(stale.size(), 1u);
    if (stale.empty()) co_return;
    auto sock = f.net.open_ephemeral(1);
    net::Buf h = core::make_header(core::MsgKind::kFreeReq, 999001);
    net::Writer w(h);
    w.u64(stale.front().first);
    sock->send(net::Endpoint{f.imds[1]->node(), core::kImdCtlPort},
               std::move(h));
    (void)co_await sock->recv_for(seconds(1.0));  // drain the free's ack
    EXPECT_EQ(f.imds[1]->region_count(), 0u);

    // The fan-out write: fast failure + slow success. The OR-join must
    // record the failure (invalidating the stale copy) even though the
    // sibling's success lands later.
    net::Buf data2 = pattern(static_cast<std::size_t>(rlen), 61);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data2.data(), rlen), rlen);
    EXPECT_TRUE(f.client.active(rd));
    EXPECT_EQ(f.client.metrics().invalidations_sent, 1u);
    EXPECT_EQ(f.cmd.rd_snapshot().size(), 1u);

    // Staleness oracle, in miniature: no read may return superseded bytes.
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    const auto rr = co_await f.client.mread_ex(rd, 0, back.data(), rlen);
    EXPECT_EQ(rr.n, rlen);
    EXPECT_TRUE(rr.disk_ranges.empty());
    EXPECT_EQ(back, data2);
  });
  EXPECT_EQ(fx.cmd.metrics().invalidations, 1u);
  EXPECT_EQ(fx.client.metrics().disk_fallbacks, 0u);
  EXPECT_EQ(fx.client.metrics().mreads_degraded, 0u);
}

TEST(Replica, CountOneMatchesLegacyPlacement) {
  // The default replica_count must reproduce single-copy behavior bit for
  // bit: one copy per fragment, no replica metrics ticking.
  ReplicaFixture fx(3, ReplicaFixture::replicated(1));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf data = pattern(static_cast<std::size_t>(rlen), 67);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, data.data(), rlen), rlen);
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
    EXPECT_EQ(back, data);
    EXPECT_EQ(f.hosts_holding_regions(), 1);
    EXPECT_EQ(co_await f.client.mclose(rd), 0);
    co_await f.sim.sleep(10_ms);
    EXPECT_EQ(f.hosts_holding_regions(), 0);
  });
  EXPECT_EQ(fx.cmd.metrics().replicas_placed, 0u);
  EXPECT_EQ(fx.client.metrics().replica_hits, 0u);
  EXPECT_EQ(fx.client.metrics().replica_failovers, 0u);
}

TEST(Replica, McloseFreesEveryCopy) {
  ReplicaFixture fx(4, ReplicaFixture::replicated(2, 2));
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const int rd = co_await f.client.mopen(128_KiB, f.fd, 0);
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

TEST(Replica, WriteBarrierFlushesPendingBatch) {
  // Batched data path regression (DESIGN.md §16): an mwrite landing between
  // queued coalesced mreads must flush the pending batch *first* — the
  // queued reads observe the pre-write bytes, never a torn mix, and the
  // write proceeds only once the batch resolved. A long window timer makes
  // the barrier (not the timer) the only thing that can flush in time.
  ClientParams clp;
  clp.coalesce_window_bytes = 64_KiB;
  clp.coalesce_window = 50 * kMillisecond;
  ReplicaFixture fx(1, ReplicaFixture::replicated(1), 16_MiB, clp);
  fx.run([](ReplicaFixture& f) -> Co<void> {
    const Bytes64 rlen = 64_KiB;
    const int rd = co_await f.client.mopen(rlen, f.fd, 0);
    EXPECT_GE(rd, 0);
    net::Buf before = pattern(static_cast<std::size_t>(rlen), 41);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, before.data(), rlen), rlen);

    // Two adjacent reads join one batch and sit pending on the 50ms timer.
    net::Buf got(static_cast<std::size_t>(32_KiB), 0);
    int done = 0;
    DodoClient::ReadResult r0, r1;
    f.client.mread_enqueue(rd, 0, got.data(), 16_KiB,
                           [&](const DodoClient::ReadResult& r) {
                             r0 = r;
                             ++done;
                           });
    f.client.mread_enqueue(rd, 16_KiB,
                           got.data() + static_cast<std::ptrdiff_t>(16_KiB),
                           16_KiB,
                           [&](const DodoClient::ReadResult& r) {
                             r1 = r;
                             ++done;
                           });
    EXPECT_EQ(done, 0);  // still batched, nothing flushed yet

    net::Buf after = pattern(static_cast<std::size_t>(rlen), 43);
    EXPECT_EQ(co_await f.client.mwrite(rd, 0, after.data(), rlen), rlen);
    EXPECT_EQ(done, 2);  // the barrier flushed and awaited the batch
    EXPECT_EQ(r0.n, 16_KiB);
    EXPECT_EQ(r1.n, 16_KiB);
    EXPECT_TRUE(r0.filled);
    EXPECT_TRUE(r1.filled);
    EXPECT_TRUE(r0.disk_ranges.empty());
    EXPECT_TRUE(r1.disk_ranges.empty());
    // The queued reads saw the pre-write image, byte for byte.
    EXPECT_TRUE(std::equal(got.begin(), got.end(), before.begin()));

    // A fresh full-window read flushes immediately and sees the new bytes.
    net::Buf back(static_cast<std::size_t>(rlen), 0);
    EXPECT_EQ(co_await f.client.mread(rd, 0, back.data(), rlen), rlen);
    EXPECT_EQ(back, after);
  });
  const auto& m = fx.client.metrics();
  EXPECT_EQ(m.batch_write_barriers, 1u);
  EXPECT_EQ(m.batched_reads, 3u);
  EXPECT_EQ(m.coalesced_mreads, 2u);  // only the 2-op batch coalesced
  EXPECT_EQ(m.batch_flushes, 2u);
  EXPECT_EQ(m.mreads_total, 3u);
  EXPECT_EQ(m.remote_hits, 3u);
  EXPECT_EQ(m.mreads_degraded, 0u);
  EXPECT_EQ(m.disk_fallbacks, 0u);
}

}  // namespace
}  // namespace dodo::runtime
