#include "fuzz/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault.hpp"
#include "fuzz/oracle.hpp"
#include "runtime/ring.hpp"

namespace dodo::fuzz {

namespace {

/// Deterministic content for a push/write op: a pure function of the op's
/// pattern seed and the byte position.
void fill_pattern(std::vector<std::uint8_t>& buf, std::uint64_t pattern) {
  for (std::size_t j = 0; j < buf.size(); ++j) {
    buf[j] = static_cast<std::uint8_t>((pattern >> ((j & 7) * 8)) +
                                       j * 131 + 17);
  }
}

/// What the workload believes about one region slot across open/close (and
/// crash/reclaim) cycles.
struct SlotState {
  int rd = -1;
  bool open = false;
  /// An mopen for this key was ever issued. Until then, a reused=true reply
  /// would mean the cmd invented a region out of nothing.
  bool ever_attempted = false;
  /// True when `remote` is the exact content of the remote region (set by a
  /// fully acknowledged full-region push/write; cleared by any failed or
  /// fresh path). Reads with filled=true are byte-checked only while true.
  bool remote_certain = false;
  std::vector<std::uint8_t> remote;
  /// Superseded certain images, newest last (bounded). The staleness oracle
  /// matches a diverging read against these: a hit means some replica
  /// missed an invalidation and served bytes older than the last acked
  /// write — the exact failure invalidate-on-write must prevent.
  std::vector<std::vector<std::uint8_t>> stale;

  void retire_image() {
    if (!remote_certain) return;
    stale.push_back(remote);
    if (stale.size() > 4) stale.erase(stale.begin());
  }
};

}  // namespace

RunResult run_schedule(const Schedule& s, const RunOptions& opt) {
  RunResult result;

  cluster::ClusterConfig cfg;
  cfg.imd_hosts = s.hosts;
  cfg.cmd_shards = s.shards;
  cfg.imd_pool = s.pool;
  cfg.local_cache = 256_KiB;
  cfg.page_cache_dodo = 128_KiB;
  cfg.seed = s.seed;
  cfg.rmd.min_pool = 64_KiB;  // schedules use deliberately tiny pools
  cfg.cmd.keepalive_interval = millis(500);  // fast scrub/reclaim at quiesce
  cfg.cmd.stripe_width = s.stripe_width;
  // Small enough that the 16-64 KiB schedule regions actually stripe.
  cfg.cmd.stripe_min_fragment = 4_KiB;
  cfg.cmd.replica_count = s.replica_count;
  cfg.client.cmd_rpc.retries = 5;
  cfg.client.refraction = millis(50);
  cfg.client.bulk.max_retries = 30;
  cfg.imd.reply_cache_capacity = s.imd_reply_cache_capacity;
  cfg.imd.buggy_clear_all_reply_cache = opt.buggy_imd_reply_cache;
  // Lease schedules: grace spans three 500ms keep-alive ticks so a
  // near-expiry proactive copy can finish its write-only/ack/activate
  // handshake while the source is still readable.
  cfg.imd.lease_epochs = s.lease;
  cfg.cmd.lease_epochs = s.lease;
  cfg.imd.lease_ttl = seconds(3.0);
  cfg.imd.lease_grace = seconds(1.5);
  cfg.record_spans = true;  // the span-tree oracle audits the merged trace
  // Flight recorder: on an oracle violation the run dumps the per-daemon
  // event rings (faults, lease transitions, pressure, prunes) for triage.
  cfg.telemetry.flight = true;
  cfg.telemetry.dump_name = "fuzz";

  // Everything the probe lambda captures must outlive the Cluster (the
  // network owns the probe and dies with it).
  std::string violation;
  auto note = [&violation](std::string v) {
    if (!v.empty() && violation.empty()) violation = std::move(v);
  };
  EpochOracle epochs;

  cluster::Cluster c(cfg);
  c.sim().set_event_limit(opt.event_limit);

  const Bytes64 dataset = static_cast<Bytes64>(s.slots) * s.region;
  const int fd = c.create_dataset("fuzz", dataset);
  std::vector<std::uint8_t> file_shadow(static_cast<std::size_t>(dataset));
  fill_pattern(file_shadow, s.seed * 0x9e3779b97f4a7c15ULL);
  c.fs().store_of_inode(c.fs().inode_of(fd))->write(0, dataset,
                                                    file_shadow.data());

  fault::FaultPlan plan;
  for (const fault::FaultEvent& ev : s.faults) plan.add(ev);
  fault::FaultInjector inj(c, plan);
  inj.arm();

  // Cheap oracles on every datagram actually delivered anywhere.
  c.network().set_delivery_probe([&](const net::Message&) {
    ++result.deliveries_probed;
    if (!violation.empty()) return;  // first violation wins; stop checking
    note(epochs.check(c));
    note(check_reply_cache_bounds(c));
    note(check_descriptor_bound(c, static_cast<std::size_t>(s.slots)));
    note(check_lease_no_resurrection(c));
  });

  std::vector<SlotState> slots(static_cast<std::size_t>(s.slots));
  const std::size_t rsz = static_cast<std::size_t>(s.region);

  auto app = [&](cluster::Cluster& cl) -> sim::Co<void> {
    auto* client = cl.dodo();
    std::vector<std::uint8_t> buf(rsz);
    std::vector<std::uint8_t> back(rsz);
    // Ring schedules drive every read through one ring for the whole
    // workload, so submitted/completed conservation spans fault windows.
    std::optional<runtime::DodoRing> ring;
    if (s.batch) ring.emplace(cl.sim(), *client, 8);

    for (const WorkOp& op : s.ops) {
      ++result.ops_executed;
      if (!violation.empty()) break;
      auto& sl = slots[static_cast<std::size_t>(op.slot)];
      // Descriptors die asynchronously (another slot's failure on the same
      // host drops every descriptor there); resync before acting.
      if (sl.open && !client->active(sl.rd)) {
        sl.open = false;
        sl.rd = -1;
      }
      switch (op.kind) {
        case OpKind::kOpen: {
          if (sl.open) break;
          if (sl.rd >= 0 && client->known(sl.rd)) {
            // A close left pending by a lost kMfreeRep holds the slot's
            // descriptor; it must resolve before the key can reopen, or
            // the client table would exceed the descriptor bound.
            (void)co_await client->mclose(sl.rd);
            if (client->known(sl.rd)) break;  // still unresolved
            sl.rd = -1;
          }
          const bool first_ever = !sl.ever_attempted;
          sl.ever_attempted = true;
          const auto [rd, reused] = co_await client->mopen_ex(
              s.region, fd, static_cast<Bytes64>(op.slot) * s.region);
          if (rd < 0) break;
          if (reused && first_ever) {
            note("phantom-reuse: cmd reported reuse for key of slot " +
                 std::to_string(op.slot) + " before any mopen was issued");
            break;
          }
          if (!reused) sl.remote_certain = false;
          sl.rd = rd;
          sl.open = true;
          break;
        }
        case OpKind::kPush: {
          if (!sl.open) break;
          fill_pattern(buf, op.pattern);
          const Status st =
              co_await client->push_remote(sl.rd, 0, buf.data(), s.region);
          if (st.is_ok()) {
            if (sl.remote != buf) sl.retire_image();
            sl.remote = buf;
            sl.remote_certain = true;
          } else {
            // The imd may hold any prefix of the new bytes (or all of them
            // with the ack lost); nothing is certain until the next fully
            // acknowledged overwrite.
            sl.remote_certain = false;
          }
          break;
        }
        case OpKind::kWrite: {
          if (!sl.open) break;
          fill_pattern(buf, op.pattern);
          const Bytes64 n =
              co_await client->mwrite(sl.rd, 0, buf.data(), s.region);
          // mwrite always issues the backing-file write once the descriptor
          // passed the entry check, even when the remote half fails — disk
          // stays authoritative, so the file shadow updates unconditionally.
          std::copy(buf.begin(), buf.end(),
                    file_shadow.begin() +
                        static_cast<std::ptrdiff_t>(op.slot) *
                            static_cast<std::ptrdiff_t>(rsz));
          // A remote-half failure still returns n (disk landed) but drops
          // the descriptor, so full n no longer implies the remote copy is
          // current — only a still-active descriptor does.
          if (n == s.region && client->active(sl.rd)) {
            if (sl.remote != buf) sl.retire_image();
            sl.remote = buf;
            sl.remote_certain = true;
          } else {
            sl.remote_certain = false;
          }
          break;
        }
        case OpKind::kRead: {
          if (!sl.open) break;
          runtime::DodoClient::ReadResult rr;
          if (s.batch) {
            // Four quarter-region submissions in flight at once; the CQEs
            // reassemble the same ReadResult the one-shot path returns.
            const Bytes64 q = s.region / 4;
            for (std::uint64_t i = 0; i < 4; ++i) {
              runtime::Sqe sqe;
              sqe.op = runtime::RingOp::kRead;
              sqe.rd = sl.rd;
              sqe.offset = static_cast<Bytes64>(i) * q;
              sqe.len = i == 3 ? s.region - 3 * q : q;
              sqe.buf = back.data() + static_cast<std::ptrdiff_t>(i * q);
              sqe.user_data = i;
              co_await ring->submit(sqe);
            }
            co_await ring->drain();
            rr.n = 0;
            rr.filled = true;
            for (int i = 0; i < 4; ++i) {
              const auto cqe = ring->try_reap();
              if (!cqe.has_value()) {
                // Always reap all four so a failed op never leaves stale
                // CQEs for the next kRead to misattribute.
                note("ring: drained ring yielded fewer completions than "
                     "submissions");
                rr.n = -1;
                continue;
              }
              if (cqe->n < 0) {
                rr.n = -1;
                continue;
              }
              if (rr.n >= 0) rr.n += cqe->n;
              rr.filled = rr.filled && cqe->filled;
              const Bytes64 base =
                  static_cast<Bytes64>(cqe->user_data) * q;
              for (const auto& [roff, rlen] : cqe->disk_ranges) {
                rr.disk_ranges.emplace_back(base + roff, rlen);
              }
            }
          } else {
            rr = co_await client->mread_ex(sl.rd, 0, back.data(), s.region);
          }
          if (rr.n == s.region && rr.filled && sl.remote_certain) {
            // Fragments lost mid-read come back from the backing file,
            // whose bytes are authoritative but may lag a push-only
            // overwrite; splice the file shadow over those ranges before
            // comparing against the remote image.
            std::vector<std::uint8_t> expect = sl.remote;
            for (const auto& [roff, rlen] : rr.disk_ranges) {
              std::copy_n(file_shadow.begin() +
                              static_cast<std::ptrdiff_t>(op.slot) *
                                  static_cast<std::ptrdiff_t>(rsz) +
                              static_cast<std::ptrdiff_t>(roff),
                          static_cast<std::ptrdiff_t>(rlen),
                          expect.begin() + static_cast<std::ptrdiff_t>(roff));
            }
            if (back != expect) {
              std::size_t at = 0;
              while (at < rsz && back[at] == expect[at]) ++at;
              bool was_stale = false;
              for (const auto& img : sl.stale) {
                if (back == img) {
                  was_stale = true;
                  break;
                }
              }
              if (was_stale) {
                note("staleness: mread of slot " + std::to_string(op.slot) +
                     " returned bytes of a superseded acked write (a replica "
                     "missed its invalidation)");
              } else {
                note("byte-exactness: remote read of slot " +
                     std::to_string(op.slot) + " diverges at byte " +
                     std::to_string(at));
              }
            }
          }
          break;
        }
        case OpKind::kClose: {
          if (sl.rd < 0) break;
          (void)co_await client->mclose(sl.rd);
          // A lost kMfreeRep keeps the descriptor client-side (deactivated,
          // awaiting a retry); only a resolved close forgets it. The remote
          // region may survive an unacked free; remote_certain keeps
          // describing its bytes for a future reused reattach.
          if (!client->known(sl.rd)) sl.rd = -1;
          sl.open = false;
          break;
        }
        case OpKind::kSync: {
          if (sl.rd < 0) break;
          (void)co_await client->msync(sl.rd);
          break;
        }
        case OpKind::kSleep: {
          co_await cl.sim().sleep(op.dur);
          break;
        }
      }
    }

    // -- quiesce ------------------------------------------------------------
    // 1. Let every planned fault fire; the generator pairs every window
    //    fault with its end, so after this the network is healed.
    SimTime last_fault = 0;
    for (const fault::FaultEvent& ev : s.faults) {
      last_fault = std::max(last_fault, ev.at);
    }
    if (cl.sim().now() < last_fault + millis(500)) {
      co_await cl.sim().sleep_until(last_fault + millis(500));
    }
    int spins = 0;
    while (!inj.done() && spins++ < 40) co_await cl.sim().sleep(millis(250));

    // 2. Drain every key on the now-healthy network: reattach (or freshly
    //    allocate) and close each slot that was ever touched. This clears
    //    directory entries whose free was executed but never acknowledged
    //    mid-fault — those are legal transients, not leaks, and only an
    //    acknowledged free distinguishes the two.
    for (int i = 0; i < s.slots; ++i) {
      auto& sl = slots[static_cast<std::size_t>(i)];
      if (sl.open && !client->active(sl.rd)) {
        sl.open = false;
        sl.rd = -1;
      }
      if (!sl.ever_attempted && !sl.open) continue;
      for (int attempt = 0; attempt < 4 && sl.rd < 0; ++attempt) {
        const auto [rd, reused] = co_await client->mopen_ex(
            s.region, fd, static_cast<Bytes64>(i) * s.region);
        (void)reused;
        if (rd >= 0) {
          sl.rd = rd;
          sl.open = true;
        } else {
          co_await cl.sim().sleep(millis(80));  // outwait refraction
        }
      }
      for (int attempt = 0; attempt < 4 && sl.rd >= 0; ++attempt) {
        (void)co_await client->mclose(sl.rd);
        if (!client->known(sl.rd)) {
          sl.rd = -1;
          break;
        }
        co_await cl.sim().sleep(millis(80));  // pending close; retry
      }
      sl.open = false;
    }

    // 3. Settle: several keep-alive intervals so the cmd's suspect-alloc
    //    scrub and hint refresh finish.
    co_await cl.sim().sleep(seconds(2.5));
    (void)co_await cl.fs().fsync(fd);
  };

  result.completed = c.try_run_app(app, opt.run_limit);
  result.faults_applied = inj.log().size();
  result.client_metrics = c.dodo()->metrics();
  c.network().set_delivery_probe(nullptr);

  // -- final oracles on the quiesced cluster --------------------------------
  if (result.completed) {
    note(epochs.check(c));
    note(check_reply_cache_bounds(c));
    note(check_descriptor_bound(c, static_cast<std::size_t>(s.slots)));
    note(check_no_leaks(c));
    note(check_conservation(c));
    note(check_lease_conservation(c));
    note(check_span_tree(c));
    std::vector<std::uint8_t> disk(static_cast<std::size_t>(dataset));
    c.fs().store_of_inode(c.fs().inode_of(fd))->read(0, dataset, disk.data());
    if (disk != file_shadow) {
      std::size_t at = 0;
      while (at < disk.size() && disk[at] == file_shadow[at]) ++at;
      note("byte-exactness: disk diverges from the disk-only shadow at byte " +
           std::to_string(at));
    }
  }
  result.violation = violation;
  if (!violation.empty()) c.write_flight_dump("oracle:" + violation);
  return result;
}

}  // namespace dodo::fuzz
