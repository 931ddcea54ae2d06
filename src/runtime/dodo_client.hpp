// The Dodo runtime library (libdodo), paper §3.2 and §4.4.
//
// Linked into the application; provides the explicit, synchronous remote
// memory API:
//   mopen(len, fd, offset)  - allocate (or re-attach to) a remote region
//                             backed by [offset, offset+len) of an open file
//   mread / mwrite          - move bytes; mwrite goes to the backing file
//                             and the remote region *in parallel*
//   mclose                  - deallocate via the central manager
//   msync                   - block until the region's data is on disk
// plus push_remote(), the remote-only store used by the region-management
// library's cloneRemoteRegion (Figure 5 evicts clean regions to remote
// memory without re-writing them to disk).
//
// Error model is the paper's: failures return -1 and set dodo_errno() to
// ENOMEM (region not active / no memory), EINVAL (bad arguments), or the
// backing write's errno. A failed access to any region on a node drops every
// descriptor hosted on that node (§3.1).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "core/rpc.hpp"
#include "core/wire.hpp"
#include "disk/filesystem.hpp"
#include "net/bulk.hpp"
#include "net/transport.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace dodo::runtime {

struct ClientParams {
  std::uint32_t client_id = 1;
  core::RpcParams cmd_rpc{};             // mopen/mclose RPCs
  Duration data_timeout = millis(500);   // waiting for imd Read/Write replies
  Duration refraction = seconds(5.0);    // §3.1 refraction period
  net::BulkParams bulk{};
  /// Keep-alive control port this client binds. Overridable so many clients
  /// (the loadgen fleet) can share one simulated node.
  net::Port ctl_port = core::kClientPort;
  /// Optional trace-span sink (not owned). Null disables span recording.
  obs::SpanRecorder* spans = nullptr;
  /// Optional flight-recorder ring (not owned). Null disables recording.
  obs::FlightRecorder* flight = nullptr;
  /// Request coalescing (DESIGN.md §16): adjacent mreads against one
  /// descriptor queue into a per-descriptor batch and flush as a single
  /// merged fan-out with scatter-gather landing. This is the max merged
  /// span in bytes; 0 disables coalescing entirely — every mread takes the
  /// classic one-op path, byte-identical on the wire to pre-batching
  /// builds.
  Bytes64 coalesce_window_bytes = 0;
  /// Max sim-time the first queued op waits for adjacent joiners before the
  /// batch flushes anyway. Only meaningful when coalesce_window_bytes > 0.
  Duration coalesce_window = micros(200);
};

struct ClientMetrics {
  std::uint64_t mopens = 0;
  std::uint64_t mopen_failures = 0;
  std::uint64_t refraction_skips = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t remote_writes = 0;
  std::uint64_t remote_pushes = 0;
  std::int64_t remote_read_bytes = 0;
  std::int64_t remote_write_bytes = 0;
  std::uint64_t access_failures = 0;
  std::uint64_t nodes_dropped = 0;
  std::uint64_t descriptors_dropped = 0;
  std::uint64_t pings_answered = 0;
  /// Conservation triple: every mread past argument validation lands in
  /// exactly one of remote_hits (every byte came from remote memory) or
  /// mreads_degraded (at least one byte range came from disk), so at
  /// quiesce remote_hits + mreads_degraded == mreads_total (fuzz oracle).
  std::uint64_t mreads_total = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t mreads_degraded = 0;
  /// Fragment-granular: one tick per lost fragment (or per inactive-
  /// descriptor read) whose byte range had to come from disk.
  std::uint64_t disk_fallbacks = 0;
  std::uint64_t mwrites_total = 0;
  std::uint64_t mwrite_remote_failures = 0;
  /// Fragment reads served from a replica set holding more than one copy.
  std::uint64_t replica_hits = 0;
  /// Read attempts that moved to a sibling replica after the selected copy
  /// failed — each tick is a disk fallback avoided (when the sibling works).
  std::uint64_t replica_failovers = 0;
  /// kDropReplicaReq RPCs issued: copies that missed a write and were
  /// reported to the cmd so they are never served stale.
  std::uint64_t invalidations_sent = 0;
  /// Replica-set deltas (add-write-only / activate / drop) applied from the
  /// cmd's kPing piggyback.
  std::uint64_t replica_updates_applied = 0;
  // -- batched data path (all zero unless coalescing / a ring is in use) ---
  /// mreads that went through the per-descriptor coalescing queue. Each is
  /// still one mreads_total tick, so the conservation triple above is
  /// unchanged; batched_reads ≤ mreads_total always.
  std::uint64_t batched_reads = 0;
  /// Batched reads whose flush carried at least one other op — the reads
  /// that actually shared a bulk transfer. coalesced_mreads ≤ batched_reads.
  std::uint64_t coalesced_mreads = 0;
  /// Merged fan-outs issued (≤ batched_reads: every flush carries ≥ 1 op).
  std::uint64_t batch_flushes = 0;
  /// Flushes forced by an mwrite/push_remote/mclose barrier: a write must
  /// never land between queued reads and their flush (staleness contract).
  std::uint64_t batch_write_barriers = 0;
  // -- submission/completion ring (counted here so one snapshot covers the
  // whole runtime; a DodoRing is a separate object wired to this client) --
  std::uint64_t ring_submitted = 0;
  std::uint64_t ring_completed = 0;
  std::uint64_t ring_full_rejects = 0;
  std::uint64_t ring_peak_depth = 0;  // max sqes in flight at once
};

class DodoClient {
 public:
  DodoClient(sim::Simulator& sim, net::Network& net, net::NodeId node,
             net::Endpoint cmd, disk::SimFilesystem& fs,
             ClientParams params = {});
  /// Sharded control plane: cmds[shard_of_key(key, cmds.size())] serves all
  /// control RPCs for `key`. A one-element vector is exactly the single-cmd
  /// constructor above (same code path).
  DodoClient(sim::Simulator& sim, net::Network& net, net::NodeId node,
             std::vector<net::Endpoint> cmds, disk::SimFilesystem& fs,
             ClientParams params = {});
  ~DodoClient();

  DodoClient(const DodoClient&) = delete;
  DodoClient& operator=(const DodoClient&) = delete;

  /// Binds the control port and starts answering keep-alive pings.
  void start();

  /// Clean exit that *leaves regions cached* for a later run (the dmine
  /// persistent-data mode). Without this, the cmd's keep-alive sweep
  /// eventually reclaims everything the client allocated.
  sim::Co<void> detach();

  /// Stops the ping responder without detaching (simulates a crash: the
  /// cmd's keep-alive mechanism must clean up).
  sim::Co<void> halt();

  // -- the paper's API ------------------------------------------------------

  /// Returns a region descriptor >= 0, or -1 with dodo_errno set.
  sim::Co<int> mopen(Bytes64 len, int fd, Bytes64 offset);

  /// mopen plus the central manager's "reused" flag: true when the region
  /// was already cached from a previous run and still holds that data (the
  /// dmine persistent-dataset path). {-1, false} on failure.
  sim::Co<std::pair<int, bool>> mopen_ex(Bytes64 len, int fd, Bytes64 offset);

  /// Returns bytes read, or -1 with dodo_errno set. buf may be nullptr in
  /// phantom (accounting-only) runs.
  sim::Co<Bytes64> mread(int rd, Bytes64 offset, std::uint8_t* buf,
                         Bytes64 len, obs::TraceContext parent = {});

  struct ReadResult {
    Bytes64 n = -1;      // bytes read, or -1
    bool filled = false;  // range lies within the region's written prefix
    /// Request-relative {offset, len} ranges that were served from the
    /// backing file because their fragment's host was lost mid-read. Empty
    /// on a fully remote read. Disk bytes are authoritative (clean-cache
    /// invariant), so they never clear `filled`.
    std::vector<std::pair<Bytes64, Bytes64>> disk_ranges;
  };
  /// mread plus the imd's "filled" flag: false means the remote region was
  /// allocated but the requested range was never written (its content is
  /// meaningless). The region-management library uses this to decide
  /// whether a remote fill can be trusted over the backing file.
  sim::Co<ReadResult> mread_ex(int rd, Bytes64 offset, std::uint8_t* buf,
                               Bytes64 len, obs::TraceContext parent = {});

  /// Queues one read into the descriptor's open coalescing batch (opening
  /// one if needed) without suspending; `on_complete` fires exactly once
  /// when the flush resolves the op — in submission order within a batch.
  /// Argument-validation failures complete before this returns. Requires
  /// coalescing to be enabled (coalesce_window_bytes > 0); DodoRing's
  /// submission path is built on this.
  void mread_enqueue(int rd, Bytes64 offset, std::uint8_t* buf, Bytes64 len,
                     std::function<void(const ReadResult&)> on_complete,
                     obs::TraceContext parent = {});

  [[nodiscard]] bool coalescing_enabled() const {
    return params_.coalesce_window_bytes > 0;
  }

  /// Writes to the backing file and the remote region in parallel; returns
  /// bytes written into the region, or -1 with dodo_errno set.
  sim::Co<Bytes64> mwrite(int rd, Bytes64 offset, const std::uint8_t* buf,
                          Bytes64 len, obs::TraceContext parent = {});

  /// Returns 0, or -1 with dodo_errno = EINVAL.
  sim::Co<int> mclose(int rd);

  /// Blocks until all data in the region is on disk. Returns 0 or -1.
  sim::Co<int> msync(int rd);

  // -- extension for the region-management library --------------------------

  /// Stores bytes into the remote region only (no backing-file write).
  sim::Co<Status> push_remote(int rd, Bytes64 offset, const std::uint8_t* buf,
                              Bytes64 len, obs::TraceContext parent = {});

  /// True if the descriptor exists and has not been dropped.
  [[nodiscard]] bool active(int rd) const;

  /// True if the descriptor exists at all — including one deactivated by a
  /// failed mclose that must be retried before the key can be reopened.
  [[nodiscard]] bool known(int rd) const {
    return regions_.find(rd) != regions_.end();
  }

  [[nodiscard]] const ClientMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const net::BulkStats& bulk_stats() const {
    return bulk_stats_;
  }
  /// Everything the runtime knows about itself, under "client." names.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;
  [[nodiscard]] std::uint32_t client_id() const {
    return params_.client_id;
  }
  [[nodiscard]] std::size_t region_table_size() const {
    return regions_.size();
  }

  /// Weakest-link replica depth of an active descriptor: the minimum number
  /// of live (readable) copies across its fragments, 0 when the descriptor
  /// is inactive. libmanage uses this to prefer evicting regions whose
  /// remote copy survives any single host loss.
  [[nodiscard]] std::uint32_t replica_depth(int rd) const;

  /// True once any descriptor's map has held a fragment with two or more
  /// copies; never cleared. While false, replica_depth() < 2 for every
  /// descriptor, so libmanage can skip its replica-safe victim walk.
  [[nodiscard]] bool multi_copy_seen() const { return multi_copy_seen_; }

  // -- DodoRing accounting hooks (src/runtime/ring.hpp) --------------------
  // The ring is a separate object; its counters live in ClientMetrics so a
  // single snapshot covers the whole runtime, gated on ring_attached.
  void ring_register() { ring_attached_ = true; }
  void ring_note_submit(std::uint64_t depth_now) {
    ++metrics_.ring_submitted;
    metrics_.ring_peak_depth = std::max(metrics_.ring_peak_depth, depth_now);
  }
  void ring_note_complete() { ++metrics_.ring_completed; }
  void ring_note_reject() { ++metrics_.ring_full_rejects; }

 private:
  struct Entry {
    core::RegionKey key;
    int fd = -1;
    Bytes64 file_offset = 0;
    Bytes64 len = 0;
    core::StripeMap map;
    bool active = false;
    /// Write-only copies from the cmd's kAddWriteOnly deltas, keyed by
    /// fragment index: writes fan out to them so a pending clone misses
    /// nothing, but reads never touch them until the cmd activates them.
    std::vector<std::pair<std::uint32_t, core::RegionLoc>> write_only;
    /// Read hits since the last kPong report (the cmd's adaptation signal).
    std::uint64_t hits = 0;
  };

  /// Outcome slot one fan-out piece/fragment coroutine reports into.
  struct FragOutcome {
    bool ok = false;
    bool filled = false;
    bool replica_hit = false;  // served from a multi-copy set
    Err err = Err::kTimeout;
    /// Hosts that never answered (timeout or failed bulk transfer) — the
    /// host itself is suspect, so every copy it serves gets pruned.
    std::vector<net::NodeId> failed_hosts;
    /// Copies an imd explicitly rejected (fenced, unknown, stale epoch).
    /// The host answered — it is alive, and under incremental lease
    /// reclamation it still serves its kept regions — so only the one dead
    /// copy is pruned, never the whole host.
    std::vector<core::RegionLoc> failed_copies;
  };

  /// Per-host read-latency state backing replica selection: an EWMA of
  /// observed mread round-trips, inflated by the number of in-flight
  /// transfers to that host (bulk-credit backpressure proxy).
  struct HostScore {
    double ewma_latency = 0.0;  // 0 = no sample yet (optimistic)
    int inflight = 0;
  };
  [[nodiscard]] double host_score(net::NodeId host) const;
  void observe_latency(net::NodeId host, double sample);

  sim::Co<void> ping_loop();
  /// Applies one replica-set delta from the cmd's kPing piggyback to every
  /// descriptor of `key`.
  void apply_replica_update(std::uint8_t op, const core::RegionKey& key,
                            std::uint32_t frag, const core::RegionLoc& loc);

  /// One piece of a fanned-out mread: selects a replica with
  /// power-of-two-choices over host_score(), and on failure fails over to
  /// sibling replicas before reporting failure (the caller's disk path).
  /// With `scatter` null the piece lands in `dst` via the classic
  /// bulk_recv-then-copy path; non-null, it lands straight in the scatter
  /// segments (bulk_recv_sg, zero intermediate copy) and `dst` is unused.
  sim::Co<void> read_piece(core::ReplicaSet set, Bytes64 frag_off,
                           Bytes64 want, std::uint8_t* dst, FragOutcome* out,
                           sim::WaitGroup* wg, obs::TraceContext ctx,
                           const std::vector<net::ScatterSeg>* scatter =
                               nullptr);

  /// One copy of a fanned-out push/mwrite (kWriteReq → WriteGo →
  /// bulk_send → WriteRep against the copy's owner).
  sim::Co<void> write_fragment(core::RegionLoc frag, Bytes64 frag_off,
                               Bytes64 want, const std::uint8_t* src,
                               FragOutcome* out, sim::WaitGroup* wg,
                               obs::TraceContext ctx);

  /// Reports a copy that missed a write to the cmd (kDropReplicaReq) so it
  /// is dropped from the directory before it can serve stale bytes. True
  /// when the cmd answered.
  sim::Co<bool> invalidate_replica(core::RegionKey key, core::RegionLoc loc,
                                   obs::TraceContext ctx);

  /// Removes one specific copy from every descriptor of `key` (local half
  /// of invalidate-on-write). A fragment losing its last copy drops the
  /// descriptor.
  void prune_copy(const core::RegionKey& key, const core::RegionLoc& loc);

  /// §3.1 failure handling, replica-aware: prunes every copy hosted on
  /// `node` from every descriptor's replica sets; a descriptor only drops
  /// when one of its fragments loses its last copy.
  void prune_host(net::NodeId node);

  Entry* lookup_active(int rd);

  // -- request coalescing (DESIGN.md §16) ----------------------------------

  /// One queued read inside a ReadBatch. `len` is already clamped to the
  /// region end; `result` is filled by the flush before `on_complete` runs.
  struct PendingOp {
    Bytes64 offset = 0;
    Bytes64 len = 0;
    std::uint8_t* buf = nullptr;
    SimTime enqueued = 0;
    std::uint64_t span = 0;  // per-op client.mread span (0 = untraced)
    std::function<void(const ReadResult&)> on_complete;
    ReadResult result;
  };

  /// The open (or flushing) batch for one descriptor: a contiguous span
  /// [lo, hi) of queued adjacent reads. Owned by shared_ptr because three
  /// parties can hold it past suspension points: the pending_batches_ map,
  /// the expiry timer coroutine, and the flush coroutine.
  struct ReadBatch {
    explicit ReadBatch(sim::Simulator& sim) : done(sim) { done.add(1); }
    int rd = -1;
    Bytes64 lo = 0;
    Bytes64 hi = 0;
    bool flushed = false;  // no more joiners; the flush coroutine owns it
    std::uint64_t span = 0;       // client.mread_batch span
    obs::TraceContext span_ctx;   // ...as a parent for per-op spans
    std::vector<PendingOp> ops;
    sim::WaitGroup done;  // released once every op completed (barriers wait)
  };

  /// mread_ex's coalescing route: enqueue and suspend until the flush
  /// resolves this op.
  sim::Co<ReadResult> mread_coalesced(int rd, Bytes64 offset,
                                      std::uint8_t* buf, Bytes64 len,
                                      obs::TraceContext parent);

  /// Detaches `b` from pending_batches_ (idempotent) and spawns run_flush.
  void start_flush(const std::shared_ptr<ReadBatch>& b);

  /// Expiry: a batch flushes after coalesce_window even if never filled.
  sim::Co<void> batch_timer(std::shared_ptr<ReadBatch> b);

  /// The merged fan-out: one overlap_pieces walk over [lo, hi), one
  /// read_piece per piece landing via scatter-gather, then per-op
  /// accounting/degradation exactly mirroring mread_ex.
  sim::Co<void> run_flush(std::shared_ptr<ReadBatch> b);

  /// Closes spans, fires callbacks in submission order, releases `done`.
  void finish_batch(ReadBatch& b);

  /// Write/close barrier: flushes rd's pending batch (if any) and waits for
  /// it to complete, so a write can never land between queued reads and
  /// their flush. No-op when nothing is queued.
  sim::Co<void> flush_pending_reads(int rd);

  /// Shard endpoint owning `key`'s directory entry (the only cmd any
  /// control RPC for that key ever talks to).
  [[nodiscard]] const net::Endpoint& shard_endpoint(
      const core::RegionKey& key) const {
    return cmds_[core::shard_of_key(
        key, static_cast<std::uint32_t>(cmds_.size()))];
  }

  sim::Simulator& sim_;
  net::Network& net_;
  net::NodeId node_;
  std::vector<net::Endpoint> cmds_;  // one per directory shard
  disk::SimFilesystem& fs_;
  ClientParams params_;
  ClientMetrics metrics_;
  net::BulkStats bulk_stats_;
  obs::LatencyHistogram mread_latency_;   // successful remote reads only
  obs::LatencyHistogram mwrite_latency_;  // successful parallel writes only
  core::RidSource rids_;
  Rng rng_;  // replica selection (power-of-two-choices)

  std::unordered_map<int, Entry> regions_;
  std::unordered_map<net::NodeId, HostScore> host_scores_;
  /// At most one open batch per descriptor; erased when the flush starts.
  std::unordered_map<int, std::shared_ptr<ReadBatch>> pending_batches_;
  bool ring_attached_ = false;
  /// See multi_copy_seen(). Copy counts only grow at the mopen_ex insert
  /// and a kActivate delta, so those are the only two places that set it.
  bool multi_copy_seen_ = false;
  int next_desc_ = 0;
  SimTime last_alloc_fail_ = -(1LL << 62);

  std::unique_ptr<net::Socket> ctl_sock_;
  bool running_ = false;
  sim::WaitGroup loops_;
};

}  // namespace dodo::runtime
