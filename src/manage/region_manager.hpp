// The region-management library (libmanage), paper §3.3 / §4.5.
//
// Layered on top of libdodo for applications with well-defined access
// patterns. Manages a local cache of memory regions; every region is in one
// of four states: (1) cached locally, (2) cached remotely, (3) cached both
// locally and remotely, (4) on disk only. When the local pool runs short,
// the grimReaper (Figure 5) picks victims with the configured replacement
// policy, writes dirty victims to disk, clones clean victims to remote
// memory (rate-limited by a refraction period after a failed clone), and
// drops them locally.
//
// Policies (pluggable per §3.3's policy-module interface):
//   LRU      - evict the least recently used region.
//   MRU      - evict the most recently used region.
//   first-in - regions are cached in the order first accessed and never
//              replaced: when the cache is full the *incoming* region is the
//              victim, i.e. it bypasses the local cache (and flows to remote
//              memory instead). Motivated by sequential/triangle multi-scan
//              workloads (dmine, lu).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/status.hpp"
#include "common/units.hpp"
#include "disk/filesystem.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "runtime/dodo_client.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace dodo::manage {

enum class Policy : std::uint8_t { kLru = 0, kMru = 1, kFirstIn = 2 };

struct ManageParams {
  Bytes64 local_cache_bytes = 80 * 1024 * 1024;  // the paper's 80 MB
  double copy_rate_Bps = 80e6;  // local memcpy when serving from cache
  Duration clone_refraction = seconds(5.0);  // Figure 5's refractionPeriod
  bool materialize = true;
  Policy policy = Policy::kLru;  // "If no policy is specified, LRU"
  /// Optional trace-span sink (not owned). Null disables span recording.
  obs::SpanRecorder* spans = nullptr;
};

struct ManageMetrics {
  std::uint64_t local_hits = 0;
  std::uint64_t remote_fills = 0;    // whole-region faults, fully remote
  std::uint64_t mixed_fills = 0;     // faults with lost-fragment disk ranges
  std::uint64_t disk_fills = 0;      // whole-region faults from disk
  std::uint64_t remote_passthrough = 0;  // uncached partial remote reads
  std::uint64_t disk_passthrough = 0;    // uncached partial disk reads
  std::uint64_t evictions = 0;
  std::uint64_t clones = 0;          // regions migrated to remote memory
  std::uint64_t clone_failures = 0;
  std::uint64_t clone_refraction_skips = 0;
  std::uint64_t dirty_writebacks = 0;
  std::int64_t bytes_from_local = 0;
  std::int64_t bytes_from_remote = 0;
  std::int64_t bytes_from_disk = 0;
  /// Residents displaced by the grimReaper (Figure 5 victim count). Differs
  /// from `evictions`, which also counts drops from cclose/close_all.
  std::uint64_t reaper_victims = 0;
  /// Reaper victims chosen by the replica-aware fast path: clean residents
  /// whose remote copy is current on >= 2 live replicas (free to drop, and
  /// the fill-back survives any single host loss).
  std::uint64_t replica_safe_evictions = 0;
};

class RegionManager {
 public:
  RegionManager(sim::Simulator& sim, runtime::DodoClient& dodo,
                disk::SimFilesystem& fs, ManageParams params = {});

  // -- the paper's Figure 4 API ---------------------------------------------

  /// Registers a region backed by [offset, offset+len) of fd. Cheap: no I/O
  /// happens until the first access. Returns a descriptor >= 0 or -1/EINVAL.
  int copen(Bytes64 len, int fd, Bytes64 offset);

  sim::Co<Bytes64> cread(int cd, Bytes64 offset, std::uint8_t* buf,
                         Bytes64 len);
  sim::Co<Bytes64> cwrite(int cd, Bytes64 offset, const std::uint8_t* buf,
                          Bytes64 len);

  /// Flushes (disk + remote if present) and forgets the region.
  sim::Co<int> cclose(int cd);

  /// Forces the region to remote memory and disk; blocks until both done.
  sim::Co<int> csync(int cd);

  int csetPolicy(Policy policy);

  // -- extras ----------------------------------------------------------------

  /// Closes every region (end-of-run cleanup); keep_remote leaves remote
  /// copies cached (persistent datasets, dmine mode).
  sim::Co<void> close_all(bool keep_remote);

  [[nodiscard]] const ManageMetrics& metrics() const { return metrics_; }
  [[nodiscard]] Bytes64 resident_bytes() const { return resident_bytes_; }
  [[nodiscard]] Policy policy() const { return params_.policy; }

  /// Per-policy cache accounting: every cread/cwrite that reaches the cache
  /// is a hit (region resident) or a miss, booked under the policy active
  /// at access time — csetPolicy mid-run splits the counts.
  [[nodiscard]] std::uint64_t policy_hits(Policy p) const {
    return policy_hits_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::uint64_t policy_misses(Policy p) const {
    return policy_misses_[static_cast<std::size_t>(p)];
  }

  /// Everything the library knows about itself, under "manage." names.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;

  /// Test hooks.
  [[nodiscard]] bool resident(int cd) const;
  [[nodiscard]] bool has_remote(int cd) const;

 private:
  struct Region {
    Bytes64 len = 0;
    int fd = -1;
    Bytes64 file_offset = 0;
    net::Buf local;        // materialized local copy (empty in phantom mode)
    bool resident = false;
    bool dirty = false;
    int rdesc = -1;        // libdodo descriptor, -1 if never cloned
    bool remote_valid = false;  // remote copy matches current content
    std::uint64_t last_access = 0;
    std::uint64_t admitted_at = 0;
  };

  Region* lookup(int cd);

  /// Gives the region a fresh `last_access` stamp, re-keying its recency
  /// entry when resident.
  void stamp(int cd, Region& r);

  /// Erases the region (and its recency entry) from the cache's books.
  void forget(int cd, const Region& r);

  /// Figure 5: frees local space for `incoming` (needs `need` bytes).
  /// Returns true if the incoming region may be admitted.
  sim::Co<bool> grim_reaper(int incoming_cd, Bytes64 need,
                            obs::TraceContext parent = {});

  /// Picks the victim per the current policy; -1 = evict nothing (first-in
  /// refuses to displace residents for the incoming region).
  [[nodiscard]] int select_victim(int incoming_cd) const;

  /// Replica-aware pre-pass (LRU/MRU only): the LRU resident that is clean
  /// and whose remote copy is current on >= 2 live replicas. Dropping it
  /// costs no I/O and the data outlives any single idle-host reclaim; -1
  /// when no such region exists (fall through to the policy victim).
  /// O(1) while the client has never mapped a multi-copy fragment.
  [[nodiscard]] int select_safe_victim(int incoming_cd) const;

  sim::Co<void> write_to_disk(int cd, Region& r, obs::TraceContext ctx = {});
  sim::Co<bool> clone_remote(int cd, Region& r, obs::TraceContext ctx = {});

  /// Makes the remote copy hold the region's current content, sourcing from
  /// the local copy if resident, else from disk. Unlike clone_remote this is
  /// not refraction-gated: it backs the explicit csync/close flush paths.
  sim::Co<bool> flush_to_remote(Region& r);
  sim::Co<bool> fault_in(int cd, Region& r, obs::TraceContext parent = {});
  sim::Co<void> drop_local(int cd, Region& r);

  /// Releases a region's remote copy after a failed push: a never-filled
  /// remote region must not stay registered at the cmd, or a later
  /// re-attach would see it as "reused" and trust unwritten memory.
  sim::Co<void> scrap_remote(Region& r);

  /// Ensures a remote descriptor exists (mopen; honors refraction). On a
  /// fresh attach, remote_valid is set from the cmd's "reused" flag so a
  /// previous run's cached data is served from remote memory.
  sim::Co<bool> ensure_remote_desc(Region& r);

  /// Uncached service of [offset, offset+n) for a region the policy refused
  /// to admit; opportunistically migrates the region into remote memory.
  sim::Co<void> serve_bypass_read(Region& r, Bytes64 offset,
                                  std::uint8_t* buf, Bytes64 n,
                                  obs::TraceContext ctx = {});

  sim::Simulator& sim_;
  runtime::DodoClient& dodo_;
  disk::SimFilesystem& fs_;
  ManageParams params_;
  ManageMetrics metrics_;
  std::array<std::uint64_t, 3> policy_hits_{};    // indexed by Policy
  std::array<std::uint64_t, 3> policy_misses_{};

  std::unordered_map<int, Region> regions_;
  /// Recency index: exactly the resident regions, keyed by their current
  /// (last_access, cd). Stamps come from a strictly increasing clock and a
  /// region is stamped before it faults in, so residents never tie: the
  /// front is the LRU victim and the back the MRU victim, as a full scan
  /// of regions_ would pick them.
  std::set<std::pair<std::uint64_t, int>> by_recency_;
  int next_cd_ = 0;
  Bytes64 resident_bytes_ = 0;
  std::uint64_t access_clock_ = 0;
  SimTime last_clone_fail_ = -(1LL << 62);
};

}  // namespace dodo::manage
