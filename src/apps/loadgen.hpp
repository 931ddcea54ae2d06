// Open-loop many-client load generator for the sharded control plane.
//
// Drives a fleet of real DodoClient instances sharing the application node
// (each with its own client id and keep-alive control port) against the
// cluster's cmd shards. A single dispatcher coroutine draws Poisson session
// arrivals on the simulated clock — open-loop, so offered load does not slow
// down when the control plane queues — and each session performs the
// cmd-gated cycle mopen -> mread -> mclose on a zipf-popular region slot.
// Because mopen/mclose serialize in a shard's serve loop while mreads ride
// the direct imd data path, completed session throughput is exactly what
// directory sharding is supposed to scale.
//
// Everything is deterministic per (config, seed): arrivals come from a
// private forked rng stream, sessions carry no randomness of their own, and
// the report exports integer counters/histograms only.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "runtime/dodo_client.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"

namespace dodo::apps {

struct LoadgenConfig {
  int clients = 100;            // fleet size (all on the app node)
  double offered_rate = 1000;   // sessions/s across the fleet, Poisson
  Duration duration = 5 * kSecond;  // dispatch window (sessions then drain)
  int slots_per_client = 8;     // distinct region slots per client
  Bytes64 region = 64_KiB;      // slot size (mopen length)
  Bytes64 read_len = 16_KiB;    // bytes each session mreads
  double zipf_s = 0.99;         // slot popularity skew (0 = uniform)
  std::uint64_t seed = 1;       // arrival/selection stream seed
  /// Ring mode (DESIGN.md §16): when > 0 each session drives its read phase
  /// through a DodoRing of this depth, splitting read_len into ring_op-sized
  /// submissions that run up to ring_depth at a time. 0 keeps the classic
  /// single-mread session, byte-identical to pre-ring builds.
  int ring_depth = 0;
  Bytes64 ring_op = 4_KiB;      // per-submission size in ring mode
};

/// What the run measured. All values are simulation-deterministic.
struct LoadgenReport {
  std::uint64_t offered = 0;    // sessions dispatched
  std::uint64_t completed = 0;  // mopen+mread+mclose all succeeded
  std::uint64_t failed = 0;     // any step failed (offered = completed+failed)
  obs::LatencyHistogram mopen_latency;  // successful mopens only
  obs::LatencyHistogram mread_latency;  // successful mreads only
  struct ShardLoad {
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::int64_t peak_inflight = 0;  // max concurrently-open sessions
  };
  std::vector<ShardLoad> shards;  // indexed by directory shard

  /// Integer export under "loadgen." names (per-shard under
  /// "loadgen.shardN."), byte-deterministic per seed via the snapshot's
  /// sorted serialization.
  [[nodiscard]] obs::MetricsSnapshot snapshot() const;
};

class LoadGenerator {
 public:
  /// Builds the client fleet (client ids 1000+c, control ports 20000+c) and
  /// the shared phantom dataset. The cluster should run materialize=false —
  /// sessions read with null buffers (accounting-only).
  LoadGenerator(cluster::Cluster& cluster, LoadgenConfig cfg);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Dispatches sessions for cfg.duration, drains every in-flight session,
  /// then detaches the fleet (so shard keep-alive sweeps never serially
  /// time out against a thousand dead control ports). Run via
  /// Cluster::run_app; `out` must outlive the coroutine.
  sim::Co<void> run(LoadgenReport* out);

 private:
  sim::Co<void> session(int client, int slot);
  [[nodiscard]] int pick_slot();

  cluster::Cluster& cluster_;
  LoadgenConfig cfg_;
  Rng rng_;                      // arrivals + client/slot selection
  std::vector<double> zipf_cdf_;  // cumulative slot popularity
  int fd_ = -1;
  std::uint32_t inode_ = 0;
  std::vector<std::unique_ptr<runtime::DodoClient>> clients_;
  LoadgenReport* report_ = nullptr;
  std::vector<std::int64_t> inflight_;  // per shard, for peak tracking
  sim::WaitGroup sessions_;
};

}  // namespace dodo::apps
