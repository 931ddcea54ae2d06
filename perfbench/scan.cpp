// scan-random-8k: the paper's §5.2.2 random synthetic, closed loop, one
// application. 8 KiB reads with 10 ms of compute each, uniformly random
// over a dataset of 8 KiB regions, through apps::DodoBlockIo ->
// manage::RegionManager -> runtime::DodoClient -> imd. The same trace is
// replayed through apps::FsBlockIo for the disk-only arm.
//
// Sizes are the paper's testbed scaled by kScale: 1 GiB dataset, 80 MiB
// local region cache, 12 x 100 MiB imd pools. kScale keeps every pool at
// or above RmdParams::min_pool (4 MiB); below it no host is recruited and
// the run silently degrades to disk-only.
#include <algorithm>
#include <cmath>

#include "apps/block_io.hpp"
#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using dodo::Bytes64;
using dodo::SimTime;

constexpr double kScale = 0.045;
constexpr Bytes64 kReq = 8 * 1024;
constexpr int kIterations = 4;
constexpr dodo::Duration kCompute = 10 * dodo::kMillisecond;
constexpr int kHosts = 12;

Bytes64 scaled(Bytes64 paper_bytes) {
  const auto b = static_cast<Bytes64>(static_cast<double>(paper_bytes) * kScale);
  return b / kReq * kReq;
}

dodo::cluster::ClusterConfig config(std::uint64_t sim_seed, bool use_dodo,
                                    bool traced) {
  dodo::cluster::ClusterConfig cfg;
  cfg.seed = sim_seed;
  cfg.imd_hosts = kHosts;
  cfg.imd_pool = scaled(100LL << 20);
  cfg.local_cache = scaled(80LL << 20);
  cfg.page_cache_dodo = scaled(24LL << 20);
  cfg.page_cache_baseline = scaled(100LL << 20);
  cfg.use_dodo = use_dodo;
  cfg.materialize = true;
  cfg.policy = dodo::manage::Policy::kLru;
  cfg.record_spans = traced;
  return cfg;
}

struct ArmResult {
  std::vector<SimTime> latency;  // per read, sim ns
  SimTime total = 0;             // first read to last compute, sim ns
  std::uint64_t bad_reads = 0;
  std::uint64_t events = 0;
  double build_s = 0, populate_s = 0, wall_s = 0;
};

class Scan final : public Workload {
 public:
  explicit Scan(std::uint64_t seed) : key_(seed) {
    InputRng rng(seed);
    sim_seed_ = rng.next();
    const auto blocks = static_cast<std::uint64_t>(dataset_ / kReq);
    trace_.resize(static_cast<std::size_t>(blocks) * kIterations);
    for (auto& b : trace_) b = static_cast<Bytes64>(rng.below(blocks));
  }

  Rep run(bool traced, double) override {
    Rep r;
    if (!disk_done_) {
      // The disk-only arm is fully determined by the trace: run it once.
      disk_ = run_arm(false, false, nullptr, nullptr);
      disk_done_ = true;
    }
    dodo::obs::MetricsSnapshot snap;
    ArmResult dodo_arm = run_arm(true, traced, &r, &snap);
    r.setup_s = dodo_arm.build_s + dodo_arm.populate_s;
    r.wall_s = dodo_arm.wall_s;

    const auto n = static_cast<double>(trace_.size());
    r.attempted = trace_.size();
    r.failed = dodo_arm.bad_reads;
    r.check(dodo_arm.bad_reads == 0, "scan: Dodo reads returned wrong bytes");
    r.check(disk_.bad_reads == 0, "scan: disk-only reads returned wrong bytes");
    const auto c = [&](const char* name) { return snap.counter_value(name); };
    r.check(c("client.mreads_total") ==
                c("client.remote_hits") + c("client.mreads_degraded"),
            "scan: mreads_total != remote_hits + mreads_degraded");
    r.check(snap.gauge_value("rmd.recruited") == kHosts &&
                c("rmd.recruit_skips_small_pool") == 0,
            "scan: not every imd host was recruited");
    r.check(c("client.remote_hits") > 0, "scan: no remote hits (disk-only?)");

    std::vector<double> us;
    us.reserve(dodo_arm.latency.size());
    Fingerprint fp;
    fp.add_snapshot(snap);
    fp.add_i64(disk_.total);
    fp.add_i64(dodo_arm.total);
    for (const SimTime t : dodo_arm.latency) {
      us.push_back(static_cast<double>(t) / 1e3);
      fp.add_i64(t);
    }
    r.fingerprint = fp.value();
    put_latency(r, "op (BlockIo::read)", us, 0.99);
    const double dodo_s = dodo::to_seconds(dodo_arm.total);
    const double disk_s = dodo::to_seconds(disk_.total);
    r.e2e["ops_per_s"] = n / dodo_s;
    const double speedup = disk_s / dodo_s;
    r.report.push_back(line("ops_per_s", n / dodo_s, "1/s",
                            "BlockIo reads per sim second, Dodo arm"));
    r.report.push_back(line("speedup_vs_disk", speedup, "x",
                            "sim; disk " + std::to_string(disk_s) + " s / dodo " +
                                std::to_string(dodo_s) + " s"));
    r.report.push_back(line("failed_frac", static_cast<double>(r.failed) / n,
                            "ratio"));

    put_sim_layers(r, dodo_arm.events, dodo_arm.build_s, dodo_arm.populate_s,
                   trace_.size());
    r.layer["apps.speedup_vs_disk"] = speedup;
    r.layer["apps.failed_frac"] = static_cast<double>(r.failed) / n;
    const auto hits = static_cast<double>(c("manage.policy.lru.hits"));
    r.layer["manage.local_hit_ratio"] =
        hits / std::max(1.0, hits + static_cast<double>(
                                        c("manage.policy.lru.misses")));
    // disk.* for scan describe the disk-only arm (the speedup's base).
    r.layer["disk.page_hit_ratio"] = disk_page_hit_ratio_;
    r.layer["disk.ops"] = disk_ops_;
    return r;
  }

 private:
  /// Builds a fresh cluster, fills the dataset, replays the whole trace.
  /// `r`/`snap` are filled for the Dodo arm only.
  ArmResult run_arm(bool use_dodo, bool traced, Rep* r,
                    dodo::obs::MetricsSnapshot* snap) {
    ArmResult a;
    a.latency.resize(trace_.size());
    Stopwatch build;
    dodo::cluster::Cluster c(config(sim_seed_, use_dodo, traced));
    a.build_s = build.seconds();

    Stopwatch populate;
    const int fd = c.create_dataset("scan.dat", dataset_);
    {
      std::vector<std::uint8_t> bytes(static_cast<std::size_t>(dataset_));
      fill_content(bytes.data(), bytes.size(), key_, 0);
      c.fs().store_of_inode(c.fs().inode_of(fd))->write(0, dataset_,
                                                        bytes.data());
    }
    std::unique_ptr<dodo::apps::BlockIo> io;
    if (use_dodo) {
      io = std::make_unique<dodo::apps::DodoBlockIo>(*c.manager(), fd,
                                                     dataset_, kReq);
    } else {
      io = std::make_unique<dodo::apps::FsBlockIo>(c.fs(), fd);
    }
    dodo::obs::SpanRecorder* spans =
        traced ? c.traces()->recorder(c.app_node(), "bench") : nullptr;
    a.populate_s = populate.seconds();

    const std::uint64_t ev0 = c.sim().events_processed();
    Stopwatch wall;
    c.run_app([&](dodo::cluster::Cluster& cl) -> dodo::sim::Co<void> {
      auto& sim = cl.sim();
      std::vector<std::uint8_t> buf(static_cast<std::size_t>(kReq));
      const SimTime start = sim.now();
      for (std::size_t i = 0; i < trace_.size(); ++i) {
        const Bytes64 off = trace_[i] * kReq;
        const SimTime t0 = sim.now();
        Bytes64 got = 0;
        {
          dodo::obs::ScopedSpan span(spans, "bench.read");
          got = co_await io->read(off, buf.data(), kReq);
        }
        a.latency[i] = sim.now() - t0;
        if (got != kReq ||
            !check_content(buf.data(), buf.size(), key_,
                           static_cast<std::uint64_t>(off))) {
          ++a.bad_reads;
        }
        co_await sim.sleep(kCompute);
      }
      a.total = sim.now() - start;
      co_await io->finish(/*keep_cached=*/false);
    });
    a.wall_s = wall.seconds();
    a.events = c.sim().events_processed() - ev0;

    if (use_dodo) {
      *snap = c.metrics_snapshot();
      put_snapshot_layers(*r, *snap, c.fs());
      put_trace_layers(*r, c);
    } else {
      const auto& cache = c.fs().cache().metrics();
      const auto& disk = c.fs().disk().metrics();
      disk_page_hit_ratio_ =
          static_cast<double>(cache.hit_pages) /
          static_cast<double>(std::max<std::uint64_t>(
              1, cache.hit_pages + cache.miss_pages));
      disk_ops_ = static_cast<double>(disk.reads + disk.writes);
    }
    return a;
  }

  const Bytes64 dataset_ = scaled(1LL << 30);
  const std::uint64_t key_;
  std::uint64_t sim_seed_ = 0;  // the simulated hardware's random draws
  std::vector<Bytes64> trace_;  // block index per read, all iterations
  ArmResult disk_;
  bool disk_done_ = false;
  double disk_page_hit_ratio_ = 0, disk_ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_scan(std::uint64_t seed) {
  return std::make_unique<Scan>(seed);
}

}  // namespace perfbench
