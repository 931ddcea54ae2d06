// ring-rw-4k: closed loop, one application keeping kDepth 4 KiB ops in
// flight through runtime::DodoRing over kRegions 256 KiB regions placed
// across all imds. Seven reads to one write; writes go through to disk and
// remote memory (mwrite). Default ClientParams: no coalescing, striping or
// replicas, so the ring drives the classic one-op read path.
//
// Every byte is checked: a block's content is a function of (seed, block,
// version), each write bumps its block's version, and a read must return
// the version current when it was submitted. Ops on one block that
// conflict (a write with anything) are never in flight together, so the
// expected version is exact.
#include <algorithm>

#include "bench.hpp"
#include "runtime/ring.hpp"
#include "sim/channel.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using dodo::Bytes64;
using dodo::SimTime;

constexpr int kRegions = 64;
constexpr Bytes64 kRegion = 256 * 1024;
constexpr Bytes64 kOp = 4 * 1024;
constexpr int kBlocksPerRegion = static_cast<int>(kRegion / kOp);
constexpr int kBlocks = kRegions * kBlocksPerRegion;
constexpr std::size_t kDepth = 16;
constexpr std::size_t kOps = 60000;
constexpr int kMix = 8;  // one write in every group of eight ops
constexpr dodo::Duration kPoll = 20 * dodo::kMicrosecond;

struct Op {
  int block;
  bool write;
};

class Ring final : public Workload {
 public:
  explicit Ring(std::uint64_t seed) : key_(seed) {
    InputRng rng(seed);
    ops_.resize(kOps);
    for (std::size_t g = 0; g < kOps; g += kMix) {
      const std::size_t w = g + rng.below(kMix);
      for (std::size_t i = g; i < std::min(kOps, g + kMix); ++i) {
        ops_[i].block = static_cast<int>(rng.below(kBlocks));
        ops_[i].write = i == w;
      }
    }
  }

  Rep run(bool traced, double) override {
    Rep r;
    Stopwatch build;
    dodo::cluster::ClusterConfig cfg;
    cfg.imd_pool = 4608LL * 1024;  // 4.5 MiB, above RmdParams::min_pool
    cfg.materialize = true;
    cfg.record_spans = traced;
    dodo::cluster::Cluster c(cfg);
    const double build_s = build.seconds();

    // Population: dataset bytes, then every region mopened and written
    // through so remote memory holds version 0 of every block.
    Stopwatch populate;
    const Bytes64 size = kRegions * kRegion;
    const int fd = c.create_dataset("ring.dat", size);
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
    fill_content(bytes.data(), bytes.size(), block_key(0), 0);
    c.fs().store_of_inode(c.fs().inode_of(fd))->write(0, size, bytes.data());
    std::vector<int> rds(kRegions, -1);
    c.run_app([&](dodo::cluster::Cluster& cl) -> dodo::sim::Co<void> {
      auto& d = *cl.dodo();
      for (int i = 0; i < kRegions; ++i) {
        const Bytes64 off = i * kRegion;
        rds[static_cast<std::size_t>(i)] = co_await d.mopen(kRegion, fd, off);
        if (rds[static_cast<std::size_t>(i)] < 0) co_return;
        co_await d.mwrite(rds[static_cast<std::size_t>(i)], 0,
                          bytes.data() + off, kRegion);
      }
    });
    bytes = {};
    const bool populated = std::all_of(rds.begin(), rds.end(),
                                       [](int rd) { return rd >= 0; });
    r.check(populated, "ring: mopen failed during population");
    dodo::obs::SpanRecorder* spans =
        traced ? c.traces()->recorder(c.app_node(), "bench") : nullptr;
    const double populate_s = populate.seconds();
    r.setup_s = build_s + populate_s;
    const dodo::obs::MetricsSnapshot before = c.metrics_snapshot();

    std::vector<int> version(kBlocks, 0);
    std::vector<int> reads_in_flight(kBlocks, 0);
    std::vector<char> write_in_flight(kBlocks, 0);
    std::vector<int> expect(kOps, 0);
    std::vector<SimTime> accepted(kOps, 0), latency(kOps, 0);
    std::vector<int> buffer_of(kOps, -1);
    std::vector<std::vector<std::uint8_t>> buffers(
        2 * kDepth, std::vector<std::uint8_t>(static_cast<std::size_t>(kOp)));
    std::vector<int> free_buffers;
    for (int i = 0; i < static_cast<int>(buffers.size()); ++i) {
      free_buffers.push_back(i);
    }
    std::vector<double> submit_wait_us;
    std::uint64_t bad = 0;
    SimTime t_start = 0, t_end = 0;

    const std::uint64_t ev0 = c.sim().events_processed();
    Stopwatch wall;
    c.run_app([&](dodo::cluster::Cluster& cl) -> dodo::sim::Co<void> {
      if (!populated) co_return;
      auto& sim = cl.sim();
      dodo::runtime::DodoRing ring(sim, *cl.dodo(), kDepth);
      dodo::sim::WaitGroup reaped(sim);
      reaped.add();
      const auto reaper = [&]() -> dodo::sim::Co<void> {
        for (std::size_t n = 0; n < kOps; ++n) {
          const dodo::runtime::Cqe cqe = co_await ring.reap();
          const std::size_t i = cqe.user_data;
          latency[i] = sim.now() - accepted[i];
          t_end = sim.now();
          const Op& op = ops_[i];
          const auto blk = static_cast<std::size_t>(op.block);
          const int b = buffer_of[i];
          if (cqe.n != kOp || cqe.degraded) ++bad;
          if (op.write) {
            write_in_flight[blk] = 0;
          } else {
            --reads_in_flight[blk];
            if (!check_content(buffers[static_cast<std::size_t>(b)].data(),
                               static_cast<std::size_t>(kOp),
                               block_key(expect[i]),
                               static_cast<std::uint64_t>(op.block) * kOp)) {
              ++bad;
            }
          }
          free_buffers.push_back(b);
        }
        reaped.done();
      };
      sim.spawn(reaper());
      t_start = sim.now();
      for (std::size_t i = 0; i < kOps; ++i) {
        const Op& op = ops_[i];
        const auto blk = static_cast<std::size_t>(op.block);
        while (write_in_flight[blk] != 0 ||
               (op.write && reads_in_flight[blk] > 0) || free_buffers.empty()) {
          co_await sim.sleep(kPoll);
        }
        const int b = free_buffers.back();
        free_buffers.pop_back();
        buffer_of[i] = b;
        auto& buf = buffers[static_cast<std::size_t>(b)];
        dodo::runtime::Sqe sqe;
        sqe.rd = rds[static_cast<std::size_t>(op.block / kBlocksPerRegion)];
        sqe.offset = (op.block % kBlocksPerRegion) * kOp;
        sqe.len = kOp;
        sqe.user_data = i;
        if (op.write) {
          expect[i] = ++version[blk];
          fill_content(buf.data(), buf.size(), block_key(expect[i]),
                       static_cast<std::uint64_t>(op.block) * kOp);
          sqe.op = dodo::runtime::RingOp::kWrite;
          sqe.wbuf = buf.data();
          write_in_flight[blk] = 1;
        } else {
          expect[i] = version[blk];
          sqe.op = dodo::runtime::RingOp::kRead;
          sqe.buf = buf.data();
          ++reads_in_flight[blk];
        }
        dodo::obs::ScopedSpan span(spans, "bench.ring_submit");
        const SimTime t0 = sim.now();
        co_await ring.submit(sqe);
        accepted[i] = sim.now();
        submit_wait_us.push_back(static_cast<double>(sim.now() - t0) / 1e3);
      }
      co_await reaped.wait();
    });
    r.wall_s = wall.seconds();
    const std::uint64_t events = c.sim().events_processed() - ev0;

    const dodo::obs::MetricsSnapshot snap = c.metrics_snapshot();
    const auto delta = [&](const char* name) {
      return snap.counter_value(name) - before.counter_value(name);
    };
    r.attempted = kOps;
    r.failed = bad;
    r.check(bad == 0, "ring: an op failed, degraded or returned wrong bytes");
    r.check(snap.counter_value("client.mreads_total") ==
                snap.counter_value("client.remote_hits") +
                    snap.counter_value("client.mreads_degraded"),
            "ring: mreads_total != remote_hits + mreads_degraded");
    r.check(delta("client.ring_submitted") == kOps &&
                delta("client.ring_completed") == kOps,
            "ring: submitted/completed counts do not match the op count");

    std::vector<double> us;
    Fingerprint fp;
    fp.add_snapshot(snap);
    for (const SimTime t : latency) {
      us.push_back(static_cast<double>(t) / 1e3);
      fp.add_i64(t);
    }
    r.fingerprint = fp.value();
    put_latency(r, "op (submit -> completion)", us, 0.99);
    const double ops_per_s =
        static_cast<double>(kOps) / dodo::to_seconds(t_end - t_start);
    r.e2e["ops_per_s"] = ops_per_s;
    r.report.push_back(line("ops_per_s", ops_per_s, "1/s", "sim"));
    r.report.push_back(line("failed_frac", static_cast<double>(bad) / kOps,
                            "ratio"));
    r.report.push_back(line("ring.submit_wait_p99_us",
                            percentile(submit_wait_us, 0.99), "us",
                            "n=" + std::to_string(submit_wait_us.size())));

    put_sim_layers(r, events, build_s, populate_s, kOps);
    put_snapshot_layers(r, snap, c.fs());
    put_trace_layers(r, c);
    r.layer["apps.failed_frac"] = static_cast<double>(bad) / kOps;
    r.layer["ring.submit_wait_p99_us"] = percentile(submit_wait_us, 0.99);
    r.layer["ring.peak_depth"] =
        static_cast<double>(c.dodo()->metrics().ring_peak_depth);
    return r;
  }

 private:
  /// Content key of one version of a block (version 0 = the dataset).
  [[nodiscard]] std::uint64_t block_key(int version) const {
    return key_ + static_cast<std::uint64_t>(version) * 0x100000001b3ull;
  }

  const std::uint64_t key_;
  std::vector<Op> ops_;
};

}  // namespace

std::unique_ptr<Workload> make_ring(std::uint64_t seed) {
  return std::make_unique<Ring>(seed);
}

}  // namespace perfbench
