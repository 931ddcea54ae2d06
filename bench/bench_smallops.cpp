// Small-op throughput through the submission/completion ring (DESIGN.md
// §16): 4 KiB reads swept across ring depth {1, 16, 64} on both transports.
// Depth 1 is the classic API's behaviour — one RPC round trip per op — and
// every deeper arm reports its ops/s speedup against it. Acceptance: ring
// depth >= 16 reaches >= 3x the depth-1 ops/s on UDP, with zero disk
// fallbacks and byte-identical data in every arm (an order-independent FNV
// digest over each pass pins that down).
//
// Runs with materialized bytes (not phantom) so the digest is real, and
// with fixed (unscaled) sizes so the exported JSON is byte-identical per
// seed regardless of DODO_BENCH_SCALE.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/ring.hpp"

namespace {

using namespace dodo;
using dodo::operator""_KiB;
using dodo::operator""_MiB;

constexpr Bytes64 kRegion = 256_KiB;
constexpr Bytes64 kOp = 4_KiB;
constexpr int kPasses = 3;

std::uint64_t fnv1a(std::uint64_t h, const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void BM_SmallOps(benchmark::State& state) {
  const bool unet = state.range(0) != 0;
  const int depth = static_cast<int>(state.range(1));
  const std::string label =
      std::string(unet ? "unet" : "udp") + ".d" + std::to_string(depth);

  cluster::ClusterConfig cfg = dodo::bench::paper_config(
      /*use_dodo=*/true, unet, manage::Policy::kLru, 7);
  cfg.imd_hosts = 2;
  cfg.imd_pool = 4_MiB;
  cfg.local_cache = 1_MiB;
  cfg.page_cache_dodo = 512_KiB;
  cfg.materialize = true;  // real bytes: the digest must mean something
  // One routed hop between application and harvested hosts (identical in
  // every arm): small ops are round-trip-bound, which is exactly the cost
  // a deeper ring amortizes. On a zero-latency wire all arms converge on
  // raw Fast-Ethernet bandwidth and the sweep would measure nothing but the
  // 12.5 MB/s ceiling.
  cfg.net.propagation = micros(100);

  auto& exporter = dodo::bench::json_exporter("smallops");

  double ops_per_s = 0;
  std::uint64_t digest = 0;
  std::uint64_t fallbacks = 0;
  for (auto _ : state) {
    cluster::Cluster c(cfg);
    const int fd = c.create_dataset("small", kRegion);
    Duration read_phase = 0;
    c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
      auto& d = *cl.dodo();
      const int rd = co_await d.mopen(kRegion, fd, 0);
      if (rd < 0) co_return;
      net::Buf data(static_cast<std::size_t>(kRegion));
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>((i * 167 + 41) & 0xff);
      }
      co_await d.mwrite(rd, 0, data.data(), kRegion);

      runtime::DodoRing ring(cl.sim(), d,
                             static_cast<std::size_t>(depth));
      net::Buf got(static_cast<std::size_t>(kRegion), 0);
      const SimTime t0 = cl.sim().now();
      for (int pass = 0; pass < kPasses; ++pass) {
        for (Bytes64 off = 0; off < kRegion; off += kOp) {
          runtime::Sqe sqe;
          sqe.op = runtime::RingOp::kRead;
          sqe.rd = rd;
          sqe.offset = off;
          sqe.len = kOp;
          sqe.buf = got.data() + static_cast<std::ptrdiff_t>(off);
          sqe.user_data = static_cast<std::uint64_t>(off / kOp);
          co_await ring.submit(sqe);
        }
        co_await ring.drain();
        while (ring.try_reap().has_value()) {
        }
        // Order-independent: XOR of per-op digests, identical whatever
        // order the arm's ops completed in.
        for (Bytes64 off = 0; off < kRegion; off += kOp) {
          digest ^= fnv1a(1469598103934665603ULL,
                          got.data() + static_cast<std::ptrdiff_t>(off),
                          static_cast<std::size_t>(kOp));
        }
      }
      read_phase = cl.sim().now() - t0;
      co_await d.mclose(rd);
    });
    const double ops = static_cast<double>(kPasses) *
                       static_cast<double>(kRegion / kOp);
    ops_per_s = ops / to_seconds(read_phase);
    fallbacks = c.dodo()->metrics().disk_fallbacks;
    exporter.record_traces(c);
    exporter.record_timeline(c, label);
    exporter.absorb(c.metrics_snapshot());
    exporter.set_scalar("smallops." + label + ".ops_per_s",
                        static_cast<std::int64_t>(ops_per_s));
  }

  // Every arm reads the same bytes: first arm pins the digest, the rest
  // must match it — a mismatch is a data-path bug, not a perf result.
  static std::uint64_t expect_digest = 0;
  if (expect_digest == 0) expect_digest = digest;
  if (digest != expect_digest) {
    state.SkipWithError("smallops: arm digest diverged from baseline arm");
    return;
  }
  if (fallbacks != 0) {
    state.SkipWithError("smallops: disk fallbacks on a healthy cluster");
    return;
  }

  // Baseline = depth 1 per transport, registered first so it always runs
  // before the arms that report a speedup against it.
  static double baseline[2] = {0, 0};
  if (depth == 1) baseline[unet ? 1 : 0] = ops_per_s;
  const double base = baseline[unet ? 1 : 0];
  const double speedup = base > 0 ? ops_per_s / base : 0;
  if (depth != 1) {
    exporter.set_milli("smallops." + label + ".speedup", speedup);
  }

  state.counters["ops_per_s"] = ops_per_s;
  state.counters["speedup"] = speedup;

  dodo::bench::print_header_once(
      "Small ops: 4 KiB reads through the ring (2 hosts, 256 KiB region)",
      "transport  depth     ops/s   speedup  disk-fallbacks");
  std::printf("%-10s %5d %9.0f %9.2f %15llu\n", unet ? "unet" : "udp", depth,
              ops_per_s, speedup, static_cast<unsigned long long>(fallbacks));
  std::fflush(stdout);
}

}  // namespace

// Baseline (depth 1) first per transport, then the deeper rings.
BENCHMARK(BM_SmallOps)
    ->ArgsProduct({{0, 1}, {1, 16, 64}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
