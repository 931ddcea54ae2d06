// rtnet-bulk-loss: the §4.4 bulk protocol on real UDP sockets (loopback).
// One sender thread runs rt_bulk_send, one receiver thread rt_bulk_recv,
// over one socket pair; the sender's socket drops about 1% of its
// datagrams (UdpSocket::set_drop_rate, fixed seed), so the run measures
// loss recovery on real hardware. Every transfer is byte-checked.
//
// The run is a sequence of batches until the host-time budget is used; each
// batch opens fresh sockets and threads (its set-up), then moves
// kTransfers payloads generated from the seed.
#include <algorithm>
#include <thread>

#include "bench.hpp"
#include "rtnet/rt_udp.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kXfer = 256 * 1024;
constexpr int kPayloads = 8;
constexpr int kTransfers = 32;  // per batch
constexpr std::size_t kMinBatches = 4;
constexpr double kLoss = 0.01;
constexpr std::uint64_t kLossSeed = 0x6c6f7373;  // "loss"

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class RtNet final : public Workload {
 public:
  explicit RtNet(std::uint64_t seed) : key_(seed) {}

  Rep run(bool, double budget_s) override {
    Rep r;
    std::vector<double> setup, wall, xfer_us, send_s, recv_s;
    std::uint64_t failures = 0, transfers = 0;
    double bytes = 0, busy_s = 0;
    const Stopwatch total;
    // At least kMinBatches, so the p90 has ten transfers beyond it.
    while (setup.size() < kMinBatches || total.seconds() < budget_s) {
      const Stopwatch sw_setup;
      dodo::rtnet::UdpSocket tx = dodo::rtnet::UdpSocket::open_loopback();
      dodo::rtnet::UdpSocket rx = dodo::rtnet::UdpSocket::open_loopback();
      if (!tx.valid() || !rx.valid()) {
        r.check(false, "rtnet: cannot open loopback UDP sockets");
        break;
      }
      tx.set_drop_rate(kLoss, kLossSeed);
      std::vector<std::vector<std::uint8_t>> payloads(
          kPayloads, std::vector<std::uint8_t>(kXfer));
      for (int p = 0; p < kPayloads; ++p) {
        fill_content(payloads[static_cast<std::size_t>(p)].data(), kXfer,
                     key_ + static_cast<std::uint64_t>(p), 0);
      }
      std::vector<Clock::time_point> started(kTransfers), landed(kTransfers);
      std::vector<double> batch_send(kTransfers), batch_recv(kTransfers);
      std::vector<char> ok(kTransfers, 0);
      const std::uint64_t base = transfers;
      const dodo::rtnet::RtBulkParams params;
      setup.push_back(sw_setup.seconds());

      const Stopwatch sw_batch;
      std::thread receiver([&] {
        for (int i = 0; i < kTransfers; ++i) {
          const auto t0 = Clock::now();
          const dodo::rtnet::RtBulkResult res =
              dodo::rtnet::rt_bulk_recv(rx, base + i, params);
          landed[static_cast<std::size_t>(i)] = Clock::now();
          batch_recv[static_cast<std::size_t>(i)] =
              seconds_between(t0, landed[static_cast<std::size_t>(i)]);
          ok[static_cast<std::size_t>(i)] =
              res.status.is_ok() &&
              res.data == payloads[static_cast<std::size_t>(i % kPayloads)];
        }
      });
      std::thread sender([&] {
        for (int i = 0; i < kTransfers; ++i) {
          const auto& data = payloads[static_cast<std::size_t>(i % kPayloads)];
          started[static_cast<std::size_t>(i)] = Clock::now();
          const dodo::Status st = dodo::rtnet::rt_bulk_send(
              tx, rx.port(), base + i, data.data(), data.size(), params);
          batch_send[static_cast<std::size_t>(i)] = seconds_between(
              started[static_cast<std::size_t>(i)], Clock::now());
          if (!st.is_ok()) break;  // the receiver then times out too
        }
      });
      sender.join();
      receiver.join();
      const double batch_s = sw_batch.seconds();
      wall.push_back(batch_s);
      busy_s += batch_s;
      for (int i = 0; i < kTransfers; ++i) {
        const auto k = static_cast<std::size_t>(i);
        ++transfers;
        if (ok[k] == 0) {
          ++failures;
          continue;
        }
        bytes += static_cast<double>(kXfer);
        xfer_us.push_back(seconds_between(started[k], landed[k]) * 1e6);
        send_s.push_back(batch_send[k]);
        recv_s.push_back(batch_recv[k]);
      }
    }

    const auto median = [](std::vector<double> v) { return percentile(v, 0.5); };
    r.setup_s = median(setup);
    r.wall_s = *std::min_element(wall.begin(), wall.end());  // fastest batch
    r.attempted = transfers;
    r.failed = failures;
    r.check(failures == 0, "rtnet: a transfer failed or returned wrong bytes");
    put_latency(r, "xfer (256 KiB, host)", xfer_us, 0.9);
    const double mbps = bytes / busy_s / 1e6;
    r.e2e["ops_per_s"] = static_cast<double>(transfers - failures) / busy_s;
    r.report.push_back(line("xfer_MBps", mbps, "MB/s", "host"));
    r.report.push_back(line("xfer_p50_ms", percentile(xfer_us, 0.5) / 1e3, "ms",
                            "n=" + std::to_string(xfer_us.size())));
    r.report.push_back(line("xfer_p90_ms", percentile(xfer_us, 0.9) / 1e3, "ms",
                            "n=" + std::to_string(xfer_us.size())));
    r.report.push_back(line(
        "failed_frac",
        static_cast<double>(failures) /
            static_cast<double>(std::max<std::uint64_t>(1, transfers)),
        "ratio"));
    r.layer["rtnet.send_s"] = median(send_s);
    r.layer["rtnet.recv_s"] = median(recv_s);
    r.layer["rtnet.xfer_MBps"] = mbps;
    r.layer["rtnet.xfer_failures"] = static_cast<double>(failures);
    r.layer["apps.failed_frac"] =
        static_cast<double>(failures) /
        static_cast<double>(std::max<std::uint64_t>(1, transfers));
    return r;
  }

 private:
  const std::uint64_t key_;
};

}  // namespace

std::unique_ptr<Workload> make_rtnet(std::uint64_t seed) {
  return std::make_unique<RtNet>(seed);
}

}  // namespace perfbench
