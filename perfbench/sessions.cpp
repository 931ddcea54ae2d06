// sessions-1cmd: open-loop session fleet against the paper's single cmd.
// Every simulated client is its own runtime::DodoClient on the app node;
// sessions arrive as a Poisson stream generated here from the seed, each
// mopen_ex -> 256 B mread -> mclose on a zipf-popular 8 KiB slot. The
// offered rate climbs a fixed ladder from 0.25x to 2x of the one-cmd knee;
// each rung dispatches for its window and then drains before the next.
//
// Sessions are timed from their due time to mclose's return, so a stalled
// dispatcher or a queueing cmd shows as latency. The dispatcher itself is a
// simulated coroutine and never runs late on the sim clock.
#include <algorithm>
#include <cmath>

#include "bench.hpp"
#include "sim/channel.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using dodo::Bytes64;
using dodo::SimTime;

// The ladder's 1.0x rung in sessions/s. One cmd completes at most about
// 6.4k sessions/s, so the knee lies between the 5250 and 7000 rungs.
constexpr double kKnee = 7000;
constexpr double kRungs[] = {0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
constexpr std::size_t kNominal = 1;   // 0.5x knee: the latency rung
constexpr std::size_t kOverload = 6;  // 2x knee: the goodput rung
constexpr dodo::Duration kWindow = dodo::kSecond / 2;
// The latency rung runs longer: its p99 then has ~140 samples beyond it.
constexpr dodo::Duration kNominalWindow = 4 * dodo::kSecond;

constexpr dodo::Duration window(std::size_t rung) {
  return rung == kNominal ? kNominalWindow : kWindow;
}
constexpr int kClients = 512;
constexpr int kSlots = 4;  // per client
constexpr Bytes64 kSlot = 8 * 1024;
constexpr Bytes64 kRead = 256;
constexpr double kZipf = 0.99;
constexpr double kSessionLimitMs = 20;  // ~ one random disk read
constexpr dodo::Duration kProbe = 5 * dodo::kMillisecond;

struct Arrival {
  SimTime offset;  // from the rung's start
  int client;
  int slot;
};

struct RungOut {
  std::uint64_t offered = 0, completed = 0, failed = 0;
  double inflight_first = 0, inflight_second = 0;  // mean per window half
  SimTime start = 0, last_done = 0;
  std::vector<double> latency_ms;  // completed sessions, due -> mclose
  std::vector<double> mopen_us, mclose_us;  // the cmd round trips
};

class Sessions final : public Workload {
 public:
  explicit Sessions(std::uint64_t seed) {
    InputRng rng(seed);
    sim_seed_ = rng.next();
    std::vector<double> cdf(kSlots);
    double total = 0;
    for (int i = 0; i < kSlots; ++i) {
      total += 1.0 / std::pow(i + 1.0, kZipf);
      cdf[static_cast<std::size_t>(i)] = total;
    }
    for (double& v : cdf) v /= total;
    for (std::size_t k = 0; k < std::size(kRungs); ++k) {
      const double f = kRungs[k];
      // A Poisson stream conditioned on its count: exactly rate x window
      // arrivals, uniformly placed, so a rung's offered load is exact.
      const auto n = static_cast<std::size_t>(
          std::llround(kKnee * f * dodo::to_seconds(window(k))));
      std::vector<Arrival> rung(n);
      for (Arrival& a : rung) {
        a.offset = static_cast<SimTime>(rng.below(window(k)));
        a.client = static_cast<int>(rng.below(kClients));
        const double u = rng.uniform();
        a.slot = static_cast<int>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        a.slot = std::min(a.slot, kSlots - 1);
      }
      std::sort(rung.begin(), rung.end(),
                [](const Arrival& x, const Arrival& y) {
                  return x.offset < y.offset;
                });
      schedule_.push_back(std::move(rung));
    }
  }

  Rep run(bool traced, double) override {
    Rep r;
    Stopwatch build;
    dodo::cluster::ClusterConfig cfg;
    cfg.seed = sim_seed_;
    cfg.imd_pool = 8LL << 20;
    cfg.materialize = false;  // sessions move phantom bytes
    // Keep-alive pings to the fleet would charge the cmd for work that is
    // not admission; the window is far shorter than this interval.
    cfg.cmd.keepalive_interval = 30 * dodo::kSecond;
    cfg.record_spans = traced;
    dodo::cluster::Cluster c(cfg);
    const double build_s = build.seconds();

    Stopwatch populate;
    const int fd = c.create_dataset("sessions.dat", kSlots * kSlot);
    std::vector<dodo::net::Endpoint> cmds{c.cmd().endpoint()};
    std::vector<std::unique_ptr<dodo::runtime::DodoClient>> fleet;
    for (int i = 0; i < kClients; ++i) {
      dodo::runtime::ClientParams p = cfg.client;
      p.client_id = static_cast<std::uint32_t>(1000 + i);
      p.ctl_port = static_cast<dodo::net::Port>(20000 + i);
      // A fleet sharing one node cannot sit out the default 5 s refraction
      // after one refused mopen; keep it just long enough to damp storms.
      p.refraction = 50 * dodo::kMillisecond;
      if (traced) p.spans = c.traces()->recorder(c.app_node(), "fleet");
      fleet.push_back(std::make_unique<dodo::runtime::DodoClient>(
          c.sim(), c.network(), c.app_node(), cmds, c.fs(), p));
    }
    // One open session per (client, slot): a session whose region is still
    // open in an earlier session of the same client waits for it, and the
    // wait counts in its latency. Concurrent mopens of one key would
    // otherwise fail for reasons of the benchmark, not the system.
    std::vector<std::unique_ptr<dodo::sim::Channel<int>>> key_locks;
    for (int i = 0; i < kClients * kSlots; ++i) {
      key_locks.push_back(std::make_unique<dodo::sim::Channel<int>>(c.sim()));
      key_locks.back()->send(0);
    }
    dodo::obs::SpanRecorder* spans =
        traced ? c.traces()->recorder(c.app_node(), "bench") : nullptr;
    // Population: every client starts and runs one session, one client at
    // a time, so the cmd knows the whole fleet before the first rung.
    int warmed = 0;
    c.run_app([&](dodo::cluster::Cluster&) -> dodo::sim::Co<void> {
      for (auto& client : fleet) {
        client->start();
        const auto [rd, reused] = co_await client->mopen_ex(kSlot, fd, 0);
        (void)reused;
        if (rd < 0) continue;
        const bool read = co_await client->mread(rd, 0, nullptr, kRead) == kRead;
        if (co_await client->mclose(rd) == 0 && read) ++warmed;
      }
    });
    r.check(warmed == kClients, "sessions: a population session failed");
    const double populate_s = populate.seconds();
    r.setup_s = build_s + populate_s;

    std::vector<RungOut> rungs(schedule_.size());
    std::int64_t inflight = 0;
    const std::uint64_t ev0 = c.sim().events_processed();
    Stopwatch wall;
    c.run_app([&](dodo::cluster::Cluster& cl) -> dodo::sim::Co<void> {
      auto& sim = cl.sim();
      dodo::sim::WaitGroup wg(sim);
      const auto session = [&](const Arrival a, SimTime due,
                               RungOut& out) -> dodo::sim::Co<void> {
        auto& cl2 = *fleet[static_cast<std::size_t>(a.client)];
        auto& lock = *key_locks[static_cast<std::size_t>(a.client * kSlots +
                                                         a.slot)];
        dodo::obs::ScopedSpan span(spans, "bench.session");
        (void)co_await lock.recv();
        const SimTime t0 = sim.now();
        const auto [rd, reused] =
            co_await cl2.mopen_ex(kSlot, fd, a.slot * kSlot);
        (void)reused;
        bool ok = rd >= 0;
        if (ok) {
          out.mopen_us.push_back(static_cast<double>(sim.now() - t0) / 1e3);
          ok = co_await cl2.mread(rd, 0, nullptr, kRead) == kRead;
          const SimTime t1 = sim.now();
          ok = co_await cl2.mclose(rd) == 0 && ok;
          out.mclose_us.push_back(static_cast<double>(sim.now() - t1) / 1e3);
        }
        lock.send(0);
        if (ok) {
          ++out.completed;
          out.latency_ms.push_back(static_cast<double>(sim.now() - due) / 1e6);
          out.last_done = std::max(out.last_done, sim.now());
        } else {
          ++out.failed;
        }
        --inflight;
        wg.done();
      };
      // Mean in-flight sessions over each half of a rung's window, sampled
      // every kProbe: a growing backlog shows as a larger second half.
      const auto probe = [&](RungOut& out,
                             dodo::Duration w) -> dodo::sim::Co<void> {
        double sum[2] = {0, 0};
        int n[2] = {0, 0};
        for (SimTime t = out.start; t < out.start + w; t += kProbe) {
          co_await sim.sleep_until(t);
          const int half = t - out.start < w / 2 ? 0 : 1;
          sum[half] += static_cast<double>(inflight);
          ++n[half];
        }
        out.inflight_first = sum[0] / std::max(1, n[0]);
        out.inflight_second = sum[1] / std::max(1, n[1]);
        wg.done();
      };
      for (std::size_t k = 0; k < schedule_.size(); ++k) {
        RungOut& out = rungs[k];
        out.start = sim.now();
        wg.add();
        sim.spawn(probe(out, window(k)));
        for (const Arrival& a : schedule_[k]) {
          const SimTime due = out.start + a.offset;
          co_await sim.sleep_until(due);
          ++out.offered;
          ++inflight;
          wg.add();
          sim.spawn(session(a, due, out));
        }
        co_await wg.wait();
        co_await sim.sleep(50 * dodo::kMillisecond);  // settle frees
      }
      for (auto& client : fleet) co_await client->detach();
    });
    r.wall_s = wall.seconds();
    const std::uint64_t events = c.sim().events_processed() - ev0;

    dodo::obs::MetricsSnapshot snap = c.metrics_snapshot();
    for (const auto& client : fleet) snap.merge(client->metrics_snapshot());

    Fingerprint fp;
    fp.add_snapshot(snap);
    std::uint64_t sessions = 0, failed = 0, all_failed = 0;
    double max_rate = 0;
    for (std::size_t k = 0; k < rungs.size(); ++k) {
      const RungOut& out = rungs[k];
      sessions += out.offered;
      all_failed += out.failed;
      // Rungs past the knee shed load by design; a refusal below it is a
      // failed operation.
      if (kRungs[k] < 1.0) failed += out.failed;
      r.check(out.offered == out.completed + out.failed,
              "sessions: offered != completed + failed on a rung");
      for (const double v : out.latency_ms) fp.add_i64(std::llround(v * 1e6));
      const double span_s =
          dodo::to_seconds(std::max(out.last_done, out.start + window(k)) -
                           out.start);
      const double goodput = static_cast<double>(out.completed) / span_s;
      const double p99 = percentile(out.latency_ms, 0.99);
      const double failed_frac =
          static_cast<double>(out.failed) /
          static_cast<double>(std::max<std::uint64_t>(1, out.offered));
      const bool steady = out.inflight_second <= 2 * out.inflight_first + 5;
      const bool meets = p99 <= kSessionLimitMs && failed_frac <= 0.01 && steady;
      if (meets) max_rate = std::max(max_rate, goodput);
      const std::string rate = std::to_string(std::lround(kKnee * kRungs[k]));
      r.layer["apps.rung." + rate + ".goodput_sps"] = goodput;
      r.layer["apps.rung." + rate + ".session_p99_ms"] = p99;
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "rung %5s/s: offered %5llu completed %5llu failed %5llu "
                    "goodput %8.1f/s p99 %9.3f ms (n=%zu) in-flight "
                    "%.1f then %.1f%s",
                    rate.c_str(), static_cast<unsigned long long>(out.offered),
                    static_cast<unsigned long long>(out.completed),
                    static_cast<unsigned long long>(out.failed), goodput, p99,
                    out.latency_ms.size(),
                    out.inflight_first, out.inflight_second,
                    meets ? "" : "  (over the limit)");
      r.report.push_back(buf);
    }
    r.fingerprint = fp.value();
    r.attempted = sessions;
    r.failed = failed;

    std::vector<double> nominal_us;
    for (const double v : rungs[kNominal].latency_ms) nominal_us.push_back(v * 1e3);
    put_latency(r, "session @0.5x knee", nominal_us, 0.99);
    r.report.push_back(line("session_p50_ms", percentile(nominal_us, 0.5) / 1e3,
                            "ms", "0.5x knee rung"));
    r.report.push_back(line("session_p99_ms", percentile(nominal_us, 0.99) / 1e3,
                            "ms", "0.5x knee rung"));
    const double goodput =
        r.layer["apps.rung." +
                std::to_string(std::lround(kKnee * kRungs[kOverload])) +
                ".goodput_sps"];
    r.e2e["ops_per_s"] = max_rate;
    r.report.push_back(line("goodput_sps", goodput, "1/s", "2x knee rung"));
    r.report.push_back(line("max_rate_sps", max_rate, "1/s",
                            "completed/s at the highest rung meeting p99 <= 20 "
                            "ms, failed <= 1%, no backlog growth"));
    const double failed_frac =
        static_cast<double>(all_failed) /
        static_cast<double>(std::max<std::uint64_t>(1, sessions));
    r.report.push_back(line("failed_frac", failed_frac, "ratio"));

    put_sim_layers(r, events, build_s, populate_s, sessions);
    put_snapshot_layers(r, snap, c.fs());
    put_trace_layers(r, c);
    r.layer["apps.max_rate_sps"] = max_rate;
    r.layer["apps.failed_frac"] = failed_frac;
    // The cmd round trips at the latency rung, below the knee.
    const RungOut& nominal = rungs[kNominal];
    r.layer["cmd.mopen_p50_us"] = percentile(nominal.mopen_us, 0.5);
    r.layer["cmd.mopen_p99_us"] = percentile(nominal.mopen_us, 0.99);
    r.layer["cmd.mclose_p99_us"] = percentile(nominal.mclose_us, 0.99);
    const std::string n_open = "n=" + std::to_string(nominal.mopen_us.size());
    r.report.push_back(line("cmd.mopen_p50_us", r.layer["cmd.mopen_p50_us"],
                            "us", n_open));
    r.report.push_back(line("cmd.mopen_p99_us", r.layer["cmd.mopen_p99_us"],
                            "us", n_open));
    r.report.push_back(line("cmd.mclose_p99_us", r.layer["cmd.mclose_p99_us"],
                            "us", n_open));
    return r;
  }

 private:
  std::uint64_t sim_seed_ = 0;
  std::vector<std::vector<Arrival>> schedule_;  // per rung
};

}  // namespace

std::unique_ptr<Workload> make_sessions(std::uint64_t seed) {
  return std::make_unique<Sessions>(seed);
}

}  // namespace perfbench
