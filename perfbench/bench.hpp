// Shared types of the perfbench binary: one workload repetition's result,
// the seeded input generator, and the helpers every simulated workload uses
// to turn a cluster's end state into per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

/// Input generator owned by the benchmark (splitmix64), so the inputs a
/// seed produces never change when the program's own RNG does.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  std::uint64_t s_;
};

/// Seed-keyed dataset content: the 8-byte word at byte offset 8*i is a hash
/// of (key, i), so any range can be checked without keeping a copy.
std::uint64_t content_word(std::uint64_t key, std::uint64_t word_index);
void fill_content(std::uint8_t* dst, std::size_t len, std::uint64_t key,
                  std::uint64_t byte_offset);
bool check_content(const std::uint8_t* src, std::size_t len, std::uint64_t key,
                   std::uint64_t byte_offset);

/// Host stopwatch (steady_clock).
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// One repetition of a workload: set up, run the measured phase, check.
struct Rep {
  double setup_s = 0;  // host: everything before the first timed op
  double wall_s = 0;   // host: the measured phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::uint64_t fingerprint = 0;    // simulated behaviour (0 on rtnet)
  /// End-to-end metric values other than setup_s/wall_s/peak_rss_mb.
  std::map<std::string, double> e2e;
  /// Per-layer metric values; metrics off this workload's path are absent.
  std::map<std::string, double> layer;
  /// Named workload metrics for the human-readable report.
  std::vector<std::string> report;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One repetition. `traced` records spans (per-layer run); `budget_s` is
  /// the host time the caller has left, used only by the real-socket
  /// workload, whose single repetition fills the whole budget.
  virtual Rep run(bool traced, double budget_s) = 0;
};

std::unique_ptr<Workload> make_scan(std::uint64_t seed);
std::unique_ptr<Workload> make_sessions(std::uint64_t seed);
std::unique_ptr<Workload> make_ring(std::uint64_t seed);
std::unique_ptr<Workload> make_rtnet(std::uint64_t seed);

/// Latency summary into `r.e2e`: op_mean_us and op_tail_us (the tail_q
/// percentile, checked to have ten samples beyond it); the median and the
/// sample count go to the report.
void put_latency(Rep& r, const std::string& label,
                 const std::vector<double>& us, double tail_q);

/// Per-layer metrics every simulated workload reads off the end state:
/// snapshot counters/ratios, simulator event rate, disk model counters.
/// `snap` must already include any fleet clients.
void put_snapshot_layers(Rep& r, const dodo::obs::MetricsSnapshot& snap,
                         dodo::disk::SimFilesystem& fs);

/// Trace-derived per-layer metrics (self times, net waits, span count,
/// export time). No-op when the cluster records no spans.
void put_trace_layers(Rep& r, dodo::cluster::Cluster& c);

/// The sim/host bookkeeping common to every simulated workload.
void put_sim_layers(Rep& r, std::uint64_t events, double build_s,
                    double populate_s, std::uint64_t ops);

/// One aligned report line: name, value, unit, detail.
std::string line(const std::string& name, double value, const char* unit,
                 const std::string& detail = "");

}  // namespace perfbench
