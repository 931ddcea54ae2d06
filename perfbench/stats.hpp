// Pure helpers of the benchmark: exact percentiles over per-op
// samples, per-layer self time from a merged span timeline, and the
// simulation fingerprint. Kept free of workload code so `perfbench
// --selftest` can check them on hand-built inputs in milliseconds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_merge.hpp"

namespace perfbench {

/// Nearest-rank percentile: the ceil(q*n)-th smallest sample (q in (0,1]).
/// Exact — every reported percentile is one of the measured samples, never
/// a histogram bucket bound. Returns 0 for an empty sample set.
double percentile(std::vector<double> samples, double q);

/// True when at least ten samples lie beyond the q-th percentile, the rule
/// for reporting a tail percentile at all.
bool tail_supported(std::size_t n, double q);

/// Self time of every span, grouped by span-name prefix ("manage.",
/// "client.", ...): the span's duration minus the union of the intervals
/// its direct children cover (clipped to the parent). Children are found by
/// parent id, so server spans opened under a client span over the wire
/// count as that span's children. Values in microseconds of sim time.
std::map<std::string, std::vector<double>> self_times_us(
    const std::vector<dodo::obs::MergedSpan>& spans,
    const std::vector<std::string>& prefixes);

/// Durations (microseconds) of every closed span whose name starts with
/// `prefix` — the client-side network waits for "net.".
std::vector<double> durations_us(const std::vector<dodo::obs::MergedSpan>& spans,
                                 const std::string& prefix);

/// FNV-1a accumulator for the simulation fingerprint.
class Fingerprint {
 public:
  void add_bytes(const void* data, std::size_t n);
  void add_i64(std::int64_t v) { add_bytes(&v, sizeof v); }
  void add_string(const std::string& s) { add_bytes(s.data(), s.size()); }
  /// The snapshot's sorted JSON, minus the `obs.*` lines that only exist
  /// when spans are recorded: tracing must not change the fingerprint.
  void add_snapshot(const dodo::obs::MetricsSnapshot& snap);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Runs the percentile and self-time checks; prints failures to stderr.
bool selftest();

}  // namespace perfbench
