// Sim-clock-aware observability primitives (metrics).
//
// Everything here is deterministic by construction: counters and gauges are
// plain integers, latency histograms bucket exact sim-time durations (int64
// nanoseconds — never wall clock), and JSON export iterates sorted names
// with integer-only formatting. Two runs of the same seeded simulation
// therefore produce byte-identical exports, which is what lets tests and the
// fuzzer assert on metric values instead of eyeballing them.
//
// The paper's evaluation is entirely measured behaviour (hit ratios,
// reclamations, bytes over UDP vs U-Net); these are the instruments. Related
// disaggregated-memory systems (Ditto, Memtrade) scrape the same classes of
// metric — hit/eviction counters, pool occupancy gauges, latency
// distributions — to drive adaptive policies; this library gives every Dodo
// daemon the equivalent substrate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace dodo::obs {

/// The one latency-bucket scale every histogram in the tree shares: 1us to
/// 10s, one decade apart, inclusive upper bounds in sim nanoseconds. Client,
/// imd, bulk, and loadgen instrumentation all bucket against this array (via
/// LatencyHistogram's default constructor), which is what makes snapshot
/// merges across daemons well-defined — merge() requires identical bounds.
/// Changing a bound is a wire/export format change; tests pin these values.
inline constexpr Duration kLatencyBucketBounds[] = {
    1'000,      10'000,      100'000,       1'000'000,
    10'000'000, 100'000'000, 1'000'000'000, 10'000'000'000};
inline constexpr std::size_t kLatencyBucketCount =
    sizeof(kLatencyBucketBounds) / sizeof(kLatencyBucketBounds[0]);

/// Monotonic event counter. inc() only; resets never happen within a
/// daemon's lifetime (a restarted daemon is a new object, hence zero).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Point-in-time signed level (pool occupancy, directory size, ...).
class Gauge {
 public:
  void set(std::int64_t v) { v_ = v; }
  void add(std::int64_t d) { v_ += d; }
  [[nodiscard]] std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Fixed-bucket histogram over sim-time durations. A value lands in the
/// first bucket whose upper bound is >= the value (bounds are inclusive);
/// values above the last bound land in the implicit overflow bucket, so
/// counts() has bounds().size() + 1 entries. Sum/min/max are exact int64
/// nanoseconds — no doubles anywhere, so exports are byte-stable.
class LatencyHistogram {
 public:
  /// Default bounds: kLatencyBucketBounds — wide enough for every simulated
  /// path from a local memcpy to a multi-round bulk transfer.
  LatencyHistogram() : LatencyHistogram(default_bounds()) {}
  explicit LatencyHistogram(std::vector<Duration> upper_bounds);

  /// kLatencyBucketBounds as a vector (the shared constant is the truth).
  static std::vector<Duration> default_bounds();

  void observe(Duration d);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] Duration sum() const { return sum_; }
  [[nodiscard]] Duration min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] Duration max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] const std::vector<Duration>& bounds() const { return bounds_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  std::vector<Duration> bounds_;          // sorted ascending upper bounds
  std::vector<std::uint64_t> counts_;     // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  Duration sum_ = 0;
  Duration min_ = 0;
  Duration max_ = 0;
};

/// One exported metric value. Histograms carry their full shape so merges
/// and round-trips lose nothing.
struct MetricValue {
  enum class Type : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

  Type type = Type::kCounter;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  // Histogram shape (only meaningful when type == kHistogram).
  std::vector<Duration> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  Duration sum = 0;
  Duration min = 0;
  Duration max = 0;

  friend bool operator==(const MetricValue&, const MetricValue&) = default;
};

/// An immutable-ish view of named metrics at one instant. Names sort
/// lexicographically (std::map), which fixes the JSON field order.
class MetricsSnapshot {
 public:
  void set_counter(const std::string& name, std::uint64_t v);
  void set_gauge(const std::string& name, std::int64_t v);
  void set_histogram(const std::string& name, const LatencyHistogram& h);

  /// Folds `other` in: counters and gauges add (so per-host snapshots
  /// aggregate into cluster-wide totals), histograms add bucket-wise.
  /// Histogram merges require identical bucket bounds — every histogram in
  /// the tree uses LatencyHistogram::default_bounds(), so a mismatch means
  /// corrupted input and the entry keeps its existing shape.
  void merge(const MetricsSnapshot& other);

  /// Copy with `prefix` prepended to every name (per-host namespacing).
  [[nodiscard]] MetricsSnapshot prefixed(const std::string& prefix) const;

  /// Copy without the all-zero entries: counters at 0, gauges at 0, and
  /// histograms that never observed a value. Sharded bench exports carry
  /// hundreds of structurally-present-but-untouched series (e.g. the
  /// `shardN.*` block for every idle shard); this is the `--suppress-zeros`
  /// filter applied to them at export time. Never applied by default — the
  /// full export stays byte-identical.
  [[nodiscard]] MetricsSnapshot without_zeros() const;

  /// Deterministic JSON: one metric per line, names sorted, integers only.
  [[nodiscard]] std::string to_json() const;

  /// Strict parser for exactly the to_json() subset. Returns false and
  /// (optionally) a "why" message on any deviation.
  static bool from_json(const std::string& text, MetricsSnapshot& out,
                        std::string* error = nullptr);

  [[nodiscard]] const std::map<std::string, MetricValue>& values() const {
    return values_;
  }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }

  /// Lookup helpers for assertions; return 0 / default when absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] std::int64_t gauge_value(const std::string& name) const;
  [[nodiscard]] const MetricValue* find(const std::string& name) const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;

 private:
  std::map<std::string, MetricValue> values_;
};

}  // namespace dodo::obs
