#include "obs/health.hpp"

namespace dodo::obs {

std::vector<HealthViolation> HealthMonitor::on_sample(
    SimTime t, const MetricsSnapshot& snap) {
  (void)t;
  std::vector<HealthViolation> out;
  auto violate = [&](const char* rule, std::string detail) {
    out.push_back(HealthViolation{rule, std::move(detail)});
  };
  auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  // "+<d>", appended rather than written `"+" + std::to_string(d)`, which
  // draws a false -Wrestrict from GCC 12 at -O3.
  auto plus = [](std::int64_t d) {
    std::string s = "+";
    s += std::to_string(d);
    return s;
  };

  // -- live conservation rules (hold at any instant) ------------------------
  const std::int64_t total = i64(snap.counter_value("client.mreads_total"));
  const std::int64_t hits = i64(snap.counter_value("client.remote_hits"));
  const std::int64_t degraded =
      i64(snap.counter_value("client.mreads_degraded"));
  const std::int64_t fallbacks =
      i64(snap.counter_value("client.disk_fallbacks"));
  if (hits + degraded > total) {
    violate("conservation.mreads",
            "remote_hits(" + std::to_string(hits) + ") + mreads_degraded(" +
                std::to_string(degraded) + ") > mreads_total(" +
                std::to_string(total) + ")");
  }
  if (degraded > fallbacks) {
    violate("conservation.degraded",
            "mreads_degraded(" + std::to_string(degraded) +
                ") > disk_fallbacks(" + std::to_string(fallbacks) + ")");
  }
  // The region-sum gauge exists only in watchdog-augmented samples; with no
  // recruited imd both gauges are absent and read 0 == 0.
  if (snap.find("imd.pool_region_bytes") != nullptr) {
    const std::int64_t used = snap.gauge_value("imd.pool_used_bytes");
    const std::int64_t regions = snap.gauge_value("imd.pool_region_bytes");
    if (used != regions) {
      violate("conservation.pool",
              "imd.pool_used_bytes(" + std::to_string(used) +
                  ") != region sum(" + std::to_string(regions) + ")");
    }
    const std::int64_t fenced = snap.gauge_value("imd.lease_live_fenced");
    if (fenced != 0) {
      violate("lease.no_resurrection",
              std::to_string(fenced) + " live region(s) in a fenced set");
    }
  }

  // -- rate-anomaly rules (need a previous sample) --------------------------
  if (have_prev_) {
    if (cfg_.disk_fallback_spike > 0) {
      const std::int64_t d =
          fallbacks - i64(prev_.counter_value("client.disk_fallbacks"));
      if (d > cfg_.disk_fallback_spike) {
        violate("rate.disk_fallback_spike",
                plus(d) + " fallbacks in one interval (cap " +
                    std::to_string(cfg_.disk_fallback_spike) + ")");
      }
    }
    if (cfg_.replica_shortfall_growth > 0) {
      const std::int64_t d =
          i64(snap.counter_value("cmd.replica_shortfalls")) -
          i64(prev_.counter_value("cmd.replica_shortfalls"));
      if (d > cfg_.replica_shortfall_growth) {
        violate("rate.replica_shortfall",
                plus(d) + " shortfalls in one interval (cap " +
                    std::to_string(cfg_.replica_shortfall_growth) + ")");
      }
    }
  }
  if (cfg_.span_leak_samples > 0) {
    const std::int64_t open = snap.gauge_value("obs.spans_open");
    const std::int64_t prev_open =
        have_prev_ ? prev_.gauge_value("obs.spans_open") : 0;
    span_growth_streak_ = open > prev_open ? span_growth_streak_ + 1 : 0;
    if (span_growth_streak_ >= cfg_.span_leak_samples) {
      violate("rate.span_leak",
              "obs.spans_open grew " + std::to_string(span_growth_streak_) +
                  " consecutive samples (now " + std::to_string(open) + ")");
      span_growth_streak_ = 0;  // re-arm instead of firing every sample
    }
  }

  ++samples_;
  violations_ += out.size();
  for (const HealthViolation& v : out) ++by_rule_[v.rule];
  last_ok_ = out.empty();
  prev_ = snap;
  have_prev_ = true;
  return out;
}

MetricsSnapshot HealthMonitor::health_snapshot() const {
  MetricsSnapshot out;
  out.set_counter("health.samples", samples_);
  out.set_counter("health.violations", violations_);
  out.set_gauge("health.ok", last_ok_ ? 1 : 0);
  for (const auto& [rule, n] : by_rule_) {
    out.set_counter("health.violations." + rule, n);
  }
  return out;
}

}  // namespace dodo::obs
