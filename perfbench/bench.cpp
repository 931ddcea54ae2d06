#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "stats.hpp"

namespace perfbench {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::uint64_t InputRng::next() {
  s_ += 0x9e3779b97f4a7c15ull;
  return mix64(s_);
}

std::uint64_t content_word(std::uint64_t key, std::uint64_t word_index) {
  return mix64(key * 0x2545f4914f6cdd1dull + word_index);
}

void fill_content(std::uint8_t* dst, std::size_t len, std::uint64_t key,
                  std::uint64_t byte_offset) {
  for (std::size_t i = 0; i < len; i += 8) {
    const std::uint64_t w = content_word(key, (byte_offset + i) / 8);
    std::memcpy(dst + i, &w, std::min<std::size_t>(8, len - i));
  }
}

bool check_content(const std::uint8_t* src, std::size_t len, std::uint64_t key,
                   std::uint64_t byte_offset) {
  for (std::size_t i = 0; i < len; i += 8) {
    const std::uint64_t w = content_word(key, (byte_offset + i) / 8);
    if (std::memcmp(src + i, &w, std::min<std::size_t>(8, len - i)) != 0) {
      return false;
    }
  }
  return true;
}

std::string line(const std::string& name, double value, const char* unit,
                 const std::string& detail) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-28s %14.6g %-10s %s", name.c_str(), value,
                unit, detail.c_str());
  return buf;
}

void put_latency(Rep& r, const std::string& label,
                 const std::vector<double>& us, double tail_q) {
  r.check(tail_supported(us.size(), tail_q),
          label + ": too few samples for its tail percentile");
  double sum = 0;
  for (const double v : us) sum += v;
  const double mean = us.empty() ? 0.0 : sum / static_cast<double>(us.size());
  const double p50 = percentile(us, 0.5);
  const double tail = percentile(us, tail_q);
  r.e2e["op_mean_us"] = mean;
  r.e2e["op_tail_us"] = tail;
  const std::string n = "n=" + std::to_string(us.size());
  r.report.push_back(line(label + " mean", mean, "us", n));
  r.report.push_back(line(label + " p50", p50, "us", n));
  char q[32];
  std::snprintf(q, sizeof q, " p%g", tail_q * 100);
  r.report.push_back(line(label + q, tail, "us", n));
}

void put_sim_layers(Rep& r, std::uint64_t events, double build_s,
                    double populate_s, std::uint64_t ops) {
  r.layer["sim.events"] = static_cast<double>(events);
  r.layer["sim.host_ns_per_event"] =
      ratio(r.wall_s * 1e9, static_cast<double>(events));
  r.layer["cluster.build_s"] = build_s;
  r.layer["cluster.populate_s"] = populate_s;
  r.layer["apps.host_us_per_op"] = ratio(r.wall_s * 1e6, static_cast<double>(ops));
}

void put_snapshot_layers(Rep& r, const dodo::obs::MetricsSnapshot& snap,
                         dodo::disk::SimFilesystem& fs) {
  const auto c = [&](const char* name) {
    return static_cast<double>(snap.counter_value(name));
  };
  r.layer["manage.disk_fills"] = c("manage.disk_fills");
  r.layer["manage.reaper_victims"] = c("manage.reaper_victims");
  r.layer["manage.clone_failures"] = c("manage.clone_failures");
  r.layer["client.remote_hit_ratio"] =
      ratio(c("client.remote_hits"), c("client.mreads_total"));
  r.layer["client.disk_fallbacks"] = c("client.disk_fallbacks");
  r.layer["client.mopen_failures"] = c("client.mopen_failures");
  r.layer["cmd.alloc_failure_ratio"] =
      ratio(c("cmd.alloc_failures"), c("cmd.alloc_attempts"));
  r.layer["cmd.mopens"] = c("cmd.mopens");
  r.layer["imd.reads_served"] = c("imd.reads_served");
  r.layer["imd.writes_served"] = c("imd.writes_served");
  r.layer["imd.retried_requests"] =
      c("imd.dup_requests_dropped") + c("imd.reply_cache_hits");
  r.layer["rmd.hosts_recruited"] =
      static_cast<double>(snap.gauge_value("rmd.recruited"));
  r.layer["net.datagrams_sent"] = c("net.datagrams_sent");
  r.layer["net.drop_ratio"] =
      ratio(c("net.datagrams_lost") + c("net.datagrams_dropped"),
            c("net.datagrams_sent"));
  r.layer["bulk.retransmit_ratio"] =
      ratio(c("client.bulk.chunks_retransmitted") +
                c("imd.bulk.chunks_retransmitted"),
            c("client.bulk.chunks_sent") + c("imd.bulk.chunks_sent"));
  const auto& cache = fs.cache().metrics();
  const auto& disk = fs.disk().metrics();
  r.layer["disk.page_hit_ratio"] =
      ratio(static_cast<double>(cache.hit_pages),
            static_cast<double>(cache.hit_pages + cache.miss_pages));
  r.layer["disk.ops"] = static_cast<double>(disk.reads + disk.writes);
}

void put_trace_layers(Rep& r, dodo::cluster::Cluster& c) {
  if (c.traces() == nullptr) return;
  const Stopwatch sw;
  const std::vector<dodo::obs::MergedSpan> spans = c.merged_spans();
  const auto self = self_times_us(
      spans, {"manage.", "client.", "cmd.", "imd.", "net.", "bulk.", "disk."});
  const std::vector<double> waits = durations_us(spans, "net.");
  r.layer["obs.export_s"] = sw.seconds();
  r.layer["obs.spans"] = static_cast<double>(spans.size());
  const auto put = [&](const std::string& layer, const std::vector<double>& v,
                       bool p50) {
    const std::string n = "n=" + std::to_string(v.size());
    if (p50) {
      r.layer[layer + "_p50_us"] = percentile(v, 0.5);
      r.report.push_back(line(layer + "_p50_us", percentile(v, 0.5), "us", n));
    }
    r.layer[layer + "_p99_us"] = percentile(v, 0.99);
    r.report.push_back(line(layer + "_p99_us", percentile(v, 0.99), "us", n));
  };
  for (const char* layer : {"manage", "client", "cmd", "imd", "bulk"}) {
    put(std::string(layer) + ".self", self.at(std::string(layer) + "."), true);
  }
  put("disk.self", self.at("disk."), false);
  put("net.wait", waits, true);
}

}  // namespace perfbench
