// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Untraced (--trace 0): repeats the workload (fresh set-up each time) until
// --seconds of host time are used, checks every repetition, and prints the
// end-to-end metrics: the median set-up time, the fastest repetition's
// measured phase, peak RSS, and the simulated-clock metrics, which repeat
// exactly for a seed (every repetition must reproduce the fingerprint).
//
// Traced (--trace 1): the same untraced repetitions for the host-clock layer
// metrics, then one repetition with span recording on for the trace-derived
// ones; the traced repetition must reproduce the untraced fingerprint.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Exit status 0 iff every correctness check passed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace {

using perfbench::Rep;

struct Metric {
  const char* name;
  const char* unit;
};

// Must list exactly BENCHMARK.json's end_to_end and per_layer names.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"wall_s", "s"},         {"peak_rss_mb", "MB"},
    {"op_mean_us", "us"},   {"op_tail_us", "us"},    {"ops_per_s", "1/s"},
};

constexpr Metric kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"cluster.build_s", "s"},
    {"cluster.populate_s", "s"},
    {"apps.host_us_per_op", "us"},
    {"apps.failed_frac", "ratio"},
    {"apps.speedup_vs_disk", "x"},
    {"apps.max_rate_sps", "1/s"},
    {"apps.rung.1750.goodput_sps", "1/s"},
    {"apps.rung.3500.goodput_sps", "1/s"},
    {"apps.rung.5250.goodput_sps", "1/s"},
    {"apps.rung.7000.goodput_sps", "1/s"},
    {"apps.rung.8750.goodput_sps", "1/s"},
    {"apps.rung.10500.goodput_sps", "1/s"},
    {"apps.rung.14000.goodput_sps", "1/s"},
    {"apps.rung.1750.session_p99_ms", "ms"},
    {"apps.rung.3500.session_p99_ms", "ms"},
    {"apps.rung.5250.session_p99_ms", "ms"},
    {"apps.rung.7000.session_p99_ms", "ms"},
    {"apps.rung.8750.session_p99_ms", "ms"},
    {"apps.rung.10500.session_p99_ms", "ms"},
    {"apps.rung.14000.session_p99_ms", "ms"},
    {"manage.local_hit_ratio", "ratio"},
    {"manage.disk_fills", "count"},
    {"manage.reaper_victims", "count"},
    {"manage.clone_failures", "count"},
    {"manage.self_p50_us", "us"},
    {"manage.self_p99_us", "us"},
    {"client.remote_hit_ratio", "ratio"},
    {"client.disk_fallbacks", "count"},
    {"client.mopen_failures", "count"},
    {"client.self_p50_us", "us"},
    {"client.self_p99_us", "us"},
    {"ring.submit_wait_p99_us", "us"},
    {"ring.peak_depth", "count"},
    {"cmd.mopen_p50_us", "us"},
    {"cmd.mopen_p99_us", "us"},
    {"cmd.mclose_p99_us", "us"},
    {"cmd.self_p50_us", "us"},
    {"cmd.self_p99_us", "us"},
    {"cmd.alloc_failure_ratio", "ratio"},
    {"cmd.mopens", "count"},
    {"imd.self_p50_us", "us"},
    {"imd.self_p99_us", "us"},
    {"imd.reads_served", "count"},
    {"imd.writes_served", "count"},
    {"imd.retried_requests", "count"},
    {"rmd.hosts_recruited", "count"},
    {"net.datagrams_sent", "count"},
    {"net.drop_ratio", "ratio"},
    {"net.wait_p50_us", "us"},
    {"net.wait_p99_us", "us"},
    {"bulk.retransmit_ratio", "ratio"},
    {"bulk.self_p50_us", "us"},
    {"bulk.self_p99_us", "us"},
    {"disk.page_hit_ratio", "ratio"},
    {"disk.ops", "count"},
    {"disk.self_p99_us", "us"},
    {"obs.spans", "count"},
    {"obs.export_s", "s"},
    {"obs.tracing_overhead", "ratio"},
    {"rtnet.send_s", "s"},
    {"rtnet.recv_s", "s"},
    {"rtnet.xfer_MBps", "MB/s"},
    {"rtnet.xfer_failures", "count"},
};

// Set-up parts of the host clock: medians over the repetitions, like
// setup_s. Every other host-clock layer metric comes from the fastest
// untraced repetition, like wall_s.
constexpr const char* kSetupLayer[] = {"cluster.build_s", "cluster.populate_s"};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <scan-random-8k|sessions-1cmd|"
               "ring-rw-4k|rtnet-bulk-loss> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc's adaptive one would keep freed pool-sized
  // blocks on the heap, and peak RSS would then grow with the number of
  // repetitions instead of measuring one.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      const bool ok = perfbench::selftest();
      std::printf("selftest: %s\n", ok ? "ok" : "FAILED");
      return ok ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::strcmp(v, "0") != 0;
    } else {
      return usage();
    }
  }

  std::unique_ptr<perfbench::Workload> w;
  if (workload == "scan-random-8k") {
    w = perfbench::make_scan(seed);
  } else if (workload == "sessions-1cmd") {
    w = perfbench::make_sessions(seed);
  } else if (workload == "ring-rw-4k") {
    w = perfbench::make_ring(seed);
  } else if (workload == "rtnet-bulk-loss") {
    w = perfbench::make_rtnet(seed);
  } else {
    return usage();
  }

  // Untraced repetitions until the budget is used: at least three, unless
  // that would overrun it threefold. The real-socket workload (no
  // fingerprint) fills the budget in one.
  std::vector<Rep> reps;
  const perfbench::Stopwatch total;
  do {
    reps.push_back(w->run(false, seconds - total.seconds()));
  } while (reps.back().fingerprint != 0 &&
           (total.seconds() < seconds ||
            (reps.size() < 3 && total.seconds() < 3 * seconds)));
  const Rep& first = reps.front();
  std::optional<Rep> traced;
  if (trace && first.fingerprint != 0) traced = w->run(true, 0);

  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    for (const std::string& e : reps[i].errors) errors.push_back(e);
    if (reps[i].fingerprint != first.fingerprint) {
      errors.push_back("repetition " + std::to_string(i) +
                       " changed the sim fingerprint");
    }
    attempted += reps[i].attempted;
    failed += reps[i].failed;
  }
  if (traced) {
    for (const std::string& e : traced->errors) errors.push_back(e);
    if (traced->fingerprint != first.fingerprint) {
      errors.push_back("traced run changed the sim fingerprint");
    }
  }

  // Host time: set-up as the median over repetitions; the measured phase
  // from the fastest repetition, because other load on the host only ever
  // adds time, in bursts that span several repetitions.
  std::vector<double> setup;
  const Rep* fastest = &first;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s);
    if (r.wall_s < fastest->wall_s) fastest = &r;
  }

  std::vector<std::pair<const Metric*, double>> out;
  if (!trace) {
    std::map<std::string, double> values = first.e2e;
    values["setup_s"] = median(setup);
    values["wall_s"] = fastest->wall_s;
    values["peak_rss_mb"] = peak_rss_mb();
    for (const Metric& m : kEndToEnd) {
      if (values.count(m.name) == 0) {
        errors.push_back(std::string("missing end-to-end metric ") + m.name);
      }
      out.emplace_back(&m, values[m.name]);
    }
  } else {
    std::map<std::string, double> values = fastest->layer;
    for (const char* name : kSetupLayer) {
      std::vector<double> v;
      for (const Rep& r : reps) {
        if (r.layer.count(name) != 0) v.push_back(r.layer.at(name));
      }
      if (!v.empty()) values[name] = median(v);
    }
    if (traced) {
      for (const auto& [name, v] : traced->layer) values.emplace(name, v);
      values["obs.tracing_overhead"] = traced->wall_s / fastest->wall_s;
    }
    // Metrics off this workload's path read 0.
    for (const Metric& m : kPerLayer) out.emplace_back(&m, values[m.name]);
  }
  for (auto& [m, v] : out) {
    if (!std::isfinite(v)) {
      errors.push_back(std::string("metric ") + m->name + " is not finite");
      v = 0;
    }
  }

  std::printf("perfbench %s seed=%" PRIu64 " repetitions=%zu\n",
              workload.c_str(), seed, reps.size());
  for (const std::string& l : (traced ? *traced : first).report) {
    std::printf("  %s\n", l.c_str());
  }
  std::printf("  per repetition: setup_s/wall_s");
  for (const Rep& r : reps) std::printf(" %.4f/%.4f", r.setup_s, r.wall_s);
  std::printf("\n");
  for (const std::string& e : errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("  fingerprint %016" PRIx64 "\n", first.fingerprint);

  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool comma = false;
  for (const auto& [m, v] : out) {
    if (comma) json += ", ";
    comma = true;
    json += std::string("\"") + m->name + "\": {\"value\": " + json_number(v) +
            ", \"unit\": \"" + m->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return errors.empty() ? 0 : 1;
}
