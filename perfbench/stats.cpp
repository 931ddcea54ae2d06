#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9;
}

std::map<std::string, std::vector<double>> self_times_us(
    const std::vector<dodo::obs::MergedSpan>& spans,
    const std::vector<std::string>& prefixes) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].span.parent != 0) children[spans[i].span.parent].push_back(i);
  }
  std::map<std::string, std::vector<double>> out;
  for (const std::string& p : prefixes) out[p];
  std::vector<std::pair<dodo::SimTime, dodo::SimTime>> cover;
  for (const auto& ms : spans) {
    const auto& s = ms.span;
    if (s.end < s.start) continue;
    const std::string* prefix = nullptr;
    for (const std::string& p : prefixes) {
      if (s.name.compare(0, p.size(), p) == 0) prefix = &p;
    }
    if (prefix == nullptr) continue;
    cover.clear();
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const std::size_t c : it->second) {
        const auto& cs = spans[c].span;
        const dodo::SimTime lo = std::max(cs.start, s.start);
        const dodo::SimTime hi = std::min(cs.end, s.end);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    dodo::SimTime covered = 0;
    dodo::SimTime run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    out[*prefix].push_back(static_cast<double>(s.end - s.start - covered) /
                           1e3);
  }
  return out;
}

std::vector<double> durations_us(const std::vector<dodo::obs::MergedSpan>& spans,
                                 const std::string& prefix) {
  std::vector<double> out;
  for (const auto& ms : spans) {
    const auto& s = ms.span;
    if (s.end >= s.start && s.name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(static_cast<double>(s.end - s.start) / 1e3);
    }
  }
  return out;
}

void Fingerprint::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ull;
}

void Fingerprint::add_snapshot(const dodo::obs::MetricsSnapshot& snap) {
  const std::string json = snap.to_json();
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string::npos) eol = json.size();
    // Separators depend on which row is last, so hash rows without them.
    std::size_t lo = json.find_first_not_of(' ', pos);
    std::size_t hi = eol;
    if (lo > hi) lo = hi;
    if (hi > lo && json[hi - 1] == ',') --hi;
    if (json.compare(lo, 5, "\"obs.") != 0) add_bytes(json.data() + lo, hi - lo);
    pos = eol + 1;
  }
}

namespace {

bool expect(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "selftest: FAILED %s\n", what);
  return ok;
}

dodo::obs::MergedSpan span(std::uint64_t id, std::uint64_t parent,
                           dodo::SimTime start, dodo::SimTime end,
                           const char* name) {
  dodo::obs::MergedSpan m;
  m.span.id = id;
  m.span.parent = parent;
  m.span.start = start;
  m.span.end = end;
  m.span.name = name;
  return m;
}

}  // namespace

bool selftest() {
  bool ok = true;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  ok &= expect(percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
  ok &= expect(percentile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
  ok &= expect(percentile(v, 1.0) == 100.0, "p100 is the max");
  ok &= expect(percentile({7.0}, 0.99) == 7.0, "single sample");
  ok &= expect(percentile({}, 0.5) == 0.0, "empty set");
  ok &= expect(percentile({1, 2, 3, 4}, 0.5) == 2.0, "nearest rank, even n");
  ok &= expect(tail_supported(1000, 0.99), "p99 needs 1000 samples");
  ok &= expect(!tail_supported(999, 0.99), "999 samples do not support p99");
  ok &= expect(tail_supported(100, 0.9), "p90 needs 100 samples");

  // Parent [0,100us) with overlapping children [10,30) and [20,50) plus a
  // child running past its end [90,120): covered = 40 + 10 = 50us.
  // Grandchild time never counts against the grandparent directly.
  const std::vector<dodo::obs::MergedSpan> spans = {
      span(1, 0, 0, 100'000, "client.mread"),
      span(2, 1, 10'000, 30'000, "net.read"),
      span(3, 1, 20'000, 50'000, "net.read"),
      span(4, 2, 12'000, 28'000, "imd.read"),
      span(5, 1, 90'000, 120'000, "disk.read"),
      span(6, 0, 5'000, -1, "client.mread"),  // still open: skipped
  };
  const auto self = self_times_us(spans, {"client.", "net.", "imd.", "disk."});
  ok &= expect(self.at("client.").size() == 1 && self.at("client.")[0] == 50.0,
               "parent self time subtracts the union of child intervals");
  ok &= expect(self.at("net.").size() == 2 && self.at("net.")[0] == 4.0 &&
                   self.at("net.")[1] == 30.0,
               "child self time subtracts its own children only");
  ok &= expect(self.at("imd.").size() == 1 && self.at("imd.")[0] == 16.0,
               "leaf self time is its duration");
  ok &= expect(self.at("disk.").size() == 1 && self.at("disk.")[0] == 30.0,
               "child past the parent's end keeps its full duration");
  ok &= expect(durations_us(spans, "net.").size() == 2, "net wait durations");

  dodo::obs::MetricsSnapshot a, b;
  a.set_counter("client.mreads_total", 3);
  b.set_counter("client.mreads_total", 3);
  b.set_counter("obs.spans_recorded", 99);
  Fingerprint fa, fb;
  fa.add_snapshot(a);
  fb.add_snapshot(b);
  ok &= expect(fa.value() == fb.value(), "obs.* rows stay out of fingerprint");
  b.set_counter("client.mreads_total", 4);
  Fingerprint fc;
  fc.add_snapshot(b);
  ok &= expect(fc.value() != fa.value(), "fingerprint sees counter changes");
  return ok;
}

}  // namespace perfbench
