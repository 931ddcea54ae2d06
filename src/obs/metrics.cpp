#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cstdio>
#include <iterator>

namespace dodo::obs {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

std::vector<Duration> LatencyHistogram::default_bounds() {
  return {std::begin(kLatencyBucketBounds), std::end(kLatencyBucketBounds)};
}

LatencyHistogram::LatencyHistogram(std::vector<Duration> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  counts_.assign(bounds_.size() + 1, 0);
}

void LatencyHistogram::observe(Duration d) {
  if (d < 0) d = 0;  // durations are elapsed sim time; clamp defensively
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), d);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0 || d < min_) min_ = d;
  if (count_ == 0 || d > max_) max_ = d;
  ++count_;
  sum_ += d;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

void MetricsSnapshot::set_counter(const std::string& name, std::uint64_t v) {
  MetricValue& m = values_[name];
  m = MetricValue{};
  m.type = MetricValue::Type::kCounter;
  m.counter = v;
}

void MetricsSnapshot::set_gauge(const std::string& name, std::int64_t v) {
  MetricValue& m = values_[name];
  m = MetricValue{};
  m.type = MetricValue::Type::kGauge;
  m.gauge = v;
}

void MetricsSnapshot::set_histogram(const std::string& name,
                                    const LatencyHistogram& h) {
  MetricValue& m = values_[name];
  m = MetricValue{};
  m.type = MetricValue::Type::kHistogram;
  m.bounds = h.bounds();
  m.counts = h.counts();
  m.count = h.count();
  m.sum = h.sum();
  m.min = h.min();
  m.max = h.max();
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, theirs] : other.values_) {
    auto [it, fresh] = values_.try_emplace(name, theirs);
    if (fresh) continue;
    MetricValue& mine = it->second;
    if (mine.type != theirs.type) continue;  // corrupted input; keep ours
    switch (mine.type) {
      case MetricValue::Type::kCounter:
        mine.counter += theirs.counter;
        break;
      case MetricValue::Type::kGauge:
        mine.gauge += theirs.gauge;
        break;
      case MetricValue::Type::kHistogram: {
        if (mine.bounds != theirs.bounds) break;  // shape mismatch; keep ours
        for (std::size_t i = 0; i < mine.counts.size(); ++i) {
          mine.counts[i] += theirs.counts[i];
        }
        if (theirs.count > 0) {
          mine.min = mine.count == 0 ? theirs.min
                                     : std::min(mine.min, theirs.min);
          mine.max = mine.count == 0 ? theirs.max
                                     : std::max(mine.max, theirs.max);
        }
        mine.count += theirs.count;
        mine.sum += theirs.sum;
        break;
      }
    }
  }
}

MetricsSnapshot MetricsSnapshot::prefixed(const std::string& prefix) const {
  MetricsSnapshot out;
  for (const auto& [name, v] : values_) out.values_[prefix + name] = v;
  return out;
}

MetricsSnapshot MetricsSnapshot::without_zeros() const {
  MetricsSnapshot out;
  for (const auto& [name, v] : values_) {
    switch (v.type) {
      case MetricValue::Type::kCounter:
        if (v.counter == 0) continue;
        break;
      case MetricValue::Type::kGauge:
        if (v.gauge == 0) continue;
        break;
      case MetricValue::Type::kHistogram:
        if (v.count == 0) continue;
        break;
    }
    out.values_[name] = v;
  }
  return out;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  const MetricValue* m = find(name);
  return m != nullptr && m->type == MetricValue::Type::kCounter ? m->counter
                                                                : 0;
}

std::int64_t MetricsSnapshot::gauge_value(const std::string& name) const {
  const MetricValue* m = find(name);
  return m != nullptr && m->type == MetricValue::Type::kGauge ? m->gauge : 0;
}

const MetricValue* MetricsSnapshot::find(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

template <typename T, typename Fn>
void append_array(std::string& out, const std::vector<T>& xs, Fn append_one) {
  out.push_back('[');
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_one(out, xs[i]);
  }
  out.push_back(']');
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n";
  std::size_t i = 0;
  for (const auto& [name, m] : values_) {
    append_escaped(out, name);
    out += ":{";
    switch (m.type) {
      case MetricValue::Type::kCounter:
        out += "\"type\":\"counter\",\"value\":";
        append_u64(out, m.counter);
        break;
      case MetricValue::Type::kGauge:
        out += "\"type\":\"gauge\",\"value\":";
        append_i64(out, m.gauge);
        break;
      case MetricValue::Type::kHistogram:
        out += "\"type\":\"histogram\",\"count\":";
        append_u64(out, m.count);
        out += ",\"sum\":";
        append_i64(out, m.sum);
        out += ",\"min\":";
        append_i64(out, m.min);
        out += ",\"max\":";
        append_i64(out, m.max);
        out += ",\"bounds\":";
        append_array(out, m.bounds, append_i64);
        out += ",\"counts\":";
        append_array(out, m.counts,
                     [](std::string& o, std::uint64_t v) { append_u64(o, v); });
        break;
    }
    out.push_back('}');
    if (++i < values_.size()) out.push_back(',');
    out.push_back('\n');
  }
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// JSON parser — a strict recursive-descent reader of exactly the subset
// to_json() emits (string keys, integer values, integer arrays, one level of
// nesting). No floats, no bools, no null.
// ---------------------------------------------------------------------------

namespace {

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : s_(text) {}

  bool fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  [[nodiscard]] const std::string& error() const { return error_; }

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos_ >= s_.size();
  }

  bool string(std::string& out) {
    if (!expect('"')) return false;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail("dangling escape");
        const char e = s_[pos_++];
        if (e == '"' || e == '\\') {
          c = e;
        } else if (e == 'u') {
          if (pos_ + 4 > s_.size()) return fail("short \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') {
              v |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              v |= static_cast<unsigned>(h - 'a' + 10);
            } else {
              return fail("bad \\u escape");
            }
          }
          c = static_cast<char>(v);
        } else {
          return fail("unsupported escape");
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool integer(std::int64_t& out) {
    skip_ws();
    bool neg = false;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      neg = true;
      ++pos_;
    }
    if (pos_ >= s_.size() || std::isdigit(static_cast<unsigned char>(s_[pos_])) == 0) {
      return fail("expected integer");
    }
    std::uint64_t v = 0;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
      v = v * 10 + static_cast<std::uint64_t>(s_[pos_] - '0');
      ++pos_;
    }
    out = neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
    return true;
  }

  template <typename T>
  bool int_array(std::vector<T>& out) {
    if (!expect('[')) return false;
    out.clear();
    if (peek(']')) return expect(']');
    for (;;) {
      std::int64_t v = 0;
      if (!integer(v)) return false;
      out.push_back(static_cast<T>(v));
      if (peek(']')) return expect(']');
      if (!expect(',')) return false;
    }
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
  std::string error_;
};

bool parse_metric(JsonReader& r, MetricValue& m) {
  if (!r.expect('{')) return false;
  bool have_type = false;
  std::string field;
  for (;;) {
    if (!r.string(field) || !r.expect(':')) return false;
    if (field == "type") {
      std::string t;
      if (!r.string(t)) return false;
      if (t == "counter") {
        m.type = MetricValue::Type::kCounter;
      } else if (t == "gauge") {
        m.type = MetricValue::Type::kGauge;
      } else if (t == "histogram") {
        m.type = MetricValue::Type::kHistogram;
      } else {
        return r.fail("unknown metric type \"" + t + "\"");
      }
      have_type = true;
    } else if (field == "value") {
      std::int64_t v = 0;
      if (!r.integer(v)) return false;
      m.counter = static_cast<std::uint64_t>(v);
      m.gauge = v;
    } else if (field == "count") {
      std::int64_t v = 0;
      if (!r.integer(v)) return false;
      m.count = static_cast<std::uint64_t>(v);
    } else if (field == "sum") {
      if (!r.integer(m.sum)) return false;
    } else if (field == "min") {
      if (!r.integer(m.min)) return false;
    } else if (field == "max") {
      if (!r.integer(m.max)) return false;
    } else if (field == "bounds") {
      if (!r.int_array(m.bounds)) return false;
    } else if (field == "counts") {
      if (!r.int_array(m.counts)) return false;
    } else {
      return r.fail("unknown field \"" + field + "\"");
    }
    if (r.peek('}')) break;
    if (!r.expect(',')) return false;
  }
  if (!r.expect('}')) return false;
  if (!have_type) return r.fail("metric without \"type\"");
  // Normalize: a counter/gauge parse may have touched both views of
  // "value"; clear the one that does not apply so equality is exact.
  if (m.type == MetricValue::Type::kCounter) {
    m.gauge = 0;
  } else if (m.type == MetricValue::Type::kGauge) {
    m.counter = 0;
  } else if (m.counts.size() != m.bounds.size() + 1) {
    return r.fail("histogram counts/bounds size mismatch");
  }
  return true;
}

}  // namespace

bool MetricsSnapshot::from_json(const std::string& text, MetricsSnapshot& out,
                                std::string* error) {
  JsonReader r(text);
  out = MetricsSnapshot{};
  auto bail = [&] {
    if (error != nullptr) *error = r.error();
    return false;
  };
  if (!r.expect('{')) return bail();
  if (!r.peek('}')) {
    for (;;) {
      std::string name;
      if (!r.string(name) || !r.expect(':')) return bail();
      MetricValue m;
      if (!parse_metric(r, m)) return bail();
      out.values_[name] = std::move(m);
      if (r.peek('}')) break;
      if (!r.expect(',')) return bail();
    }
  }
  if (!r.expect('}')) return bail();
  if (!r.at_end()) {
    r.fail("trailing input");
    return bail();
  }
  return true;
}

}  // namespace dodo::obs
