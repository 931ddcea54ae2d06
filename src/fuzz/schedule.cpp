#include "fuzz/schedule.hpp"

#include <cstdio>
#include <sstream>

namespace dodo::fuzz {

namespace {
constexpr const char* kMagic = "# dodo fuzz schedule v1";
}  // namespace

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kOpen: return "open";
    case OpKind::kPush: return "push";
    case OpKind::kRead: return "read";
    case OpKind::kWrite: return "write";
    case OpKind::kClose: return "close";
    case OpKind::kSync: return "sync";
    case OpKind::kSleep: return "sleep";
  }
  return "unknown";
}

bool op_kind_from_string(const std::string& name, OpKind& out) {
  static constexpr OpKind kAll[] = {
      OpKind::kOpen, OpKind::kPush,  OpKind::kRead, OpKind::kWrite,
      OpKind::kClose, OpKind::kSync, OpKind::kSleep,
  };
  for (OpKind k : kAll) {
    if (name == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::string Schedule::serialize() const {
  std::string out;
  char line[256];
  out += kMagic;
  out += '\n';
  std::snprintf(line, sizeof(line), "hosts %d\n", hosts);
  out += line;
  std::snprintf(line, sizeof(line), "pool %lld\n",
                static_cast<long long>(pool));
  out += line;
  std::snprintf(line, sizeof(line), "region %lld\n",
                static_cast<long long>(region));
  out += line;
  std::snprintf(line, sizeof(line), "slots %d\n", slots);
  out += line;
  std::snprintf(line, sizeof(line), "stripe %d\n", stripe_width);
  out += line;
  std::snprintf(line, sizeof(line), "replica %d\n", replica_count);
  out += line;
  std::snprintf(line, sizeof(line), "shards %d\n", shards);
  out += line;
  std::snprintf(line, sizeof(line), "lease %d\n", lease ? 1 : 0);
  out += line;
  std::snprintf(line, sizeof(line), "batch %d\n", batch ? 1 : 0);
  out += line;
  std::snprintf(line, sizeof(line), "reply_cache %zu\n",
                imd_reply_cache_capacity);
  out += line;
  std::snprintf(line, sizeof(line), "seed %llu\n",
                static_cast<unsigned long long>(seed));
  out += line;
  for (const WorkOp& op : ops) {
    std::snprintf(line, sizeof(line), "op %s %d %llu %lld\n",
                  to_string(op.kind), op.slot,
                  static_cast<unsigned long long>(op.pattern),
                  static_cast<long long>(op.dur));
    out += line;
  }
  for (const fault::FaultEvent& ev : faults) {
    std::snprintf(line, sizeof(line), "fault %s %lld %d %u %u %.6f\n",
                  fault::to_string(ev.kind), static_cast<long long>(ev.at),
                  ev.host, ev.a, ev.b, ev.rate);
    out += line;
  }
  return out;
}

bool Schedule::parse(const std::string& text, Schedule& out,
                     std::string* error) {
  auto fail = [&](int lineno, const std::string& what) {
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + what;
    }
    return false;
  };

  Schedule s;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  bool saw_magic = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == kMagic) saw_magic = true;
      continue;
    }
    if (!saw_magic) return fail(lineno, "missing schedule header");

    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "hosts") {
      if (!(ls >> s.hosts) || s.hosts < 1) return fail(lineno, "bad hosts");
    } else if (key == "pool") {
      long long v = 0;
      if (!(ls >> v) || v <= 0) return fail(lineno, "bad pool");
      s.pool = v;
    } else if (key == "region") {
      long long v = 0;
      if (!(ls >> v) || v <= 0) return fail(lineno, "bad region");
      s.region = v;
    } else if (key == "slots") {
      if (!(ls >> s.slots) || s.slots < 1) return fail(lineno, "bad slots");
    } else if (key == "stripe") {
      // Optional (pre-striping schedules omit it); absent means width 1.
      if (!(ls >> s.stripe_width) || s.stripe_width < 1) {
        return fail(lineno, "bad stripe");
      }
    } else if (key == "replica") {
      // Optional (pre-replication schedules omit it); absent means 1 copy.
      if (!(ls >> s.replica_count) || s.replica_count < 1) {
        return fail(lineno, "bad replica");
      }
    } else if (key == "shards") {
      // Optional (pre-sharding schedules omit it); absent means one cmd.
      if (!(ls >> s.shards) || s.shards < 1) return fail(lineno, "bad shards");
    } else if (key == "lease") {
      // Optional (pre-lease schedules omit it); absent means leases off.
      int v = 0;
      if (!(ls >> v) || v < 0 || v > 1) return fail(lineno, "bad lease");
      s.lease = v != 0;
    } else if (key == "batch") {
      // Optional (schedules saved before the ring dimension omit it);
      // absent means no ring.
      int v = 0;
      if (!(ls >> v) || v < 0 || v > 1) return fail(lineno, "bad batch");
      s.batch = v != 0;
    } else if (key == "reply_cache") {
      long long v = 0;
      if (!(ls >> v) || v < 1) return fail(lineno, "bad reply_cache");
      s.imd_reply_cache_capacity = static_cast<std::size_t>(v);
    } else if (key == "seed") {
      if (!(ls >> s.seed)) return fail(lineno, "bad seed");
    } else if (key == "op") {
      std::string kind;
      WorkOp op;
      // Patterns are raw 64-bit rng draws; half of them overflow a signed
      // read, so extract unsigned.
      unsigned long long pattern = 0;
      long long dur = 0;
      if (!(ls >> kind >> op.slot >> pattern >> dur)) {
        return fail(lineno, "malformed op line");
      }
      if (!op_kind_from_string(kind, op.kind)) {
        return fail(lineno, "unknown op kind '" + kind + "'");
      }
      if (op.slot < 0) return fail(lineno, "negative op slot");
      op.pattern = static_cast<std::uint64_t>(pattern);
      op.dur = dur;
      if (op.dur < 0) return fail(lineno, "negative op duration");
      s.ops.push_back(op);
    } else if (key == "fault") {
      std::string kind;
      fault::FaultEvent ev;
      long long at = 0;
      if (!(ls >> kind >> at >> ev.host >> ev.a >> ev.b >> ev.rate)) {
        return fail(lineno, "malformed fault line");
      }
      if (!fault::fault_kind_from_string(kind, ev.kind)) {
        return fail(lineno, "unknown fault kind '" + kind + "'");
      }
      if (at < 0) return fail(lineno, "negative fault time");
      ev.at = at;
      s.faults.push_back(ev);
    } else {
      return fail(lineno, "unknown key '" + key + "'");
    }
    // Trailing junk on a recognized line is a format error too: it means a
    // hand-edited schedule would silently not mean what it says.
    std::string extra;
    if (ls >> extra) return fail(lineno, "trailing tokens '" + extra + "'");
  }
  if (!saw_magic) return fail(lineno, "missing schedule header");
  for (const WorkOp& op : s.ops) {
    if (op.slot >= s.slots) {
      return fail(lineno, "op slot out of range of 'slots'");
    }
  }
  out = std::move(s);
  return true;
}

}  // namespace dodo::fuzz
