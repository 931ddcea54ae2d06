// A fuzz schedule: one complete, replayable test case for the simulated
// cluster — the cluster shape, a sequence of application operations, and a
// list of fault events. Schedules serialize to a line-oriented text format
// (".schedule" files) so a failure found by the fuzzer can be shrunk,
// checked into the repo, and replayed byte-for-byte by tools/fuzz_repro or
// a regression test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "fault/fault.hpp"

namespace dodo::fuzz {

enum class OpKind : std::uint8_t {
  kOpen,   // mopen_ex(region, fd, slot*region)
  kPush,   // push_remote of a full region of pattern bytes
  kRead,   // mread_ex of the full region, byte-checked when filled
  kWrite,  // mwrite of a full region (disk + remote in parallel)
  kClose,  // mclose
  kSync,   // msync
  kSleep,  // advance simulated time (lets faults/keepalives interleave)
};

[[nodiscard]] const char* to_string(OpKind kind);
[[nodiscard]] bool op_kind_from_string(const std::string& name, OpKind& out);

/// One application operation against a region slot. `pattern` seeds the
/// content written by kPush/kWrite; `dur` is the kSleep duration.
struct WorkOp {
  OpKind kind{};
  int slot = 0;
  std::uint64_t pattern = 0;
  Duration dur = 0;
};

/// The whole test case. The workload addresses `slots` fixed-size regions
/// backing consecutive ranges of one dataset file of slots*region bytes.
struct Schedule {
  // -- cluster shape --------------------------------------------------------
  int hosts = 2;
  Bytes64 pool = 1_MiB;            // per-host imd pool
  Bytes64 region = 32_KiB;         // slot/region size
  int slots = 8;
  int stripe_width = 1;            // cmd K-way striping across idle hosts
  /// Copies of every fragment the cmd places on distinct hosts (static; the
  /// adaptive grow/shrink loop stays off in fuzz runs for determinism).
  int replica_count = 1;
  /// Directory shards (cmd instances); hosts partition round-robin across
  /// them and region keys route by hash (cluster::ClusterConfig::cmd_shards).
  int shards = 1;
  /// Lease-based harvesting (DESIGN.md §14): imds grant/fence per-region
  /// leases, the cmd renews them each keepalive tick, and kHostPressure
  /// fault events drive graded incremental reclamation.
  bool lease = false;
  /// Ring reads (DESIGN.md §16): each kRead issues four quarter-region
  /// reads through a depth-8 submission/completion ring instead of one
  /// awaited mread. The key keeps its historical name so saved schedules
  /// replay unchanged.
  bool batch = false;
  std::size_t imd_reply_cache_capacity = 64;
  std::uint64_t seed = 1;          // simulator/cluster seed

  // -- the two shrinkable event lists ---------------------------------------
  std::vector<WorkOp> ops;
  std::vector<fault::FaultEvent> faults;

  [[nodiscard]] std::size_t size() const { return ops.size() + faults.size(); }

  /// Text form, first line "# dodo fuzz schedule v1". parse() is its exact
  /// inverse; round-tripping is covered by test_fuzz.
  [[nodiscard]] std::string serialize() const;

  /// Parses serialize() output. On failure returns false and, if `error` is
  /// non-null, a one-line description naming the offending line.
  static bool parse(const std::string& text, Schedule& out,
                    std::string* error = nullptr);
};

}  // namespace dodo::fuzz
