#include "fuzz/generator.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace dodo::fuzz {

namespace {

// Per-category fault state machines: the generator walks sim time forward
// and only emits transitions that are legal from the current state, so a
// generated plan never, e.g., restarts a host that is running or overlaps
// two loss bursts (whose ends would fight over the restored base rate).
enum class HostState : std::uint8_t { kRecruited, kCrashed, kEvicted };

}  // namespace

Schedule generate_schedule(std::uint64_t seed, const GenParams& params) {
  Rng cfg_rng = Rng(seed).fork(0x636f6e66);   // "conf"
  Rng op_rng = Rng(seed).fork(0x6f707321);    // "ops!"
  Rng fault_rng = Rng(seed).fork(0x666c7473); // "flts"

  Schedule s;
  s.seed = seed;
  // Mostly single-host: every alloc/free then lands in one imd's reply
  // cache, which is what an eviction bug needs to matter.
  s.hosts = cfg_rng.below(10) < 7 ? 1 : 2;
  // A quarter of schedules instead stripe regions across 3-4 hosts,
  // exercising the fan-out data path and per-fragment failure handling.
  // Drawn from a forked stream so the cfg/op/fault draws of non-striped
  // schedules are unchanged by the stripe dimension.
  Rng stripe_rng = Rng(seed).fork(0x73747270);  // "strp"
  if (stripe_rng.below(100) < 25) {
    s.hosts = 3 + static_cast<int>(stripe_rng.below(2));
    s.stripe_width = 2 + static_cast<int>(stripe_rng.below(3));
  }
  // A forked replica stream mirrors the stripe one: ~25% of schedules place
  // two copies of every fragment on distinct hosts, exercising the write
  // fan-out, read failover, and the staleness oracle. Composes with
  // striping when both streams fire.
  Rng rep_rng = Rng(seed).fork(0x7265706c);  // "repl"
  if (rep_rng.below(100) < 25) {
    s.replica_count = 2;
    s.hosts = std::max(s.hosts, 3 + static_cast<int>(rep_rng.below(2)));
  }
  // ~25% of schedules shard the cmd directory 2-3 ways (again a fresh
  // stream, so unsharded schedules keep their exact pre-sharding draws).
  // Hosts are topped up so every shard owns at least one imd; shard-crash
  // faults are appended separately below from the same stream.
  Rng shard_rng = Rng(seed).fork(0x73687264);  // "shrd"
  const bool sharded = shard_rng.below(100) < 25;
  if (sharded) {
    s.shards = 2 + static_cast<int>(shard_rng.below(2));
    s.hosts = std::max(s.hosts, s.shards + 1);
  }
  // ~25% of schedules turn on lease-based harvesting (a fresh stream again,
  // so lease-off schedules keep their exact pre-lease draws). The pressure
  // ramps it drives are appended after the base fault machinery below;
  // crashes and evicts of lease-holding hosts come free from that machinery.
  Rng lease_rng = Rng(seed).fork(0x6c656173);  // "leas"
  s.lease = lease_rng.below(100) < 25;
  // ~25% of schedules issue kRead ops through a submission/completion ring
  // (a fresh stream again, so ring-off schedules keep their exact pre-ring
  // draws).
  Rng batch_rng = Rng(seed).fork(0x62746368);  // "btch"
  s.batch = batch_rng.below(100) < 25;
  s.region = 16_KiB << cfg_rng.below(2);
  s.slots = 4 + static_cast<int>(cfg_rng.below(5));
  s.pool = std::max<Bytes64>(2 * s.slots * s.region, 512_KiB);
  // Small on purpose: a handful of open/close cycles must be able to push a
  // cached-but-unconsumed reply across the eviction boundary.
  s.imd_reply_cache_capacity = 3 + static_cast<std::size_t>(cfg_rng.below(4));

  // -- workload -------------------------------------------------------------
  const std::size_t n_ops =
      params.min_ops +
      static_cast<std::size_t>(op_rng.below(params.max_ops - params.min_ops + 1));
  s.ops.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    WorkOp op;
    op.slot = static_cast<int>(op_rng.below(static_cast<std::uint64_t>(s.slots)));
    op.pattern = op_rng.next();
    // Weighted toward open/close churn (alloc/free RPC pressure), with
    // enough pushes/reads to keep the byte oracle armed.
    const std::uint64_t w = op_rng.below(100);
    if (w < 34) {
      op.kind = OpKind::kOpen;
    } else if (w < 44) {
      op.kind = OpKind::kPush;
    } else if (w < 56) {
      op.kind = OpKind::kRead;
    } else if (w < 63) {
      op.kind = OpKind::kWrite;
    } else if (w < 90) {
      op.kind = OpKind::kClose;
    } else if (w < 92) {
      op.kind = OpKind::kSync;
    } else {
      // ~8% sleeps averaging ~80ms: stretches a 40-140 op workload across
      // the fault horizon so bursts land mid-churn, while leaving op
      // clusters between sleeps dense enough to flood a small reply cache
      // within one retransmit backoff.
      op.kind = OpKind::kSleep;
      op.dur = op_rng.range(10 * kMillisecond, 150 * kMillisecond);
    }
    s.ops.push_back(op);
  }

  // -- faults ---------------------------------------------------------------
  std::vector<HostState> host(static_cast<std::size_t>(s.hosts),
                              HostState::kRecruited);
  SimTime loss_until = -1;  // end of the currently open loss burst
  SimTime cmd_down_until = -1;
  const std::size_t windows =
      params.min_fault_windows +
      static_cast<std::size_t>(fault_rng.below(
          params.max_fault_windows - params.min_fault_windows + 1));
  SimTime t = params.first_fault;
  for (std::size_t i = 0; i < windows && t < params.horizon; ++i) {
    t += fault_rng.range(30 * kMillisecond, 300 * kMillisecond);
    if (t >= params.horizon) break;
    // Short windows: it is the *boundaries* that bite. A reply lost in the
    // last moments of a burst leaves a retransmit pending while the healed
    // network lets the workload churn at full speed — exactly the race a
    // reply-cache eviction bug loses.
    const Duration dur =
        fault_rng.range(100 * kMillisecond, 500 * kMillisecond);
    const std::uint64_t w = fault_rng.below(100);
    const int h = static_cast<int>(
        fault_rng.below(static_cast<std::uint64_t>(s.hosts)));
    auto& hs = host[static_cast<std::size_t>(h)];
    if (w < 55) {
      // Loss bursts dominate: they are what turns every other interaction
      // into a retransmit exercise.
      if (t <= loss_until) continue;
      const double rate = fault_rng.uniform(0.15, params.max_loss_rate);
      s.faults.push_back({t, fault::FaultKind::kLossBurstBegin, -1, 0, 0, rate});
      s.faults.push_back({t + dur, fault::FaultKind::kLossBurstEnd, -1, 0, 0, 0});
      loss_until = t + dur;
    } else if (w < 63) {
      // Partition the app node from one harvested host.
      s.faults.push_back({t, fault::FaultKind::kPartitionBegin, -1, 1,
                          static_cast<net::NodeId>(h + 2), 0});
      s.faults.push_back({t + dur, fault::FaultKind::kPartitionEnd, -1, 1,
                          static_cast<net::NodeId>(h + 2), 0});
    } else if (w < 70) {
      if (hs != HostState::kRecruited) continue;
      s.faults.push_back({t, fault::FaultKind::kImdCrash, h, 0, 0, 0});
      s.faults.push_back({t + dur, fault::FaultKind::kImdRestart, h, 0, 0, 0});
      hs = HostState::kRecruited;  // restored within the window
    } else if (w < 82) {
      if (hs != HostState::kRecruited) continue;
      s.faults.push_back({t, fault::FaultKind::kHostEvict, h, 0, 0, 0});
      s.faults.push_back({t + dur, fault::FaultKind::kHostRecruit, h, 0, 0, 0});
    } else if (w < 92) {
      if (t <= cmd_down_until) continue;
      s.faults.push_back({t, fault::FaultKind::kCmdBlackoutBegin, -1, 0, 0, 0});
      s.faults.push_back({t + dur, fault::FaultKind::kCmdBlackoutEnd, -1, 0, 0, 0});
      cmd_down_until = t + dur;
    } else {
      s.faults.push_back({t, fault::FaultKind::kCmdRestart, -1, 0, 0, 0});
    }
  }
  // Loss-burst windows may overlap other categories but never each other;
  // window ends can land past `horizon`, which the runner's quiesce point
  // waits out. Sorting is the injector's job (stable, by time).

  // Sharded schedules usually also lose a cmd shard mid-run: the crash
  // lands anywhere in the fault horizon (mid-alloc, mid-pending-free-retry —
  // whatever the ops happen to be doing), and every crash is paired with a
  // restart before quiesce so the leak audit sees the partition freshly
  // re-registered rather than a zombie directory.
  // Lease schedules drive graded pressure ramps on top of the base faults:
  // rising pressure sheds the pool incrementally to a keep fraction (then
  // clears), and urgent pressure is the owner storming back — the paper's
  // whole-daemon eviction through the new signal path, paired with a recruit
  // that releases the hold before quiesce. Every hook is a no-op on a host
  // that happens to be evicted or crashed at fire time, so the ramps compose
  // with the window faults above without a legality dance.
  if (s.lease) {
    const std::size_t ramps = 1 + static_cast<std::size_t>(lease_rng.below(3));
    SimTime pt = params.first_fault;
    for (std::size_t i = 0; i < ramps && pt < params.horizon; ++i) {
      pt += lease_rng.range(50 * kMillisecond, 400 * kMillisecond);
      if (pt >= params.horizon) break;
      const int h = static_cast<int>(
          lease_rng.below(static_cast<std::uint64_t>(s.hosts)));
      const Duration dur =
          lease_rng.range(200 * kMillisecond, 600 * kMillisecond);
      if (lease_rng.below(100) < 70) {
        const double keep = lease_rng.uniform(0.2, 0.6);
        s.faults.push_back(
            {pt, fault::FaultKind::kHostPressure, h, 1, 0, keep});
        s.faults.push_back(
            {pt + dur, fault::FaultKind::kHostPressure, h, 0, 0, 0});
      } else {
        s.faults.push_back({pt, fault::FaultKind::kHostPressure, h, 2, 0, 0});
        s.faults.push_back(
            {pt + dur, fault::FaultKind::kHostRecruit, h, 0, 0, 0});
      }
    }
  }

  if (sharded && shard_rng.below(100) < 60) {
    const int target =
        static_cast<int>(shard_rng.below(static_cast<std::uint64_t>(s.shards)));
    const SimTime crash_at =
        params.first_fault +
        shard_rng.range(0, (params.horizon - params.first_fault) * 7 / 10);
    const Duration down =
        shard_rng.range(100 * kMillisecond, 600 * kMillisecond);
    s.faults.push_back(
        {crash_at, fault::FaultKind::kCmdShardCrash, target, 0, 0, 0});
    s.faults.push_back({crash_at + down, fault::FaultKind::kCmdShardRestart,
                        target, 0, 0, 0});
  }
  return s;
}

}  // namespace dodo::fuzz
