#include "fuzz/oracle.hpp"

#include <cstdio>

#include "core/imd.hpp"
#include "core/rmd.hpp"
#include "fault/fault.hpp"

namespace dodo::fuzz {

namespace {
std::string fmt(const char* oracle, const char* format, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, args...);
  return std::string(oracle) + ": " + buf;
}
}  // namespace

std::string EpochOracle::check(cluster::Cluster& cluster) {
  for (int h = 0; h < cluster.config().imd_hosts; ++h) {
    const net::NodeId node = cluster.host_node(h);
    const std::uint64_t cur = cluster.rmd(h).current_epoch();
    auto [it, fresh] = rmd_high_.try_emplace(node, cur);
    if (!fresh && cur < it->second) {
      return fmt("epoch-monotonicity",
                 "rmd on node %u went backwards: %llu -> %llu", node,
                 static_cast<unsigned long long>(it->second),
                 static_cast<unsigned long long>(cur));
    }
    it->second = cur;
  }
  // Each host registers with exactly one shard, so the union of the
  // per-shard IWD views still holds one row per node. A cold-restarted
  // shard re-learns its partition under bumped epochs, which stays monotone
  // against the high-water marks carried across the restart.
  for (int sh = 0; sh < cluster.shard_count(); ++sh) {
    for (const auto& [node, epoch] : cluster.cmd(sh).iwd_epochs()) {
      // Epoch 0 is the unregistered placeholder a host-status message
      // default-creates in a cold-restarted shard's empty directory before
      // the re-registration RPC lands; it carries no ordering claim.
      if (epoch == 0) continue;
      auto [it, fresh] = cmd_view_high_.try_emplace(node, epoch);
      if (!fresh && epoch < it->second) {
        return fmt("epoch-monotonicity",
                   "cmd IWD view of node %u went backwards: %llu -> %llu",
                   node, static_cast<unsigned long long>(it->second),
                   static_cast<unsigned long long>(epoch));
      }
      it->second = epoch;
      auto rmd_it = rmd_high_.find(node);
      if (rmd_it != rmd_high_.end() && epoch > rmd_it->second) {
        return fmt("epoch-monotonicity",
                   "cmd IWD view of node %u (%llu) ahead of its rmd (%llu)",
                   node, static_cast<unsigned long long>(epoch),
                   static_cast<unsigned long long>(rmd_it->second));
      }
    }
  }
  return "";
}

std::string check_reply_cache_bounds(cluster::Cluster& cluster) {
  const std::size_t cmd_cap = cluster.config().cmd.reply_cache_capacity;
  for (int sh = 0; sh < cluster.shard_count(); ++sh) {
    if (cluster.cmd(sh).reply_cache_size() > cmd_cap) {
      return fmt("reply-cache-bound",
                 "cmd shard %d cache holds %zu > capacity %zu", sh,
                 cluster.cmd(sh).reply_cache_size(), cmd_cap);
    }
  }
  for (int h = 0; h < cluster.config().imd_hosts; ++h) {
    core::IdleMemoryDaemon* imd = cluster.rmd(h).imd();
    if (imd == nullptr) continue;
    if (imd->reply_cache_size() > imd->params().reply_cache_capacity) {
      return fmt("reply-cache-bound",
                 "imd on host %d holds %zu > capacity %zu", h,
                 imd->reply_cache_size(), imd->params().reply_cache_capacity);
    }
  }
  return "";
}

std::string check_descriptor_bound(cluster::Cluster& cluster,
                                   std::size_t max_slots) {
  // Every workload op addresses one of `max_slots` keys and closes before
  // reopening, so drop_node reaping must keep the table within the slot
  // count — unbounded growth was the PR-1 mark-inactive-forever bug.
  const std::size_t n = cluster.dodo()->region_table_size();
  if (n > max_slots) {
    return fmt("descriptor-bound", "client holds %zu descriptors > %zu slots",
               n, max_slots);
  }
  return "";
}

std::string check_conservation(cluster::Cluster& cluster) {
  const runtime::ClientMetrics& m = cluster.dodo()->metrics();
  if (m.mreads_total != m.remote_hits + m.mreads_degraded) {
    return fmt("metric-conservation",
               "mreads %llu != remote hits %llu + degraded %llu",
               static_cast<unsigned long long>(m.mreads_total),
               static_cast<unsigned long long>(m.remote_hits),
               static_cast<unsigned long long>(m.mreads_degraded));
  }
  if (m.mreads_degraded > m.disk_fallbacks) {
    // disk_fallbacks is fragment-granular: every degraded mread took at
    // least one per-fragment disk tick, possibly several under striping.
    return fmt("metric-conservation",
               "degraded mreads %llu exceed fragment disk fallbacks %llu",
               static_cast<unsigned long long>(m.mreads_degraded),
               static_cast<unsigned long long>(m.disk_fallbacks));
  }
  // Ring conservation holds at quiesce: every submitted op completed (a
  // drained ring holds nothing in flight).
  if (m.ring_submitted != m.ring_completed) {
    return fmt("metric-conservation",
               "ring submitted %llu != completed %llu",
               static_cast<unsigned long long>(m.ring_submitted),
               static_cast<unsigned long long>(m.ring_completed));
  }
  for (int h = 0; h < cluster.config().imd_hosts; ++h) {
    core::IdleMemoryDaemon* imd = cluster.rmd(h).imd();
    if (imd == nullptr) continue;
    std::int64_t sum = 0;
    for (const auto& [id, len] : imd->region_list()) sum += len;
    if (sum != imd->pool_used_bytes()) {
      return fmt("metric-conservation",
                 "imd on host %d: pool gauge %lld B but regions sum %lld B", h,
                 static_cast<long long>(imd->pool_used_bytes()),
                 static_cast<long long>(sum));
    }
  }
  return "";
}

std::string check_lease_no_resurrection(cluster::Cluster& cluster) {
  if (!cluster.config().imd.lease_epochs) return "";
  for (int h = 0; h < cluster.config().imd_hosts; ++h) {
    core::IdleMemoryDaemon* imd = cluster.rmd(h).imd();
    if (imd == nullptr || !imd->running()) continue;
    for (const auto& [id, len] : imd->region_list()) {
      if (imd->lease_fenced(id)) {
        return fmt("lease-resurrection",
                   "imd on host %d holds region %llu live inside its fence "
                   "(epoch %llu)",
                   h, static_cast<unsigned long long>(id),
                   static_cast<unsigned long long>(imd->epoch()));
      }
    }
  }
  return "";
}

std::string check_lease_conservation(cluster::Cluster& cluster) {
  if (!cluster.config().imd.lease_epochs) return "";
  std::string violation = check_lease_no_resurrection(cluster);
  if (!violation.empty()) return violation;
  // No directory shard may still map a region its imd has fenced under the
  // current incarnation: the renewal reject must have pruned it by quiesce,
  // or reads would route at reclaimed memory for the rest of the epoch.
  // (Entries under an older epoch are the ordinary crash/evict stale path,
  // scrubbed by validate_region; the lease fence only governs its epoch.)
  for (int h = 0; h < cluster.config().imd_hosts; ++h) {
    core::IdleMemoryDaemon* imd = cluster.rmd(h).imd();
    if (imd == nullptr || !imd->running()) continue;
    const net::NodeId node = imd->node();
    const std::uint64_t epoch = imd->epoch();
    for (int sh = 0; sh < cluster.shard_count(); ++sh) {
      for (const auto& [key, loc] : cluster.cmd(sh).rd_snapshot()) {
        if (loc.host != node || loc.epoch != epoch) continue;
        if (imd->lease_fenced(loc.imd_region)) {
          return fmt("lease-conservation",
                     "shard %d still maps fenced region %llu on node %u "
                     "epoch %llu",
                     sh, static_cast<unsigned long long>(loc.imd_region),
                     node, static_cast<unsigned long long>(epoch));
        }
      }
    }
  }
  return "";
}

std::string check_span_tree(cluster::Cluster& cluster) {
  const std::vector<obs::MergedSpan> all = cluster.merged_spans();
  std::map<std::uint64_t, const obs::MergedSpan*> by_id;
  std::uint64_t prev_id = 0;
  for (const obs::MergedSpan& m : all) {
    const obs::SpanRecord& s = m.span;
    if (s.id <= prev_id) {
      return fmt("span-tree", "span ids not strictly increasing at %llu",
                 static_cast<unsigned long long>(s.id));
    }
    prev_id = s.id;
    if (s.end < s.start) {
      return fmt("span-tree", "span %llu (%s) ends before it starts",
                 static_cast<unsigned long long>(s.id), s.name.c_str());
    }
    by_id[s.id] = &m;
  }
  for (const obs::MergedSpan& m : all) {
    const obs::SpanRecord& s = m.span;
    if (s.parent == 0) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      // The parent may have been dropped at recorder capacity; only a
      // parent id that was never allocated is a propagation bug, and the
      // recorder already rejects those (counted, not recorded). A recorded
      // dangling edge therefore always points at a real defect unless
      // spans were dropped.
      if (cluster.traces() != nullptr && cluster.traces()->dropped() > 0) {
        continue;
      }
      return fmt("span-tree", "span %llu (%s) has unknown parent %llu",
                 static_cast<unsigned long long>(s.id), s.name.c_str(),
                 static_cast<unsigned long long>(s.parent));
    }
    const obs::SpanRecord& p = it->second->span;
    if (s.trace != p.trace) {
      return fmt("span-tree",
                 "span %llu trace %llu != parent %llu trace %llu",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.trace),
                 static_cast<unsigned long long>(p.id),
                 static_cast<unsigned long long>(p.trace));
    }
    if (s.start < p.start) {
      return fmt("span-tree",
                 "span %llu (%s) starts %lld before parent %llu start %lld",
                 static_cast<unsigned long long>(s.id), s.name.c_str(),
                 static_cast<long long>(s.start),
                 static_cast<unsigned long long>(p.id),
                 static_cast<long long>(p.start));
    }
    // A child on another track got there over the wire: the server side
    // legitimately drains past the client span that caused it (final ACKs
    // are still in flight when the client returns, and a client-side
    // timeout cuts the parent short). Same-track children must nest.
    const bool cross_track = it->second->host != m.host ||
                             it->second->daemon != m.daemon;
    if (!cross_track && s.end > p.end) {
      return fmt("span-tree",
                 "span %llu (%s) ends %lld after parent %llu end %lld",
                 static_cast<unsigned long long>(s.id), s.name.c_str(),
                 static_cast<long long>(s.end),
                 static_cast<unsigned long long>(p.id),
                 static_cast<long long>(p.end));
    }
  }
  return "";
}

std::string check_no_leaks(cluster::Cluster& cluster) {
  std::string report = fault::leak_report(cluster);
  if (report.empty()) return "";
  if (report.back() == '\n') report.pop_back();
  return "region-leak: " + report;
}

}  // namespace dodo::fuzz
