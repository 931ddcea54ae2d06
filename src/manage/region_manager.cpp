#include "manage/region_manager.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/log.hpp"

namespace dodo::manage {

RegionManager::RegionManager(sim::Simulator& sim, runtime::DodoClient& dodo,
                             disk::SimFilesystem& fs, ManageParams params)
    : sim_(sim), dodo_(dodo), fs_(fs), params_(params) {}

int RegionManager::copen(Bytes64 len, int fd, Bytes64 offset) {
  if (len < 1 || offset < 0 || !fs_.fd_valid(fd) || !fs_.fd_writable(fd)) {
    dodo_errno() = kDodoEINVAL;
    return -1;
  }
  const int cd = next_cd_++;
  Region r;
  r.len = len;
  r.fd = fd;
  r.file_offset = offset;
  regions_[cd] = std::move(r);
  return cd;
}

RegionManager::Region* RegionManager::lookup(int cd) {
  auto it = regions_.find(cd);
  return it == regions_.end() ? nullptr : &it->second;
}

bool RegionManager::resident(int cd) const {
  auto it = regions_.find(cd);
  return it != regions_.end() && it->second.resident;
}

bool RegionManager::has_remote(int cd) const {
  auto it = regions_.find(cd);
  return it != regions_.end() && it->second.rdesc >= 0 &&
         dodo_.active(it->second.rdesc);
}

int RegionManager::csetPolicy(Policy policy) {
  params_.policy = policy;
  return 0;
}

void RegionManager::stamp(int cd, Region& r) {
  const std::uint64_t now = ++access_clock_;
  if (r.resident) {
    // The new stamp is the largest ever issued, so the entry moves to the
    // back; reusing its node avoids an allocation per cache hit.
    auto node = by_recency_.extract({r.last_access, cd});
    assert(!node.empty());
    node.value().first = now;
    by_recency_.insert(by_recency_.end(), std::move(node));
  }
  r.last_access = now;
}

void RegionManager::forget(int cd, const Region& r) {
  if (r.resident) by_recency_.erase({r.last_access, cd});
  regions_.erase(cd);
}

int RegionManager::select_victim(int incoming_cd) const {
  // The incoming region is normally not resident; it is skipped for the
  // rare concurrent fault that admitted it while this reaper ran.
  switch (params_.policy) {
    case Policy::kFirstIn:
      // First-in never displaces a cached region: the incoming region
      // itself loses and bypasses the local cache.
      return -1;
    case Policy::kLru:
      for (const auto& [last_access, cd] : by_recency_) {
        if (cd != incoming_cd) return cd;
      }
      return -1;
    case Policy::kMru:
      for (auto it = by_recency_.rbegin(); it != by_recency_.rend(); ++it) {
        if (it->second != incoming_cd) return it->second;
      }
      return -1;
  }
  return -1;
}

int RegionManager::select_safe_victim(int incoming_cd) const {
  if (params_.policy == Policy::kFirstIn) return -1;  // never displaces
  // replica_depth >= 2 needs a fragment with two copies, which the client
  // flags the first time it maps one: until then no resident can qualify.
  if (!dodo_.multi_copy_seen()) return -1;
  for (const auto& [last_access, cd] : by_recency_) {
    if (cd == incoming_cd) continue;
    const Region& r = regions_.at(cd);
    if (r.dirty || !r.remote_valid) continue;
    if (r.rdesc >= 0 && dodo_.replica_depth(r.rdesc) >= 2) return cd;
  }
  return -1;
}

sim::Co<void> RegionManager::write_to_disk(int cd, Region& r,
                                           obs::TraceContext ctx) {
  (void)cd;
  ++metrics_.dirty_writebacks;
  const std::uint8_t* src = r.local.empty() ? nullptr : r.local.data();
  obs::ScopedSpan dspan(params_.spans, "disk.write", ctx);
  co_await fs_.pwrite(r.fd, r.file_offset, r.len, src);
  r.dirty = false;
}

sim::Co<bool> RegionManager::ensure_remote_desc(Region& r) {
  if (r.rdesc >= 0 && dodo_.active(r.rdesc)) co_return true;
  r.rdesc = -1;
  r.remote_valid = false;
  auto [rd, reused] = co_await dodo_.mopen_ex(r.len, r.fd, r.file_offset);
  if (rd < 0) co_return false;
  r.rdesc = rd;
  // A reused region still holds the data a previous run (or a previous
  // incarnation of this region) pushed; a fresh one holds nothing yet.
  r.remote_valid = reused;
  co_return true;
}

sim::Co<void> RegionManager::scrap_remote(Region& r) {
  if (r.rdesc >= 0) {
    co_await dodo_.mclose(r.rdesc);
    r.rdesc = -1;
  }
  r.remote_valid = false;
}

sim::Co<bool> RegionManager::clone_remote(int cd, Region& r,
                                          obs::TraceContext ctx) {
  (void)cd;
  // Refraction: after a failed clone, skip clone attempts for a while
  // (Figure 5's lastFailTime / refractionPeriod logic).
  if (sim_.now() - last_clone_fail_ < params_.clone_refraction) {
    ++metrics_.clone_refraction_skips;
    co_return false;
  }
  if (!co_await ensure_remote_desc(r)) {
    last_clone_fail_ = sim_.now();
    ++metrics_.clone_failures;
    co_return false;
  }
  if (r.remote_valid) co_return true;  // remote copy already current
  const std::uint8_t* src = r.local.empty() ? nullptr : r.local.data();
  const Status st = co_await dodo_.push_remote(r.rdesc, 0, src, r.len, ctx);
  if (!st.is_ok()) {
    last_clone_fail_ = sim_.now();
    ++metrics_.clone_failures;
    co_await scrap_remote(r);
    co_return false;
  }
  r.remote_valid = true;
  ++metrics_.clones;
  co_return true;
}

sim::Co<void> RegionManager::drop_local(int cd, Region& r) {
  (void)cd;
  if (!r.resident) co_return;
  if (r.dirty) co_await write_to_disk(cd, r);
  r.local.clear();
  r.local.shrink_to_fit();
  // Erased by the stamp the region holds now: a cread may have re-stamped
  // it while the write-back above was in flight.
  by_recency_.erase({r.last_access, cd});
  r.resident = false;
  resident_bytes_ -= r.len;
  ++metrics_.evictions;
}

sim::Co<bool> RegionManager::grim_reaper(int incoming_cd, Bytes64 need,
                                         obs::TraceContext parent) {
  if (need > params_.local_cache_bytes) co_return false;  // can never fit
  obs::ScopedSpan span(params_.spans, "manage.grim_reaper", parent);
  while (params_.local_cache_bytes - resident_bytes_ < need) {
    // Replica-aware pre-pass: a clean resident whose remote copy is current
    // on >= 2 live replicas drops for free, so take it ahead of the policy
    // victim (which may need a writeback or a clone to leave safely).
    int victim_cd = select_safe_victim(incoming_cd);
    const bool safe = victim_cd >= 0;
    if (!safe) victim_cd = select_victim(incoming_cd);
    if (victim_cd < 0) co_return false;  // first-in: incoming loses
    Region& victim = regions_.at(victim_cd);
    ++metrics_.reaper_victims;
    if (safe) ++metrics_.replica_safe_evictions;
    if (victim.dirty) co_await write_to_disk(victim_cd, victim, span.ctx());
    // best effort migration
    co_await clone_remote(victim_cd, victim, span.ctx());
    co_await drop_local(victim_cd, victim);
  }
  co_return true;
}

sim::Co<bool> RegionManager::fault_in(int cd, Region& r,
                                      obs::TraceContext parent) {
  if (r.resident) co_return true;
  obs::ScopedSpan span(params_.spans, "manage.fault_in", parent);
  // Attach to remote memory on a fault with no usable descriptor. If the
  // central manager still has this key cached (persistent datasets across
  // runs), the attach comes back "reused" and the fill below comes from
  // remote memory instead of disk. The runtime's refraction period makes
  // repeated attempts after an allocation failure cheap (no RPC).
  if (r.rdesc < 0 || !dodo_.active(r.rdesc)) {
    co_await ensure_remote_desc(r);
  }
  if (!co_await grim_reaper(cd, r.len, span.ctx())) co_return false;

  std::uint8_t* dst = nullptr;
  if (params_.materialize) {
    r.local.assign(static_cast<std::size_t>(r.len), 0);
    dst = r.local.data();
  }
  bool filled = false;
  if (r.rdesc >= 0 && dodo_.active(r.rdesc) && r.remote_valid) {
    const auto got = co_await dodo_.mread_ex(r.rdesc, 0, dst, r.len,
                                             span.ctx());
    if (got.n == r.len && got.filled) {
      filled = true;
      // A degraded read served some fragments' byte ranges from the
      // backing file (clean-cache: disk bytes equal remote bytes), so
      // split the accounting by source.
      Bytes64 from_disk = 0;
      for (const auto& [off, rlen] : got.disk_ranges) from_disk += rlen;
      if (from_disk == 0) {
        ++metrics_.remote_fills;
      } else {
        ++metrics_.mixed_fills;
        metrics_.bytes_from_disk += from_disk;
      }
      metrics_.bytes_from_remote += got.n - from_disk;
    } else if (got.n >= 0) {
      // The remote region exists but was never (fully) written — the
      // "reused" hint from mopen was about the allocation, not the data.
      r.remote_valid = false;
    }
    // On failure libdodo has dropped the node's descriptors; fall to disk.
  }
  if (!filled) {
    obs::ScopedSpan dspan(params_.spans, "disk.read", span.ctx());
    co_await fs_.pread(r.fd, r.file_offset, r.len, dst);
    ++metrics_.disk_fills;
    metrics_.bytes_from_disk += r.len;
  }
  r.resident = true;
  by_recency_.emplace(r.last_access, cd);
  r.dirty = false;
  r.admitted_at = ++access_clock_;
  resident_bytes_ += r.len;
  co_return true;
}

sim::Co<Bytes64> RegionManager::cread(int cd, Bytes64 offset,
                                      std::uint8_t* buf, Bytes64 len) {
  Region* r = lookup(cd);
  if (r == nullptr) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  if (offset < 0 || offset >= r->len || len < 0) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  const Bytes64 n = std::min(len, r->len - offset);
  obs::ScopedSpan span(params_.spans, "manage.cread");
  const auto pol = static_cast<std::size_t>(params_.policy);
  if (r->resident) ++policy_hits_[pol]; else ++policy_misses_[pol];
  stamp(cd, *r);

  if (!r->resident && !co_await fault_in(cd, *r, span.ctx())) {
    co_await serve_bypass_read(*r, offset, buf, n, span.ctx());
    co_return n;
  }

  // Serve from the local region cache.
  if (buf != nullptr && !r->local.empty()) {
    std::copy_n(r->local.begin() + static_cast<std::ptrdiff_t>(offset),
                static_cast<std::size_t>(n), buf);
  }
  co_await sim_.sleep(transfer_time(n, params_.copy_rate_Bps));
  ++metrics_.local_hits;
  metrics_.bytes_from_local += n;
  co_return n;
}

sim::Co<void> RegionManager::serve_bypass_read(Region& r, Bytes64 offset,
                                               std::uint8_t* buf, Bytes64 n,
                                               obs::TraceContext ctx) {
  // Serve without caching locally (the policy refused admission).
  if (r.rdesc >= 0 && dodo_.active(r.rdesc) && r.remote_valid) {
    const auto got = co_await dodo_.mread_ex(r.rdesc, offset, buf, n, ctx);
    if (got.n == n && got.filled) {
      Bytes64 from_disk = 0;
      for (const auto& [off, rlen] : got.disk_ranges) from_disk += rlen;
      ++metrics_.remote_passthrough;
      metrics_.bytes_from_remote += n - from_disk;
      metrics_.bytes_from_disk += from_disk;
      co_return;
    }
    if (got.n >= 0) r.remote_valid = false;  // allocated, never written
  }
  // Disk path. This is also where first-in pushes the overflow of the local
  // cache into the remote tier: read the whole region once and clone it, so
  // later scans hit remote memory (dmine's "entire dataset in remote memory
  // during the first run").
  const bool try_migrate =
      !r.remote_valid &&
      sim_.now() - last_clone_fail_ >= params_.clone_refraction;
  if (try_migrate && co_await ensure_remote_desc(r) && !r.remote_valid) {
    net::Buf whole;
    std::uint8_t* dst = nullptr;
    if (params_.materialize) {
      whole.assign(static_cast<std::size_t>(r.len), 0);
      dst = whole.data();
    }
    {
      obs::ScopedSpan dspan(params_.spans, "disk.read", ctx);
      co_await fs_.pread(r.fd, r.file_offset, r.len, dst);
    }
    ++metrics_.disk_passthrough;
    metrics_.bytes_from_disk += n;
    const Status st = co_await dodo_.push_remote(
        r.rdesc, 0, dst == nullptr ? nullptr : dst, r.len, ctx);
    if (st.is_ok()) {
      r.remote_valid = true;
      ++metrics_.clones;
    } else {
      last_clone_fail_ = sim_.now();
      ++metrics_.clone_failures;
      co_await scrap_remote(r);
    }
    if (buf != nullptr && dst != nullptr) {
      std::copy_n(whole.begin() + static_cast<std::ptrdiff_t>(offset),
                  static_cast<std::size_t>(n), buf);
    }
    co_return;
  }
  if (try_migrate) {
    last_clone_fail_ = sim_.now();
  }
  {
    obs::ScopedSpan dspan(params_.spans, "disk.read", ctx);
    co_await fs_.pread(r.fd, r.file_offset + offset, n, buf);
  }
  ++metrics_.disk_passthrough;
  metrics_.bytes_from_disk += n;
}

sim::Co<Bytes64> RegionManager::cwrite(int cd, Bytes64 offset,
                                       const std::uint8_t* buf, Bytes64 len) {
  Region* r = lookup(cd);
  if (r == nullptr) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  if (offset < 0 || offset >= r->len || len < 0) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  const Bytes64 n = std::min(len, r->len - offset);
  obs::ScopedSpan span(params_.spans, "manage.cwrite");
  const auto pol = static_cast<std::size_t>(params_.policy);
  if (r->resident) ++policy_hits_[pol]; else ++policy_misses_[pol];
  stamp(cd, *r);

  if (!r->resident && !co_await fault_in(cd, *r, span.ctx())) {
    // Bypass: write through to disk and, if a valid remote copy exists,
    // keep it coherent too (libdodo's parallel write-through).
    if (r->rdesc >= 0 && dodo_.active(r->rdesc) && r->remote_valid) {
      const Bytes64 got =
          co_await dodo_.mwrite(r->rdesc, offset, buf, n, span.ctx());
      if (got == n) co_return n;
      r->remote_valid = false;
    }
    obs::ScopedSpan dspan(params_.spans, "disk.write", span.ctx());
    co_await fs_.pwrite(r->fd, r->file_offset + offset, n, buf);
    co_return n;
  }

  if (buf != nullptr && !r->local.empty()) {
    std::copy_n(buf, static_cast<std::size_t>(n),
                r->local.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  co_await sim_.sleep(transfer_time(n, params_.copy_rate_Bps));
  r->dirty = true;
  r->remote_valid = false;  // local copy diverged from any remote clone
  co_return n;
}

sim::Co<bool> RegionManager::flush_to_remote(Region& r) {
  if (!co_await ensure_remote_desc(r)) co_return false;
  if (r.remote_valid) co_return true;
  net::Buf tmp;
  const std::uint8_t* src = nullptr;
  if (r.resident) {
    src = r.local.empty() ? nullptr : r.local.data();
  } else {
    std::uint8_t* dst = nullptr;
    if (params_.materialize) {
      tmp.assign(static_cast<std::size_t>(r.len), 0);
      dst = tmp.data();
    }
    co_await fs_.pread(r.fd, r.file_offset, r.len, dst);
    src = dst;
  }
  const Status st = co_await dodo_.push_remote(r.rdesc, 0, src, r.len);
  if (!st.is_ok()) {
    ++metrics_.clone_failures;
    co_await scrap_remote(r);
    co_return false;
  }
  r.remote_valid = true;
  ++metrics_.clones;
  co_return true;
}

sim::Co<int> RegionManager::csync(int cd) {
  Region* r = lookup(cd);
  if (r == nullptr) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  // "Blocks till the region has been written to remote memory and to disk."
  if (r->resident && r->dirty) {
    co_await write_to_disk(cd, *r);
  }
  co_await fs_.fsync(r->fd);
  co_await flush_to_remote(*r);
  co_return 0;
}

sim::Co<int> RegionManager::cclose(int cd) {
  Region* r = lookup(cd);
  if (r == nullptr) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  if (r->resident && r->dirty) {
    co_await write_to_disk(cd, *r);
  }
  if (r->resident) {
    resident_bytes_ -= r->len;
  }
  if (r->rdesc >= 0 && dodo_.active(r->rdesc)) {
    co_await dodo_.mclose(r->rdesc);
  }
  forget(cd, *r);
  co_return 0;
}

sim::Co<void> RegionManager::close_all(bool keep_remote) {
  std::vector<int> cds;
  cds.reserve(regions_.size());
  for (const auto& [cd, r] : regions_) cds.push_back(cd);
  std::sort(cds.begin(), cds.end());
  for (const int cd : cds) {
    if (keep_remote) {
      Region& r = regions_.at(cd);
      if (r.resident && r.dirty) co_await write_to_disk(cd, r);
      // Persistence contract: a remote region left behind must hold the
      // region's real content, otherwise the next run's mopen-reuse would
      // serve garbage. Flush stragglers; release what cannot be flushed.
      const bool remote_ok = co_await flush_to_remote(r);
      if (!remote_ok && r.rdesc >= 0 && dodo_.active(r.rdesc)) {
        co_await dodo_.mclose(r.rdesc);
      }
      if (r.resident) resident_bytes_ -= r.len;
      forget(cd, r);  // leave the remote copy cached for the next run
    } else {
      co_await cclose(cd);
    }
  }
}

obs::MetricsSnapshot RegionManager::metrics_snapshot() const {
  obs::MetricsSnapshot out;
  out.set_counter("manage.local_hits", metrics_.local_hits);
  out.set_counter("manage.remote_fills", metrics_.remote_fills);
  out.set_counter("manage.mixed_fills", metrics_.mixed_fills);
  out.set_counter("manage.disk_fills", metrics_.disk_fills);
  out.set_counter("manage.remote_passthrough", metrics_.remote_passthrough);
  out.set_counter("manage.disk_passthrough", metrics_.disk_passthrough);
  out.set_counter("manage.evictions", metrics_.evictions);
  out.set_counter("manage.reaper_victims", metrics_.reaper_victims);
  out.set_counter("manage.replica_safe_evictions",
                  metrics_.replica_safe_evictions);
  out.set_counter("manage.clones", metrics_.clones);
  out.set_counter("manage.clone_failures", metrics_.clone_failures);
  out.set_counter("manage.clone_refraction_skips",
                  metrics_.clone_refraction_skips);
  out.set_counter("manage.dirty_writebacks", metrics_.dirty_writebacks);
  out.set_counter("manage.bytes_from_local",
                  static_cast<std::uint64_t>(metrics_.bytes_from_local));
  out.set_counter("manage.bytes_from_remote",
                  static_cast<std::uint64_t>(metrics_.bytes_from_remote));
  out.set_counter("manage.bytes_from_disk",
                  static_cast<std::uint64_t>(metrics_.bytes_from_disk));
  static constexpr const char* kPolicyNames[] = {"lru", "mru", "first_in"};
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string base = std::string("manage.policy.") + kPolicyNames[i];
    out.set_counter(base + ".hits", policy_hits_[i]);
    out.set_counter(base + ".misses", policy_misses_[i]);
  }
  out.set_gauge("manage.resident_bytes", resident_bytes_);
  out.set_gauge("manage.regions", static_cast<std::int64_t>(regions_.size()));
  return out;
}

}  // namespace dodo::manage
