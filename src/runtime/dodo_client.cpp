#include "runtime/dodo_client.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace dodo::runtime {

using core::MsgKind;

namespace {

/// The slice of a fanned-out request that one fragment serves: region-
/// relative [lo, lo+want) against the fragment's replica set.
struct Piece {
  Bytes64 lo = 0;    // region-relative start of the slice
  Bytes64 base = 0;  // region-relative start of the fragment
  Bytes64 want = 0;
  std::size_t frag_index = 0;
  core::ReplicaSet set;
};

/// Splits the region-relative range [offset, offset+n) across the stripe's
/// fragments. Fragment i covers [i*frag_len, i*frag_len + frags[i].len()).
std::vector<Piece> overlap_pieces(const core::StripeMap& map, Bytes64 offset,
                                  Bytes64 n) {
  std::vector<Piece> out;
  for (std::size_t i = 0; i < map.frags.size(); ++i) {
    const Bytes64 base = map.frag_base(i);
    const Bytes64 lo = std::max(offset, base);
    const Bytes64 hi = std::min(offset + n, base + map.frags[i].len());
    if (hi <= lo) continue;
    out.push_back(Piece{lo, base, hi - lo, i, map.frags[i]});
  }
  return out;
}

bool same_loc(const core::RegionLoc& a, const core::RegionLoc& b) {
  return a.host == b.host && a.epoch == b.epoch &&
         a.imd_region == b.imd_region;
}

}  // namespace

DodoClient::DodoClient(sim::Simulator& sim, net::Network& net,
                       net::NodeId node, net::Endpoint cmd,
                       disk::SimFilesystem& fs, ClientParams params)
    : DodoClient(sim, net, node, std::vector<net::Endpoint>{cmd}, fs,
                 params) {}

DodoClient::DodoClient(sim::Simulator& sim, net::Network& net,
                       net::NodeId node, std::vector<net::Endpoint> cmds,
                       disk::SimFilesystem& fs, ClientParams params)
    : sim_(sim),
      net_(net),
      node_(node),
      cmds_(std::move(cmds)),
      fs_(fs),
      params_(params),
      rng_(sim.rng().fork(0x6c6462u)),  // "ldb"
      loops_(sim) {
  assert(!cmds_.empty());
  // Aggregate every bulk transfer this client runs into one counter set,
  // and record bulk spans under this client's recorder.
  params_.bulk.stats = &bulk_stats_;
  params_.bulk.spans = params_.spans;
}

DodoClient::~DodoClient() = default;

void DodoClient::start() {
  assert(!running_);
  running_ = true;
  ctl_sock_ = net_.open(node_, params_.ctl_port);
  loops_.add(1);
  sim_.spawn(ping_loop());
}

sim::Co<void> DodoClient::ping_loop() {
  for (;;) {
    net::Message msg = co_await ctl_sock_->recv();
    auto env = core::peek_envelope(msg);
    if (!env) continue;
    if (env->kind == MsgKind::kShutdownSentinel) break;
    if (env->kind == MsgKind::kPing) {
      ++metrics_.pings_answered;
      obs::ScopedSpan span(params_.spans, "client.ping", env->trace);
      // Apply the cmd's replica-set deltas, then answer with (a) acks for
      // every add-write-only delta — from now on writes fan out to the copy,
      // which is what the cmd's activation proof relies on — and (b) the
      // per-region read-hit deltas driving replica adaptation.
      struct Ack {
        core::RegionKey key;
        std::uint32_t frag = 0;
        core::RegionLoc loc;
      };
      std::vector<Ack> acks;
      net::Reader r = core::body_reader(msg);
      const std::uint32_t nups = r.u32();
      for (std::uint32_t i = 0; i < nups && r.ok(); ++i) {
        const std::uint8_t op = r.u8();
        const core::RegionKey key = core::get_key(r);
        const std::uint32_t frag = r.u32();
        const core::RegionLoc loc = core::get_loc(r);
        if (!r.ok()) break;
        apply_replica_update(op, key, frag, loc);
        if (op ==
            static_cast<std::uint8_t>(core::ReplicaUpdateOp::kAddWriteOnly)) {
          // Ack even when no descriptor matches (closed meanwhile): with no
          // descriptor there are no writes for the clone to miss, and the
          // ack stops the cmd from re-offering forever.
          acks.push_back(Ack{key, frag, loc});
        }
      }
      net::Buf rep = core::make_header(MsgKind::kPong, env->rid);
      net::Writer w(rep);
      w.u32(static_cast<std::uint32_t>(acks.size()));
      for (const Ack& a : acks) {
        core::put_key(w, a.key);
        w.u32(a.frag);
        core::put_loc(w, a.loc);
      }
      // Merge hit deltas across descriptors sharing a key, then reset them.
      // Only keys owned by the pinging shard are reported (and reset): each
      // shard's adaptation loop must see exactly its own regions' hits, and
      // hits for a sibling shard's keys must survive until that shard pings.
      // With one cmd every key trivially passes the filter.
      std::vector<std::pair<core::RegionKey, std::uint64_t>> stats;
      for (auto& [rd, entry] : regions_) {
        if (entry.hits == 0) continue;
        if (shard_endpoint(entry.key).node != msg.src.node) continue;
        bool merged = false;
        for (auto& [key, hits] : stats) {
          if (key == entry.key) {
            hits += entry.hits;
            merged = true;
            break;
          }
        }
        if (!merged) stats.emplace_back(entry.key, entry.hits);
        entry.hits = 0;
      }
      w.u32(static_cast<std::uint32_t>(stats.size()));
      for (const auto& [key, hits] : stats) {
        core::put_key(w, key);
        w.u64(hits);
      }
      ctl_sock_->send(msg.src, std::move(rep));
    }
  }
  loops_.done();
}

void DodoClient::apply_replica_update(std::uint8_t op,
                                      const core::RegionKey& key,
                                      std::uint32_t frag,
                                      const core::RegionLoc& loc) {
  using core::ReplicaUpdateOp;
  for (auto it = regions_.begin(); it != regions_.end();) {
    Entry& e = it->second;
    bool lost = false;
    if (e.key == key && frag < e.map.frags.size()) {
      auto& reps = e.map.frags[frag].replicas;
      auto in_reps = [&] {
        return std::find_if(reps.begin(), reps.end(), [&](const auto& c) {
                 return same_loc(c, loc);
               }) != reps.end();
      };
      auto erase_wo = [&] {
        std::erase_if(e.write_only, [&](const auto& wo) {
          return wo.first == frag && same_loc(wo.second, loc);
        });
      };
      switch (static_cast<ReplicaUpdateOp>(op)) {
        case ReplicaUpdateOp::kAddWriteOnly:
          if (!in_reps()) {
            erase_wo();  // re-offered delta: keep exactly one entry
            e.write_only.emplace_back(frag, loc);
          }
          ++metrics_.replica_updates_applied;
          break;
        case ReplicaUpdateOp::kActivate:
          erase_wo();
          if (!in_reps()) reps.push_back(loc);
          if (reps.size() >= 2) multi_copy_seen_ = true;
          ++metrics_.replica_updates_applied;
          break;
        case ReplicaUpdateOp::kDrop:
          erase_wo();
          std::erase_if(reps,
                        [&](const auto& c) { return same_loc(c, loc); });
          // The cmd never drops a fragment's last copy (shrink keeps the
          // primary), so an emptied set means state skew — drop the
          // descriptor rather than serve through a torn map.
          lost = reps.empty();
          ++metrics_.replica_updates_applied;
          break;
        default:
          break;
      }
    }
    if (lost) {
      ++metrics_.descriptors_dropped;
      it = regions_.erase(it);
    } else {
      ++it;
    }
  }
}

double DodoClient::host_score(net::NodeId host) const {
  auto it = host_scores_.find(host);
  if (it == host_scores_.end()) return 0.0;  // unsampled: optimistic
  // EWMA latency inflated by in-flight transfers: a host that is slow or
  // busy scores high and loses the power-of-two-choices coin toss.
  return it->second.ewma_latency *
         (1.0 + static_cast<double>(it->second.inflight));
}

void DodoClient::observe_latency(net::NodeId host, double sample) {
  auto& s = host_scores_[host];
  s.ewma_latency =
      s.ewma_latency == 0.0 ? sample : 0.8 * s.ewma_latency + 0.2 * sample;
}

sim::Co<void> DodoClient::halt() {
  if (!running_) co_return;
  net::Message sentinel;
  sentinel.header = core::make_header(MsgKind::kShutdownSentinel, 0);
  ctl_sock_->inject(std::move(sentinel));
  co_await loops_.wait();
  ctl_sock_.reset();
  running_ = false;
}

sim::Co<void> DodoClient::detach() {
  // Every shard tracks this client independently (it registered with each
  // shard it ever opened a region through), so the goodbye fans out to all.
  obs::ScopedSpan span(params_.spans, "client.detach");
  for (const net::Endpoint& cmd : cmds_) {
    const std::uint64_t rid = rids_.next();
    net::Buf h = core::make_header(MsgKind::kDetach, rid, span.ctx());
    net::Writer w(h);
    w.u32(params_.client_id);
    co_await core::rpc_call(net_, node_, cmd, std::move(h), rid,
                            params_.cmd_rpc);
  }
  co_await halt();
}

DodoClient::Entry* DodoClient::lookup_active(int rd) {
  auto it = regions_.find(rd);
  if (it == regions_.end() || !it->second.active) return nullptr;
  return &it->second;
}

void DodoClient::prune_host(net::NodeId node) {
  ++metrics_.nodes_dropped;
  obs::frecord(params_.flight, obs::FlightEventType::kHostPrune,
               static_cast<std::int64_t>(node));
  // §3.1 failure handling, softened by replication: losing a host only
  // loses that host's copies. A descriptor dies — erased, not deactivated,
  // since re-attach goes through a fresh mopen — only when one of its
  // fragments has no sibling copy left. The cmd's directory entry is
  // reclaimed separately: by epoch validation when the host was reclaimed,
  // by key reuse on the next mopen, or by the keep-alive sweep when this
  // client dies.
  for (auto it = regions_.begin(); it != regions_.end();) {
    bool lost = false;
    for (core::ReplicaSet& f : it->second.map.frags) {
      std::erase_if(f.replicas,
                    [&](const core::RegionLoc& c) { return c.host == node; });
      if (f.replicas.empty()) lost = true;
    }
    std::erase_if(it->second.write_only,
                  [&](const auto& wo) { return wo.second.host == node; });
    if (lost) {
      ++metrics_.descriptors_dropped;
      it = regions_.erase(it);
    } else {
      ++it;
    }
  }
  host_scores_.erase(node);
  DODO_DEBUG("libdodo", "pruned all copies on host %u", node);
}

void DodoClient::prune_copy(const core::RegionKey& key,
                            const core::RegionLoc& loc) {
  for (auto it = regions_.begin(); it != regions_.end();) {
    bool lost = false;
    if (it->second.key == key) {
      for (core::ReplicaSet& f : it->second.map.frags) {
        std::erase_if(f.replicas, [&](const core::RegionLoc& c) {
          return same_loc(c, loc);
        });
        if (f.replicas.empty()) lost = true;
      }
      std::erase_if(it->second.write_only, [&](const auto& wo) {
        return same_loc(wo.second, loc);
      });
    }
    if (lost) {
      ++metrics_.descriptors_dropped;
      it = regions_.erase(it);
    } else {
      ++it;
    }
  }
}

sim::Co<bool> DodoClient::invalidate_replica(core::RegionKey key,
                                             core::RegionLoc loc,
                                             obs::TraceContext ctx) {
  ++metrics_.invalidations_sent;
  const std::uint64_t rid = rids_.next();
  net::Buf h = core::make_header(MsgKind::kDropReplicaReq, rid, ctx);
  net::Writer w(h);
  core::put_key(w, key);
  core::put_loc(w, loc);
  auto rep = co_await core::rpc_call(net_, node_, shard_endpoint(key),
                                     std::move(h), rid, params_.cmd_rpc);
  co_return rep.has_value();
}

sim::Co<int> DodoClient::mopen(Bytes64 len, int fd, Bytes64 offset) {
  auto [rd, reused] = co_await mopen_ex(len, fd, offset);
  (void)reused;
  co_return rd;
}

sim::Co<std::pair<int, bool>> DodoClient::mopen_ex(Bytes64 len, int fd,
                                                   Bytes64 offset) {
  ++metrics_.mopens;
  // §3.2 argument validation.
  if (len < 1 || offset < 0) {
    dodo_errno() = kDodoEINVAL;
    co_return std::pair{-1, false};
  }
  if (!fs_.fd_valid(fd) || !fs_.fd_writable(fd)) {
    dodo_errno() = kDodoEINVAL;
    co_return std::pair{-1, false};
  }
  // Refraction period: after a failed allocation, don't even ask for a
  // while (§3.1).
  if (sim_.now() - last_alloc_fail_ < params_.refraction) {
    ++metrics_.refraction_skips;
    ++metrics_.mopen_failures;
    dodo_errno() = kDodoENOMEM;
    co_return std::pair{-1, false};
  }

  const core::RegionKey key{fs_.inode_of(fd), offset, params_.client_id};
  const std::uint64_t rid = rids_.next();
  obs::ScopedSpan span(params_.spans, "client.mopen");
  obs::ScopedSpan wait(params_.spans, "net.mopen", span.ctx());
  net::Buf h = core::make_header(MsgKind::kMopenReq, rid, wait.ctx());
  net::Writer w(h);
  core::put_key(w, key);
  w.i64(len);
  core::put_endpoint(w, net::Endpoint{node_, params_.ctl_port});
  auto rep =
      co_await core::rpc_call(net_, node_, shard_endpoint(key), std::move(h),
                              rid, params_.cmd_rpc);
  wait.end_now();
  bool ok = false;
  bool reused = false;
  core::StripeMap map;
  if (rep) {
    net::Reader r = core::body_reader(*rep);
    ok = r.u8() != 0;
    reused = r.u8() != 0;
    map = core::get_stripes(r);
    ok = ok && r.ok() && !map.frags.empty() && map.len == len;
  }
  if (!ok) {
    last_alloc_fail_ = sim_.now();
    ++metrics_.mopen_failures;
    dodo_errno() = kDodoENOMEM;
    co_return std::pair{-1, false};
  }
  for (const core::ReplicaSet& f : map.frags) {
    if (f.replicas.size() >= 2) multi_copy_seen_ = true;
  }
  const int rd = next_desc_++;
  regions_[rd] = Entry{key, fd, offset, len, std::move(map), true, {}, 0};
  co_return std::pair{rd, reused};
}

sim::Co<Bytes64> DodoClient::mread(int rd, Bytes64 offset, std::uint8_t* buf,
                                   Bytes64 len, obs::TraceContext parent) {
  const ReadResult r = co_await mread_ex(rd, offset, buf, len, parent);
  co_return r.n;
}

sim::Co<void> DodoClient::read_piece(
    core::ReplicaSet set, Bytes64 frag_off, Bytes64 want, std::uint8_t* dst,
    FragOutcome* out, sim::WaitGroup* wg, obs::TraceContext ctx) {
  // Replica selection: power-of-two-choices over host_score() — two random
  // distinct copies, read from the one whose host looks faster/less loaded.
  // The losers stay in line: a failed attempt fails over to the remaining
  // siblings (in score-agnostic order) before the caller touches disk.
  std::vector<core::RegionLoc> order = std::move(set.replicas);
  if (order.size() > 1) {
    const std::size_t a = static_cast<std::size_t>(rng_.below(order.size()));
    std::size_t b = static_cast<std::size_t>(rng_.below(order.size() - 1));
    if (b >= a) ++b;
    const std::size_t best =
        host_score(order[a].host) <= host_score(order[b].host) ? a : b;
    std::swap(order[0], order[best]);
  }

  for (std::size_t attempt = 0; attempt < order.size(); ++attempt) {
    if (attempt > 0) ++metrics_.replica_failovers;
    const core::RegionLoc frag = order[attempt];
    ++host_scores_[frag.host].inflight;
    const SimTime t0 = sim_.now();

    auto sock = net_.open_ephemeral(node_);
    const std::uint64_t rid = rids_.next();
    // The network-wait span covers request-on-the-wire through first reply;
    // the imd's handler span parents to it, so daemon service time nests
    // inside the wait in the merged timeline. Fan-out pieces show up as
    // sibling net.read spans under the one client.mread.
    obs::ScopedSpan wait(params_.spans, "net.read", ctx);
    net::Buf h = core::make_header(MsgKind::kReadReq, rid, wait.ctx());
    net::Writer w(h);
    w.u64(frag.imd_region);
    w.u64(frag.epoch);
    w.i64(frag_off);
    w.i64(want);
    sock->send(net::Endpoint{frag.host, core::kImdDataPort}, std::move(h));

    bool ok = false;
    bool filled = false;
    bool rejected = false;
    auto rep = co_await sock->recv_for(params_.data_timeout);
    wait.end_now();
    if (rep) {
      net::Reader r = core::body_reader(*rep);
      const Err code = static_cast<Err>(r.u8());
      const Bytes64 avail = r.i64();
      filled = r.u8() != 0;
      if (r.ok() && code == Err::kOk && avail == want) {
        auto got = co_await net::bulk_recv(*sock, rid, params_.bulk, ctx);
        if (got.status.is_ok() && got.size == want) {
          if (dst != nullptr && !got.data.empty()) {
            std::copy_n(got.data.begin(), static_cast<std::size_t>(want),
                        dst);
          }
          ok = true;
        }
      } else if (r.ok()) {
        out->err = code == Err::kOk ? Err::kNotFound : code;
        rejected = true;  // authoritative answer: this copy is gone
      }
    }
    // Re-find: a concurrent prune_host may have erased the score entry
    // (and its inflight count with it) across the awaits.
    if (auto it = host_scores_.find(frag.host); it != host_scores_.end()) {
      --it->second.inflight;
    }
    if (ok) {
      observe_latency(frag.host, static_cast<double>(sim_.now() - t0));
      out->ok = true;
      out->filled = filled;
      out->replica_hit = order.size() > 1;
      break;
    }
    // A reject came from a live, answering imd — the copy is dead, the host
    // is not (under incremental reclamation it still serves what it kept).
    // Silence indicts the whole host, §3.1 style.
    if (rejected) {
      out->failed_copies.push_back(frag);
    } else {
      out->failed_hosts.push_back(frag.host);
    }
  }
  wg->done();
}

sim::Co<DodoClient::ReadResult> DodoClient::mread_ex(int rd, Bytes64 offset,
                                                     std::uint8_t* buf,
                                                     Bytes64 len,
                                                     obs::TraceContext parent) {
  Entry* e = lookup_active(rd);
  if (e == nullptr) {
    // A real read attempt that degrades to disk: the caller will fall back.
    ++metrics_.mreads_total;
    ++metrics_.mreads_degraded;
    ++metrics_.disk_fallbacks;
    obs::frecord(params_.flight, obs::FlightEventType::kDiskFallback,
                 static_cast<std::int64_t>(rd), len);
    dodo_errno() = kDodoENOMEM;  // §3.2: region not currently active
    co_return ReadResult{};
  }
  if (offset < 0 || offset >= e->len || len < 0) {
    dodo_errno() = kDodoEINVAL;  // caller bug, not a fallback — uncounted
    co_return ReadResult{};
  }
  if (len == 0) {
    // Satisfied locally: no socket, no remote hit, no conservation entry.
    ReadResult zero;
    zero.n = 0;
    zero.filled = true;
    co_return zero;
  }
  // Copy everything out of the entry before the first suspension: `e`
  // points into regions_, and a concurrent coroutine's prune_host/mclose can
  // erase the entry across any co_await below.
  const int fd = e->fd;
  const Bytes64 file_base = e->file_offset;
  const Bytes64 n = std::min(len, e->len - offset);
  const core::RegionKey key = e->key;
  const core::StripeMap map = e->map;
  e = nullptr;

  ++metrics_.mreads_total;
  const SimTime t0 = sim_.now();
  obs::ScopedSpan span(params_.spans, "client.mread", parent);

  std::vector<Piece> pieces = overlap_pieces(map, offset, n);
  std::vector<FragOutcome> outcomes(pieces.size());
  sim::WaitGroup wg(sim_);
  wg.add(static_cast<int>(pieces.size()));
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece& p = pieces[i];
    std::uint8_t* dst = buf == nullptr ? nullptr : buf + (p.lo - offset);
    sim_.spawn(read_piece(p.set, p.lo - p.base, p.want, dst, &outcomes[i],
                          &wg, span.ctx()));
  }
  co_await wg.wait();

  bool all_ok = true;
  bool filled = true;
  std::vector<net::NodeId> failed_hosts;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (outcomes[i].ok) {
      filled = filled && outcomes[i].filled;
      ++metrics_.remote_reads;
      metrics_.remote_read_bytes += pieces[i].want;
      if (outcomes[i].replica_hit) ++metrics_.replica_hits;
    } else {
      all_ok = false;
    }
    // Every failed attempt gets pruned, whether or not the piece as a
    // whole recovered: silent hosts lose all their copies, while copies a
    // live imd explicitly rejected are dropped one by one.
    if (!outcomes[i].failed_hosts.empty() ||
        !outcomes[i].failed_copies.empty()) {
      ++metrics_.access_failures;
    }
    failed_hosts.insert(failed_hosts.end(), outcomes[i].failed_hosts.begin(),
                        outcomes[i].failed_hosts.end());
    for (const core::RegionLoc& c : outcomes[i].failed_copies) {
      prune_copy(key, c);
    }
  }
  std::sort(failed_hosts.begin(), failed_hosts.end());
  failed_hosts.erase(std::unique(failed_hosts.begin(), failed_hosts.end()),
                     failed_hosts.end());
  for (const net::NodeId h : failed_hosts) prune_host(h);

  // Per-fragment degradation: only the lost fragments' byte ranges come
  // from the backing file; disk is authoritative (clean-cache invariant).
  ReadResult res;
  bool disk_err = false;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (outcomes[i].ok) continue;
    const Piece& p = pieces[i];
    ++metrics_.disk_fallbacks;
    obs::frecord(params_.flight, obs::FlightEventType::kDiskFallback,
                 static_cast<std::int64_t>(rd), p.want);
    res.disk_ranges.emplace_back(p.lo - offset, p.want);
    obs::ScopedSpan dspan(params_.spans, "disk.read", span.ctx());
    std::uint8_t* dst = buf == nullptr ? nullptr : buf + (p.lo - offset);
    const Bytes64 got = co_await fs_.pread(fd, file_base + p.lo, p.want, dst);
    if (got != p.want) disk_err = true;
  }
  if (disk_err) {
    ++metrics_.mreads_degraded;
    dodo_errno() = kDodoEIO;
    co_return ReadResult{};
  }

  if (all_ok) {
    ++metrics_.remote_hits;
    mread_latency_.observe(sim_.now() - t0);
    // Adaptation signal: re-find the entry (any await above may have
    // dropped it) and count the hit for the next kPong report.
    if (auto it = regions_.find(rd); it != regions_.end()) {
      ++it->second.hits;
    }
  } else {
    ++metrics_.mreads_degraded;
  }
  res.n = n;
  res.filled = filled;
  co_return res;
}

sim::Co<void> DodoClient::write_fragment(core::RegionLoc frag,
                                         Bytes64 frag_off, Bytes64 want,
                                         const std::uint8_t* src,
                                         FragOutcome* out, sim::WaitGroup* wg,
                                         obs::TraceContext ctx) {
  auto sock = net_.open_ephemeral(node_);
  const std::uint64_t rid = rids_.next();
  obs::ScopedSpan wait(params_.spans, "net.write", ctx);
  net::Buf h = core::make_header(MsgKind::kWriteReq, rid, wait.ctx());
  net::Writer w(h);
  w.u64(frag.imd_region);
  w.u64(frag.epoch);
  w.i64(frag_off);
  w.i64(want);
  sock->send(net::Endpoint{frag.host, core::kImdDataPort}, std::move(h));

  auto go = co_await sock->recv_for(params_.data_timeout);
  wait.end_now();
  if (!go) {
    wg->done();
    co_return;
  }
  auto genv = core::peek_envelope(*go);
  if (!genv || genv->kind != MsgKind::kWriteGo) {
    // The imd refused (stale epoch / unknown region): a WriteRep with an
    // error code arrives instead of the go-ahead.
    out->err = Err::kNotFound;
    wg->done();
    co_return;
  }
  const Status st = co_await net::bulk_send(*sock, go->src, rid,
                                            net::BodyView{src, want},
                                            params_.bulk, ctx);
  if (!st.is_ok()) {
    out->err = st.code();
    wg->done();
    co_return;
  }
  obs::ScopedSpan wait_rep(params_.spans, "net.write_rep", ctx);
  auto rep = co_await sock->recv_for(params_.data_timeout);
  wait_rep.end_now();
  if (rep) {
    net::Reader r = core::body_reader(*rep);
    const Err code = static_cast<Err>(r.u8());
    if (r.ok() && code == Err::kOk) {
      out->ok = true;
    } else if (r.ok()) {
      out->err = code;
    }
  }
  wg->done();
}

sim::Co<Status> DodoClient::push_remote(int rd, Bytes64 offset,
                                        const std::uint8_t* buf, Bytes64 len,
                                        obs::TraceContext parent) {
  Entry* e = lookup_active(rd);
  if (e == nullptr) co_return Status(Err::kNoMem, "region not active");
  if (offset < 0 || offset >= e->len || len < 0) {
    co_return Status(Err::kInval, "bad offset/len");
  }
  if (len == 0) co_return Status::ok();  // nothing to move, no socket
  // Copy before the first suspension — see mread_ex.
  const Bytes64 n = std::min(len, e->len - offset);
  const core::RegionKey key = e->key;
  const core::StripeMap map = e->map;
  const auto write_only = e->write_only;
  e = nullptr;
  obs::ScopedSpan span(params_.spans, "client.push_remote", parent);

  // Write-through fan-out: every live replica of every overlapped fragment
  // gets the bytes, plus the write-only copies of pending clones (so an
  // activating clone misses nothing). One coroutine per copy.
  std::vector<Piece> pieces = overlap_pieces(map, offset, n);
  struct Target {
    std::size_t piece = 0;
    core::RegionLoc loc;
    bool live = false;  // serving replica (vs. write-only pending clone)
  };
  std::vector<Target> targets;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    for (const core::RegionLoc& c : pieces[i].set.replicas) {
      targets.push_back(Target{i, c, true});
    }
    for (const auto& [frag, c] : write_only) {
      if (frag == pieces[i].frag_index) targets.push_back(Target{i, c, false});
    }
  }
  std::vector<FragOutcome> outcomes(targets.size());
  sim::WaitGroup wg(sim_);
  wg.add(static_cast<int>(targets.size()));
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const Piece& p = pieces[targets[k].piece];
    const std::uint8_t* src =
        buf == nullptr ? nullptr : buf + (p.lo - offset);
    sim_.spawn(write_fragment(targets[k].loc, p.lo - p.base, p.want, src,
                              &outcomes[k], &wg, span.ctx()));
  }
  co_await wg.wait();

  // Join: a piece degrades iff NO live copy took the bytes, and the write
  // degrades if any piece did. Every copy that missed the bytes is stale,
  // whatever its siblings did.
  std::vector<bool> piece_has_live_ok(pieces.size(), false);
  Err first_err = Err::kOk;
  std::vector<core::RegionLoc> stale_copies;
  for (std::size_t k = 0; k < targets.size(); ++k) {
    if (outcomes[k].ok) {
      metrics_.remote_write_bytes += pieces[targets[k].piece].want;
      if (targets[k].live) piece_has_live_ok[targets[k].piece] = true;
    } else {
      ++metrics_.access_failures;
      if (first_err == Err::kOk) first_err = outcomes[k].err;
      stale_copies.push_back(targets[k].loc);
    }
  }
  bool degraded = false;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    degraded = degraded || !piece_has_live_ok[i];
  }

  // Invalidate-on-write: every copy that missed the bytes leaves the local
  // map AND the cmd directory before it can serve a stale read. An
  // unanswered invalidation is promoted to full degradation — the caller
  // drops the descriptor, and the copy dies at the cmd by epoch validation
  // or key reuse before any read can route to it through a fresh mopen of
  // this (per-client) key.
  for (const core::RegionLoc& c : stale_copies) {
    prune_copy(key, c);
    if (!co_await invalidate_replica(key, c, span.ctx())) degraded = true;
  }

  if (degraded) {
    co_return Status(first_err == Err::kOk ? Err::kTimeout : first_err,
                     "fragment write failed");
  }
  ++metrics_.remote_pushes;
  co_return Status::ok();
}

sim::Co<Bytes64> DodoClient::mwrite(int rd, Bytes64 offset,
                                    const std::uint8_t* buf, Bytes64 len,
                                    obs::TraceContext parent) {
  Entry* e = lookup_active(rd);
  if (e == nullptr) {
    dodo_errno() = kDodoENOMEM;
    co_return -1;
  }
  if (offset < 0 || offset >= e->len || len < 0) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  if (len == 0) co_return 0;  // zero-length: no disk write, no sockets
  ++metrics_.mwrites_total;
  const SimTime t0 = sim_.now();
  obs::ScopedSpan span(params_.spans, "client.mwrite", parent);
  const Bytes64 n = std::min(len, e->len - offset);

  // "Writes to remote memory are propagated to disk in parallel to being
  // sent to the remote host." Launch both and join.
  sim::WaitGroup wg(sim_);
  wg.add(2);
  Bytes64 disk_result = 0;
  Status remote_result;
  const int fd = e->fd;
  const Bytes64 file_off = e->file_offset + offset;

  sim_.spawn([](DodoClient& c, int f, Bytes64 off, const std::uint8_t* b,
                Bytes64 nn, Bytes64& out, sim::WaitGroup& g,
                obs::TraceContext ctx) -> sim::Co<void> {
    obs::ScopedSpan dspan(c.params_.spans, "disk.write", ctx);
    out = co_await c.fs_.pwrite(f, off, nn, b);
    g.done();
  }(*this, fd, file_off, buf, n, disk_result, wg, span.ctx()));
  sim_.spawn([](DodoClient& c, int rdesc, Bytes64 off, const std::uint8_t* b,
                Bytes64 nn, Status& out, sim::WaitGroup& g,
                obs::TraceContext ctx) -> sim::Co<void> {
    out = co_await c.push_remote(rdesc, off, b, nn, ctx);
    g.done();
  }(*this, rd, offset, buf, n, remote_result, wg, span.ctx()));
  co_await wg.wait();

  if (disk_result < 0) {
    // §3.2: pass through the backing write's errno.
    dodo_errno() = kDodoEIO;
    co_return -1;
  }
  if (!remote_result.is_ok()) {
    // Disk took the bytes, so the data is durable — failure degrades to
    // disk (§3.2), it does not fail the write. Drop the descriptor (the
    // remote copy is now stale for this range and must never serve a read)
    // and report success. push_remote's failure path usually already
    // dropped every descriptor on the lost host; this erase covers the
    // remaining refusal paths.
    ++metrics_.mwrite_remote_failures;
    if (regions_.erase(rd) != 0) ++metrics_.descriptors_dropped;
    co_return n;
  }
  ++metrics_.remote_writes;
  mwrite_latency_.observe(sim_.now() - t0);
  co_return n;
}

sim::Co<int> DodoClient::mclose(int rd) {
  auto it = regions_.find(rd);
  if (it == regions_.end()) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  // Deactivate now — no new access may route at the region — but keep the
  // entry until the cmd actually answers: erasing first would forget the
  // key on an RPC timeout, leaving the directory entry stuck until the
  // keep-alive sweep. A kept (inactive) descriptor lets the caller retry
  // the mclose with the same rd.
  it->second.active = false;
  const core::RegionKey key = it->second.key;

  const std::uint64_t rid = rids_.next();
  obs::ScopedSpan span(params_.spans, "client.mclose");
  obs::ScopedSpan wait(params_.spans, "net.mfree", span.ctx());
  net::Buf h = core::make_header(MsgKind::kMfreeReq, rid, wait.ctx());
  net::Writer w(h);
  core::put_key(w, key);
  auto rep = co_await core::rpc_call(net_, node_, shard_endpoint(key),
                                     std::move(h), rid, params_.cmd_rpc);
  wait.end_now();
  if (!rep) {
    dodo_errno() = kDodoEINVAL;  // "not able to contact the central manager"
    co_return -1;  // descriptor kept (inactive) so the free can be retried
  }
  // Any reply — success or already-reclaimed — resolves the key's fate;
  // only now is the local descriptor forgotten. Erase by key, not by `it`:
  // a concurrent prune_host may have invalidated the iterator across the
  // await.
  regions_.erase(rd);
  net::Reader r = core::body_reader(*rep);
  if (r.u8() == 0) {
    dodo_errno() = kDodoEINVAL;  // already reclaimed
    co_return -1;
  }
  co_return 0;
}

sim::Co<int> DodoClient::msync(int rd) {
  auto it = regions_.find(rd);
  if (it == regions_.end()) {
    dodo_errno() = kDodoEINVAL;
    co_return -1;
  }
  const Status st = co_await fs_.fsync(it->second.fd);
  if (!st.is_ok()) {
    dodo_errno() = kDodoEIO;
    co_return -1;
  }
  co_return 0;
}

obs::MetricsSnapshot DodoClient::metrics_snapshot() const {
  obs::MetricsSnapshot out;
  out.set_counter("client.mopens", metrics_.mopens);
  out.set_counter("client.mopen_failures", metrics_.mopen_failures);
  out.set_counter("client.refraction_skips", metrics_.refraction_skips);
  out.set_counter("client.remote_reads", metrics_.remote_reads);
  out.set_counter("client.remote_writes", metrics_.remote_writes);
  out.set_counter("client.remote_pushes", metrics_.remote_pushes);
  out.set_counter("client.remote_read_bytes",
                  static_cast<std::uint64_t>(metrics_.remote_read_bytes));
  out.set_counter("client.remote_write_bytes",
                  static_cast<std::uint64_t>(metrics_.remote_write_bytes));
  out.set_counter("client.access_failures", metrics_.access_failures);
  out.set_counter("client.nodes_dropped", metrics_.nodes_dropped);
  out.set_counter("client.descriptors_dropped",
                  metrics_.descriptors_dropped);
  out.set_counter("client.pings_answered", metrics_.pings_answered);
  out.set_counter("client.mreads_total", metrics_.mreads_total);
  out.set_counter("client.remote_hits", metrics_.remote_hits);
  out.set_counter("client.mreads_degraded", metrics_.mreads_degraded);
  out.set_counter("client.disk_fallbacks", metrics_.disk_fallbacks);
  out.set_counter("client.mwrites_total", metrics_.mwrites_total);
  out.set_counter("client.mwrite_remote_failures",
                  metrics_.mwrite_remote_failures);
  out.set_counter("client.replica_hits", metrics_.replica_hits);
  out.set_counter("client.replica_failovers", metrics_.replica_failovers);
  out.set_counter("client.invalidations_sent", metrics_.invalidations_sent);
  out.set_counter("client.replica_updates_applied",
                  metrics_.replica_updates_applied);
  // Ring keys are gated on a ring being attached, so a client without one
  // exports the pre-ring key set and its JSON stays byte-identical per seed
  // (the telemetry-off pin).
  if (ring_attached_) {
    out.set_counter("client.ring_submitted", metrics_.ring_submitted);
    out.set_counter("client.ring_completed", metrics_.ring_completed);
    out.set_counter("client.ring_full_rejects", metrics_.ring_full_rejects);
    out.set_gauge("client.ring_depth",
                  static_cast<std::int64_t>(metrics_.ring_peak_depth));
  }
  out.set_gauge("client.region_table_size",
                static_cast<std::int64_t>(regions_.size()));
  out.set_histogram("client.mread_latency", mread_latency_);
  out.set_histogram("client.mwrite_latency", mwrite_latency_);
  bulk_stats_.export_into(out, "client.bulk.");
  return out;
}

bool DodoClient::active(int rd) const {
  auto it = regions_.find(rd);
  return it != regions_.end() && it->second.active;
}

std::uint32_t DodoClient::replica_depth(int rd) const {
  auto it = regions_.find(rd);
  if (it == regions_.end() || !it->second.active) return 0;
  std::uint32_t depth = 0;
  bool first = true;
  for (const core::ReplicaSet& f : it->second.map.frags) {
    const auto n = static_cast<std::uint32_t>(f.replicas.size());
    if (first || n < depth) depth = n;
    first = false;
  }
  return first ? 0 : depth;
}

}  // namespace dodo::runtime
