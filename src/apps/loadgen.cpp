#include "apps/loadgen.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/wire.hpp"
#include "runtime/ring.hpp"

namespace dodo::apps {

LoadGenerator::LoadGenerator(cluster::Cluster& cluster, LoadgenConfig cfg)
    : cluster_(cluster),
      cfg_(cfg),
      rng_(Rng(cfg.seed).fork(0x6c6f6164)),  // "load"
      sessions_(cluster.sim()) {
  cfg_.clients = std::max(1, cfg_.clients);
  cfg_.slots_per_client = std::max(1, cfg_.slots_per_client);
  cfg_.offered_rate = std::max(1.0, cfg_.offered_rate);

  // Slot popularity: zipf(s) over slots_per_client ranks, as a cumulative
  // table for one binary search per arrival. All clients share the rank
  // distribution but their region keys differ by client id, so "hot" slots
  // still spread across every shard.
  zipf_cdf_.resize(static_cast<std::size_t>(cfg_.slots_per_client));
  double total = 0;
  for (std::size_t i = 0; i < zipf_cdf_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), cfg_.zipf_s);
    zipf_cdf_[i] = total;
  }
  for (double& v : zipf_cdf_) v /= total;

  // One shared dataset file: keys are (inode, offset, client), so every
  // client addressing the same offsets still owns distinct regions.
  fd_ = cluster_.create_dataset(
      "loadgen.dat",
      static_cast<Bytes64>(cfg_.slots_per_client) * cfg_.region);
  inode_ = cluster_.fs().inode_of(fd_);

  std::vector<net::Endpoint> cmds;
  cmds.reserve(static_cast<std::size_t>(cluster_.shard_count()));
  for (int s = 0; s < cluster_.shard_count(); ++s) {
    cmds.push_back(cluster_.cmd(s).endpoint());
  }

  clients_.reserve(static_cast<std::size_t>(cfg_.clients));
  for (int c = 0; c < cfg_.clients; ++c) {
    runtime::ClientParams p = cluster_.config().client;
    p.client_id = static_cast<std::uint32_t>(1000 + c);
    p.ctl_port = static_cast<net::Port>(20000 + c);
    // A thousand clients sharing one node cannot each sit out a multi-second
    // refraction: a single overloaded-shard failure would idle the whole
    // fleet. Keep it just long enough to damp retry storms.
    p.refraction = 50 * kMillisecond;
    clients_.push_back(std::make_unique<runtime::DodoClient>(
        cluster_.sim(), cluster_.network(), cluster_.app_node(), cmds,
        cluster_.fs(), p));
  }
}

LoadGenerator::~LoadGenerator() = default;

int LoadGenerator::pick_slot() {
  const double u = rng_.uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<int>(std::min(
      static_cast<std::size_t>(it - zipf_cdf_.begin()), zipf_cdf_.size() - 1));
}

sim::Co<void> LoadGenerator::session(int client, int slot) {
  runtime::DodoClient& cl = *clients_[static_cast<std::size_t>(client)];
  const Bytes64 offset = static_cast<Bytes64>(slot) * cfg_.region;
  const int shard = static_cast<int>(core::shard_of_key(
      core::RegionKey{inode_, offset, cl.client_id()},
      static_cast<std::uint32_t>(cluster_.shard_count())));
  auto& sh = report_->shards[static_cast<std::size_t>(shard)];
  ++report_->offered;
  ++sh.offered;
  auto& inflight = inflight_[static_cast<std::size_t>(shard)];
  sh.peak_inflight = std::max(sh.peak_inflight, ++inflight);

  sim::Simulator& sim = cluster_.sim();
  bool ok = false;
  const SimTime t_open = sim.now();
  const auto [rd, reused] = co_await cl.mopen_ex(cfg_.region, fd_, offset);
  if (rd >= 0) {
    report_->mopen_latency.observe(sim.now() - t_open);
    const SimTime t_read = sim.now();
    bool read_ok;
    if (cfg_.ring_depth > 0) {
      // Ring mode: split the read into ring_op-sized submissions, keep up
      // to ring_depth of them in flight, and reap the completions in bulk.
      runtime::DodoRing ring(sim, cl,
                             static_cast<std::size_t>(cfg_.ring_depth));
      const Bytes64 step = std::max<Bytes64>(1, cfg_.ring_op);
      std::uint64_t nops = 0;
      for (Bytes64 off = 0; off < cfg_.read_len; off += step, ++nops) {
        runtime::Sqe sqe;
        sqe.op = runtime::RingOp::kRead;
        sqe.rd = rd;
        sqe.offset = off;
        sqe.len = std::min(step, cfg_.read_len - off);
        sqe.user_data = nops;
        co_await ring.submit(sqe);
      }
      co_await ring.drain();
      read_ok = true;
      for (std::uint64_t i = 0; i < nops; ++i) {
        const auto cqe = ring.try_reap();
        if (!cqe.has_value() || cqe->n < 0) read_ok = false;
      }
    } else {
      const Bytes64 n = co_await cl.mread(rd, 0, nullptr, cfg_.read_len);
      read_ok = n >= 0;
    }
    if (read_ok) report_->mread_latency.observe(sim.now() - t_read);
    const int closed = co_await cl.mclose(rd);
    ok = read_ok && closed == 0;
  }
  if (ok) {
    ++report_->completed;
    ++sh.completed;
  } else {
    ++report_->failed;
  }
  --inflight;
  sessions_.done();
}

sim::Co<void> LoadGenerator::run(LoadgenReport* out) {
  report_ = out;
  report_->shards.assign(static_cast<std::size_t>(cluster_.shard_count()), {});
  inflight_.assign(static_cast<std::size_t>(cluster_.shard_count()), 0);
  for (auto& cl : clients_) cl->start();

  sim::Simulator& sim = cluster_.sim();
  const SimTime end = sim.now() + cfg_.duration;
  const double mean_gap = static_cast<double>(kSecond) / cfg_.offered_rate;
  while (true) {
    const auto gap = std::max<Duration>(
        1, static_cast<Duration>(rng_.exponential(mean_gap)));
    if (sim.now() + gap >= end) break;
    co_await sim.sleep(gap);
    const int client =
        static_cast<int>(rng_.below(static_cast<std::uint64_t>(cfg_.clients)));
    const int slot = pick_slot();
    sessions_.add();
    sim.spawn(session(client, slot));
  }
  // Open-loop ends at the dispatch horizon, but sessions already in flight
  // get to finish: completed/failed then partition offered exactly.
  co_await sessions_.wait();
  for (auto& cl : clients_) co_await cl->detach();
}

obs::MetricsSnapshot LoadgenReport::snapshot() const {
  obs::MetricsSnapshot out;
  out.set_counter("loadgen.sessions_offered", offered);
  out.set_counter("loadgen.sessions_completed", completed);
  out.set_counter("loadgen.sessions_failed", failed);
  out.set_histogram("loadgen.mopen_latency", mopen_latency);
  out.set_histogram("loadgen.mread_latency", mread_latency);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string p = "loadgen.shard" + std::to_string(s) + ".";
    out.set_counter(p + "sessions_offered", shards[s].offered);
    out.set_counter(p + "sessions_completed", shards[s].completed);
    out.set_gauge(p + "peak_inflight", shards[s].peak_inflight);
  }
  return out;
}

}  // namespace dodo::apps
