// Observability layer tests: metric primitive semantics, histogram bucket
// boundaries, snapshot merge/prefix algebra, JSON round-trips with a strict
// parser, span recording + TSV round-trips, deterministic same-seed exports
// from a full cluster run, and the kStats scrape path under load.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/block_io.hpp"
#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "obs/critical_path.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_merge.hpp"
#include "sim/simulator.hpp"

namespace dodo {
namespace {

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(Counter, MonotonicIncrements) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndSignedAdd) {
  obs::Gauge g;
  g.set(100);
  g.add(-150);
  EXPECT_EQ(g.value(), -50);
  g.add(50);
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketBoundariesAreInclusive) {
  obs::LatencyHistogram h({10, 100, 1000});
  ASSERT_EQ(h.counts().size(), 4u);  // 3 bounds + overflow
  h.observe(10);    // exactly at bound 0 -> bucket 0 (inclusive)
  h.observe(11);    // just past -> bucket 1
  h.observe(100);   // at bound 1 -> bucket 1
  h.observe(1000);  // at last bound -> bucket 2
  h.observe(1001);  // past every bound -> overflow
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10 + 11 + 100 + 1000 + 1001);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 1001);
}

TEST(Histogram, EmptyReportsZeroMinMax) {
  obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, DefaultBoundsCoverSimLatencies) {
  obs::LatencyHistogram h;
  h.observe(1_us);   // fastest bound exactly
  h.observe(10_s);   // slowest bound exactly
  h.observe(11_s);   // overflow
  EXPECT_EQ(h.counts().front(), 1u);
  EXPECT_EQ(h.counts().back(), 1u);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, DefaultBoundsPinnedToSharedConstant) {
  // kLatencyBucketBounds is the one source of truth for every latency
  // histogram in the repo: the decade ladder from 1us to 10s. Exported
  // JSON and the telemetry quantile estimates both depend on these exact
  // values, so a change here is a format change — update DESIGN.md §9.
  const std::vector<Duration> expect = {1_us, 10_us, 100_us, 1_ms,
                                        10_ms, 100_ms, 1_s,   10_s};
  ASSERT_EQ(obs::kLatencyBucketCount, expect.size());
  EXPECT_EQ(obs::LatencyHistogram::default_bounds(), expect);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(obs::kLatencyBucketBounds[i], expect[i]) << "bound " << i;
  }
  EXPECT_EQ(obs::LatencyHistogram().counts().size(), expect.size() + 1);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

obs::MetricsSnapshot sample_snapshot() {
  obs::MetricsSnapshot s;
  s.set_counter("reads", 7);
  s.set_gauge("pool", -3);
  obs::LatencyHistogram h;
  h.observe(5_us);
  h.observe(2_ms);
  s.set_histogram("lat", h);
  return s;
}

TEST(Snapshot, MergeAddsCountersGaugesAndBuckets) {
  obs::MetricsSnapshot a = sample_snapshot();
  obs::MetricsSnapshot b = sample_snapshot();
  a.merge(b);
  EXPECT_EQ(a.counter_value("reads"), 14u);
  EXPECT_EQ(a.gauge_value("pool"), -6);
  const obs::MetricValue* lat = a.find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 4u);
  EXPECT_EQ(lat->sum, 2 * (5_us + 2_ms));
  EXPECT_EQ(lat->min, 5_us);
  EXPECT_EQ(lat->max, 2_ms);
}

TEST(Snapshot, MergeIntoEmptyCopiesShape) {
  obs::MetricsSnapshot a;
  a.merge(sample_snapshot());
  EXPECT_EQ(a, sample_snapshot());
}

TEST(Snapshot, PrefixedNamespacesEveryName) {
  obs::MetricsSnapshot p = sample_snapshot().prefixed("host3.");
  EXPECT_EQ(p.counter_value("host3.reads"), 7u);
  EXPECT_EQ(p.counter_value("reads"), 0u);
  EXPECT_EQ(p.size(), sample_snapshot().size());
}

TEST(Snapshot, LookupOfAbsentNameIsZero) {
  obs::MetricsSnapshot s;
  EXPECT_EQ(s.counter_value("nope"), 0u);
  EXPECT_EQ(s.gauge_value("nope"), 0);
  EXPECT_EQ(s.find("nope"), nullptr);
}

TEST(Snapshot, JsonRoundTripIsExact) {
  const obs::MetricsSnapshot s = sample_snapshot();
  obs::MetricsSnapshot back;
  std::string err;
  ASSERT_TRUE(obs::MetricsSnapshot::from_json(s.to_json(), back, &err)) << err;
  EXPECT_EQ(back, s);
  // And the re-export is byte-identical, not merely semantically equal.
  EXPECT_EQ(back.to_json(), s.to_json());
}

TEST(Snapshot, JsonParserRejectsGarbage) {
  obs::MetricsSnapshot out;
  std::string err;
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("", out, &err));
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("{", out, &err));
  EXPECT_FALSE(obs::MetricsSnapshot::from_json("[1,2]", out, &err));
  EXPECT_FALSE(obs::MetricsSnapshot::from_json(
      R"({"x":{"type":"sundial","value":1}})", out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Snapshot, WithoutZerosDropsOnlyZeroValuedEntries) {
  obs::MetricsSnapshot s = sample_snapshot();
  s.set_counter("idle", 0);
  s.set_gauge("empty", 0);
  s.set_histogram("quiet", obs::LatencyHistogram{});
  const obs::MetricsSnapshot trimmed = s.without_zeros();
  EXPECT_EQ(trimmed.find("idle"), nullptr);
  EXPECT_EQ(trimmed.find("empty"), nullptr);
  EXPECT_EQ(trimmed.find("quiet"), nullptr);
  // Everything nonzero survives untouched — including negative gauges.
  EXPECT_EQ(trimmed.counter_value("reads"), 7u);
  EXPECT_EQ(trimmed.gauge_value("pool"), -3);
  ASSERT_NE(trimmed.find("lat"), nullptr);
  EXPECT_EQ(trimmed.size(), sample_snapshot().size());
  // Never applied by default: the plain export still carries the zeros.
  EXPECT_NE(s.to_json(), trimmed.to_json());
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

TEST(Spans, NestedScopedSpansRecordTreeAndTimes) {
  sim::Simulator sim(1);
  obs::SpanRecorder rec(sim);
  sim.spawn([](sim::Simulator& s, obs::SpanRecorder& r) -> sim::Co<void> {
    obs::ScopedSpan outer(&r, "outer");
    co_await s.sleep(5_ms);
    {
      obs::ScopedSpan inner(&r, "inner", outer.ctx());
      co_await s.sleep(2_ms);
    }
    co_await s.sleep(1_ms);
  }(sim, rec));
  sim.run();
  ASSERT_EQ(rec.spans().size(), 2u);
  const obs::SpanRecord& outer = rec.spans()[0];
  const obs::SpanRecord& inner = rec.spans()[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.trace, outer.id);  // a root starts its own trace
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.trace, outer.id);
  EXPECT_EQ(inner.start, 5_ms);
  EXPECT_EQ(inner.end, 7_ms);
  EXPECT_EQ(outer.end, 8_ms);
}

TEST(Spans, NullRecorderIsANoOp) {
  obs::ScopedSpan s(nullptr, "ghost");
  EXPECT_EQ(s.id(), 0u);
}

TEST(Spans, CapCountsDropsInsteadOfGrowing) {
  sim::Simulator sim(1);
  obs::SpanRecorder rec(sim, /*max_spans=*/2);
  EXPECT_NE(rec.begin("a"), 0u);
  EXPECT_NE(rec.begin("b"), 0u);
  EXPECT_EQ(rec.begin("c"), 0u);
  EXPECT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(Spans, TsvRoundTripAndStrictParser) {
  sim::Simulator sim(1);
  obs::SpanRecorder rec(sim);
  const std::uint64_t a = rec.begin("alpha");
  rec.begin("beta\twith\ttabs", {a, a});  // flattened, not rejected
  rec.end(a);
  rec.close_open();
  std::vector<obs::SpanRecord> back;
  std::string err;
  ASSERT_TRUE(obs::SpanRecorder::from_tsv(rec.to_tsv(), back, &err)) << err;
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], rec.spans()[0]);
  EXPECT_EQ(back[1].name, "beta with tabs");
  EXPECT_EQ(back[1].trace, a);

  EXPECT_FALSE(obs::SpanRecorder::from_tsv("", back, &err));
  EXPECT_FALSE(obs::SpanRecorder::from_tsv("# wrong header\n", back, &err));
  EXPECT_FALSE(obs::SpanRecorder::from_tsv(
      "# dodo spans v2 2\n1\t0\t1\t0\t1\tonly-one\n", back, &err));
  EXPECT_FALSE(obs::SpanRecorder::from_tsv(
      "# dodo spans v2 1\n1\t0\t1\tx\t1\tbad-start\n", back, &err));
}

TEST(Spans, OrphanParentContextIsRejectedAndCounted) {
  sim::Simulator sim(1);
  obs::SpanRecorder rec(sim);
  // A parent id that was never allocated must not produce a dangling edge:
  // the context is discarded and the span becomes a root.
  const std::uint64_t id = rec.begin("suspicious", {999, 998});
  ASSERT_NE(id, 0u);
  EXPECT_EQ(rec.orphans_rejected(), 1u);
  EXPECT_EQ(rec.spans()[0].parent, 0u);
  EXPECT_EQ(rec.spans()[0].trace, id);
}

TEST(Spans, CloseOpenStampsQuiesceTime) {
  sim::Simulator sim(1);
  obs::SpanRecorder rec(sim);
  const std::uint64_t a = rec.begin("left-open");
  sim.spawn([](sim::Simulator& s) -> sim::Co<void> {
    co_await s.sleep(3_ms);
  }(sim));
  sim.run();
  EXPECT_EQ(rec.open_count(), 1u);
  rec.close_open();
  EXPECT_EQ(rec.open_count(), 0u);
  EXPECT_EQ(rec.spans()[0].id, a);
  EXPECT_EQ(rec.spans()[0].end, 3_ms);  // no end=-1 rows after quiesce
}

// ---------------------------------------------------------------------------
// Cluster-level: determinism and the kStats scrape path
// ---------------------------------------------------------------------------

cluster::ClusterConfig small_config(std::uint64_t seed) {
  cluster::ClusterConfig cfg;
  cfg.imd_hosts = 3;
  cfg.imd_pool = 4_MiB;
  cfg.local_cache = 256_KiB;
  cfg.page_cache_dodo = 128_KiB;
  cfg.seed = seed;
  return cfg;
}

constexpr Bytes64 kData = 1_MiB;
constexpr Bytes64 kBlk = 32_KiB;

sim::Co<void> scan(cluster::Cluster&, apps::BlockIo& io, int sweeps) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(kBlk));
  for (int s = 0; s < sweeps; ++s) {
    for (Bytes64 off = 0; off < kData; off += kBlk) {
      co_await io.read(off, buf.data(), kBlk);
    }
  }
}

std::string run_and_export(std::uint64_t seed) {
  cluster::Cluster c(small_config(seed));
  const int fd = c.create_dataset("data", kData);
  apps::DodoBlockIo io(*c.manager(), fd, kData, kBlk);
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await scan(cl, io, 3);
    co_await io.finish(false);
  });
  return c.metrics_snapshot().to_json();
}

TEST(ClusterMetrics, SameSeedExportsAreByteIdentical) {
  const std::string a = run_and_export(7);
  const std::string b = run_and_export(7);
  EXPECT_EQ(a, b);
  // A different seed still produces the same metric *names* (the schema is
  // workload-independent), even if values differ.
  obs::MetricsSnapshot sa;
  obs::MetricsSnapshot sb;
  ASSERT_TRUE(obs::MetricsSnapshot::from_json(a, sa));
  ASSERT_TRUE(obs::MetricsSnapshot::from_json(run_and_export(8), sb));
  ASSERT_EQ(sa.size(), sb.size());
}

TEST(ClusterMetrics, EveryComponentExportsItsCore) {
  cluster::Cluster c(small_config(3));
  const int fd = c.create_dataset("data", kData);
  apps::DodoBlockIo io(*c.manager(), fd, kData, kBlk);
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await scan(cl, io, 2);
    co_await io.finish(false);
  });
  const obs::MetricsSnapshot s = c.metrics_snapshot();
  // The workload moved real bytes, so the core counters are all live.
  EXPECT_GT(s.counter_value("client.mreads_total"), 0u);
  EXPECT_GT(s.counter_value("imd.reads_served"), 0u);
  EXPECT_GT(s.counter_value("cmd.mopens"), 0u);
  EXPECT_GT(s.counter_value("rmd.recruitments"), 0u);
  EXPECT_GT(s.counter_value("manage.remote_fills"), 0u);
  EXPECT_GT(s.counter_value("net.datagrams_delivered"), 0u);
  EXPECT_GT(s.counter_value("imd.bulk.chunks_sent"), 0u);
  // Conservation: every admitted mread resolved exactly one way.
  EXPECT_EQ(s.counter_value("client.mreads_total"),
            s.counter_value("client.remote_hits") +
                s.counter_value("client.mreads_degraded"));
  // Latency histograms saw every remote fill.
  const obs::MetricValue* lat = s.find("client.mread_latency");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, s.counter_value("client.remote_hits"));
}

sim::Co<void> scrape_loop(cluster::Cluster& cl, const bool& running,
                          std::vector<obs::MetricsSnapshot>& out,
                          sim::WaitGroup& wg) {
  while (running) {
    co_await cl.sim().sleep(50_ms);
    out.push_back(co_await cl.cmd().scrape_cluster());
  }
  wg.done();
}

TEST(ClusterMetrics, KStatsScrapeUnderLoadMatchesQuiesce) {
  cluster::Cluster c(small_config(11));
  const int fd = c.create_dataset("data", kData);
  apps::DodoBlockIo io(*c.manager(), fd, kData, kBlk);
  std::vector<obs::MetricsSnapshot> scrapes;
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    bool running = true;
    sim::WaitGroup wg(cl.sim());
    wg.add(1);
    cl.sim().spawn(scrape_loop(cl, running, scrapes, wg));
    co_await scan(cl, io, 3);
    co_await io.finish(false);
    running = false;
    co_await wg.wait();
    co_await cl.sim().sleep(100_ms);
    scrapes.push_back(co_await cl.cmd().scrape_cluster());
  });
  ASSERT_GE(scrapes.size(), 2u);
  // Mid-load scrapes are internally consistent (monotonic between scrapes).
  for (std::size_t i = 1; i < scrapes.size(); ++i) {
    EXPECT_GE(scrapes[i].counter_value("imd.reads_served"),
              scrapes[i - 1].counter_value("imd.reads_served"))
        << "scrape " << i;
  }
  // The quiesce scrape (over the wire, via every rmd's kStats endpoint)
  // agrees exactly with the in-process snapshot on workload counters.
  const obs::MetricsSnapshot local = c.metrics_snapshot();
  const obs::MetricsSnapshot& wire = scrapes.back();
  for (const char* name : {"imd.reads_served", "imd.writes_served",
                           "imd.allocs", "imd.bytes_read"}) {
    EXPECT_EQ(wire.counter_value(name), local.counter_value(name)) << name;
  }
  EXPECT_GT(wire.counter_value("cmd.stats_scrapes"), 0u);
  EXPECT_EQ(wire.counter_value("cmd.stats_scrape_failures"), 0u);
}

TEST(ClusterMetrics, KStatsScrapeSurvivesMidShardCrash) {
  // A scrape racing a cmd-shard crash must not wedge or corrupt: the dead
  // shard's partition drops out (its scrapes fail), the healthy shard's
  // rows stay exact, and the failure is counted — not silent.
  cluster::ClusterConfig cfg = small_config(19);
  cfg.cmd_shards = 2;
  cluster::Cluster c(cfg);
  const int fd = c.create_dataset("data", kData);
  apps::DodoBlockIo io(*c.manager(), fd, kData, kBlk);
  obs::MetricsSnapshot during;
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await scan(cl, io, 2);
    cl.crash_cmd_shard(1);
    // The shard is down mid-scrape-window: the fan-out must still return.
    during = co_await cl.scrape_cluster();
    co_await io.finish(false);
  });
  // The surviving shard still served its partition's stats.
  EXPECT_GT(during.counter_value("cmd.stats_scrapes"), 0u);
  EXPECT_GT(during.counter_value("imd.reads_served"), 0u);
  // The crashed shard's sweep shows up as counted scrape failures on its
  // own snapshot (served in-process even while its network is cut).
  EXPECT_GT(during.counter_value("cmd.stats_scrape_failures"), 0u);
}

TEST(ClusterSpans, WorkloadRecordsConsistentMergedTree) {
  cluster::ClusterConfig cfg = small_config(5);
  cfg.record_spans = true;
  cluster::Cluster c(cfg);
  const int fd = c.create_dataset("data", kData);
  apps::DodoBlockIo io(*c.manager(), fd, kData, kBlk);
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await scan(cl, io, 2);
    co_await io.finish(false);
  });
  ASSERT_NE(c.traces(), nullptr);
  const std::vector<obs::MergedSpan> spans = c.merged_spans();
  ASSERT_FALSE(spans.empty());
  bool saw_child = false;
  bool saw_cross_process = false;
  for (const obs::MergedSpan& m : spans) {
    EXPECT_LT(m.span.parent, m.span.id);  // parents allocate first
    EXPECT_GE(m.span.end, m.span.start);  // quiesce closed everything
    if (m.span.parent != 0) saw_child = true;
  }
  // Cross-process causality: some span's parent lives on another track
  // (the wire carried the context there).
  for (const obs::MergedSpan& m : spans) {
    if (m.span.parent == 0) continue;
    for (const obs::MergedSpan& p : spans) {
      if (p.span.id != m.span.parent) continue;
      if (p.host != m.host || p.daemon != m.daemon) saw_cross_process = true;
      break;
    }
  }
  EXPECT_TRUE(saw_child);          // cread -> fault_in nesting happened
  EXPECT_TRUE(saw_cross_process);  // client -> imd propagation happened
  // And the whole merged tree survives a TSV round-trip.
  std::vector<obs::MergedSpan> back;
  std::string err;
  ASSERT_TRUE(obs::TraceDomain::from_tsv(c.trace_tsv(), back, &err)) << err;
  EXPECT_EQ(back.size(), spans.size());
  EXPECT_EQ(back, spans);
}

TEST(ClusterSpans, SegmentAttributionSumsExactlyToEndToEnd) {
  cluster::ClusterConfig cfg = small_config(6);
  cfg.record_spans = true;
  cluster::Cluster c(cfg);
  const int fd = c.create_dataset("data", kData);
  apps::DodoBlockIo io(*c.manager(), fd, kData, kBlk);
  c.run_app([&](cluster::Cluster& cl) -> sim::Co<void> {
    co_await scan(cl, io, 2);
    co_await io.finish(false);
  });
  const std::vector<obs::TraceSummary> traces =
      obs::analyze_traces(c.merged_spans());
  ASSERT_FALSE(traces.empty());
  bool saw_bulk = false;
  for (const obs::TraceSummary& t : traces) {
    // The analyzer's core invariant: the per-segment attribution tiles the
    // root span exactly — no double counting, no leaked time.
    EXPECT_EQ(t.segments.total(), t.end - t.start) << t.root_name;
    if (t.segments[obs::Segment::kBulk] > 0) saw_bulk = true;
  }
  EXPECT_TRUE(saw_bulk);  // remote fills attribute time to bulk transfer
}

}  // namespace
}  // namespace dodo
