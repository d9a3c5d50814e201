// oak::obs — registry, instruments, snapshots, expositions, and the
// multi-threaded recording contract (this suite runs under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace oak::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketPlacementAndSum) {
  Histogram h(HistogramSpec{1.0, 2.0, 4});  // bounds 1, 2, 4, 8
  h.observe(0.5);   // bucket 0 (le 1)
  h.observe(1.0);   // bucket 0 (le 1, inclusive upper bound)
  h.observe(3.0);   // bucket 2 (le 4)
  h.observe(100.0); // overflow
  HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 5u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 0u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 0u);
  EXPECT_EQ(s.counts[4], 1u);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.sum, 104.5);
  EXPECT_DOUBLE_EQ(s.mean(), 104.5 / 4.0);
}

TEST(Histogram, NanDroppedInfOverflowsWithFiniteSum) {
  Histogram h(HistogramSpec{1.0, 2.0, 4});
  h.observe(std::nan(""));
  h.observe(std::numeric_limits<double>::infinity());
  h.observe(2.0);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count(), 2u);       // NaN vanished, Inf counted in overflow
  EXPECT_EQ(s.counts.back(), 1u);
  EXPECT_TRUE(std::isfinite(s.sum));
  EXPECT_DOUBLE_EQ(s.sum, 2.0);
}

TEST(Histogram, QuantilesAreMonotoneAndWithinRange) {
  Histogram h(HistogramSpec::latency());
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-4);  // 0.1ms … 100ms
  HistogramSnapshot s = h.snapshot();
  const double p50 = s.quantile(0.50);
  const double p90 = s.quantile(0.90);
  const double p99 = s.quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Estimates stay within a bucket's width of the true values.
  EXPECT_GT(p50, 0.02);
  EXPECT_LT(p50, 0.11);
  EXPECT_GT(p99, 0.05);
  EXPECT_LT(p99, 0.21);
}

TEST(Histogram, MergeAddsCountsAndRejectsSpecMismatch) {
  Histogram a(HistogramSpec{1.0, 2.0, 4});
  Histogram b(HistogramSpec{1.0, 2.0, 4});
  a.observe(1.0);
  b.observe(3.0);
  b.observe(100.0);
  HistogramSnapshot sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.count(), 3u);
  EXPECT_DOUBLE_EQ(sa.sum, 104.0);

  Histogram c(HistogramSpec{2.0, 2.0, 4});
  EXPECT_THROW(sa.merge(c.snapshot()), std::invalid_argument);

  // Merging into an empty snapshot adopts the other's spec wholesale.
  HistogramSnapshot empty;
  empty.merge(a.snapshot());
  EXPECT_EQ(empty.count(), 1u);
}

TEST(Registry, FindOrCreateReturnsStableInstruments) {
  MetricsRegistry r;
  Counter& c1 = r.counter("x_total");
  Counter& c2 = r.counter("x_total");
  EXPECT_EQ(&c1, &c2);
  Histogram& h1 = r.histogram("lat_seconds");
  // Re-request with a different spec keeps the original.
  Histogram& h2 = r.histogram("lat_seconds", HistogramSpec{9.0, 3.0, 2});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.spec().least_bound, HistogramSpec::latency().least_bound);
}

TEST(Registry, SnapshotCapturesEverything) {
  MetricsRegistry r;
  r.counter("a_total").inc(3);
  r.gauge("b").set(1.5);
  r.histogram("c_seconds").observe(0.01);
  MetricsSnapshot s = r.snapshot();
  EXPECT_EQ(s.counter("a_total"), 3u);
  EXPECT_DOUBLE_EQ(s.gauge("b"), 1.5);
  ASSERT_NE(s.histogram("c_seconds"), nullptr);
  EXPECT_EQ(s.histogram("c_seconds")->count(), 1u);
  // Absent names answer zero / null, never throw.
  EXPECT_EQ(s.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(s.gauge("missing"), 0.0);
  EXPECT_EQ(s.histogram("missing"), nullptr);
}

TEST(Snapshot, MergeAcrossRegistries) {
  MetricsRegistry a, b;
  a.counter("n_total").inc(1);
  b.counter("n_total").inc(2);
  b.counter("only_b_total").inc(7);
  a.gauge("g").set(1.0);
  b.gauge("g").set(2.0);
  a.histogram("h_seconds").observe(0.001);
  b.histogram("h_seconds").observe(0.002);
  MetricsSnapshot m = a.snapshot();
  m.merge(b.snapshot());
  EXPECT_EQ(m.counter("n_total"), 3u);
  EXPECT_EQ(m.counter("only_b_total"), 7u);
  EXPECT_DOUBLE_EQ(m.gauge("g"), 3.0);  // gauges merge by addition
  EXPECT_EQ(m.histogram("h_seconds")->count(), 2u);
}

TEST(Exposition, PrometheusTextShape) {
  MetricsRegistry r;
  r.counter("oak_reports_ingested_total").inc(5);
  r.gauge("oak_shards").set(8.0);
  Histogram& h = r.histogram("oak_ingest_decode_seconds",
                             HistogramSpec{1.0, 2.0, 2});  // bounds 1, 2
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);  // overflow
  const std::string text = r.snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE oak_reports_ingested_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("oak_reports_ingested_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE oak_shards gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE oak_ingest_decode_seconds histogram"),
            std::string::npos);
  // Cumulative buckets with the +Inf bucket always present.
  EXPECT_NE(text.find("oak_ingest_decode_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("oak_ingest_decode_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("oak_ingest_decode_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("oak_ingest_decode_seconds_count 3"), std::string::npos);
}

TEST(Exposition, JsonShapeIsFiniteAndCompact) {
  MetricsRegistry r;
  r.counter("c_total").inc(2);
  Histogram& h = r.histogram("h_seconds", HistogramSpec{1.0, 2.0, 8});
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  const util::Json j = r.snapshot().to_json();
  EXPECT_EQ(j.at("counters").at("c_total").as_int(), 2);
  const util::Json& hist = j.at("histograms").at("h_seconds");
  EXPECT_EQ(hist.at("count").as_int(), 100);
  EXPECT_GT(hist.at("p50").as_number(), 0.0);
  // Only the one non-empty bucket is listed.
  EXPECT_EQ(hist.at("buckets").as_array().size(), 1u);
  // Nothing non-finite sneaks into the serialization as "null".
  EXPECT_EQ(j.dump().find("null"), std::string::npos);
}

TEST(Timer, RecordsOnceAndNullIsNoop) {
  MetricsRegistry r;
  Histogram& h = r.histogram("t_seconds");
  {
    ScopedTimer t(&h);
    t.stop();
    t.stop();  // idempotent
  }
  EXPECT_EQ(h.snapshot().count(), 1u);
  { ScopedTimer t(nullptr); }  // must not crash or record
}

TEST(Concurrency, EightThreadsRecordLosslessly) {
  MetricsRegistry r;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  Counter& c = r.counter("n_total");
  Histogram& h = r.histogram("v_seconds", HistogramSpec{1e-6, 2.0, 28});
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(1e-6 * ((t * kPerThread + i) % 1000 + 1));
        if (i % 1024 == 0) {
          // Concurrent snapshots must be safe against writers.
          MetricsSnapshot s = r.snapshot();
          (void)s;
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), std::uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(h.snapshot().count(), std::uint64_t(kThreads) * kPerThread);
  EXPECT_TRUE(std::isfinite(h.snapshot().sum));
}

}  // namespace
}  // namespace oak::obs
