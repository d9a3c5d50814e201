// Observability for the Oak serving path (oak::obs).
//
// The operator workflow of §5–§6 needs to see what Oak is doing — which
// servers violate, which rules fire, how long each ingest stage takes — and
// the north star ("heavy traffic ... as fast as the hardware allows") is
// unverifiable without first-class metrics on the hot path. This module is a
// lock-light metrics registry in the Prometheus mold:
//
//  * Counter   — monotonically increasing atomic (relaxed increments);
//  * Gauge     — last-written atomic double (set/add);
//  * Histogram — fixed, log-spaced buckets with atomic per-bucket counts
//                plus a CAS-accumulated sum. Log spacing covers microseconds
//                to minutes in ~28 buckets, and identical specs make
//                per-shard histograms mergeable by plain addition.
//
// Concurrency model: registration (name → instrument) takes a mutex and is
// expected to happen once, at wiring time; callers cache the returned
// reference and the hot path is nothing but relaxed atomic arithmetic. One
// registry per shard keeps even that uncontended; ShardedOakServer merges
// per-shard snapshots on demand.
//
// Snapshots are plain value types (MetricsSnapshot) with merge(), a
// Prometheus-style text exposition and a JSON exposition (reused by the
// BENCH_* emitters so bench output carries per-stage latency distributions).
//
// The one off-switch is OakConfig::metrics at runtime: a server built with
// it false registers no instruments, so every call site holds a null pointer
// and records nothing. Leaving it on is cheap enough to stay within
// benchmark noise (see bench/micro_core's BM_IngestObs* pair and
// tests/obs_overhead_test.cc).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace oak::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) {
    v_.store(v, std::memory_order_relaxed);
  }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Log-spaced bucket layout: finite bucket i covers values up to
// least_bound · growth^i; anything larger lands in the implicit +Inf
// overflow bucket. Two histograms merge iff their specs are identical.
struct HistogramSpec {
  double least_bound = 1e-6;  // upper bound of the first bucket
  double growth = 2.0;        // bucket-to-bucket ratio
  std::size_t buckets = 28;   // finite buckets (excludes +Inf)

  // 1 µs … ~134 s in 28 doubling buckets: spans a DNS lookup to a stalled
  // transfer waiting out a 2-minute budget.
  static HistogramSpec latency() { return HistogramSpec{}; }
  // 64 B … 2 GiB in 26 doubling buckets: report and object sizes.
  static HistogramSpec bytes() { return HistogramSpec{64.0, 2.0, 26}; }

  bool operator==(const HistogramSpec&) const = default;
};

struct HistogramSnapshot {
  HistogramSpec spec;
  std::vector<double> bounds;          // finite upper bounds, size spec.buckets
  std::vector<std::uint64_t> counts;   // size spec.buckets + 1 (last = +Inf)
  double sum = 0.0;

  std::uint64_t count() const;
  double mean() const;
  // Interpolated quantile estimate from the bucket layout (q in [0,1]).
  // Uses the bucket's log-midpoint span; exact enough for dashboards.
  double quantile(double q) const;
  // Merging demands identical specs; throws std::invalid_argument otherwise.
  void merge(const HistogramSnapshot& other);
};

class Histogram {
 public:
  explicit Histogram(HistogramSpec spec);

  void observe(double v);
  const HistogramSpec& spec() const { return spec_; }
  HistogramSnapshot snapshot() const;

 private:
  HistogramSpec spec_;
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // buckets + overflow
  std::atomic<double> sum_{0.0};
};

// A consistent copy of one registry (or a merge of several). Counters and
// histograms merge by addition; gauges also merge by addition — every gauge
// in this code base is a shard-local quantity (cache sizes, shard counts)
// whose fleet-wide value is the sum.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  void merge(const MetricsSnapshot& other);

  // Convenience lookups; zero / empty when absent.
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;

  // Prometheus text exposition (one block per metric, name-sorted).
  std::string to_prometheus() const;
  // JSON exposition: histograms carry only their non-empty buckets plus
  // sum/count and p50/p90/p99 estimates, so BENCH_* files stay compact.
  util::Json to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; returned references live as long as the registry.
  // A histogram re-requested with a different spec keeps its original one.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       HistogramSpec spec = HistogramSpec::latency());

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Times a scope into a histogram. A null histogram (instrumentation off at
// runtime) skips the clock reads entirely.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* h) : h_(h) {
    if (h_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  // Record now instead of at scope exit (idempotent).
  void stop() {
    if (h_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    h_->observe(std::chrono::duration<double>(end - start_).count());
    h_ = nullptr;
  }

 private:
  Histogram* h_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace oak::obs
