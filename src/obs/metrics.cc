#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace oak::obs {

namespace {

// Prometheus le-label / JSON bound formatting: shortest round-trippable-ish
// form, stable across platforms for the spec bounds we generate.
std::string format_bound(double b) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", b);
  return buf;
}

}  // namespace

Histogram::Histogram(HistogramSpec spec)
    : spec_(spec), counts_(spec.buckets + 1) {
  bounds_.reserve(spec_.buckets);
  double b = spec_.least_bound;
  for (std::size_t i = 0; i < spec_.buckets; ++i) {
    bounds_.push_back(b);
    b *= spec_.growth;
  }
}

void Histogram::observe(double v) {
  if (std::isnan(v)) return;  // a NaN sample poisons sum and orders nowhere
  // First bucket whose upper bound admits v; past the last finite bound the
  // sample lands in the +Inf overflow slot.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  if (std::isfinite(v)) {
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.spec = spec_;
  s.bounds = bounds_;
  s.counts.reserve(counts_.size());
  for (const auto& c : counts_) {
    s.counts.push_back(c.load(std::memory_order_relaxed));
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t HistogramSnapshot::count() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  return total;
}

double HistogramSnapshot::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double HistogramSnapshot::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    seen += counts[i];
    if (static_cast<double>(seen) < target) continue;
    // Log-interpolate inside the bucket; the overflow bucket and the first
    // bucket have no lower/upper bound to interpolate toward, so report
    // their finite edge.
    if (i >= bounds.size()) return bounds.empty() ? 0.0 : bounds.back();
    if (i == 0) return bounds[0];
    const double lo = bounds[i - 1];
    const double hi = bounds[i];
    const double into =
        (target - static_cast<double>(seen - counts[i])) /
        static_cast<double>(counts[i]);
    return lo * std::pow(hi / lo, std::clamp(into, 0.0, 1.0));
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (counts.empty()) {
    *this = other;
    return;
  }
  if (other.counts.empty()) return;
  if (!(spec == other.spec)) {
    throw std::invalid_argument(
        "HistogramSnapshot::merge: mismatched bucket specs");
  }
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  sum += other.sum;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms.emplace(name, h);
    } else {
      it->second.merge(h);
    }
  }
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(v) + "\n";
  }
  for (const auto& [name, v] : gauges) {
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + format_bound(v) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cum += h.counts[i];
      // Empty leading/inner buckets are elided (the cumulative form stays
      // correct); the +Inf bucket always prints so count is recoverable.
      const bool is_inf = i >= h.bounds.size();
      if (h.counts[i] == 0 && !is_inf) continue;
      const std::string le = is_inf ? "+Inf" : format_bound(h.bounds[i]);
      out += name + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) + "\n";
    }
    out += name + "_sum " + format_bound(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count()) + "\n";
  }
  return out;
}

util::Json MetricsSnapshot::to_json() const {
  util::JsonObject root;
  util::JsonObject cs;
  for (const auto& [name, v] : counters) cs[name] = v;
  root["counters"] = std::move(cs);
  util::JsonObject gs;
  for (const auto& [name, v] : gauges) gs[name] = v;
  root["gauges"] = std::move(gs);
  util::JsonObject hs;
  for (const auto& [name, h] : histograms) {
    util::JsonObject o;
    o["count"] = h.count();
    o["sum"] = h.sum;
    o["mean"] = h.mean();
    o["p50"] = h.quantile(0.50);
    o["p90"] = h.quantile(0.90);
    o["p99"] = h.quantile(0.99);
    util::JsonArray buckets;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (h.counts[i] == 0) continue;
      util::JsonObject b;
      b["le"] = i < h.bounds.size() ? util::Json(h.bounds[i])
                                    : util::Json(std::string("+Inf"));
      b["n"] = h.counts[i];
      buckets.emplace_back(std::move(b));
    }
    o["buckets"] = std::move(buckets);
    hs[name] = std::move(o);
  }
  root["histograms"] = std::move(hs);
  return util::Json(std::move(root));
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      HistogramSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(spec);
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s;
  for (const auto& [name, c] : counters_) s.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) s.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace(name, h->snapshot());
  }
  return s;
}

}  // namespace oak::obs
