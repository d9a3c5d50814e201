// In-memory span recorder for the traced oakbench run.
//
// A span is one timed call at a layer boundary: name, start, end, the span
// that caused it, and the trace (request) it belongs to. Spans stay in
// memory while the run measures and are written out as JSON lines when it
// ends. A span's self time is its duration minus the part of its interval
// that its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace oakbench {

struct Span {
  std::uint32_t name = 0;   // interned by Tracer::name()
  std::int32_t parent = -1;  // index of the parent span, -1 for a root
  std::uint64_t trace = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Interned span name.
  std::uint32_t name(const std::string& n);

  // Open a span now; close it with end(). Returns the span's index.
  std::int32_t begin(std::uint32_t name, std::uint64_t trace,
                     std::int32_t parent = -1);
  void end(std::int32_t span) { spans_[span].end_ns = now_ns(); }
  // Record a span whose interval the caller measured.
  void add(std::uint32_t name, std::uint64_t trace, std::int32_t parent,
           std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span, in nanoseconds, indexed like spans().
  std::vector<std::int64_t> self_times() const;
  // Self times grouped by span name, in microseconds.
  std::map<std::string, std::vector<double>> self_us_by_name() const;
  // Durations grouped by span name, in microseconds.
  std::map<std::string, std::vector<double>> duration_us_by_name() const;

  // One JSON object per line; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> index_;
  std::vector<Span> spans_;
};

// RAII span for a call the benchmark makes into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::uint32_t name, std::uint64_t trace,
             std::int32_t parent = -1)
      : tracer_(t), span_(t.begin(name, trace, parent)) {}
  ~ScopedSpan() { tracer_.end(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return span_; }

 private:
  Tracer& tracer_;
  std::int32_t span_;
};

}  // namespace oakbench
