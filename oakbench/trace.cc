#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace oakbench {

std::uint32_t Tracer::name(const std::string& n) {
  auto it = index_.find(n);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(n);
  index_.emplace(n, id);
  return id;
}

std::int32_t Tracer::begin(std::uint32_t name, std::uint64_t trace,
                           std::int32_t parent) {
  const std::int64_t t = now_ns();
  spans_.push_back(Span{name, parent, trace, t, t});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::add(std::uint32_t name, std::uint64_t trace, std::int32_t parent,
                 std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(Span{name, parent, trace, start_ns, end_ns});
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Length of the union of the children's intervals, clipped to the span.
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> Tracer::self_us_by_name() const {
  const std::vector<std::int64_t> self = self_times();
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[names_[spans_[i].name]].push_back(double(self[i]) / 1e3);
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::duration_us_by_name() const {
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    out[names_[s.name]].push_back(double(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"parent\":%d,\"trace\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.parent, static_cast<unsigned long long>(s.trace),
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace oakbench
