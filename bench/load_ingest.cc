// Report-decode and ingest throughput: streaming zero-copy decoder vs the
// Json-DOM baseline.
//
// Two layers:
//
//   decode-*    tight single-thread loop over serialized reports, nothing
//               but wire bytes -> report. `decode-dom` is
//               PerfReport::deserialize (DOM node + heap key per member);
//               `decode-stream-view` is decode_report_view into a reused
//               arena (the server's actual ingest path); `decode-stream-own`
//               adds the materialize() copy for callers that keep the
//               report.
//
//   server-*    full ingest_report through ShardedOakServer::handle at 1
//               and 8 shards, single client thread, empty rule set — the
//               decode + grouping + detection pipeline without matcher
//               noise. The server always stream-decodes.
//
// Reports come in two mixes: small (~8 entries, the common page) and large
// (~120 entries, media-heavy pages), over a handful of servers so the
// interning arena sees realistic host/IP repetition.
//
// A third layer rides along since the durability work: `server-stream-s8`
// rerun with the write-ahead journal on (fresh directory, no per-append
// fsync), min-of-runs against a journal-off control. Acceptance: journaled
// ingest <= 1.3x the journal-off time.
//
// Emits BENCH_ingest.json. Acceptance: single-thread streaming decode must
// clear 3x the DOM decoder on the combined mix, and the journal overhead
// ratio must stay within its bound.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "browser/report.h"
#include "browser/report_decoder.h"
#include "core/sharded_server.h"
#include "http/cookies.h"
#include "util/arena.h"
#include "util/rng.h"

namespace {

using namespace oak;

// One mix of serialized reports plus the byte volume of a full pass.
struct Corpus {
  std::string name;
  std::vector<std::string> wires;
  std::size_t bytes = 0;
};

Corpus make_corpus(const std::string& name, int reports, int entries,
                   std::uint64_t seed) {
  util::Rng rng(seed);
  Corpus c;
  c.name = name;
  for (int r = 0; r < reports; ++r) {
    browser::PerfReport rep;
    rep.user_id = "bench-u" + std::to_string(r % 16);
    rep.page_url = "http://busy.com/p" + std::to_string(r % 32) + ".html";
    rep.plt_s = 0.5 + 0.01 * double(r % 100);
    for (int e = 0; e < entries; ++e) {
      // ~12 servers with several domains each: the repetition profile the
      // interning arena and grouping index are built for.
      const int server = int(rng.uniform_int(0, 11));
      const std::string host =
          "cdn" + std::to_string(server) + (e % 3 ? ".assets" : "") + ".net";
      browser::ReportEntry entry;
      entry.url = "http://" + host + "/obj/" + std::to_string(r) + "/" +
                  std::to_string(e) + (e % 4 ? ".js" : ".png");
      entry.host = host;
      entry.ip = "10.0.1." + std::to_string(server);
      entry.size = std::uint64_t(rng.uniform_int(200, 150'000));
      entry.start_s = 0.01 * double(e);
      entry.time_s = 0.05 + 0.001 * double(rng.uniform_int(0, 400));
      rep.entries.push_back(std::move(entry));
    }
    std::string wire = rep.serialize();
    c.bytes += wire.size();
    c.wires.push_back(std::move(wire));
  }
  return c;
}

struct RunResult {
  std::string config;
  std::string corpus;
  double seconds = 0.0;
  double reports_per_sec = 0.0;
  double mb_per_sec = 0.0;
};

template <typename Fn>
RunResult time_decode(const std::string& config, const Corpus& corpus,
                      int passes, Fn&& decode_one) {
  // Warm-up pass (page in the wires, size scratch buffers).
  for (const std::string& w : corpus.wires) decode_one(w);
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) {
    for (const std::string& w : corpus.wires) decode_one(w);
  }
  RunResult res;
  res.config = config;
  res.corpus = corpus.name;
  res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
  const double n = double(passes) * double(corpus.wires.size());
  res.reports_per_sec = n / res.seconds;
  res.mb_per_sec =
      double(passes) * double(corpus.bytes) / res.seconds / (1024.0 * 1024.0);
  return res;
}

RunResult run_server(const std::string& config, const Corpus& corpus,
                     int passes, std::size_t shards,
                     util::Json* metrics_out = nullptr,
                     const std::string& journal_dir = "") {
  page::WebUniverse universe{net::NetworkConfig{.seed = 7, .horizon_s = 0}};
  core::OakConfig cfg;
  if (!journal_dir.empty()) {
    // Fresh journal directory per run: recovery/compaction state from a
    // previous repetition must not shift what this one measures.
    std::error_code ec;
    std::filesystem::remove_all(journal_dir, ec);
    cfg.durability.enabled = true;
    cfg.durability.dir = journal_dir;
  }
  core::ShardedOakServer server(universe, "busy.com", cfg, shards);

  const std::string cookie = std::string(http::kOakUserCookie) + "=bench-u0";
  auto post_all = [&] {
    for (const std::string& w : corpus.wires) {
      http::Request post = http::Request::post("http://busy.com/oak/report", w);
      post.headers.set("Cookie", cookie);
      http::Response resp = server.handle(post, 0.0);
      if (resp.status >= 400) {
        std::fprintf(stderr, "report rejected: %d\n", resp.status);
        std::abort();
      }
    }
  };
  post_all();  // warm-up
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < passes; ++p) post_all();
  RunResult res;
  res.config = config;
  res.corpus = corpus.name;
  res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              start)
                    .count();
  const double n = double(passes) * double(corpus.wires.size());
  res.reports_per_sec = n / res.seconds;
  res.mb_per_sec =
      double(passes) * double(corpus.bytes) / res.seconds / (1024.0 * 1024.0);
  // Per-stage latency distributions for the whole run (decode/group/detect/
  // match histograms, ingest counters) — merged across shards.
  if (metrics_out != nullptr) *metrics_out = server.metrics_json();
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  int passes = 30;
  if (argc > 1) passes = std::max(1, std::atoi(argv[1]));

  const Corpus small = make_corpus("small-8", 400, 8, 11);
  const Corpus large = make_corpus("large-120", 60, 120, 13);
  Corpus mixed;
  mixed.name = "mixed";
  for (const Corpus* c : {&small, &large}) {
    mixed.wires.insert(mixed.wires.end(), c->wires.begin(), c->wires.end());
    mixed.bytes += c->bytes;
  }

  std::printf("report decode/ingest: %d passes; corpora: small-8 (%zu x ~%zuB)"
              ", large-120 (%zu x ~%zuB)\n\n",
              passes, small.wires.size(), small.bytes / small.wires.size(),
              large.wires.size(), large.bytes / large.wires.size());
  std::printf("%-24s %-10s %10s %12s %10s\n", "config", "corpus", "seconds",
              "reports/s", "MB/s");

  std::vector<RunResult> runs;
  util::StringArena arena;
  const Corpus* corpora[] = {&small, &large, &mixed};
  for (const Corpus* c : corpora) {
    runs.push_back(time_decode("decode-dom", *c, passes, [](const std::string& w) {
      browser::PerfReport r = browser::PerfReport::deserialize(w);
      (void)r;
    }));
    runs.push_back(
        time_decode("decode-stream-view", *c, passes, [&](const std::string& w) {
          arena.clear();
          browser::ReportView v = browser::decode_report_view(w, arena);
          (void)v;
        }));
    runs.push_back(
        time_decode("decode-stream-own", *c, passes, [](const std::string& w) {
          browser::PerfReport r = browser::decode_report(w);
          (void)r;
        }));
  }

  // Server-level ingest (decode + grouping + detection) at 1 and 8 shards.
  // Fewer passes: each report runs the whole pipeline.
  const int server_passes = std::max(1, passes / 10);
  util::Json stage_metrics;
  for (std::size_t shards : {std::size_t(1), std::size_t(8)}) {
    // The 8-shard run also contributes its obs exposition: stage histograms
    // for the exact traffic the throughput number describes.
    runs.push_back(run_server("server-stream-s" + std::to_string(shards),
                              mixed, server_passes, shards,
                              shards == 8 ? &stage_metrics : nullptr));
  }

  // Journal overhead: the 8-shard streaming ingest with the write-ahead
  // journal on, min-of-kOverheadRuns against a journal-off control measured
  // the same way. Min-of-runs because the bound is about the code path, not
  // the scheduler: one preemption in a ~100ms run is a 10% swing.
  constexpr int kOverheadRuns = 3;
  const std::string journal_dir =
      (std::filesystem::temp_directory_path() / "oak_bench_journal").string();
  double journal_on_s = 1e9;
  double journal_off_s = 1e9;
  RunResult journal_run;
  for (int rep = 0; rep < kOverheadRuns; ++rep) {
    journal_off_s = std::min(
        journal_off_s,
        run_server("server-stream-s8", mixed, server_passes, 8).seconds);
    RunResult on = run_server("server-stream-s8-journal", mixed, server_passes,
                              8, nullptr, journal_dir);
    if (on.seconds < journal_on_s) {
      journal_on_s = on.seconds;
      journal_run = on;
    }
  }
  {
    std::error_code ec;
    std::filesystem::remove_all(journal_dir, ec);
  }
  runs.push_back(journal_run);
  const double journal_overhead =
      journal_off_s > 0.0 ? journal_on_s / journal_off_s : 0.0;
  const bool journal_ok = journal_overhead <= 1.3;

  double dom_mixed_rps = 0.0;
  double stream_mixed_rps = 0.0;
  util::JsonArray out_runs;
  for (const RunResult& r : runs) {
    std::printf("%-24s %-10s %10.3f %12.0f %10.1f\n", r.config.c_str(),
                r.corpus.c_str(), r.seconds, r.reports_per_sec, r.mb_per_sec);
    util::JsonObject o;
    o["config"] = r.config;
    o["corpus"] = r.corpus;
    o["seconds"] = r.seconds;
    o["reports_per_sec"] = r.reports_per_sec;
    o["mb_per_sec"] = r.mb_per_sec;
    out_runs.push_back(util::Json(std::move(o)));
    if (r.corpus == "mixed" && r.config == "decode-dom") {
      dom_mixed_rps = r.reports_per_sec;
    }
    if (r.corpus == "mixed" && r.config == "decode-stream-view") {
      stream_mixed_rps = r.reports_per_sec;
    }
  }

  const double speedup =
      dom_mixed_rps > 0.0 ? stream_mixed_rps / dom_mixed_rps : 0.0;

  util::JsonObject root;
  root["bench"] = std::string("load_ingest");
  root["passes"] = passes;
  root["runs"] = std::move(out_runs);
  root["metrics"] = std::move(stage_metrics);
  util::JsonObject acceptance;
  acceptance["streaming_decode_speedup"] = speedup;
  acceptance["required"] = 3.0;
  acceptance["pass"] = speedup >= 3.0;
  acceptance["journal_overhead"] = journal_overhead;
  acceptance["journal_required_max"] = 1.3;
  acceptance["journal_pass"] = journal_ok;
  root["acceptance"] = std::move(acceptance);

  std::ofstream("BENCH_ingest.json")
      << util::Json(std::move(root)).dump_pretty(2) << "\n";

  std::printf("\nstreaming decode speedup vs DOM on mixed corpus: %.2fx "
              "(required >= 3.00x) -> %s\n",
              speedup, speedup >= 3.0 ? "PASS" : "FAIL");
  std::printf("journal-on ingest overhead: %.2fx journal-off "
              "(required <= 1.30x, min of %d runs) -> %s\n",
              journal_overhead, kOverheadRuns, journal_ok ? "PASS" : "FAIL");
  std::printf("wrote BENCH_ingest.json\n");
  return (speedup >= 3.0 && journal_ok) ? 0 : 1;
}
