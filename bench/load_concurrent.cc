// Report-ingestion throughput: the multi-core scaling matrix.
//
// M client threads POST performance reports at one site. Each report names
// several MAD violators, so ingestion pays the full §4.2.2 bill: grouping,
// detection, and a three-tier connection-dependency probe of every
// configured rule against every violator — including tier-3 script fetches
// and a rule set padded with realistic multi-KB rule bodies that never
// match (the worst case for an unmemoized matcher).
//
// Configurations:
//   single-mutex-nocache   ShardedOakServer with one shard (one mutex over
//                          all state) and the match cache disabled — the
//                          pre-sharding seed behavior, the legacy baseline
//                          (run at the top thread count only).
//   sharded-{1,4,8,16}     ShardedOakServer with the per-shard match cache,
//                          swept over {1,2,4,8} client threads (the
//                          matrix).
//
// Every cell is best-of-REPS wall time. Emits BENCH_concurrency.json with
// the matrix, the merged obs snapshot of the acceptance configuration, and
// three acceptance gates:
//
//   legacy      sharded-8 >= 3x the single-mutex baseline (top threads);
//   multicore   sharded-8 >= 3x sharded-1 at 8 threads — enforced only
//               when the host has >= 4 real cores (scaling needs cores;
//               on fewer the gate is recorded as skipped);
//   floor       sharded-N at least 0.9x sharded-1 at EVERY thread count
//               (sharding must never lose; 0.9 is the measured run-to-run
//               noise floor of this bench, see docs/OPERATIONS.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_server.h"
#include "http/cookies.h"
#include "util/rng.h"

namespace {

using namespace oak;

constexpr const char* kViolators[] = {"v0.net", "v1.net", "v2.net"};
constexpr const char* kHealthy[] = {"ok0.net", "ok1.net", "ok2.net",
                                    "ok3.net", "ok4.net"};
constexpr std::size_t kFillerRules = 20;
constexpr std::size_t kFillerBytes = 8 * 1024;
constexpr int kReps = 3;  // best-of per cell (absorbs scheduler outliers,
                          // which dominate contended cells on small hosts)

// A multi-KB rule body with URL-shaped references that resolve to hosts no
// report ever blames — every probe tokenizes and scans all of it for
// nothing, exactly like a real operator's big template rules.
std::string filler_text(std::size_t index) {
  util::Rng rng(1000 + index);
  std::string text = "<div class=\"widget-" + std::to_string(index) + "\">\n";
  while (text.size() < kFillerBytes) {
    const std::string h = "asset" + std::to_string(rng.uniform_int(0, 500)) +
                          ".static" + std::to_string(index) + ".example";
    text += "<script src=\"http://" + h + "/w" +
            std::to_string(rng.uniform_int(0, 99)) + ".js\"></script>\n"
            "<p>module " + std::to_string(rng.uniform_int(0, 1 << 20)) +
            " configuration block</p>\n";
  }
  text += "</div>\n";
  return text;
}

std::vector<core::Rule> build_rules() {
  std::vector<core::Rule> rules;
  // Rules that actually fire: one per violator (tier 1/2) and one reached
  // only through the aggregator script body (tier 3).
  for (const char* v : kViolators) {
    rules.push_back(core::make_domain_rule(std::string("switch-") + v, v,
                                           {"alt." + std::string(v)}));
  }
  rules.push_back(
      core::make_domain_rule("via-script", "agg.net", {"alt.agg.net"}));
  for (std::size_t i = 0; i < kFillerRules; ++i) {
    rules.push_back(core::make_source_rule(
        "filler" + std::to_string(i), filler_text(i),
        {"<!-- widget " + std::to_string(i) + " disabled -->"}));
  }
  return rules;
}

struct Workload {
  page::WebUniverse universe{net::NetworkConfig{.seed = 29, .horizon_s = 0}};
  std::string wire;  // one report: 3 direct violators + a tier-3 one

  Workload() {
    net::Network& net = universe.network();
    net::ServerId origin = net.add_server(net::ServerConfig{.name = "origin"});
    universe.dns().bind("busy.com", net.server(origin).addr());
    std::map<std::string, std::string> ips;
    auto bind = [&](const std::string& host) {
      net::ServerId sid = net.add_server(net::ServerConfig{});
      universe.dns().bind(host, net.server(sid).addr());
      ips[host] = net.server(sid).addr().to_string();
    };
    for (const char* h : kViolators) bind(h);
    for (const char* h : kHealthy) bind(h);
    bind("agg.net");
    bind("hidden.cdn.net");

    page::SiteBuilder b(universe, "busy.com", origin);
    for (const char* h : kViolators) {
      b.add_direct(h, "/o.js", html::RefKind::kScript, 9000,
                   page::Category::kCdn);
    }
    for (const char* h : kHealthy) {
      b.add_direct(h, "/o.js", html::RefKind::kScript, 9000,
                   page::Category::kCdn);
    }
    b.add_script_with_induced(
        "agg.net", "/loader.js", 4000, page::Category::kAds,
        {{"hidden.cdn.net", "/pix.png", html::RefKind::kImage, 7000,
          page::Category::kAds}});
    page::Site site = b.finish();

    browser::PerfReport r;
    r.page_url = site.index_url();
    r.entries.push_back(
        {site.index_url(), "busy.com", "10.0.0.1", 4000, 0, 0.09});
    double slow = 4.0;
    for (const char* h : kViolators) {
      r.entries.push_back(
          {"http://" + std::string(h) + "/o.js", h, ips[h], 9000, 0.1, slow});
      slow -= 0.4;
    }
    for (const char* h : kHealthy) {
      r.entries.push_back(
          {"http://" + std::string(h) + "/o.js", h, ips[h], 9000, 0.1, 0.11});
    }
    r.entries.push_back({"http://agg.net/loader.js", "agg.net", ips["agg.net"],
                         4000, 0.1, 0.12});
    r.entries.push_back({"http://hidden.cdn.net/pix.png", "hidden.cdn.net",
                         ips["hidden.cdn.net"], 7000, 0.1, 3.2});
    wire = r.serialize();
  }
};

struct RunResult {
  std::string config;
  std::size_t shards = 0;
  int threads = 0;
  double seconds = 0.0;
  double reports_per_sec = 0.0;
  double memo_hit_rate = 0.0;
  double script_hit_rate = 0.0;
  std::uint64_t contentions = 0;
};

// Drive `threads` client threads, each POSTing `reports` reports under its
// own user id. Returns wall seconds.
double drive(core::ShardedOakServer& server, const Workload& w, int threads,
             int reports) {
  std::vector<std::thread> pool;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const std::string cookie =
          std::string(http::kOakUserCookie) + "=bench-u" + std::to_string(t);
      for (int i = 0; i < reports; ++i) {
        http::Request post =
            http::Request::post("http://busy.com/oak/report", w.wire);
        post.headers.set("Cookie", cookie);
        http::Response resp = server.handle(post, double(i));
        if (resp.status >= 400) {
          std::fprintf(stderr, "report rejected: %d\n", resp.status);
          std::abort();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Untimed reports per thread before each timed window. Steady-state
// ingestion is what the gates mean: per-shard memo/digest warmup is a
// fixed cost that amortizes to nothing in production but would dominate a
// short timed run (and would punish high shard counts for having N cold
// caches instead of one).
constexpr int kWarmup = 100;

// One matrix cell, best of kReps. `cache` = false is the seed's matcher (no
// memoization); its cells are ~20x slower per report, so they warm up with
// fewer reports — there is no cache to warm, only profiles and activations.
RunResult run_cell(std::string config, std::size_t shards, bool cache,
                   int threads, int reports,
                   util::Json* metrics_out = nullptr) {
  RunResult best;
  for (int rep = 0; rep < kReps; ++rep) {
    Workload w;
    core::OakConfig cfg;
    cfg.matcher.enable_cache = cache;
    core::ShardedOakServer server(w.universe, "busy.com", cfg, shards);
    server.add_rules(build_rules());
    RunResult res;
    res.config = config;
    res.shards = shards;
    res.threads = threads;
    drive(server, w, threads, cache ? kWarmup : 10);  // untimed
    res.seconds = drive(server, w, threads, reports);
    res.reports_per_sec = double(threads) * reports / res.seconds;
    const core::MatchCacheStats stats = server.match_cache_stats();
    res.memo_hit_rate = stats.memo_hit_rate();
    res.script_hit_rate = stats.script_hit_rate();
    res.contentions = server.shard_stats().contentions;
    const bool better =
        rep == 0 || res.reports_per_sec > best.reports_per_sec;
    if (better) {
      best = res;
      // Merged per-shard obs snapshot: stage latency histograms for exactly
      // the traffic this run timed.
      if (metrics_out != nullptr) *metrics_out = server.metrics_json();
    }
  }
  return best;
}

util::Json run_to_json(const RunResult& r, int reports, double rel_to) {
  util::JsonObject o;
  o["config"] = r.config;
  o["shards"] = r.shards;
  o["threads"] = r.threads;
  o["reports_per_thread"] = reports;
  o["seconds"] = r.seconds;
  o["reports_per_sec"] = r.reports_per_sec;
  if (rel_to > 0.0) o["speedup_vs_baseline"] = r.reports_per_sec / rel_to;
  o["memo_hit_rate"] = r.memo_hit_rate;
  o["script_cache_hit_rate"] = r.script_hit_rate;
  o["shard_contentions"] = r.contentions;
  return util::Json(std::move(o));
}

void print_run(const RunResult& r) {
  std::printf("%-20s %3dT %10.3f %12.0f %9.1f%% %12llu\n",
              r.config.c_str(), r.threads, r.seconds, r.reports_per_sec,
              100.0 * r.memo_hit_rate,
              static_cast<unsigned long long>(r.contentions));
}

}  // namespace

int main(int argc, char** argv) {
  int reports = 250;  // per thread, per cell
  if (argc > 1) reports = std::max(1, std::atoi(argv[1]));
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const std::vector<std::size_t> shard_counts = {1, 4, 8, 16};
  const int max_threads = thread_counts.back();

  std::printf("report ingestion matrix: {1,2,4,8} threads x sharded "
              "{1,4,8,16}, %d reports/thread, %zu rules (%zu x %zuKB "
              "filler), best of %d, %u core(s)\n\n",
              reports, 4 + kFillerRules, kFillerRules, kFillerBytes / 1024,
              kReps, cores);
  std::printf("%-20s %4s %10s %12s %10s %12s\n", "config", "thr",
              "seconds", "reports/s", "memo-hit", "contentions");

  // Legacy baseline (top thread count only; it is ~20x slower per report).
  const RunResult baseline = run_cell("single-mutex-nocache", 1,
                                      /*cache=*/false, max_threads, reports);
  print_run(baseline);

  // The matrix. rps[threads][shards] drives the gates below.
  std::vector<RunResult> matrix;
  util::Json stage_metrics;
  double sharded1_at[9] = {0.0};  // indexed by thread count
  double sharded8_at8 = 0.0, sharded8_at_max = 0.0;
  for (int threads : thread_counts) {
    for (std::size_t shards : shard_counts) {
      const bool acceptance_cell = threads == max_threads && shards == 8;
      RunResult r = run_cell("sharded-" + std::to_string(shards), shards,
                             /*cache=*/true, threads, reports,
                             acceptance_cell ? &stage_metrics : nullptr);
      print_run(r);
      if (shards == 1) sharded1_at[threads] = r.reports_per_sec;
      if (shards == 8 && threads == 8) sharded8_at8 = r.reports_per_sec;
      if (shards == 8 && threads == max_threads) {
        sharded8_at_max = r.reports_per_sec;
      }
      matrix.push_back(std::move(r));
    }
  }

  // --- Gates.
  const double legacy_speedup = sharded8_at_max / baseline.reports_per_sec;
  const bool legacy_pass = legacy_speedup >= 3.0;

  const bool multicore_enforced = cores >= 4;
  const double multicore_ratio =
      sharded1_at[8] > 0.0 ? sharded8_at8 / sharded1_at[8] : 0.0;
  const bool multicore_pass = !multicore_enforced || multicore_ratio >= 3.0;

  constexpr double kFloor = 0.9;
  bool floor_pass = true;
  std::string floor_worst = "none";
  double floor_worst_ratio = 1e9;
  for (const RunResult& r : matrix) {
    if (r.shards == 1) continue;
    const double base = sharded1_at[r.threads];
    if (base <= 0.0) continue;
    const double ratio = r.reports_per_sec / base;
    if (ratio < floor_worst_ratio) {
      floor_worst_ratio = ratio;
      floor_worst = r.config + "@" + std::to_string(r.threads) + "T";
    }
    if (ratio < kFloor) floor_pass = false;
  }

  util::JsonArray out_runs;
  out_runs.push_back(run_to_json(baseline, reports, 0.0));
  for (const RunResult& r : matrix) {
    out_runs.push_back(run_to_json(r, reports, baseline.reports_per_sec));
  }

  util::JsonObject root;
  root["bench"] = std::string("load_concurrent");
  root["hardware_concurrency"] = static_cast<std::size_t>(cores);
  root["reports_per_thread"] = reports;
  root["reps_best_of"] = static_cast<std::size_t>(kReps);
  root["runs"] = std::move(out_runs);
  root["metrics"] = std::move(stage_metrics);

  // Each gate carries an explicit status: "pass", "fail", or "skipped".
  // A skipped gate (e.g. multicore scaling on a small host) must be
  // distinguishable from a passing one in the checked-in JSON — readers
  // should never mistake "could not measure" for "measured and fine".
  util::JsonObject acceptance;
  acceptance["hardware_concurrency"] = static_cast<std::size_t>(cores);
  {
    util::JsonObject g;
    g["speedup"] = legacy_speedup;
    g["required"] = 3.0;
    g["status"] = std::string(legacy_pass ? "pass" : "fail");
    acceptance["legacy_vs_single_mutex"] = std::move(g);
  }
  {
    util::JsonObject g;
    g["enforced"] = multicore_enforced;
    g["sharded8_vs_sharded1_at_8t"] = multicore_ratio;
    g["required"] = 3.0;
    g["status"] = std::string(!multicore_enforced    ? "skipped"
                              : multicore_ratio >= 3.0 ? "pass"
                                                       : "fail");
    acceptance["multicore_scaling"] = std::move(g);
  }
  {
    util::JsonObject g;
    g["floor"] = kFloor;
    g["worst_cell"] = floor_worst;
    g["worst_ratio"] = floor_worst_ratio;
    g["status"] = std::string(floor_pass ? "pass" : "fail");
    acceptance["sharding_never_loses"] = std::move(g);
  }
  root["acceptance"] = std::move(acceptance);

  std::ofstream("BENCH_concurrency.json")
      << util::Json(std::move(root)).dump_pretty(2) << "\n";

  std::printf("\nlegacy: sharded-8 vs single-mutex at %dT: %.2fx "
              "(>= 3.00x) -> %s\n",
              max_threads, legacy_speedup, legacy_pass ? "PASS" : "FAIL");
  if (multicore_enforced) {
    std::printf("multicore: sharded-8 vs sharded-1 at 8T: %.2fx (>= 3.00x, "
                "%u cores) -> %s\n",
                multicore_ratio, cores, multicore_pass ? "PASS" : "FAIL");
  } else {
    std::printf("multicore: sharded-8 vs sharded-1 at 8T: %.2fx — gate "
                "SKIPPED (%u core(s) < 4; scaling needs real cores)\n",
                multicore_ratio, cores);
  }
  std::printf("floor: worst sharded-N vs sharded-1 = %.2fx at %s "
              "(>= %.2fx) -> %s\n",
              floor_worst_ratio, floor_worst.c_str(), kFloor,
              floor_pass ? "PASS" : "FAIL");
  std::printf("wrote BENCH_concurrency.json\n");

  const bool ok = legacy_pass && multicore_pass && floor_pass;
  return ok ? 0 : 1;
}
