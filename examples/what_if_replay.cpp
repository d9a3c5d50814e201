// What-if analysis on a recorded request journal.
//
// A day of live traffic is served by a journaled ShardedOakServer: with
// durability on, every request it handles is appended to its write-ahead
// journal (core/durability.h). The operator then starts offline Oak
// instances with different configurations over copies of that directory —
// recovery replays the journal through each candidate's own detector and
// policy, no new measurements needed — and compares how many switches each
// configuration would have made. This is the §6 "offline auditing tool"
// turned into a tuning workflow.
//
// A compaction folds the journal into a snapshot of *decided* state, so
// only the journal suffix after the latest compaction can be re-decided.
// The recording server therefore sets its compaction threshold above the
// journal this run writes.
//
// Run: build/examples/what_if_replay
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "browser/browser.h"
#include "core/sharded_server.h"

using namespace oak;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kShards = 4;

struct World {
  std::unique_ptr<page::WebUniverse> web;
  net::ServerId origin = net::kInvalidServer;
  page::Site site;
};

World build_world() {
  World w;
  w.web = std::make_unique<page::WebUniverse>(
      net::NetworkConfig{.seed = 321, .horizon_s = 86400.0});
  net::Network& net = w.web->network();
  w.origin = net.add_server(net::ServerConfig{.name = "origin"});
  w.web->dns().bind("shop.example", net.server(w.origin).addr());

  net::ServerConfig mild;  // borderline: ~2.5x, flickers around 2 MADs
  mild.name = "mild";
  mild.chronic_degradation = 2.5;
  w.web->dns().bind("mild.cdn.net", net.server(net.add_server(mild)).addr());
  net::ServerConfig severe;
  severe.name = "severe";
  severe.chronic_degradation = 12.0;
  w.web->dns().bind("severe.ads.net",
                    net.server(net.add_server(severe)).addr());
  w.web->dns().bind("alt.net",
                    net.server(net.add_server(net::ServerConfig{})).addr());
  for (int i = 0; i < 4; ++i) {
    w.web->dns().bind("p" + std::to_string(i) + ".net",
                      net.server(net.add_server(net::ServerConfig{})).addr());
  }

  page::SiteBuilder b(*w.web, "shop.example", w.origin);
  b.add_direct("mild.cdn.net", "/a.js", html::RefKind::kScript, 14'000,
               page::Category::kCdn);
  b.add_direct("severe.ads.net", "/b.js", html::RefKind::kScript, 14'000,
               page::Category::kAds);
  for (int i = 0; i < 4; ++i) {
    b.add_direct("p" + std::to_string(i) + ".net", "/c.js",
                 html::RefKind::kScript, 14'000, page::Category::kCdn);
  }
  w.site = b.finish();
  w.web->store().replicate("http://mild.cdn.net/a.js", "http://alt.net/a.js");
  w.web->store().replicate("http://severe.ads.net/b.js",
                           "http://alt.net/b.js");
  return w;
}

// A journaled server over `dir`. Rules are not passed here: the recording
// server adds them after startup, so they are journaled too, and every
// replaying server gets them back from the journal.
core::OakConfig journaled_config(const fs::path& dir, double k,
                                 int min_violations) {
  core::OakConfig cfg;
  cfg.detector.k = k;
  cfg.policy.default_min_violations = min_violations;
  cfg.durability.enabled = true;
  cfg.durability.dir = dir.string();
  cfg.durability.compact_threshold_bytes = 1ull << 30;
  return cfg;
}

std::uintmax_t journal_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("wal-", 0) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

}  // namespace

int main() {
  World w = build_world();
  const fs::path root = fs::temp_directory_path() /
                        ("oak-what-if-" + std::to_string(::getpid()));
  fs::remove_all(root);
  const fs::path recorded = root / "recorded";

  // --- Phase 1: serve and journal a day of traffic under the production
  // config.
  std::size_t live_activations = 0;
  {
    core::ShardedOakServer production(
        *w.web, "shop.example", journaled_config(recorded, 2.0, 1), kShards);
    production.add_rule(
        core::make_domain_rule("mild", "mild.cdn.net", {"alt.net"}));
    production.add_rule(
        core::make_domain_rule("severe", "severe.ads.net", {"alt.net"}));
    production.install();
    for (int user = 0; user < 8; ++user) {
      net::ClientConfig cc;
      cc.name = "user" + std::to_string(user);
      browser::BrowserConfig bc;
      bc.use_cache = false;
      browser::Browser b(*w.web, w.web->network().add_client(cc), bc);
      for (int load = 0; load < 6; ++load) {
        b.load(w.site.index_url(), user * 300.0 + load * 3600.0);
      }
    }
    live_activations = production.decision_count(core::DecisionType::kActivate);
    std::printf("journaled %llu requests (%llu KB of WAL)\n\n",
                static_cast<unsigned long long>(
                    production.shard_stats().requests_handled),
                static_cast<unsigned long long>(journal_bytes(recorded) /
                                                1024));
  }

  // --- Phase 2: replay the journal under candidate configurations, each
  // over its own copy (a replaying server journals onward into its dir).
  std::printf("%-28s %12s %14s\n", "configuration", "activations",
              "deactivations");
  struct Candidate {
    const char* label;
    double k;
    int min_violations;
  };
  std::size_t replayed_activations = 0;
  int n = 0;
  for (const Candidate& c : {Candidate{"k=2, switch on 1st (prod)", 2.0, 1},
                             Candidate{"k=2, switch on 3rd", 2.0, 3},
                             Candidate{"k=1 (aggressive)", 1.0, 1},
                             Candidate{"k=4 (conservative)", 4.0, 1}}) {
    const fs::path copy = root / ("candidate-" + std::to_string(n++));
    fs::copy(recorded, copy, fs::copy_options::recursive);
    core::ShardedOakServer oak(*w.web, "shop.example",
                               journaled_config(copy, c.k, c.min_violations),
                               kShards);
    const std::size_t activations =
        oak.decision_count(core::DecisionType::kActivate);
    if (n == 1) replayed_activations = activations;
    std::printf("%-28s %12zu %14zu\n", c.label, activations,
                oak.decision_count(core::DecisionType::kDeactivate));
  }
  fs::remove_all(root);
  std::printf(
      "\nsame traffic, four policies — tuned without touching a single "
      "user.\n"
      "caveat: the journal embeds the production policy's own effects "
      "(after\n"
      "it switched a user, later reports show the alternative, not the\n"
      "default) — a policy that waits longer than production sees fewer\n"
      "violations than it would have live. Replay bounds, not simulates,\n"
      "counterfactuals.\n");
  // The production config must re-decide exactly what it decided live.
  if (replayed_activations != live_activations) {
    std::fprintf(stderr, "replay under the production config: %zu "
                         "activations, live: %zu\n",
                 replayed_activations, live_activations);
    return 1;
  }
  return 0;
}
