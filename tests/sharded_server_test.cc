// Stress tests for the sharded serving plane: many client threads hammering
// one site with interleaved page serves and report POSTs, checked against a
// single-threaded replay of the identical request streams. Per-user state is
// independent by design (§4.3), so the sharded outcome must be byte-equal to
// the sequential one, regardless of interleaving.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "core/concurrent_server.h"
#include "core/rule_parser.h"
#include "core/sharded_server.h"
#include "http/cookies.h"

namespace oak::core {
namespace {

constexpr int kThreads = 8;
constexpr int kIterations = 40;

class ShardedFixture : public ::testing::Test {
 protected:
  ShardedFixture()
      : universe_(net::NetworkConfig{.seed = 17, .horizon_s = 0}) {
    net::Network& net = universe_.network();
    origin_ = net.add_server(net::ServerConfig{.name = "origin"});
    universe_.dns().bind("busy.com", net.server(origin_).addr());
    for (const char* host : {"x0.net", "x1.net", "x2.net", "x3.net",
                             "agg.net", "hidden.cdn.net", "alt.net",
                             "alt2.net"}) {
      net::ServerId sid = net.add_server(net::ServerConfig{});
      universe_.dns().bind(host, net.server(sid).addr());
      ips_[host] = net.server(sid).addr().to_string();
    }

    page::SiteBuilder b(universe_, "busy.com", origin_);
    for (int i = 0; i < 4; ++i) {
      b.add_direct("x" + std::to_string(i) + ".net", "/o.js",
                   html::RefKind::kScript, 9000, page::Category::kCdn);
    }
    // Tier-3 material: the aggregator script induces the hidden CDN object.
    b.add_script_with_induced(
        "agg.net", "/loader.js", 4000, page::Category::kAds,
        {{"hidden.cdn.net", "/pix.png", html::RefKind::kImage, 7000,
          page::Category::kAds}});
    site_ = b.finish();
    universe_.store().replicate("http://x0.net/o.js", "http://alt.net/o.js");

    cfg_.detector.min_population = 4;
    // Contexts ride the merged log too (policy replay over a sharded
    // deployment) — recording them must not perturb decisions.
    cfg_.policy.record_context = true;
  }

  std::vector<Rule> rules() const {
    return {make_domain_rule("direct", "x0.net", {"alt.net"}),
            // Activates only through the loader.js body (tier 3).
            make_domain_rule("via-script", "agg.net", {"alt2.net"})};
  }

  // One synthetic report: x0.net and hidden.cdn.net are violators; the
  // aggregator script rides along as the tier-3 candidate.
  std::string report_wire() {
    browser::PerfReport r;
    r.page_url = site_.index_url();
    r.entries.push_back(
        {site_.index_url(), "busy.com", "10.0.0.1", 4000, 0, 0.09});
    for (int i = 0; i < 4; ++i) {
      const std::string host = "x" + std::to_string(i) + ".net";
      r.entries.push_back({"http://" + host + "/o.js", host, ips_[host], 9000,
                           0.1, i == 0 ? 4.0 : 0.10 + 0.01 * i});
    }
    r.entries.push_back({"http://agg.net/loader.js", "agg.net",
                         ips_["agg.net"], 4000, 0.1, 0.12});
    r.entries.push_back({"http://hidden.cdn.net/pix.png", "hidden.cdn.net",
                         ips_["hidden.cdn.net"], 7000, 0.1, 3.5});
    return r.serialize();
  }

  static std::string uid_for(int thread, int user) {
    return "w" + std::to_string(thread) + "u" + std::to_string(user);
  }

  // The request stream one user issues: page serve then report, per tick.
  template <typename ServerT>
  void drive_user(ServerT& server, const std::string& uid,
                  const std::string& wire) {
    const std::string cookie = std::string(http::kOakUserCookie) + "=" + uid;
    for (int i = 0; i < kIterations; ++i) {
      http::Request get = http::Request::get(site_.index_url());
      get.headers.set("Cookie", cookie);
      ASSERT_TRUE(server.handle(get, double(i)).ok());
      http::Request post =
          http::Request::post("http://busy.com/oak/report", wire);
      post.headers.set("Cookie", cookie);
      ASSERT_LT(server.handle(post, double(i) + 0.5).status, 400);
    }
  }

  // Hammer the sharded server from kThreads threads (2 users per thread).
  void run_concurrent(ShardedOakServer& server) {
    const std::string wire = report_wire();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int u = 0; u < 2; ++u) {
          drive_user(server, uid_for(t, u), wire);
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  // The same requests, sequentially, against the single-threaded core.
  void run_replay(OakServer& server) {
    const std::string wire = report_wire();
    for (int t = 0; t < kThreads; ++t) {
      for (int u = 0; u < 2; ++u) drive_user(server, uid_for(t, u), wire);
    }
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  std::map<std::string, std::string> ips_;
  page::Site site_;
  OakConfig cfg_;
};

TEST_F(ShardedFixture, StressMatchesSingleThreadedReplay) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());
  run_concurrent(sharded);

  OakServer replay(universe_, "busy.com", cfg_);
  replay.add_rules(rules());
  run_replay(replay);

  constexpr std::size_t kUsers = std::size_t(kThreads) * 2;
  constexpr std::size_t kReports = kUsers * kIterations;
  EXPECT_EQ(sharded.user_count(), kUsers);
  EXPECT_EQ(sharded.reports_processed(), kReports);
  EXPECT_EQ(replay.reports_processed(), kReports);

  // Profiles must be byte-identical to the sequential outcome: per-user
  // state never crosses users, so interleaving cannot change it.
  util::Json sharded_snap = sharded.export_state();
  util::Json replay_snap = replay.export_state();
  EXPECT_TRUE(sharded_snap.at("users") == replay_snap.at("users"));

  // Both rules end active for every user (tier 2 and tier 3 paths).
  for (int t = 0; t < kThreads; ++t) {
    for (int u = 0; u < 2; ++u) {
      auto p = sharded.profile(uid_for(t, u));
      ASSERT_TRUE(p.has_value());
      EXPECT_EQ(p->active.size(), 2u);
      EXPECT_EQ(p->reports_received, std::size_t(kIterations));
      EXPECT_EQ(p->pages_served, std::size_t(kIterations));
    }
  }

  // Decision totals match the replay type-for-type, and the replay
  // contexts merge alongside them in one global time order.
  const DecisionLog merged = sharded.merged_decision_log();
  EXPECT_EQ(merged.size(), replay.decision_log().size());
  EXPECT_EQ(merged.contexts().size(), replay.decision_log().contexts().size());
  EXPECT_FALSE(merged.contexts().empty());
  for (std::size_t i = 1; i < merged.contexts().size(); ++i) {
    EXPECT_LE(merged.contexts()[i - 1].time, merged.contexts()[i].time);
  }
  for (DecisionType type :
       {DecisionType::kActivate, DecisionType::kDeactivate,
        DecisionType::kAdvanceAlternative, DecisionType::kKeepAlternative,
        DecisionType::kExpire, DecisionType::kServeModified}) {
    EXPECT_EQ(merged.count(type), replay.decision_log().count(type))
        << to_string(type);
  }
}

TEST_F(ShardedFixture, ExportImportRoundTripsAcrossShardCounts) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());
  run_concurrent(sharded);
  // Through the wire format, as a real restart would go. (dump() rounds
  // doubles to 12 significant digits, so the parsed snapshot — what an
  // importer actually sees — is the equality baseline.)
  const util::Json snapshot =
      util::Json::parse(sharded.export_state().dump());

  // Into a differently-sharded server…
  ShardedOakServer reborn(universe_, "busy.com", cfg_, 3);
  reborn.add_rules(rules());
  reborn.import_state(snapshot);
  EXPECT_EQ(reborn.user_count(), sharded.user_count());
  EXPECT_EQ(reborn.reports_processed(), sharded.reports_processed());
  EXPECT_EQ(reborn.merged_decision_log().size(),
            sharded.merged_decision_log().size());
  EXPECT_TRUE(reborn.export_state().at("users") == snapshot.at("users"));

  // …and into the plain single-threaded core.
  OakServer single(universe_, "busy.com", cfg_);
  single.add_rules(rules());
  single.import_state(snapshot);
  EXPECT_EQ(single.user_count(), sharded.user_count());
  EXPECT_TRUE(single.export_state().at("users") == snapshot.at("users"));

  // The reborn server keeps serving: traffic lands on restored profiles.
  const std::string wire = report_wire();
  http::Request post = http::Request::post("http://busy.com/oak/report", wire);
  post.headers.set("Cookie",
                   std::string(http::kOakUserCookie) + "=" + uid_for(0, 0));
  EXPECT_LT(reborn.handle(post, 1000.0).status, 400);
  EXPECT_EQ(reborn.profile(uid_for(0, 0))->reports_received,
            std::size_t(kIterations) + 1);
}

TEST_F(ShardedFixture, RuleChurnRacesWithTraffic) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 4);
  sharded.add_rules(rules());
  std::atomic<bool> stop{false};
  std::thread operator_thread([&] {
    int next = 100;
    while (!stop.load()) {
      Rule r = make_domain_rule("tmp" + std::to_string(next), "x1.net",
                                {"alt.net"});
      r.id = next;
      int id = sharded.add_rule(std::move(r));
      sharded.remove_rule(id, 0.0);
      ++next;
    }
  });
  std::thread auditor([&] {
    while (!stop.load()) {
      SiteAnalytics audit = sharded.audit();
      (void)audit.summary();
      util::Json snap = sharded.export_state();
      EXPECT_EQ(util::Json::parse(snap.dump()).at("site").as_string(),
                "busy.com");
    }
  });
  const std::string wire = report_wire();
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      const std::string cookie =
          std::string(http::kOakUserCookie) + "=c" + std::to_string(t);
      for (int i = 0; i < 100; ++i) {
        http::Request post =
            http::Request::post("http://busy.com/oak/report", wire);
        post.headers.set("Cookie", cookie);
        EXPECT_LT(sharded.handle(post, double(i)).status, 400);
      }
    });
  }
  for (auto& th : clients) th.join();
  stop = true;
  operator_thread.join();
  auditor.join();
  // The permanent rules survived the churn and are active for the users.
  EXPECT_EQ(sharded.rules().size(), 2u);
  EXPECT_EQ(sharded.profile("c0")->active.count(1), 1u);
}

TEST_F(ShardedFixture, FreshUsersMintDistinctCookies) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());
  std::atomic<int> cookies_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        http::Request get = http::Request::get(site_.index_url());
        http::Response resp = sharded.handle(get, double(i));
        ASSERT_TRUE(resp.ok());
        if (resp.headers.get("Set-Cookie")) cookies_seen++;
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every cookie-less request minted a distinct identity.
  EXPECT_EQ(cookies_seen.load(), kThreads * 25);
  EXPECT_EQ(sharded.user_count(), std::size_t(kThreads) * 25);
}

TEST_F(ShardedFixture, AuditExposesConcurrencyCounters) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());
  run_concurrent(sharded);

  SiteAnalytics audit = sharded.audit();
  const ConcurrencyCounters& c = audit.concurrency();
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.shards, 8u);
  // 2 requests per iteration per user.
  EXPECT_EQ(c.requests_handled,
            std::uint64_t(kThreads) * 2 * kIterations * 2);
  // The workload repeats identical questions: the memo must absorb most of
  // the matching, and each shard fetches loader.js at most once.
  EXPECT_GT(c.memo_hit_rate(), 0.5);
  EXPECT_LE(c.script_fetches, 8u);
  EXPECT_TRUE(audit.to_json().find("concurrency") != nullptr);
  // Summary still reflects the merged traffic.
  EXPECT_EQ(audit.summary().users, std::size_t(kThreads) * 2);
}

// The merged snapshot must cover every pipeline stage with the exact event
// totals from all 8 shards — nothing lost, nothing double-counted — and the
// wrapper-level serving-plane tallies fold into the same exposition. Runs
// under TSan in CI: concurrent snapshots race against live recording.
TEST_F(ShardedFixture, MergedMetricsCoverAllStagesUnderConcurrency) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());

  // Snapshot while traffic is in flight (the exposure TSan cares about).
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      obs::MetricsSnapshot s = sharded.metrics_snapshot();
      (void)s.to_prometheus();
    }
  });
  run_concurrent(sharded);
  stop = true;
  snapshotter.join();

  constexpr std::uint64_t kUsers = std::uint64_t(kThreads) * 2;
  constexpr std::uint64_t kReports = kUsers * kIterations;
  obs::MetricsSnapshot snap = sharded.metrics_snapshot();

  // The wrapper tallies are plain atomics folded in at snapshot time; they
  // hold with or without compiled-in obs.
  EXPECT_EQ(snap.counter("oak_requests_total"), kReports * 2);
  EXPECT_DOUBLE_EQ(snap.gauge("oak_shards"), 8.0);

  if constexpr (obs::kEnabled) {
    EXPECT_EQ(snap.counter("oak_reports_ingested_total"), kReports);
    EXPECT_EQ(snap.counter("oak_pages_served_total"), kReports);
    EXPECT_GT(snap.counter("oak_rule_activations_total"), 0u);
    // All five stages, merged across the per-shard registries. decode,
    // group, detect, and match run once per report; modify once per serve
    // that actually rewrote the page.
    for (const char* name :
         {"oak_ingest_decode_seconds", "oak_ingest_group_seconds",
          "oak_ingest_detect_seconds", "oak_ingest_match_seconds"}) {
      const obs::HistogramSnapshot* h = snap.histogram(name);
      ASSERT_NE(h, nullptr) << name;
      EXPECT_EQ(h->count(), kReports) << name;
    }
    const obs::HistogramSnapshot* modify =
        snap.histogram("oak_serve_modify_seconds");
    ASSERT_NE(modify, nullptr);
    EXPECT_GT(modify->count(), 0u);
    EXPECT_EQ(snap.histogram("oak_ingest_report_bytes")->count(), kReports);
    // Match-cache counters ride in the same snapshot, and the legacy view
    // projects from it without disagreement.
    const ConcurrencyCounters c =
        ConcurrencyCounters::from_metrics(snap, 8);
    EXPECT_EQ(c.requests_handled, kReports * 2);
    EXPECT_GT(c.memo_hit_rate(), 0.5);
    // Both expositions render the merged data.
    const std::string text = sharded.metrics_text();
    EXPECT_NE(text.find("# TYPE oak_ingest_decode_seconds histogram"),
              std::string::npos);
    EXPECT_NE(text.find("oak_shards 8"), std::string::npos);
    const util::Json j = util::Json::parse(sharded.metrics_json().dump());
    EXPECT_EQ(j.at("counters").at("oak_reports_ingested_total").as_int(),
              static_cast<std::int64_t>(kReports));
  }
}

// --- Ingest-queue variants. The batched hand-off (DESIGN.md §6) must be
// invisible to state: per-shard FIFO execution plus one-request-in-flight
// per user means every queue shape below produces the byte-identical
// profiles of a sequential replay.

// depth=2 / max_batch=1 maximizes contention on the queue itself: producers
// hit the backpressure wait constantly and every op is its own batch.
TEST_F(ShardedFixture, TinyQueueBackpressureMatchesReplay) {
  OakConfig cfg = cfg_;
  cfg.ingest_queue.depth = 2;
  cfg.ingest_queue.max_batch = 1;
  ShardedOakServer sharded(universe_, "busy.com", cfg, 8);
  sharded.add_rules(rules());
  run_concurrent(sharded);

  OakServer replay(universe_, "busy.com", cfg_);
  replay.add_rules(rules());
  run_replay(replay);
  EXPECT_TRUE(sharded.export_state().at("users") ==
              replay.export_state().at("users"));

  if constexpr (obs::kEnabled) {
    constexpr std::uint64_t kRequests =
        std::uint64_t(kThreads) * 2 * kIterations * 2;
    obs::MetricsSnapshot snap = sharded.metrics_snapshot();
    EXPECT_EQ(snap.counter("oak_ingest_enqueued_total"), kRequests);
    // max_batch=1: the combiner claims exactly one op per batch.
    EXPECT_EQ(snap.counter("oak_ingest_batches_total"), kRequests);
  }
}

// One shard funnels all 16 users through a single queue with wide batches —
// the shape where the combiner actually amortizes: many ops per shard-lock
// acquisition.
TEST_F(ShardedFixture, LargeBatchSingleShardMatchesReplay) {
  OakConfig cfg = cfg_;
  cfg.ingest_queue.depth = 512;
  cfg.ingest_queue.max_batch = 64;
  ShardedOakServer sharded(universe_, "busy.com", cfg, 1);
  sharded.add_rules(rules());
  run_concurrent(sharded);

  OakServer replay(universe_, "busy.com", cfg_);
  replay.add_rules(rules());
  run_replay(replay);
  EXPECT_TRUE(sharded.export_state().at("users") ==
              replay.export_state().at("users"));

  if constexpr (obs::kEnabled) {
    constexpr std::uint64_t kRequests =
        std::uint64_t(kThreads) * 2 * kIterations * 2;
    obs::MetricsSnapshot snap = sharded.metrics_snapshot();
    EXPECT_EQ(snap.counter("oak_ingest_enqueued_total"), kRequests);
    const std::uint64_t batches = snap.counter("oak_ingest_batches_total");
    EXPECT_GE(batches, 1u);
    EXPECT_LE(batches, kRequests);
    // Every enqueued op lands in exactly one batch.
    const obs::HistogramSnapshot* sizes =
        snap.histogram("oak_ingest_batch_size");
    ASSERT_NE(sizes, nullptr);
    EXPECT_EQ(sizes->count(), batches);
    EXPECT_DOUBLE_EQ(sizes->sum, double(kRequests));
  }
}

// Kill switch: ingest_queue.enabled=false reverts to lock-per-request and
// must still match the replay — and register no queue instruments.
TEST_F(ShardedFixture, QueueDisabledDirectModeMatchesReplay) {
  OakConfig cfg = cfg_;
  cfg.ingest_queue.enabled = false;
  ShardedOakServer sharded(universe_, "busy.com", cfg, 8);
  sharded.add_rules(rules());
  run_concurrent(sharded);

  OakServer replay(universe_, "busy.com", cfg_);
  replay.add_rules(rules());
  run_replay(replay);
  EXPECT_TRUE(sharded.export_state().at("users") ==
              replay.export_state().at("users"));

  obs::MetricsSnapshot snap = sharded.metrics_snapshot();
  EXPECT_EQ(snap.counter("oak_ingest_enqueued_total"), 0u);
  EXPECT_EQ(snap.histogram("oak_ingest_batch_size"), nullptr);
}

// Default queue configuration: every request is accounted for exactly once
// across the queue-health instruments, and the depth gauge drains to zero
// once the fleet goes quiet.
TEST_F(ShardedFixture, QueueMetricsAccountForEveryRequest) {
  ShardedOakServer sharded(universe_, "busy.com", cfg_, 8);
  sharded.add_rules(rules());
  run_concurrent(sharded);

  if constexpr (obs::kEnabled) {
    constexpr std::uint64_t kRequests =
        std::uint64_t(kThreads) * 2 * kIterations * 2;
    obs::MetricsSnapshot snap = sharded.metrics_snapshot();
    EXPECT_EQ(snap.counter("oak_ingest_enqueued_total"), kRequests);
    const std::uint64_t batches = snap.counter("oak_ingest_batches_total");
    EXPECT_GE(batches, 1u);
    EXPECT_LE(batches, kRequests);
    const obs::HistogramSnapshot* sizes =
        snap.histogram("oak_ingest_batch_size");
    ASSERT_NE(sizes, nullptr);
    EXPECT_EQ(sizes->count(), batches);
    EXPECT_DOUBLE_EQ(sizes->sum, double(kRequests));
    // All queues are empty at rest (per-shard gauges merge by addition).
    EXPECT_DOUBLE_EQ(snap.gauge("oak_ingest_queue_depth"), 0.0);
    // Backpressure is workload-dependent; the counter just has to exist and
    // render (it does, at zero or more).
    EXPECT_LE(snap.counter("oak_ingest_backpressure_total"), kRequests);
  }
}

// --- Rule churn: holder-index retirement against a full sweep -----------

// Every regular file under `dir`, by path: the journal, snapshots and spill
// files a rejected rule change must leave byte-identical.
std::map<std::string, std::string> dir_bytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    out[e.path().string()] = ss.str();
  }
  return out;
}

// What sweeping every profile for `rule_id` does to the exported users:
// the rule leaves active, pending, next_alt, banned, race and cooldown.
void strip_rule(util::JsonObject& users, int rule_id) {
  const std::string key = std::to_string(rule_id);
  auto names_rule = [&](const util::Json& j) {
    return j.at("rule").as_int() == rule_id;
  };
  for (auto& [uid, u] : users) {
    util::JsonObject& o = u.as_object();
    util::JsonArray& active = o["active"].as_array();
    active.erase(std::remove_if(active.begin(), active.end(), names_rule),
                 active.end());
    o["pending"].as_object().erase(key);
    o["next_alt"].as_object().erase(key);
    util::JsonArray& banned = o["banned"].as_array();
    banned.erase(std::remove_if(banned.begin(), banned.end(),
                                [&](const util::Json& b) {
                                  return b.as_int() == rule_id;
                                }),
                 banned.end());
    if (auto it = o.find("race"); it != o.end()) {
      util::JsonArray& race = it->second.as_array();
      race.erase(std::remove_if(race.begin(), race.end(), names_rule),
                 race.end());
      if (race.empty()) o.erase(it);
    }
    if (auto it = o.find("cooldown"); it != o.end()) {
      it->second.as_object().erase(key);
      if (it->second.as_object().empty()) o.erase(it);
    }
  }
}

// (id, rule-file text) of each rule, in rule-set order.
std::vector<std::pair<int, std::string>> rule_list(
    const std::vector<Rule>& rules) {
  std::vector<std::pair<int, std::string>> out;
  for (const Rule& r : rules) out.emplace_back(r.id, format_rules({r}));
  return out;
}

class RuleChurnFixture : public ShardedFixture {
 protected:
  RuleChurnFixture() {
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("oak_rule_churn_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    std::filesystem::remove_all(dir_);
    // Most users cold: 3 hot slots per shard for 40 returning users.
    cfg_.user_store.hot_capacity = 3;
    cfg_.user_store.spill_dir = dir_;
    cfg_.durability.enabled = true;
    cfg_.durability.dir = dir_ + "/journal";
    // Deactivated rules are banned, so retirement has bans to clear.
    cfg_.policy.allow_reactivation = false;
  }
  ~RuleChurnFixture() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  // Rules covering every kind of per-user state: active with one or two
  // alternatives, pending (min_violations), race, cooldown, a TTL, and a
  // tier-3 match.
  std::vector<Rule> pool() const {
    std::vector<Rule> p;
    p.push_back(make_domain_rule("x0", "x0.net", {"alt.net"}));
    p.push_back(make_domain_rule("x0-two", "x0.net", {"alt.net", "alt2.net"}));
    Rule pending = make_domain_rule("x1", "x1.net", {"alt.net", "alt2.net"});
    pending.min_violations = 2;
    p.push_back(pending);
    Rule race = make_domain_rule("x2", "x2.net", {"alt.net", "alt2.net"});
    race.policy = "racing";
    p.push_back(race);
    Rule cool = make_domain_rule("x3", "x3.net", {"alt.net"});
    cool.policy = "hysteresis";
    p.push_back(cool);
    Rule ttl = make_domain_rule("hidden", "hidden.cdn.net", {"alt2.net"});
    ttl.ttl_s = 6.0;
    p.push_back(ttl);
    p.push_back(make_domain_rule("via-script", "agg.net", {"alt2.net"}));
    return p;
  }

  // A report in which each host is slow with probability 1/4; alt.net and
  // alt2.net ride along, so active alternatives get judged too.
  std::string random_report(std::mt19937& rng) {
    browser::PerfReport r;
    r.page_url = site_.index_url();
    r.plt_s = 1.0 + double(rng() % 100) / 50.0;
    r.entries.push_back(
        {site_.index_url(), "busy.com", "10.0.0.1", 4000, 0, 0.09});
    for (const char* host : {"x0.net", "x1.net", "x2.net", "x3.net",
                             "alt.net", "alt2.net", "hidden.cdn.net"}) {
      const bool slow = rng() % 4 == 0;
      r.entries.push_back(
          {std::string("http://") + host + "/o.js", host, ips_[host], 9000,
           0.1, slow ? 3.0 + double(rng() % 100) / 50.0
                     : 0.10 + 0.01 * double(rng() % 5)});
    }
    r.entries.push_back({"http://agg.net/loader.js", "agg.net",
                         ips_["agg.net"], 4000, 0.1, 0.12});
    return r.serialize();
  }

  std::vector<Rule> random_file(std::mt19937& rng) {
    const std::vector<Rule> p = pool();
    std::vector<Rule> file;
    const std::size_t n = rng() % 5;
    for (std::size_t i = 0; i < n; ++i) file.push_back(p[rng() % p.size()]);
    return file;
  }

  // The export a full sweep would leave after retiring `retired` (in
  // order) at `now`: each shard's kExpire records, per rule in uid order,
  // taken from for_each_profile, appended in shard order, as the merged
  // log orders same-time records.
  util::Json expect_retired(ShardedOakServer& s, const util::Json& before,
                            const std::vector<int>& retired, double now) {
    util::Json want = before;
    util::JsonArray& log = want["log"].as_array();
    for (std::size_t i = 0; i < s.shard_count(); ++i) {
      for (int id : retired) {
        s.shard(i).for_each_profile([&](const UserProfile& p) {
          auto it = p.active.find(id);
          if (it == p.active.end()) return;
          log.push_back(decision_to_json(
              Decision{now, p.user_id, id, DecisionType::kExpire, "", 0.0,
                       it->second.alternative_index}));
        });
      }
    }
    for (int id : retired) strip_rule(want["users"].as_object(), id);
    return want;
  }

  std::string dir_;
};

TEST_F(RuleChurnFixture, RandomChurnMatchesFullSweepAndSurvivesRestart) {
  std::mt19937 rng(20261019);
  auto server = std::make_unique<ShardedOakServer>(universe_, "busy.com",
                                                   cfg_, 4);
  // The expected rule set, tracked independently of the server.
  std::vector<std::pair<int, std::string>> want_rules;
  int next_id = 1;
  std::size_t retirements = 0, expires = 0;
  double now = 0.0;
  for (int step = 0; step < 700; ++step) {
    now += 1.0;
    const unsigned op = rng() % 100;
    if (op < 70) {
      const bool fresh = rng() % 10 == 0;
      http::Request req =
          op < 45 ? http::Request::post("http://busy.com/oak/report",
                                        random_report(rng))
                  : http::Request::get(site_.index_url());
      if (!fresh) {
        req.headers.set("Cookie", std::string(http::kOakUserCookie) + "=r" +
                                      std::to_string(rng() % 40));
      }
      ASSERT_LT(server->handle(req, now).status, 500);
      continue;
    }
    if (op < 72) {
      server->compact();
      continue;
    }
    const util::Json before = server->export_state();
    if (op < 76) {
      // A file with one unknown strategy: rejected, nothing changes.
      std::vector<Rule> file = random_file(rng);
      Rule bad = make_domain_rule("bad", "x1.net", {"alt.net"});
      bad.policy = "nosuch";
      file.insert(file.begin() + std::ptrdiff_t(rng() % (file.size() + 1)),
                  bad);
      const auto bytes = dir_bytes(dir_);
      if (rng() % 2 == 0) {
        EXPECT_THROW(server->replace_rules(file, now), std::invalid_argument);
      } else {
        EXPECT_THROW(server->add_rules(file), std::invalid_argument);
      }
      EXPECT_EQ(server->export_state().dump(), before.dump());
      EXPECT_EQ(rule_list(server->rules()), want_rules);
      EXPECT_TRUE(dir_bytes(dir_) == bytes);
      continue;
    }
    std::vector<int> retired;
    if (op < 86) {
      // PUT: pair texts as a multiset; the rest retire, in rule-set order.
      const std::vector<Rule> file = random_file(rng);
      std::vector<bool> paired(want_rules.size(), false);
      std::vector<int> want_ids;
      std::vector<std::pair<int, std::string>> added;
      for (const Rule& r : file) {
        const std::string text = format_rules({r});
        std::size_t j = 0;
        while (j < want_rules.size() &&
               (paired[j] || want_rules[j].second != text)) {
          ++j;
        }
        if (j < want_rules.size()) {
          paired[j] = true;
          want_ids.push_back(want_rules[j].first);
        } else {
          want_ids.push_back(next_id);
          added.emplace_back(next_id++, text);
        }
      }
      std::vector<std::pair<int, std::string>> kept;
      for (std::size_t j = 0; j < want_rules.size(); ++j) {
        if (paired[j]) {
          kept.push_back(want_rules[j]);
        } else {
          retired.push_back(want_rules[j].first);
        }
      }
      const util::Json want = expect_retired(*server, before, retired, now);
      EXPECT_EQ(server->replace_rules(file, now), want_ids);
      kept.insert(kept.end(), added.begin(), added.end());
      want_rules = kept;
      EXPECT_EQ(server->export_state().dump(), want.dump()) << "step " << step;
    } else if (op < 92) {
      // POST: append with fresh ids; no state changes.
      const std::vector<Rule> file = random_file(rng);
      std::vector<int> want_ids;
      for (const Rule& r : file) {
        want_ids.push_back(next_id);
        want_rules.emplace_back(next_id++, format_rules({r}));
      }
      EXPECT_EQ(server->add_rules(file), want_ids);
      EXPECT_EQ(server->export_state().dump(), before.dump());
    } else {
      // DELETE a live id, or (one time in four) one that is not there.
      if (want_rules.empty() || rng() % 4 == 0) {
        const auto bytes = dir_bytes(dir_);
        EXPECT_FALSE(server->remove_rule(next_id + 7, now));
        EXPECT_EQ(server->export_state().dump(), before.dump());
        EXPECT_TRUE(dir_bytes(dir_) == bytes);
        continue;
      }
      const std::size_t j = rng() % want_rules.size();
      retired.push_back(want_rules[j].first);
      const util::Json want = expect_retired(*server, before, retired, now);
      EXPECT_TRUE(server->remove_rule(want_rules[j].first, now));
      want_rules.erase(want_rules.begin() + std::ptrdiff_t(j));
      EXPECT_EQ(server->export_state().dump(), want.dump()) << "step " << step;
    }
    EXPECT_EQ(rule_list(server->rules()), want_rules) << "step " << step;
    retirements += retired.size();
    expires += server->export_state().at("log").as_array().size() -
               before.at("log").as_array().size();
  }
  // The walk exercised what it claims to: retirements that expired active
  // users, most of them cold.
  EXPECT_GT(retirements, 20u);
  EXPECT_GT(expires, 20u);
  EXPECT_GT(server->shard(0).user_store().cold_count(), 0u);

  // A WAL restart rebuilds the same rules, state and log: first from the
  // last snapshot plus the journal suffix, then from a fresh snapshot
  // alone, whose import rebuilds the whole holder index.
  const std::string final_state = server->export_state().dump();
  server.reset();
  for (int restart = 0; restart < 2; ++restart) {
    server = std::make_unique<ShardedOakServer>(universe_, "busy.com", cfg_,
                                                4);
    EXPECT_TRUE(server->recovery_report().performed);
    EXPECT_EQ(rule_list(server->rules()), want_rules);
    EXPECT_EQ(server->export_state().dump(), final_state);
    server->compact();
    server.reset();
  }
  ShardedOakServer reborn(universe_, "busy.com", cfg_, 4);
  EXPECT_EQ(reborn.recovery_report().records_replayed, 0u);
  EXPECT_EQ(reborn.export_state().dump(), final_state);

  // The imported holder index retires exactly what a full sweep would.
  std::vector<int> all;
  for (const auto& [id, text] : want_rules) all.push_back(id);
  const util::Json before = reborn.export_state();
  const util::Json want = expect_retired(reborn, before, all, now + 1.0);
  EXPECT_TRUE(reborn.replace_rules({}, now + 1.0).empty());
  EXPECT_EQ(reborn.export_state().dump(), want.dump());
  EXPECT_GT(want.at("log").as_array().size(),
            before.at("log").as_array().size());
}

// With every rule forced on, a page's alias headers name the whole rule
// set it was served under. PUTs alternate between two sets with different
// alias targets; a request that saw the set mid-change would carry a mix,
// or none.
TEST_F(ShardedFixture, ForcedRulesResponsesSeeExactlyOneRuleSet) {
  OakConfig cfg = cfg_;
  cfg.force_all_rules = true;
  ShardedOakServer sharded(universe_, "busy.com", cfg, 4);
  std::vector<Rule> sets[2];
  for (int i = 0; i < 4; ++i) {
    const std::string host = "x" + std::to_string(i) + ".net";
    sets[0].push_back(make_domain_rule("a" + host, host, {"alt.net"}));
    sets[1].push_back(make_domain_rule("b" + host, host, {"alt2.net"}));
  }
  auto aliases = [&](const std::string& uid) {
    http::Request get = http::Request::get(site_.index_url());
    get.headers.set("Cookie", std::string(http::kOakUserCookie) + "=" + uid);
    const http::Response resp = sharded.handle(get, 0.0);
    std::multiset<std::string> out;
    for (const auto& [name, value] : resp.headers.entries()) {
      if (name == http::kOakAliasHeader) out.insert(value);
    }
    return out;
  };
  std::multiset<std::string> want[2];
  for (int k = 0; k < 2; ++k) {
    sharded.replace_rules(sets[k], 0.0);
    want[k] = aliases("probe");
    ASSERT_EQ(want[k].size(), 4u);
  }
  ASSERT_NE(want[0], want[1]);

  std::atomic<int> readers_left{4};
  std::atomic<int> mixed{0};
  std::thread writer([&] {
    for (int k = 0; readers_left.load() > 0; k ^= 1) {
      sharded.replace_rules(sets[k], 1.0);
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 300; ++i) {
        const auto got = aliases("s" + std::to_string(t));
        if (got != want[0] && got != want[1]) mixed.fetch_add(1);
      }
      readers_left.fetch_sub(1);
    });
  }
  for (auto& th : readers) th.join();
  writer.join();
  EXPECT_EQ(mixed.load(), 0);
}

}  // namespace
}  // namespace oak::core
