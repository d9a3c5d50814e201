// The write-ahead journal as the request recording: live traffic served by a
// journaled ShardedOakServer, replayed by recovery into fresh servers over
// copies of its directory — under the recording config (identical decisions)
// and under a candidate config (what-if).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "browser/browser.h"
#include "core/sharded_server.h"
#include "util/strings.h"

namespace oak::core {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 4;

class JournalReplayFixture : public ::testing::Test {
 protected:
  JournalReplayFixture()
      : universe_(net::NetworkConfig{.seed = 55, .horizon_s = 0}) {
    root_ = fs::path(::testing::TempDir()) /
            ("oak_journal_replay_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    net::Network& net = universe_.network();
    origin_ = net.add_server(net::ServerConfig{.name = "origin"});
    universe_.dns().bind("traced.com", net.server(origin_).addr());
    net::ServerConfig sick;
    sick.chronic_degradation = 15.0;
    universe_.dns().bind("bad.net", net.server(net.add_server(sick)).addr());
    universe_.dns().bind(
        "alt.net", net.server(net.add_server(net::ServerConfig{})).addr());
    for (int i = 0; i < 4; ++i) {
      universe_.dns().bind(
          util::format("p%d.net", i),
          net.server(net.add_server(net::ServerConfig{})).addr());
    }
    page::SiteBuilder b(universe_, "traced.com", origin_);
    b.add_direct("bad.net", "/x.js", html::RefKind::kScript, 12'000,
                 page::Category::kCdn);
    for (int i = 0; i < 4; ++i) {
      b.add_direct(util::format("p%d.net", i), "/x.js",
                   html::RefKind::kScript, 12'000, page::Category::kCdn);
    }
    site_ = b.finish();
    universe_.store().replicate("http://bad.net/x.js", "http://alt.net/x.js");
  }

  ~JournalReplayFixture() override {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  // The threshold keeps every request in the journal suffix: a compaction
  // would fold inputs into decided state that replay cannot re-decide.
  static OakConfig journaled(const fs::path& dir, double k) {
    OakConfig cfg;
    cfg.detector.k = k;
    cfg.durability.enabled = true;
    cfg.durability.dir = dir.string();
    cfg.durability.compact_threshold_bytes = 1ull << 30;
    return cfg;
  }

  // Serves three loads for each of four browsers through a journaled
  // server whose one rule is added (and so journaled) after startup.
  std::unique_ptr<ShardedOakServer> record() {
    auto live = std::make_unique<ShardedOakServer>(
        universe_, "traced.com", journaled(root_ / "recorded", 2.0), kShards);
    live->add_rule(make_domain_rule("switch", "bad.net", {"alt.net"}));
    live->install();
    browser::BrowserConfig bc;
    bc.use_cache = false;
    for (int user = 0; user < 4; ++user) {
      browser::Browser b(universe_, universe_.network().add_client({}), bc);
      for (int i = 0; i < 3; ++i) {
        b.load(site_.index_url(), user * 10.0 + i * 60.0);
      }
    }
    return live;
  }

  // Recovery over a copy of the recorded directory re-decides every
  // journaled request under `k`.
  std::unique_ptr<ShardedOakServer> replay(const std::string& name,
                                           double k) {
    const fs::path copy = root_ / name;
    fs::copy(root_ / "recorded", copy, fs::copy_options::recursive);
    return std::make_unique<ShardedOakServer>(universe_, "traced.com",
                                              journaled(copy, k), kShards);
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  page::Site site_;
  fs::path root_;
};

TEST_F(JournalReplayFixture, ReplayReproducesDecisions) {
  auto live = record();
  const DecisionLog live_log = live->merged_decision_log();
  ASSERT_GT(live_log.count(DecisionType::kActivate), 0u);
  const std::uint64_t requests = live->shard_stats().requests_handled;
  ASSERT_GT(requests, 0u);

  auto offline = replay("same-config", 2.0);
  // Every journaled request, plus the rule's add record, was re-run.
  EXPECT_EQ(offline->recovery_report().records_replayed, requests + 1);
  EXPECT_EQ(offline->merged_decision_log().to_json().dump(),
            live_log.to_json().dump());
  EXPECT_EQ(offline->merged_decision_log().users_activating(),
            live_log.users_activating());
}

TEST_F(JournalReplayFixture, WhatIfReplayWithStricterDetector) {
  auto live = record();
  ASSERT_GT(live->decision_count(DecisionType::kActivate), 0u);
  const std::uint64_t requests = live->shard_stats().requests_handled;

  // A detector demanding 10 000 MADs would never have flagged anything.
  auto what_if = replay("strict-detector", 10'000.0);
  EXPECT_EQ(what_if->recovery_report().records_replayed, requests + 1);
  EXPECT_EQ(what_if->decision_count(DecisionType::kActivate), 0u);
}

}  // namespace
}  // namespace oak::core
