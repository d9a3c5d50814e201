// PolicyReplayer: fidelity against the live decision stream (for every
// strategy and history mode), determinism, scoring sanity, and
// racing-cohort stability across export/import.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/oak_server.h"
#include "core/policy_replay.h"
#include "http/cookies.h"
#include "util/rng.h"

namespace oak::core {
namespace {

// Synthetic-report scaffolding in the core_oak_server_test.cc mold: origin
// plus three external hosts, one rule switching ext0 to alt.cdn.net, and
// context recording on.
class ReplayFixture : public ::testing::Test {
 protected:
  ReplayFixture()
      : universe_(net::NetworkConfig{.seed = 11, .horizon_s = 0}) {
    net::Network& net = universe_.network();
    origin_ = net.add_server(net::ServerConfig{.name = "origin"});
    universe_.dns().bind("shop.com", net.server(origin_).addr());
    for (int i = 0; i < 3; ++i) {
      net::ServerId sid = net.add_server(net::ServerConfig{});
      const std::string host = "ext" + std::to_string(i) + ".cdn.net";
      universe_.dns().bind(host, net.server(sid).addr());
      ext_hosts_.push_back(host);
      ext_ips_.push_back(net.server(sid).addr().to_string());
    }
    net::ServerId alt = net.add_server(net::ServerConfig{});
    universe_.dns().bind("alt.cdn.net", net.server(alt).addr());
    alt_ip_ = net.server(alt).addr().to_string();
    net::ServerId alt2 = net.add_server(net::ServerConfig{});
    universe_.dns().bind("alt2.cdn.net", net.server(alt2).addr());
    alt2_ip_ = net.server(alt2).addr().to_string();

    page::SiteBuilder b(universe_, "shop.com", origin_);
    for (const auto& h : ext_hosts_) {
      b.add_direct(h, "/obj.png", html::RefKind::kImage, 10'000,
                   page::Category::kCdn);
    }
    site_ = b.finish();
    universe_.store().replicate("http://" + ext_hosts_[0] + "/obj.png",
                                "http://alt.cdn.net/obj.png");
    universe_.store().replicate("http://" + ext_hosts_[0] + "/obj.png",
                                "http://alt2.cdn.net/obj.png");
  }

  std::unique_ptr<OakServer> make_server(Policy policy) {
    OakConfig cfg;
    cfg.detector.min_population = 4;
    cfg.policy = std::move(policy);
    cfg.policy.record_context = true;
    auto oak = std::make_unique<OakServer>(universe_, "shop.com", cfg);
    // Two alternatives so the racing strategy actually races (it falls
    // back to seed selection on degenerate single-alternative rules).
    oak->add_rule(make_domain_rule("switch-ext0", ext_hosts_[0],
                                   {"alt.cdn.net", "alt2.cdn.net"}));
    oak->install();
    return oak;
  }

  browser::PerfReport make_report(const std::string& slow_host,
                                  const std::string& user,
                                  double slow_time = 3.0,
                                  double plt_s = 1.0) {
    browser::PerfReport r;
    r.user_id = user;
    r.page_url = site_.index_url();
    r.plt_s = plt_s;
    r.entries.push_back(
        {site_.index_url(), "shop.com", "10.0.0.1", 5000, 0, 0.09});
    for (std::size_t i = 0; i < ext_hosts_.size(); ++i) {
      const bool slow = ext_hosts_[i] == slow_host;
      r.entries.push_back({"http://" + ext_hosts_[i] + "/obj.png",
                           ext_hosts_[i], ext_ips_[i], 10'000, 0.1,
                           slow ? slow_time : 0.10 + 0.01 * double(i)});
    }
    if (slow_host == "alt.cdn.net") {
      r.entries.push_back({"http://alt.cdn.net/obj.png", "alt.cdn.net",
                           alt_ip_, 10'000, 0.1, slow_time});
    }
    return r;
  }

  // A deterministic mixed workload: per user, a violating report (ext0
  // slow), a healthy report, an alternative-violating report (alt slow),
  // then another ext0 violation — exercising activate, keep/deactivate and
  // re-activation paths.
  void drive(OakServer& oak) {
    const char* users[] = {"u-a", "u-b", "u-c"};
    double t = 0.0;
    for (const char* u : users) {
      oak.analyze(u, make_report(ext_hosts_[0], u, 3.0, 2.5), t);
      t += 10.0;
      oak.analyze(u, make_report("", u, 0.0, 0.8), t);
      t += 10.0;
      oak.analyze(u, make_report("alt.cdn.net", u, 4.0, 3.0), t);
      t += 10.0;
      oak.analyze(u, make_report(ext_hosts_[0], u, 3.5, 2.8), t);
      t += 10.0;
    }
  }

  static std::vector<Decision> minus_serve(const DecisionLog& log) {
    std::vector<Decision> out;
    for (const auto& d : log.entries()) {
      if (d.type != DecisionType::kServeModified) out.push_back(d);
    }
    return out;
  }

  static std::string dump_decisions(const std::vector<Decision>& ds) {
    util::JsonArray a;
    for (const auto& d : ds) a.push_back(decision_to_json(d));
    return util::Json(std::move(a)).dump();
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  std::vector<std::string> ext_hosts_;
  std::vector<std::string> ext_ips_;
  std::string alt_ip_;
  std::string alt2_ip_;
  page::Site site_;
};

TEST_F(ReplayFixture, ReproducesLiveDecisionStream) {
  auto oak = make_server(Policy{});
  drive(*oak);
  const auto& contexts = oak->decision_log().contexts();
  ASSERT_FALSE(contexts.empty());
  const auto live = minus_serve(oak->decision_log());
  ASSERT_FALSE(live.empty());

  PolicyReplayer replayer(oak->rules(), oak->config().policy,
                          oak->config().history);
  for (const auto& c : contexts) replayer.step(c);
  EXPECT_EQ(dump_decisions(replayer.log().entries()), dump_decisions(live));
}

TEST_F(ReplayFixture, ReproducesLiveStreamUnderRacing) {
  Policy p;
  p.default_strategy = "racing";
  auto oak = make_server(p);
  drive(*oak);
  const auto live = minus_serve(oak->decision_log());

  PolicyReplayer replayer(oak->rules(), oak->config().policy,
                          oak->config().history);
  for (const auto& c : oak->decision_log().contexts()) replayer.step(c);
  EXPECT_EQ(dump_decisions(replayer.log().entries()), dump_decisions(live));
}

TEST_F(ReplayFixture, ReplayIsDeterministic) {
  auto oak = make_server(Policy{});
  drive(*oak);
  const auto& contexts = oak->decision_log().contexts();

  PolicyReplayer a(oak->rules(), oak->config().policy,
                   oak->config().history);
  PolicyReplayer b(oak->rules(), oak->config().policy,
                   oak->config().history);
  for (const auto& c : contexts) {
    a.step(c);
    b.step(c);
  }
  EXPECT_EQ(a.result_json().dump(), b.result_json().dump());
}

TEST_F(ReplayFixture, ScoreCountsViolationsAndMitigations) {
  auto oak = make_server(Policy{});
  drive(*oak);
  const auto& contexts = oak->decision_log().contexts();

  PolicyReplayer replayer(oak->rules(), oak->config().policy,
                          oak->config().history);
  for (const auto& c : contexts) replayer.step(c);
  const ReplayScore s = replayer.score();
  EXPECT_EQ(s.reports, contexts.size());  // no serve ticks in analyze()
  EXPECT_GT(s.violation_reports, 0u);
  EXPECT_EQ(s.violation_reports, s.mitigated_reports + s.unmitigated_reports);
  EXPECT_GT(s.activations, 0u);
  EXPECT_GT(s.observed_mean_plt_s, 0.0);
  EXPECT_GT(s.estimated_mean_plt_s, 0.0);
  EXPECT_EQ(s.to_json().at("reports").as_int(),
            std::int64_t(contexts.size()));
}

TEST_F(ReplayFixture, RejectsUnknownRuleStrategy) {
  auto oak = make_server(Policy{});
  std::vector<Rule> rules = oak->rules();
  rules[0].policy = "not-a-strategy";
  EXPECT_THROW(PolicyReplayer(rules, oak->config().policy,
                              oak->config().history),
               std::invalid_argument);
}

// Replay fidelity over every strategy and history mode: for each cell of
// {paper, racing, hysteresis, scoped over two subnets} x {min-distance,
// always-keep, always-revert} x allow_reactivation x {linear, round-robin},
// randomized HTTP traffic (six users on three subnets, one of them moving,
// interleaved page serves, two TTL'd rules with two alternatives each,
// reports violating defaults and alternatives at once) is decided live and
// then replayed from the recorded contexts; the two decision streams must
// agree record for record.
TEST_F(ReplayFixture, ReplayMatchesLiveForEveryStrategyAndHistoryMode) {
  const char* strategies[] = {"paper", "racing", "hysteresis", "scoped"};
  const std::pair<const char*, HistoryMode> histories[] = {
      {"min-distance", HistoryMode::kMinDistance},
      {"always-keep", HistoryMode::kAlwaysKeep},
      {"always-revert", HistoryMode::kAlwaysRevert}};
  const std::pair<const char*, AlternativeSelection> selections[] = {
      {"linear", AlternativeSelection::kLinear},
      {"round-robin", AlternativeSelection::kRoundRobin}};
  const std::map<std::string, std::string> ip_of = {
      {"shop.com", "10.0.0.1"},        {ext_hosts_[0], ext_ips_[0]},
      {ext_hosts_[1], ext_ips_[1]},    {ext_hosts_[2], ext_ips_[2]},
      {"alt.cdn.net", alt_ip_},        {"alt2.cdn.net", alt2_ip_}};
  const std::vector<std::string> slow_pool = {
      ext_hosts_[0], ext_hosts_[1], ext_hosts_[2], "alt.cdn.net",
      "alt2.cdn.net"};

  // Short racing and cooldown horizons so races decide and cooldowns lapse
  // within one run; the scoped strategy routes two subnets to the others.
  StrategyConfig racing;
  racing.name = "racing";
  racing.kind = StrategyKind::kRacing;
  racing.racing.min_samples = 3;
  StrategyConfig hysteresis;
  hysteresis.name = "hysteresis";
  hysteresis.kind = StrategyKind::kHysteresis;
  hysteresis.hysteresis.cooldown_s = 60.0;
  StrategyConfig scoped;
  scoped.name = "scoped";
  scoped.kind = StrategyKind::kScoped;
  scoped.routes = {{*Subnet::parse("10.1.0.0/16"), "racing"},
                   {*Subnet::parse("10.2.0.0/16"), "hysteresis"}};
  scoped.fallback = "paper";
  const std::vector<StrategyConfig> table = {racing, hysteresis, scoped};

  std::map<DecisionType, std::size_t> seen;
  for (const char* strategy : strategies) {
    for (const auto& [history_name, history] : histories) {
      for (const bool reactivate : {true, false}) {
        for (const auto& [selection_name, selection] : selections) {
          SCOPED_TRACE(std::string(strategy) + " / " + history_name +
                       " / reactivation " + (reactivate ? "on" : "off") +
                       " / " + selection_name);
          OakConfig cfg;
          cfg.detector.min_population = 4;
          cfg.policy.selection = selection;
          cfg.policy.allow_reactivation = reactivate;
          cfg.policy.strategies = table;
          cfg.policy.default_strategy = strategy;
          cfg.policy.record_context = true;
          cfg.history = history;
          OakServer oak(universe_, "shop.com", cfg);
          Rule a = make_domain_rule("switch-ext0", ext_hosts_[0],
                                    {"alt.cdn.net", "alt2.cdn.net"});
          a.ttl_s = 120.0;
          a.min_violations = 2;
          Rule b = make_domain_rule("switch-ext1", ext_hosts_[1],
                                    {"alt2.cdn.net", "alt.cdn.net"});
          b.ttl_s = 90.0;
          oak.add_rule(a);
          oak.add_rule(b);

          util::Rng rng(4711);
          const char* users[] = {"u0", "u1", "u2", "u3", "u4", "u5"};
          const char* ips[] = {"10.1.0.1", "10.1.0.2", "10.2.0.1",
                               "10.2.0.2", "192.168.0.1", "192.168.0.2"};
          double t = 0.0;
          for (int step = 0; step < 400; ++step) {
            const int u = int(rng.uniform_int(0, 5));
            t += rng.uniform(1.0, 12.0);
            // One user moves across subnets halfway, so scoped routing
            // sends the same user through two strategies.
            const std::string ip = (u == 5 && step >= 200) ? "10.1.0.9"
                                                           : ips[u];
            const std::string cookie =
                std::string(http::kOakUserCookie) + "=" + users[u];
            if (rng.chance(0.3)) {
              http::Request get = http::Request::get(site_.index_url());
              get.headers.set("Cookie", cookie);
              get.client_ip = ip;
              ASSERT_TRUE(oak.handle(get, t).ok());
              continue;
            }
            browser::PerfReport r;
            r.user_id = users[u];
            r.page_url = site_.index_url();
            r.plt_s = rng.chance(0.05) ? -1.0 : rng.uniform(0.5, 4.0);
            std::vector<std::string> slow;
            const int n_slow = int(rng.uniform_int(0, 2));
            for (int k = 0; k < n_slow; ++k) {
              slow.push_back(rng.pick(slow_pool));
            }
            double base = 0.09;
            for (const auto& [host, host_ip] : ip_of) {
              double time = base;
              base += 0.01;
              for (const auto& s : slow) {
                if (s == host) time = rng.uniform(1.5, 6.0);
              }
              r.entries.push_back({"http://" + host + "/obj.png", host,
                                   host_ip, 10'000, 0.1, time});
            }
            http::Request post = http::Request::post(
                "http://shop.com/oak/report", r.to_json().dump());
            post.headers.set("Cookie", cookie);
            post.client_ip = ip;
            ASSERT_LT(oak.handle(post, t).status, 400);
          }

          const auto live = minus_serve(oak.decision_log());
          ASSERT_FALSE(live.empty());
          PolicyReplayer replayer(oak.rules(), oak.config().policy,
                                  oak.config().history);
          for (const auto& c : oak.decision_log().contexts()) replayer.step(c);
          EXPECT_EQ(dump_decisions(replayer.log().entries()),
                    dump_decisions(live));
          for (const auto& d : live) ++seen[d.type];
        }
      }
    }
  }
  // The traffic reaches every decision the core makes.
  for (DecisionType t :
       {DecisionType::kActivate, DecisionType::kDeactivate,
        DecisionType::kAdvanceAlternative, DecisionType::kKeepAlternative,
        DecisionType::kExpire, DecisionType::kRaceWinner}) {
    EXPECT_GT(seen[t], 0u) << to_string(t);
  }
}

// Racing cohorts and accumulators survive an export/import round-trip:
// the re-imported server reports identical race state and re-exports
// byte-identically (the satellite determinism check for derived state).
TEST_F(ReplayFixture, RaceStateSurvivesExportImport) {
  Policy p;
  p.default_strategy = "racing";
  auto oak = make_server(p);
  drive(*oak);
  const int rule_id = oak->rules()[0].id;
  const auto live = oak->policy_engine().race_state(rule_id);
  ASSERT_TRUE(live.has_value());
  ASSERT_GT(live->count[0] + live->count[1], 0u);

  const util::Json snapshot = oak->export_state();
  auto other = make_server(p);
  other->import_state(snapshot);

  const auto imported = other->policy_engine().race_state(rule_id);
  ASSERT_TRUE(imported.has_value());
  EXPECT_EQ(imported->decided, live->decided);
  EXPECT_EQ(imported->winner, live->winner);
  EXPECT_EQ(imported->count[0], live->count[0]);
  EXPECT_EQ(imported->count[1], live->count[1]);
  EXPECT_DOUBLE_EQ(imported->plt_sum[0], live->plt_sum[0]);
  EXPECT_DOUBLE_EQ(imported->plt_sum[1], live->plt_sum[1]);
  EXPECT_EQ(other->export_state().dump(), snapshot.dump());

  // Cohort assignment is a pure hash: identical on both sides, per user.
  const UserProfile* before = oak->profile("u-a");
  const UserProfile* after = other->profile("u-a");
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  const RaceStat* rb = before->race.at_ptr(rule_id);
  const RaceStat* ra = after->race.at_ptr(rule_id);
  ASSERT_NE(rb, nullptr);
  ASSERT_NE(ra, nullptr);
  EXPECT_EQ(ra->cohort, rb->cohort);
  EXPECT_EQ(ra->cohort, PolicyEngine::cohort_of("u-a", rule_id));
}

}  // namespace
}  // namespace oak::core
