#include <gtest/gtest.h>

#include "core/analytics.h"
#include "core/oak_server.h"
#include "http/cookies.h"

namespace oak::core {
namespace {

class OakServerFixture : public ::testing::Test {
 protected:
  OakServerFixture() : universe_(net::NetworkConfig{.seed = 3, .horizon_s = 0}) {
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

    page::SiteBuilder b(universe_, "shop.com", origin_);
    for (const auto& h : ext_hosts_) {
      b.add_direct(h, "/obj.png", html::RefKind::kImage, 10'000,
                   page::Category::kCdn);
    }
    site_ = b.finish();
    universe_.store().replicate("http://" + ext_hosts_[0] + "/obj.png",
                                "http://alt.cdn.net/obj.png");

    OakConfig ocfg;
    // The fixture's synthetic reports cover 4 servers (origin + 3
    // externals); lower the population floor accordingly.
    ocfg.detector.min_population = 4;
    oak_ = std::make_unique<OakServer>(universe_, "shop.com", ocfg);
    rule_id_ = oak_->add_rule(
        make_domain_rule("switch-ext0", ext_hosts_[0], {"alt.cdn.net"}));
    oak_->install();
  }

  // A report where `slow_host` is clearly the violator among the three
  // external hosts plus origin.
  browser::PerfReport make_report(const std::string& slow_host,
                                  const std::string& slow_ip,
                                  double slow_time = 3.0) {
    browser::PerfReport r;
    r.user_id = "u1";
    r.page_url = site_.index_url();
    r.entries.push_back({site_.index_url(), "shop.com", "10.0.0.1", 5000, 0,
                         0.09});
    for (std::size_t i = 0; i < ext_hosts_.size(); ++i) {
      const bool slow = ext_hosts_[i] == slow_host;
      // Slightly varied baselines keep the MAD non-degenerate.
      r.entries.push_back({"http://" + ext_hosts_[i] + "/obj.png",
                           ext_hosts_[i], ext_ips_[i], 10'000, 0.1,
                           slow ? slow_time : 0.10 + 0.01 * double(i)});
    }
    if (slow_host == "alt.cdn.net") {
      r.entries.push_back({"http://alt.cdn.net/obj.png", "alt.cdn.net",
                           slow_ip, 10'000, 0.1, slow_time});
    }
    return r;
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  std::vector<std::string> ext_hosts_;
  std::vector<std::string> ext_ips_;
  std::string alt_ip_;
  page::Site site_;
  std::unique_ptr<OakServer> oak_;
  int rule_id_ = 0;
};

TEST_F(OakServerFixture, IssuesCookieOnFirstContact) {
  http::Request req = http::Request::get(site_.index_url());
  http::Response resp = oak_->handle(req, 0.0);
  EXPECT_TRUE(resp.ok());
  auto cookies = resp.headers.get_all("Set-Cookie");
  ASSERT_EQ(cookies.size(), 1u);
  EXPECT_NE(cookies[0].find("oak_uid="), std::string::npos);
  // A request presenting the cookie gets no new one.
  http::Request req2 = http::Request::get(site_.index_url());
  req2.headers.set("Cookie", cookies[0]);
  http::Response resp2 = oak_->handle(req2, 1.0);
  EXPECT_TRUE(resp2.headers.get_all("Set-Cookie").empty());
}

TEST_F(OakServerFixture, ViolationActivatesMatchingRule) {
  auto detection = oak_->analyze("u1", make_report(ext_hosts_[0], ""), 0.0);
  ASSERT_EQ(detection.violators.size(), 1u);
  const UserProfile* p = oak_->profile("u1");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->active.count(rule_id_), 1u);
  EXPECT_EQ(oak_->decision_log().count(DecisionType::kActivate), 1u);
}

TEST_F(OakServerFixture, UnrelatedViolatorDoesNotActivate) {
  oak_->analyze("u1", make_report(ext_hosts_[1], ""), 0.0);
  const UserProfile* p = oak_->profile("u1");
  EXPECT_TRUE(p->active.empty());
}

TEST_F(OakServerFixture, ActivationIsPerUser) {
  oak_->analyze("u1", make_report(ext_hosts_[0], ""), 0.0);
  oak_->analyze("u2", make_report(ext_hosts_[1], ""), 0.0);
  EXPECT_EQ(oak_->profile("u1")->active.count(rule_id_), 1u);
  EXPECT_TRUE(oak_->profile("u2")->active.empty());
  EXPECT_EQ(oak_->user_count(), 2u);
}

TEST_F(OakServerFixture, ServedPageRewrittenOnlyForAffectedUser) {
  oak_->analyze("u1", make_report(ext_hosts_[0], ""), 0.0);
  http::Request req1 = http::Request::get(site_.index_url());
  req1.headers.set("Cookie", std::string(http::kOakUserCookie) + "=u1");
  http::Response r1 = oak_->handle(req1, 1.0);
  EXPECT_NE(r1.body.find("alt.cdn.net"), std::string::npos);
  EXPECT_EQ(r1.body.find(ext_hosts_[0]), std::string::npos);
  // Type-2 host alias header present.
  auto aliases = r1.headers.get_all(http::kOakAliasHeader);
  ASSERT_EQ(aliases.size(), 1u);
  EXPECT_EQ(aliases[0], "host:alt.cdn.net host:" + ext_hosts_[0]);

  http::Request req2 = http::Request::get(site_.index_url());
  req2.headers.set("Cookie", std::string(http::kOakUserCookie) + "=u2");
  http::Response r2 = oak_->handle(req2, 1.0);
  EXPECT_NE(r2.body.find(ext_hosts_[0]), std::string::npos);
}

TEST_F(OakServerFixture, MinViolationsDelaysActivation) {
  oak_->config().policy.default_min_violations = 3;
  oak_->analyze("u1", make_report(ext_hosts_[0], ""), 0.0);
  EXPECT_TRUE(oak_->profile("u1")->active.empty());
  oak_->analyze("u1", make_report(ext_hosts_[0], ""), 10.0);
  EXPECT_TRUE(oak_->profile("u1")->active.empty());
  oak_->analyze("u1", make_report(ext_hosts_[0], ""), 20.0);
  EXPECT_EQ(oak_->profile("u1")->active.count(rule_id_), 1u);
}

TEST_F(OakServerFixture, TtlExpiresActivation) {
  Rule r = make_domain_rule("ttl-rule", ext_hosts_[1], {"alt.cdn.net"});
  r.ttl_s = 100.0;
  int id = oak_->add_rule(r);
  oak_->analyze("u1", make_report(ext_hosts_[1], ""), 0.0);
  EXPECT_EQ(oak_->profile("u1")->active.count(id), 1u);
  // A page request after the TTL removes it.
  http::Request req = http::Request::get(site_.index_url());
  req.headers.set("Cookie", std::string(http::kOakUserCookie) + "=u1");
  oak_->handle(req, 150.0);
  EXPECT_EQ(oak_->profile("u1")->active.count(id), 0u);
  EXPECT_EQ(oak_->decision_log().count(DecisionType::kExpire), 1u);
}

// Regression: the TTL lifetime is half-open [activated_at, expires_at) — at
// exactly now == expires_at the rule is already expired (rule.h). The serve
// plane used to apply the rule at the boundary instant while the audit plane
// counted it expired; both now agree on >=.
TEST_F(OakServerFixture, TtlBoundaryIsHalfOpenAtExactExpiry) {
  Rule r = make_domain_rule("ttl-rule", ext_hosts_[1], {"alt.cdn.net"});
  r.ttl_s = 100.0;
  int id = oak_->add_rule(r);
  oak_->analyze("u1", make_report(ext_hosts_[1], ""), 0.0);
  ASSERT_EQ(oak_->profile("u1")->active.count(id), 1u);
  ASSERT_DOUBLE_EQ(oak_->profile("u1")->active.at(id).expires_at, 100.0);

  http::Request req = http::Request::get(site_.index_url());
  req.headers.set("Cookie", std::string(http::kOakUserCookie) + "=u1");

  // Strictly inside the lifetime the rewrite applies.
  http::Response before = oak_->handle(req, 99.0);
  EXPECT_NE(before.body.find("alt.cdn.net"), std::string::npos);
  EXPECT_EQ(oak_->profile("u1")->active.count(id), 1u);

  // At exactly expires_at the rule must NOT apply and must be reaped.
  http::Response at = oak_->handle(req, 100.0);
  EXPECT_EQ(at.body.find("alt.cdn.net"), std::string::npos);
  EXPECT_NE(at.body.find(ext_hosts_[1]), std::string::npos);
  EXPECT_EQ(oak_->profile("u1")->active.count(id), 0u);
  EXPECT_EQ(oak_->decision_log().count(DecisionType::kExpire), 1u);
}

// Regression: expired rules were only reaped on the oak-applies serve path,
// so holdback (and policy-filtered) users carried stale "active" entries
// forever — the audit kept counting them as live. expire_rules now runs on
// every serve while Oak is enabled, before the holdback early-return.
TEST_F(OakServerFixture, ExpiredRulesReapedForHoldbackUsers) {
  Rule r = make_domain_rule("ttl-rule", ext_hosts_[1], {"alt.cdn.net"});
  r.ttl_s = 100.0;
  int id = oak_->add_rule(r);
  oak_->analyze("u1", make_report(ext_hosts_[1], ""), 0.0);
  ASSERT_EQ(oak_->profile("u1")->active.count(id), 1u);

  // From now on every user is in the holdback group.
  oak_->config().policy.holdback_fraction = 1.0;
  http::Request req = http::Request::get(site_.index_url());
  req.headers.set("Cookie", std::string(http::kOakUserCookie) + "=u1");
  http::Response resp = oak_->handle(req, 150.0);
  // Holdback users get the default page...
  EXPECT_EQ(resp.body.find("alt.cdn.net"), std::string::npos);
  // ...and their expired rules are still reaped.
  EXPECT_EQ(oak_->profile("u1")->active.count(id), 0u);
  EXPECT_EQ(oak_->decision_log().count(DecisionType::kExpire), 1u);
}

// The audit plane must classify an expired-but-unreaped rule exactly as the
// server would: expired at the audit instant, active strictly before it.
TEST_F(OakServerFixture, AuditAgreesWithServerAtTtlBoundary) {
  Rule r = make_domain_rule("ttl-rule", ext_hosts_[1], {"alt.cdn.net"});
  r.ttl_s = 100.0;
  int id = oak_->add_rule(r);
  oak_->analyze("u1", make_report(ext_hosts_[1], ""), 0.0);
  ASSERT_EQ(oak_->profile("u1")->active.count(id), 1u);
  // No serve happens, so the server never reaps the entry itself.

  SiteAnalytics timeless(*oak_);
  EXPECT_EQ(timeless.rule(id)->currently_active, 1u);
  EXPECT_EQ(timeless.rule(id)->expirations, 0u);

  SiteAnalytics just_before(*oak_, 99.999);
  EXPECT_EQ(just_before.rule(id)->currently_active, 1u);
  EXPECT_EQ(just_before.rule(id)->expirations, 0u);

  SiteAnalytics at_boundary(*oak_, 100.0);
  EXPECT_EQ(at_boundary.rule(id)->currently_active, 0u);
  EXPECT_EQ(at_boundary.rule(id)->expirations, 1u);
}

// One report + one rejected body + one rewritten serve must light up every
// stage of the obs pipeline: all five stage histograms and the serve/ingest
// counters (compile-time disabled builds keep the names but record zeros).
TEST_F(OakServerFixture, MetricsCoverAllFiveIngestStages) {
  const std::string cookie = std::string(http::kOakUserCookie) + "=u1";
  http::Request post = http::Request::post(
      "http://shop.com/oak/report", make_report(ext_hosts_[0], "").serialize());
  post.headers.set("Cookie", cookie);
  ASSERT_EQ(oak_->handle(post, 0.0).status, 204);

  http::Request bad = http::Request::post("http://shop.com/oak/report",
                                          "{broken");
  bad.headers.set("Cookie", cookie);
  ASSERT_EQ(oak_->handle(bad, 0.5).status, 400);

  http::Request get = http::Request::get(site_.index_url());
  get.headers.set("Cookie", cookie);
  http::Response page = oak_->handle(get, 1.0);
  ASSERT_TRUE(page.ok());
  ASSERT_NE(page.body.find("alt.cdn.net"), std::string::npos);

  obs::MetricsSnapshot snap = oak_->metrics_snapshot();
  EXPECT_EQ(snap.counter("oak_reports_ingested_total"), 1u);
  EXPECT_EQ(snap.counter("oak_reports_rejected_total"), 1u);
  EXPECT_EQ(snap.counter("oak_rule_activations_total"), 1u);
  EXPECT_EQ(snap.counter("oak_pages_served_total"), 1u);
  EXPECT_EQ(snap.counter("oak_pages_modified_total"), 1u);
  for (const char* name :
       {"oak_ingest_decode_seconds", "oak_ingest_group_seconds",
        "oak_ingest_detect_seconds", "oak_ingest_match_seconds",
        "oak_serve_modify_seconds"}) {
    const obs::HistogramSnapshot* h = snap.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GE(h->count(), 1u) << name;
  }
  // Both bodies (valid + malformed) are sized before decoding.
  ASSERT_NE(snap.histogram("oak_ingest_report_bytes"), nullptr);
  EXPECT_EQ(snap.histogram("oak_ingest_report_bytes")->count(), 2u);
  // The match-cache counters are folded into the same snapshot.
  EXPECT_GT(snap.counter("oak_match_memo_misses_total") +
                snap.counter("oak_match_memo_hits_total"),
            0u);
  const std::string text = snap.to_prometheus();
  EXPECT_NE(text.find("# TYPE oak_ingest_decode_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("oak_reports_ingested_total 1"), std::string::npos);
}

TEST_F(OakServerFixture, HistoryKeepsBetterAlternative) {
  // Activate with a severe violation, then report the alternative violating
  // mildly: Oak keeps the alternative (closer to the median).
  oak_->analyze("u1", make_report(ext_hosts_[0], "", /*slow=*/10.0), 0.0);
  const double original = oak_->profile("u1")->active.at(rule_id_)
                              .violation_distance;
  auto mild = make_report("alt.cdn.net", alt_ip_, /*slow=*/0.5);
  oak_->analyze("u1", mild, 10.0);
  EXPECT_EQ(oak_->profile("u1")->active.count(rule_id_), 1u)
      << "alternative should be retained";
  EXPECT_GT(original, 0.0);
  EXPECT_EQ(oak_->decision_log().count(DecisionType::kKeepAlternative), 1u);
}

TEST_F(OakServerFixture, HistoryDeactivatesWorseAlternative) {
  oak_->analyze("u1", make_report(ext_hosts_[0], "", /*slow=*/0.6), 0.0);
  ASSERT_EQ(oak_->profile("u1")->active.count(rule_id_), 1u);
  auto worse = make_report("alt.cdn.net", alt_ip_, /*slow=*/20.0);
  oak_->analyze("u1", worse, 10.0);
  EXPECT_EQ(oak_->profile("u1")->active.count(rule_id_), 0u);
  EXPECT_EQ(oak_->decision_log().count(DecisionType::kDeactivate), 1u);
}

TEST_F(OakServerFixture, MultipleAlternativesAdvanceBeforeDeactivating) {
  Rule r = make_domain_rule("multi", ext_hosts_[2],
                            {"alt.cdn.net", "ext1.cdn.net"});
  int id = oak_->add_rule(r);
  oak_->analyze("u1", make_report(ext_hosts_[2], "", 0.5), 0.0);
  ASSERT_EQ(oak_->profile("u1")->active.at(id).alternative_index, 0u);
  // First alternative turns out much worse -> advance to the second.
  oak_->analyze("u1", make_report("alt.cdn.net", alt_ip_, 30.0), 10.0);
  ASSERT_EQ(oak_->profile("u1")->active.count(id), 1u);
  EXPECT_EQ(oak_->profile("u1")->active.at(id).alternative_index, 1u);
  EXPECT_EQ(oak_->decision_log().count(DecisionType::kAdvanceAlternative), 1u);
}

TEST_F(OakServerFixture, ReactivationBanRespected) {
  oak_->config().policy.allow_reactivation = false;
  oak_->analyze("u1", make_report(ext_hosts_[0], "", 0.5), 0.0);
  oak_->analyze("u1", make_report("alt.cdn.net", alt_ip_, 30.0), 1.0);
  EXPECT_TRUE(oak_->profile("u1")->active.empty());
  // A new violation of the default must NOT re-activate.
  oak_->analyze("u1", make_report(ext_hosts_[0], "", 5.0), 2.0);
  EXPECT_TRUE(oak_->profile("u1")->active.empty());
}

TEST_F(OakServerFixture, SubnetPolicyFiltersClients) {
  oak_->config().policy.client_filter =
      Subnet{net::IpAddr(24, 0, 0, 0), 8};  // NA block only
  browser::PerfReport report = make_report(ext_hosts_[0], "");
  // EU client (81.x) is ignored end to end.
  http::Request post = http::Request::post(
      "http://shop.com/oak/report", report.serialize());
  post.client_ip = "81.0.0.2";
  post.headers.set("Cookie", std::string(http::kOakUserCookie) + "=u_eu");
  oak_->handle(post, 0.0);
  EXPECT_EQ(oak_->reports_processed(), 0u);

  post.client_ip = "24.0.0.2";
  post.headers.set("Cookie", std::string(http::kOakUserCookie) + "=u_na");
  oak_->handle(post, 0.0);
  EXPECT_EQ(oak_->reports_processed(), 1u);
  EXPECT_EQ(oak_->profile("u_na")->active.count(rule_id_), 1u);
}

TEST_F(OakServerFixture, DisabledServerServesDefaultAndIgnoresReports) {
  oak_->config().enabled = false;
  oak_->analyze("u1", make_report(ext_hosts_[0], ""), 0.0);
  // analyze() bypasses the HTTP enabled-check by design; go through HTTP.
  http::Request post = http::Request::post("http://shop.com/oak/report",
                                           make_report(ext_hosts_[0], "")
                                               .serialize());
  post.headers.set("Cookie", std::string(http::kOakUserCookie) + "=u9");
  oak_->handle(post, 0.0);
  EXPECT_EQ(oak_->profile("u9"), nullptr);
}

TEST_F(OakServerFixture, MalformedReportRejected) {
  http::Request post =
      http::Request::post("http://shop.com/oak/report", "{broken");
  EXPECT_EQ(oak_->handle(post, 0.0).status, 400);
}

TEST_F(OakServerFixture, UnknownPathIs404) {
  http::Request req = http::Request::get("http://shop.com/missing.html");
  EXPECT_EQ(oak_->handle(req, 0.0).status, 404);
}

TEST_F(OakServerFixture, RootPathServesIndex) {
  http::Request req = http::Request::get("http://shop.com/");
  http::Response resp = oak_->handle(req, 0.0);
  EXPECT_TRUE(resp.ok());
  EXPECT_NE(resp.body.find("<html>"), std::string::npos);
}

TEST_F(OakServerFixture, ForceAllRulesAppliesWithoutReports) {
  oak_->config().force_all_rules = true;
  http::Request req = http::Request::get(site_.index_url());
  http::Response resp = oak_->handle(req, 0.0);
  EXPECT_NE(resp.body.find("alt.cdn.net"), std::string::npos);
}

TEST_F(OakServerFixture, InvalidRuleRejected) {
  Rule bad;  // empty default text
  EXPECT_THROW(oak_->add_rule(bad), std::invalid_argument);
}

TEST_F(OakServerFixture, RuleLookup) {
  EXPECT_NE(oak_->rule(rule_id_), nullptr);
  EXPECT_EQ(oak_->rule(9999), nullptr);
  EXPECT_EQ(oak_->rules().size(), 1u);
}

}  // namespace
}  // namespace oak::core
