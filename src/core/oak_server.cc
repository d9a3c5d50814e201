#include "core/oak_server.h"

#include <algorithm>
#include <stdexcept>

#include "browser/report_decoder.h"
#include "core/rule_parser.h"
#include "http/cookies.h"
#include "util/strings.h"

namespace oak::core {

namespace {

// The live MatchSource: the first violator, in detection order, whose
// domains the memoized matcher matches. Domain and script hashes are
// hoisted once per report instead of once per (rule × violator) probe; the
// domain hashes go into `hash_scratch`, recycled across reports.
class ViolatorMatches final : public MatchSource {
 public:
  ViolatorMatches(const Matcher& matcher, const DetectionResult& detection,
                  const std::vector<std::string>& scripts,
                  std::vector<std::uint64_t>& hash_scratch, double now)
      : matcher_(matcher),
        violators_(detection.violators),
        scripts_(scripts),
        scripts_hash_(fnv1a(scripts)),
        domain_hashes_(hash_scratch),
        now_(now) {
    hash_scratch.clear();
    for (const auto& v : violators_) hash_scratch.push_back(fnv1a(v.domains));
  }

  ViolatorMatch rule_match(const Rule& rule) override {
    return first(rule, nullptr);
  }
  ViolatorMatch alt_match(const Rule& rule, std::size_t alt) override {
    return first(rule, &rule.alternatives[alt]);
  }

 private:
  // A null `alt_text` probes the default text (memoized by rule id).
  ViolatorMatch first(const Rule& rule, const std::string* alt_text) const {
    for (std::size_t vi = 0; vi < violators_.size(); ++vi) {
      const Violation& v = violators_[vi];
      const MatchTier tier =
          alt_text != nullptr
              ? matcher_.match_text(*alt_text, v.domains, domain_hashes_[vi],
                                    scripts_, scripts_hash_, now_)
              : matcher_.match_rule(rule, v.domains, domain_hashes_[vi],
                                    scripts_, scripts_hash_, now_);
      if (tier != MatchTier::kNone) return {v.severity(), &v.ip};
    }
    return {};
  }

  const Matcher& matcher_;
  const std::vector<Violation>& violators_;
  const std::vector<std::string>& scripts_;
  const std::uint64_t scripts_hash_;
  const std::vector<std::uint64_t>& domain_hashes_;
  const double now_;
};

}  // namespace

OakServer::OakServer(page::WebUniverse& universe, std::string site_host,
                     OakConfig cfg)
    : universe_(universe),
      site_host_(std::move(site_host)),
      cfg_(cfg),
      users_(cfg_.user_store) {
  // Server-side script fetcher: Oak loads externally referenced scripts
  // "directly from the external sources" to widen the match surface.
  auto fetcher = [this](const std::string& url) -> std::optional<std::string> {
    const page::WebObject* obj = universe_.store().find(url);
    if (!obj || obj->body.empty()) return {};
    return obj->body;
  };
  matcher_ = std::make_unique<Matcher>(fetcher, cfg_.matcher);
  engine_ = std::make_unique<PolicyEngine>(cfg_.policy,
                                           cfg_.metrics ? &metrics_ : nullptr);
  DecisionCounters counters;
  if (cfg_.metrics) {
    obs_.decode = &metrics_.histogram("oak_ingest_decode_seconds");
    obs_.group = &metrics_.histogram("oak_ingest_group_seconds");
    obs_.detect = &metrics_.histogram("oak_ingest_detect_seconds");
    obs_.match = &metrics_.histogram("oak_ingest_match_seconds");
    obs_.modify = &metrics_.histogram("oak_serve_modify_seconds");
    obs_.report_bytes = &metrics_.histogram("oak_ingest_report_bytes",
                                            obs::HistogramSpec::bytes());
    obs_.reports_ingested = &metrics_.counter("oak_reports_ingested_total");
    obs_.reports_rejected = &metrics_.counter("oak_reports_rejected_total");
    obs_.pages_served = &metrics_.counter("oak_pages_served_total");
    obs_.pages_modified = &metrics_.counter("oak_pages_modified_total");
    counters.activations = &metrics_.counter("oak_rule_activations_total");
    obs_.expirations = &metrics_.counter("oak_rule_expirations_total");
    counters.deactivations = &metrics_.counter("oak_rule_deactivations_total");
    obs_.contexts_recorded =
        &metrics_.counter("oak_policy_contexts_recorded_total");
  }
  counters.expirations = obs_.expirations;  // rule retirement counts too
  core_ = std::make_unique<DecisionCore>(*engine_, rules_, log_, counters);
}

obs::MetricsSnapshot OakServer::metrics_snapshot() const {
  obs::MetricsSnapshot snap = metrics_.snapshot();
  // The match cache tallies with plain integers (it is shard-local and
  // single-threaded by contract), so its counters are folded in at snapshot
  // time rather than double-counted on the hot path.
  if (cfg_.metrics) {
    if (const MatchCacheStats* cs = matcher_->cache_stats()) {
      snap.counters["oak_match_memo_hits_total"] += cs->memo_hits;
      snap.counters["oak_match_memo_misses_total"] += cs->memo_misses;
      snap.counters["oak_match_script_hits_total"] += cs->script_hits;
      snap.counters["oak_match_script_fetches_total"] += cs->script_fetches;
      snap.counters["oak_match_script_refreshes_total"] +=
          cs->script_refreshes;
      snap.counters["oak_match_invalidations_total"] += cs->invalidations;
    }
    // User-store tallies, same pattern: the store counts with plain
    // integers under the shard lock; snapshot time folds them in.
    const UserStoreStats& us = users_.stats();
    snap.gauges["oak_users_hot"] += double(users_.hot_count());
    snap.gauges["oak_users_cold"] += double(users_.cold_count());
    snap.gauges["oak_users_cold_file_bytes"] += double(users_.cold_file_bytes());
    snap.counters["oak_user_demotions_total"] += us.demotions;
    snap.counters["oak_user_faultins_total"] += us.faultins;
    snap.counters["oak_user_cold_compactions_total"] += us.cold_compactions;
  }
  return snap;
}

void OakServer::check_rule(const Rule& rule) const {
  std::string why;
  if (!rule.validate(&why)) {
    throw std::invalid_argument("invalid rule '" + rule.name + "': " + why);
  }
  if (!rule.policy.empty() && !engine_->has_strategy(rule.policy)) {
    throw std::invalid_argument("rule '" + rule.name + "' names policy '" +
                                rule.policy + "' but no such strategy exists");
  }
}

int OakServer::install_rule_(Rule rule) {
  if (rule.id == 0) rule.id = next_rule_id_;
  next_rule_id_ = std::max(next_rule_id_, rule.id + 1);
  rules_.push_back(std::move(rule));
  return rules_.back().id;
}

int OakServer::add_rule(Rule rule) {
  check_rule(rule);
  const int id = install_rule_(std::move(rule));
  matcher_->invalidate_memo();
  return id;
}

void OakServer::add_rules(std::vector<Rule> rules) {
  for (const auto& r : rules) check_rule(r);
  for (auto& r : rules) add_rule(std::move(r));
}

bool OakServer::remove_rule(int rule_id, double now) {
  if (!retire_rule_(rule_id, now)) return false;
  matcher_->invalidate_memo();
  return true;
}

bool OakServer::retire_rule_(int rule_id, double now) {
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [&](const Rule& r) { return r.id == rule_id; });
  if (it == rules_.end()) return false;
  rules_.erase(it);
  matcher_->forget_rule(rule_id);
  std::vector<std::string> uids;
  if (auto h = holders_.find(rule_id); h != holders_.end()) {
    uids = std::move(h->second);
    holders_.erase(h);
  }
  std::sort(uids.begin(), uids.end());
  uids.erase(std::unique(uids.begin(), uids.end()), uids.end());
  // Holders in ascending uid order: the per-user expiration records land in
  // the decision log in the order a sweep over every profile would produce,
  // tiered or not. Everyone outside the index holds no state for the rule.
  users_.for_each_of_mut(uids, [&](UserProfile& profile) {
    bool changed = false;
    auto active = profile.active.find(rule_id);
    if (active != profile.active.end()) {
      log_.record(Decision{now, profile.user_id, rule_id, DecisionType::kExpire,
                           "", 0.0, active->second.alternative_index});
      if (obs_.expirations != nullptr) obs_.expirations->inc();
      profile.active.erase(active);
      changed = true;
    }
    changed |= profile.pending_violations.erase(rule_id) > 0;
    changed |= profile.next_alternative.erase(rule_id) > 0;
    changed |= profile.banned.erase(rule_id) > 0;
    changed |= profile.race.erase(rule_id) > 0;
    changed |= profile.cooldown_until.erase(rule_id) > 0;
    return changed;
  });
  // Retiring a rule retires its race: a re-added rule (even with the same
  // id) starts a fresh one.
  engine_->erase_rule(rule_id);
  return true;
}

RuleReplacement OakServer::replace_rules(std::vector<Rule> rules, double now) {
  for (const auto& r : rules) check_rule(r);
  // A rule's identity for the diff is its rule-file text, which carries no
  // id. The matcher memo is keyed by rule text, so kept rules keep their
  // entries and retired texts' entries are never probed again.
  std::vector<std::string> current;
  current.reserve(rules_.size());
  for (const Rule& r : rules_) current.push_back(format_rules({r}));
  std::vector<bool> paired(rules_.size(), false);
  RuleReplacement out;
  out.ids.assign(rules.size(), 0);
  std::vector<std::size_t> unpaired;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const std::string text = format_rules({rules[i]});
    std::size_t j = 0;
    while (j < current.size() && (paired[j] || current[j] != text)) ++j;
    if (j < current.size()) {
      paired[j] = true;
      out.ids[i] = rules_[j].id;
    } else {
      unpaired.push_back(i);
    }
  }
  for (std::size_t j = 0; j < rules_.size(); ++j) {
    if (!paired[j]) out.retired.push_back(rules_[j].id);
  }
  for (int id : out.retired) retire_rule_(id, now);
  for (std::size_t i : unpaired) {
    out.ids[i] = install_rule_(std::move(rules[i]));
    out.added.push_back(i);
  }
  return out;
}

void OakServer::install() {
  universe_.set_handler(
      site_host_, [this](const http::Request& req, double now) {
        return handle(req, now);
      });
}

const Rule* OakServer::rule(int id) const {
  for (const auto& r : rules_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

const UserProfile* OakServer::profile(const std::string& user_id) const {
  // Logically const: a cold hit faults the profile back into the hot tier,
  // but the observable state is identical to it never having been demoted.
  // touch=false keeps introspection from feeding the LRU clock.
  return const_cast<TieredUserStore&>(users_).find(user_id, 0.0, false);
}

UserProfile& OakServer::profile_ref(const std::string& user_id, double now) {
  return users_.get_or_create(user_id, now);
}

http::Response OakServer::handle(const http::Request& req, double now) {
  if (req.method == http::Method::kPost && req.url.path == cfg_.report_path) {
    return ingest_report(req, now);
  }
  return serve_page(req, now);
}

UserProfile& OakServer::user_for(const http::Request& req,
                                 http::Response& resp, double now) {
  std::string uid;
  if (auto cookie = req.headers.get("Cookie")) {
    auto jar = http::parse_cookie_header(*cookie);
    auto it = jar.find(http::kOakUserCookie);
    if (it != jar.end()) uid = it->second;
  }
  if (uid.empty()) {
    uid = util::format("u%zu", next_user_++);
    resp.headers.add("Set-Cookie",
                     std::string(http::kOakUserCookie) + "=" + uid);
  }
  UserProfile& user = profile_ref(uid, now);
  if (!req.client_ip.empty()) user.client_ip = req.client_ip;
  return user;
}

http::Response OakServer::serve_page(const http::Request& req, double now) {
  std::string path = req.url.path == "/" ? "/index.html" : req.url.path;
  const std::string url = "http://" + site_host_ + path;
  const page::WebObject* obj = universe_.store().find(url);
  if (!obj) return http::Response::not_found();

  http::Response resp = http::Response::html(obj->body);
  UserProfile& user = user_for(req, resp, now);
  user.pages_served++;
  user.holdback = cfg_.policy.in_holdback(user.user_id);
  if (obs_.pages_served != nullptr) obs_.pages_served->inc();

  // Reap expired rules on every serve while Oak is on — including for
  // holdback or policy-filtered users, whose profiles would otherwise carry
  // stale "active" rules indefinitely (the server never applies an expired
  // rule, but the audit plane would keep counting it as live).
  if (cfg_.enabled) {
    core_->expire(user, now);
    // A serve advances rule-expiry time even though no report arrives, so
    // the replay log needs the tick (core/decision_log.h, serve_only).
    if (cfg_.policy.record_context) {
      ReportContext tick;
      tick.time = now;
      tick.user_id = user.user_id;
      tick.client_ip = user.client_ip;
      tick.serve_only = true;
      log_.record_context(std::move(tick));
      if (obs_.contexts_recorded != nullptr) obs_.contexts_recorded->inc();
    }
  }

  const bool oak_applies = cfg_.enabled &&
                           cfg_.policy.applies_to(req.client_ip) &&
                           !user.holdback;
  if (!oak_applies && !cfg_.force_all_rules) return resp;

  std::vector<AppliedRule> applied;
  if (cfg_.force_all_rules) {
    for (const auto& r : rules_) {
      std::size_t alt = 0;
      if (!r.alternatives.empty() && cfg_.policy.alternative_selector) {
        alt = std::min(cfg_.policy.alternative_selector(
                           user.client_ip, r.alternatives.size()),
                       r.alternatives.size() - 1);
      }
      applied.push_back(AppliedRule{&r, alt});
    }
  } else {
    for (const auto& [rule_id, ar] : user.active) {
      if (const Rule* r = rule(rule_id)) {
        applied.push_back(AppliedRule{r, ar.alternative_index});
      }
    }
  }
  if (applied.empty()) return resp;

  obs::ScopedTimer modify_timer(obs_.modify);
  ModifiedPage modified = apply_rules(resp.body, path, applied);
  modify_timer.stop();
  if (modified.total_replacements() > 0) {
    log_.record(Decision{now, user.user_id, 0, DecisionType::kServeModified,
                         "", 0.0, 0});
    if (obs_.pages_modified != nullptr) obs_.pages_modified->inc();
  }
  resp.body = std::move(modified.html);
  for (const auto& alias : modified.aliases) {
    resp.headers.add(http::kOakAliasHeader, alias);
  }
  return resp;
}

http::Response OakServer::ingest_report(const http::Request& req, double now) {
  http::Response resp = http::Response::text("", 204);
  // A disabled Oak is the paper's baseline web server: it neither tracks
  // users nor processes telemetry.
  if (!cfg_.enabled) return resp;
  UserProfile& user = user_for(req, resp, now);
  if (!cfg_.policy.applies_to(req.client_ip)) {
    return resp;  // accepted, ignored
  }
  // Stream-decode straight off the wire bytes. The view aliases req.body
  // plus the ingest arena; both outlive process_report(), which copies
  // anything it retains (violator IPs/domains, decision-log entries) into
  // owned strings.
  ingest_arena_.clear();
  if (obs_.report_bytes != nullptr) {
    obs_.report_bytes->observe(static_cast<double>(req.body.size()));
  }
  obs::ScopedTimer decode_timer(obs_.decode);
  // Decode into the recycled scratch view: its entries capacity (like the
  // arena's blocks) survives across reports. The views it holds dangle as
  // soon as this request ends — nothing reads it between ingests.
  browser::ReportView& view = view_scratch_;
  try {
    browser::decode_report_view(req.body, ingest_arena_, view);
  } catch (const util::JsonError&) {
    if (obs_.reports_rejected != nullptr) obs_.reports_rejected->inc();
    return http::Response::text("malformed report", 400);
  }
  decode_timer.stop();
  process_report(user, view, now, nullptr);
  return resp;
}

DetectionResult OakServer::analyze(const std::string& user_id,
                                   const browser::PerfReport& report,
                                   double now) {
  UserProfile& user = profile_ref(user_id, now);
  DetectionResult detection;
  process_report(user, browser::ReportView::of(report), now, &detection);
  return detection;
}

void OakServer::process_report(UserProfile& user,
                               const browser::ReportView& report, double now,
                               DetectionResult* out_detection) {
  ++reports_processed_;
  if (obs_.reports_ingested != nullptr) obs_.reports_ingested->inc();
  const double plt_s = DecisionCore::count_report(user, report.plt_s);

  obs::ScopedTimer group_timer(obs_.group);
  std::vector<ServerObservation> observations =
      group_by_server(report, cfg_.detector.small_threshold_bytes);
  group_timer.stop();

  obs::ScopedTimer detect_timer(obs_.detect);
  DetectionResult detection =
      detect_violators(std::move(observations), cfg_.detector);
  detect_timer.stop();

  urls_scratch_.clear();
  urls_scratch_.reserve(report.entries.size());
  for (const auto& e : report.entries) urls_scratch_.push_back(e.url);
  report_script_urls(urls_scratch_, scripts_scratch_);
  ViolatorMatches matches(*matcher_, detection, scripts_scratch_,
                          domain_hash_scratch_, now);

  if (cfg_.policy.record_context) {
    record_report_context(user, matches, plt_s, now);
  }

  core_->expire(user, now);
  {
    obs::ScopedTimer match_timer(obs_.match);
    first_state_scratch_.clear();
    core_->decide(user, matches, plt_s, cfg_.history, now,
                  &first_state_scratch_);
  }
  for (int rule_id : first_state_scratch_) {
    holders_[rule_id].push_back(user.user_id);
  }

  if (out_detection) *out_detection = std::move(detection);
}

void OakServer::record_report_context(UserProfile& user, MatchSource& matches,
                                      double plt_s, double now) {
  ReportContext ctx;
  ctx.time = now;
  ctx.user_id = user.user_id;
  ctx.client_ip = user.client_ip;
  ctx.plt_s = plt_s;
  // Ask about every rule and every alternative — regardless of what is
  // active or banned for this user — because a candidate policy replayed
  // over this context may have any alternative live at this point. The
  // memoized matcher makes the full sweep cheap.
  for (const auto& r : rules_) {
    if (const ViolatorMatch m = matches.rule_match(r)) {
      ctx.rule_matches.push_back(
          ContextRuleMatch{r.id, m.severity, *m.violator_ip});
    }
    for (std::size_t ai = 0; ai < r.alternatives.size(); ++ai) {
      if (const ViolatorMatch m = matches.alt_match(r, ai)) {
        ctx.alt_matches.push_back(
            ContextAltMatch{r.id, ai, m.severity, *m.violator_ip});
      }
    }
  }
  log_.record_context(std::move(ctx));
  if (obs_.contexts_recorded != nullptr) obs_.contexts_recorded->inc();
}

}  // namespace oak::core
