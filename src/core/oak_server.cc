#include "core/oak_server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "browser/report_decoder.h"
#include "core/rule_parser.h"
#include "http/cookies.h"
#include "util/strings.h"

namespace oak::core {

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
    obs_.activations = &metrics_.counter("oak_rule_activations_total");
    obs_.expirations = &metrics_.counter("oak_rule_expirations_total");
    obs_.deactivations = &metrics_.counter("oak_rule_deactivations_total");
    obs_.contexts_recorded =
        &metrics_.counter("oak_policy_contexts_recorded_total");
  }
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

void OakServer::expire_rules(UserProfile& user, double now) {
  for (auto it = user.active.begin(); it != user.active.end();) {
    // Half-open lifetime [activated_at, expires_at): a rule is already
    // expired at exactly now == expires_at (see the ttl_s contract in
    // rule.h). SiteAnalytics applies the same comparison when counting
    // expired-but-unreaped actives.
    if (it->second.expires_at > 0.0 && now >= it->second.expires_at) {
      log_.record(Decision{now, user.user_id, it->first, DecisionType::kExpire,
                           "", 0.0, it->second.alternative_index});
      if (obs_.expirations != nullptr) obs_.expirations->inc();
      it = user.active.erase(it);
    } else {
      ++it;
    }
  }
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
    expire_rules(user, now);
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
  ++user.reports_received;
  ++reports_processed_;
  if (obs_.reports_ingested != nullptr) obs_.reports_ingested->inc();
  // Reject non-finite and negative PLTs at the accumulator: plt_s comes off
  // the wire, and a single 1e308 sample would push plt_sum_s to +Inf, from
  // where every derived mean (and the treated/holdback lift ratio) becomes
  // Inf or NaN forever.
  const bool plt_accepted = std::isfinite(report.plt_s) && report.plt_s > 0.0;
  if (plt_accepted) {
    user.plt_sum_s += report.plt_s;
    ++user.plt_count;
  }

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
  // Hash hoisting: the matcher memoizes on (text, domains, scripts) hashes.
  // The script set is fixed per report and each violator's domain set is
  // fixed per detection, so hash them once here instead of once per
  // (rule × violator) probe inside the matcher.
  const std::uint64_t scripts_hash = fnv1a(scripts_scratch_);
  domain_hash_scratch_.clear();
  domain_hash_scratch_.reserve(detection.violators.size());
  for (const auto& v : detection.violators) {
    domain_hash_scratch_.push_back(fnv1a(v.domains));
  }

  if (cfg_.policy.record_context) {
    record_report_context(user, detection, scripts_scratch_,
                          domain_hash_scratch_, scripts_hash,
                          plt_accepted ? report.plt_s : 0.0, now);
  }

  expire_rules(user, now);
  // Racing cohort accounting: the report's PLT is a sample for every raced
  // rule still active at this instant (after expiry, before the history
  // verdict — the page this PLT measures was served under the pre-review
  // alternative). PolicyReplayer mirrors this ordering exactly.
  if (plt_accepted) {
    race_events_scratch_.clear();
    engine_->observe_report(user, report.plt_s, now,
                            [this](int id) { return rule(id); },
                            &race_events_scratch_);
    for (Decision& d : race_events_scratch_) log_.record(std::move(d));
  }
  {
    obs::ScopedTimer match_timer(obs_.match);
    review_active_rules(user, detection, scripts_scratch_,
                        domain_hash_scratch_, scripts_hash, now);
    consider_activations(user, detection, scripts_scratch_,
                         domain_hash_scratch_, scripts_hash, now);
  }

  if (out_detection) *out_detection = std::move(detection);
}

void OakServer::record_report_context(
    UserProfile& user, const DetectionResult& detection,
    const std::vector<std::string>& scripts,
    const std::vector<std::uint64_t>& domain_hashes,
    std::uint64_t scripts_hash, double plt_s, double now) {
  ReportContext ctx;
  ctx.time = now;
  ctx.user_id = user.user_id;
  ctx.client_ip = user.client_ip;
  ctx.plt_s = plt_s;
  // Probe every rule and every alternative against the violator set —
  // regardless of what is active or banned for this user — because a
  // candidate policy replayed over this context may have any alternative
  // live at this point. First-match semantics mirror the live loops; the
  // memoized matcher makes the full sweep cheap.
  for (const auto& r : rules_) {
    for (std::size_t vi = 0; vi < detection.violators.size(); ++vi) {
      const Violation& v = detection.violators[vi];
      if (matcher_->match_rule(r, v.domains, domain_hashes[vi], scripts,
                               scripts_hash, now) != MatchTier::kNone) {
        ctx.rule_matches.push_back(
            ContextRuleMatch{r.id, v.severity(), v.ip});
        break;
      }
    }
    for (std::size_t ai = 0; ai < r.alternatives.size(); ++ai) {
      for (std::size_t vi = 0; vi < detection.violators.size(); ++vi) {
        const Violation& v = detection.violators[vi];
        if (matcher_->match_text(r.alternatives[ai], v.domains,
                                 domain_hashes[vi], scripts, scripts_hash,
                                 now) != MatchTier::kNone) {
          ctx.alt_matches.push_back(
              ContextAltMatch{r.id, ai, v.severity(), v.ip});
          break;
        }
      }
    }
  }
  log_.record_context(std::move(ctx));
  if (obs_.contexts_recorded != nullptr) obs_.contexts_recorded->inc();
}

void OakServer::review_active_rules(
    UserProfile& user, const DetectionResult& detection,
    const std::vector<std::string>& scripts,
    const std::vector<std::uint64_t>& domain_hashes,
    std::uint64_t scripts_hash, double now) {
  if (detection.violators.empty()) return;
  if (cfg_.history == HistoryMode::kAlwaysKeep) return;
  for (auto it = user.active.begin(); it != user.active.end();) {
    ActiveRule& ar = it->second;
    const Rule* r = rule(ar.rule_id);
    if (!r || r->type == RuleType::kRemove || r->alternatives.empty()) {
      ++it;
      continue;
    }
    const std::size_t idx =
        std::min(ar.alternative_index, r->alternatives.size() - 1);
    const std::string& alt_text = r->alternatives[idx];

    const Violation* alt_violation = nullptr;
    for (std::size_t vi = 0; vi < detection.violators.size(); ++vi) {
      const Violation& v = detection.violators[vi];
      if (matcher_->match_text(alt_text, v.domains, domain_hashes[vi],
                               scripts, scripts_hash, now) !=
          MatchTier::kNone) {
        alt_violation = &v;
        break;
      }
    }
    if (!alt_violation) {
      ++it;
      continue;
    }

    // The history verdict (§4.2.3 and its strategy variants) is the
    // engine's call; this loop owns the mutation and the logging.
    const double alt_distance = alt_violation->severity();
    switch (engine_->on_alternative_violation(*r, user, ar, alt_distance,
                                              cfg_.history)) {
      case HistoryAction::kKeep:
        log_.record(Decision{now, user.user_id, ar.rule_id,
                             DecisionType::kKeepAlternative, alt_violation->ip,
                             alt_distance, idx});
        ++it;
        break;
      case HistoryAction::kAdvance:
        ar.alternative_index = idx + 1;
        log_.record(Decision{now, user.user_id, ar.rule_id,
                             DecisionType::kAdvanceAlternative,
                             alt_violation->ip, alt_distance,
                             ar.alternative_index});
        ++it;
        break;
      case HistoryAction::kDeactivate:
        log_.record(Decision{now, user.user_id, ar.rule_id,
                             DecisionType::kDeactivate, alt_violation->ip,
                             alt_distance, idx});
        if (obs_.deactivations != nullptr) obs_.deactivations->inc();
        engine_->on_deactivated(*r, user, now);
        user.pending_violations.erase(ar.rule_id);
        it = user.active.erase(it);
        break;
    }
  }
}

void OakServer::consider_activations(
    UserProfile& user, const DetectionResult& detection,
    const std::vector<std::string>& scripts,
    const std::vector<std::uint64_t>& domain_hashes,
    std::uint64_t scripts_hash, double now) {
  if (detection.violators.empty()) return;
  for (const auto& r : rules_) {
    if (user.active.count(r.id) || user.banned.count(r.id)) continue;

    const Violation* hit = nullptr;
    for (std::size_t vi = 0; vi < detection.violators.size(); ++vi) {
      const Violation& v = detection.violators[vi];
      if (matcher_->match_rule(r, v.domains, domain_hashes[vi], scripts,
                               scripts_hash, now) != MatchTier::kNone) {
        hit = &v;
        break;
      }
    }
    if (!hit) continue;

    // About to create this user's first state for the rule: enter the
    // holder index. Active and banned were ruled out above; any other
    // state means the uid is indexed already.
    if (!user.pending_violations.count(r.id) &&
        !user.next_alternative.count(r.id) && !user.race.count(r.id) &&
        !user.cooldown_until.count(r.id)) {
      holders_[r.id].push_back(user.user_id);
    }
    // Threshold counting and alternative choice are the strategy's call
    // (the built-in "paper" strategy reproduces the seed flow bit-for-bit).
    auto choice = engine_->on_rule_violation(r, user, hit->severity(), now);
    if (!choice) continue;

    ActiveRule ar;
    ar.rule_id = r.id;
    ar.alternative_index = choice->alternative_index;
    ar.activated_at = now;
    ar.expires_at = r.ttl_s > 0.0 ? now + r.ttl_s : 0.0;
    ar.violation_distance = hit->severity();
    ar.violator_ip = hit->ip;
    user.active[r.id] = ar;
    log_.record(Decision{now, user.user_id, r.id, DecisionType::kActivate,
                         hit->ip, ar.violation_distance,
                         ar.alternative_index});
    if (obs_.activations != nullptr) obs_.activations->inc();
  }
}

}  // namespace oak::core
