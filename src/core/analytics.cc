#include "core/analytics.h"

#include <algorithm>
#include <set>

#include "util/strings.h"

namespace oak::core {

namespace {
std::string preview(const std::string& text, std::size_t max_len = 60) {
  if (text.size() <= max_len) return text;
  return text.substr(0, max_len - 3) + "...";
}
}  // namespace

ConcurrencyCounters ConcurrencyCounters::from_metrics(
    const obs::MetricsSnapshot& snap, std::size_t shards) {
  ConcurrencyCounters c;
  c.shards = shards;
  c.requests_handled = snap.counter("oak_requests_total");
  c.shard_contentions = snap.counter("oak_shard_contentions_total");
  c.match_memo_hits = snap.counter("oak_match_memo_hits_total");
  c.match_memo_misses = snap.counter("oak_match_memo_misses_total");
  c.script_cache_hits = snap.counter("oak_match_script_hits_total");
  c.script_fetches = snap.counter("oak_match_script_fetches_total");
  return c;
}

SiteAnalytics::SiteAnalytics(const OakServer& server,
                             std::optional<double> now) {
  const DecisionLog& log = server.decision_log();

  summary_.site_host = server.site_host();
  summary_.users = server.user_count();
  summary_.reports = server.reports_processed();
  summary_.rules = server.rules().size();
  summary_.pages_served_modified =
      log.count(DecisionType::kServeModified);

  // Per-rule accumulation, seeded with every configured rule so that
  // never-activated rules appear with zero counts (Fig. 14 plots them too).
  std::map<int, RuleStats> by_rule;
  for (const Rule& r : server.rules()) {
    RuleStats s;
    s.rule_id = r.id;
    s.rule_name = r.name;
    s.default_text_preview = preview(r.default_text);
    by_rule[r.id] = std::move(s);
  }
  std::map<int, std::set<std::string>> users_per_rule;
  std::map<std::string, ViolatorStats> by_violator;
  std::map<std::string, std::set<int>> violator_rules;

  for (const Decision& d : log.entries()) {
    auto it = by_rule.find(d.rule_id);
    if (it != by_rule.end()) {
      RuleStats& s = it->second;
      switch (d.type) {
        case DecisionType::kActivate:
          s.activations++;
          users_per_rule[d.rule_id].insert(d.user_id);
          s.worst_distance = std::max(s.worst_distance, d.distance);
          if (!d.violator_ip.empty()) {
            ViolatorStats& v = by_violator[d.violator_ip];
            v.ip = d.violator_ip;
            v.times_blamed++;
            v.worst_distance = std::max(v.worst_distance, d.distance);
            violator_rules[d.violator_ip].insert(d.rule_id);
          }
          break;
        case DecisionType::kDeactivate: s.deactivations++; break;
        case DecisionType::kExpire: s.expirations++; break;
        case DecisionType::kKeepAlternative: s.keep_alternative++; break;
        case DecisionType::kAdvanceAlternative: s.advance_alternative++; break;
        case DecisionType::kServeModified: break;
        case DecisionType::kRaceWinner: break;
      }
    }
  }

  double treated_sum = 0.0, holdback_sum = 0.0;
  std::size_t treated_n = 0, holdback_n = 0;
  server.for_each_profile([&](const UserProfile& profile) {
    for (const auto& [rule_id, ar] : profile.active) {
      auto it = by_rule.find(rule_id);
      if (it == by_rule.end()) continue;
      // Same half-open boundary as DecisionCore::expire: at exactly
      // now == expires_at the rule is expired. The server reaps lazily (on
      // the user's next serve/report), so an audit taken in between must
      // classify the entry by what the server would do, not by what the
      // profile map still holds.
      if (now.has_value() && ar.expires_at > 0.0 && *now >= ar.expires_at) {
        it->second.expirations++;
      } else {
        it->second.currently_active++;
      }
    }
    if (profile.plt_count > 0) {
      if (profile.holdback) {
        holdback_sum += profile.mean_plt_s();
        ++holdback_n;
        ++lift_.holdback_users;
      } else {
        treated_sum += profile.mean_plt_s();
        ++treated_n;
        ++lift_.treated_users;
      }
    }
  });
  if (treated_n > 0) lift_.treated_mean_plt_s = treated_sum / treated_n;
  if (holdback_n > 0) lift_.holdback_mean_plt_s = holdback_sum / holdback_n;
  if (lift_.valid() && lift_.treated_mean_plt_s > 0.0) {
    lift_.ratio = lift_.holdback_mean_plt_s / lift_.treated_mean_plt_s;
  }

  std::size_t below_threshold = 0;
  for (auto& [rule_id, s] : by_rule) {
    s.distinct_users = users_per_rule[rule_id].size();
    s.user_fraction = summary_.users == 0
                          ? 0.0
                          : double(s.distinct_users) / double(summary_.users);
    if (s.activations > 0) summary_.rules_ever_activated++;
    summary_.total_activations += s.activations;
    if (!s.is_common()) ++below_threshold;
    rules_.push_back(s);
  }
  summary_.individual_rule_fraction =
      rules_.empty() ? 0.0 : double(below_threshold) / double(rules_.size());
  std::sort(rules_.begin(), rules_.end(),
            [](const RuleStats& a, const RuleStats& b) {
              if (a.activations != b.activations) {
                return a.activations > b.activations;
              }
              return a.rule_id < b.rule_id;
            });

  for (auto& [ip, v] : by_violator) {
    v.rules_triggered.assign(violator_rules[ip].begin(),
                             violator_rules[ip].end());
    violators_.push_back(v);
  }
  std::sort(violators_.begin(), violators_.end(),
            [](const ViolatorStats& a, const ViolatorStats& b) {
              if (a.times_blamed != b.times_blamed) {
                return a.times_blamed > b.times_blamed;
              }
              return a.ip < b.ip;
            });
}

const RuleStats* SiteAnalytics::rule(int rule_id) const {
  for (const auto& s : rules_) {
    if (s.rule_id == rule_id) return &s;
  }
  return nullptr;
}

std::vector<const RuleStats*> SiteAnalytics::common_rules(
    double threshold) const {
  std::vector<const RuleStats*> out;
  for (const auto& s : rules_) {
    if (s.user_fraction > threshold) out.push_back(&s);
  }
  return out;
}

std::vector<const RuleStats*> SiteAnalytics::individual_rules(
    double threshold) const {
  std::vector<const RuleStats*> out;
  for (const auto& s : rules_) {
    if (s.user_fraction <= threshold) out.push_back(&s);
  }
  return out;
}

util::Json SiteAnalytics::to_json() const {
  util::JsonObject root;
  util::JsonObject summary;
  summary["site"] = summary_.site_host;
  summary["users"] = summary_.users;
  summary["reports"] = summary_.reports;
  summary["rules"] = summary_.rules;
  summary["rules_ever_activated"] = summary_.rules_ever_activated;
  summary["total_activations"] = summary_.total_activations;
  summary["pages_served_modified"] = summary_.pages_served_modified;
  summary["individual_rule_fraction"] = summary_.individual_rule_fraction;
  root["summary"] = std::move(summary);

  if (lift_.valid()) {
    util::JsonObject lift;
    lift["treated_users"] = lift_.treated_users;
    lift["holdback_users"] = lift_.holdback_users;
    lift["treated_mean_plt_s"] = lift_.treated_mean_plt_s;
    lift["holdback_mean_plt_s"] = lift_.holdback_mean_plt_s;
    lift["ratio"] = lift_.ratio;
    root["lift"] = std::move(lift);
  }

  if (concurrency_.valid()) {
    util::JsonObject conc;
    conc["shards"] = concurrency_.shards;
    conc["requests_handled"] = concurrency_.requests_handled;
    conc["shard_contentions"] = concurrency_.shard_contentions;
    conc["match_memo_hits"] = concurrency_.match_memo_hits;
    conc["match_memo_misses"] = concurrency_.match_memo_misses;
    conc["match_memo_hit_rate"] = concurrency_.memo_hit_rate();
    conc["script_cache_hits"] = concurrency_.script_cache_hits;
    conc["script_fetches"] = concurrency_.script_fetches;
    conc["script_cache_hit_rate"] = concurrency_.script_hit_rate();
    root["concurrency"] = std::move(conc);
  }

  util::JsonArray rules;
  for (const auto& s : rules_) {
    util::JsonObject o;
    o["id"] = s.rule_id;
    o["name"] = s.rule_name;
    o["default"] = s.default_text_preview;
    o["activations"] = s.activations;
    o["deactivations"] = s.deactivations;
    o["expirations"] = s.expirations;
    o["kept"] = s.keep_alternative;
    o["advanced"] = s.advance_alternative;
    o["users"] = s.distinct_users;
    o["user_fraction"] = s.user_fraction;
    o["worst_distance"] = s.worst_distance;
    o["currently_active"] = s.currently_active;
    rules.emplace_back(std::move(o));
  }
  root["rules"] = std::move(rules);

  util::JsonArray violators;
  for (const auto& v : violators_) {
    util::JsonObject o;
    o["ip"] = v.ip;
    o["times_blamed"] = v.times_blamed;
    o["worst_distance"] = v.worst_distance;
    util::JsonArray rule_ids;
    for (int id : v.rules_triggered) rule_ids.emplace_back(id);
    o["rules"] = std::move(rule_ids);
    violators.emplace_back(std::move(o));
  }
  root["violators"] = std::move(violators);
  return util::Json(std::move(root));
}

std::string SiteAnalytics::to_report() const {
  std::string out;
  out += util::format(
      "Oak audit for %s\n"
      "  users: %zu  reports: %zu  rules: %zu (%zu ever activated)\n"
      "  activations: %zu  modified pages served: %zu\n"
      "  rules below the 18%%-of-users line: %.0f%%\n\n",
      summary_.site_host.c_str(), summary_.users, summary_.reports,
      summary_.rules, summary_.rules_ever_activated,
      summary_.total_activations, summary_.pages_served_modified,
      summary_.individual_rule_fraction * 100.0);
  if (lift_.valid()) {
    out += util::format(
        "  lift: treated %.0f ms vs holdback %.0f ms (%.2fx, %zu vs %zu "
        "users)\n\n",
        lift_.treated_mean_plt_s * 1000.0, lift_.holdback_mean_plt_s * 1000.0,
        lift_.ratio, lift_.treated_users, lift_.holdback_users);
  }
  if (concurrency_.valid()) {
    out += util::format(
        "  serving: %zu shards, %llu requests (%llu lock waits)\n"
        "  match cache: %.0f%% memo hits, %.0f%% script-body hits "
        "(%llu fetches)\n\n",
        concurrency_.shards,
        static_cast<unsigned long long>(concurrency_.requests_handled),
        static_cast<unsigned long long>(concurrency_.shard_contentions),
        concurrency_.memo_hit_rate() * 100.0,
        concurrency_.script_hit_rate() * 100.0,
        static_cast<unsigned long long>(concurrency_.script_fetches));
  }
  out += "rules by activations:\n";
  for (const auto& s : rules_) {
    if (s.activations == 0) continue;
    out += util::format(
        "  [%3d] %-24s act=%zu deact=%zu users=%zu (%.0f%%%s) worst=%.1f "
        "active-now=%zu\n",
        s.rule_id, s.rule_name.c_str(), s.activations, s.deactivations,
        s.distinct_users, s.user_fraction * 100.0,
        s.is_common() ? ", common" : "", s.worst_distance,
        s.currently_active);
  }
  if (!violators_.empty()) {
    out += "most-blamed servers:\n";
    for (std::size_t i = 0; i < violators_.size() && i < 10; ++i) {
      const auto& v = violators_[i];
      out += util::format("  %-16s blamed %zu times, worst %.1f MADs\n",
                          v.ip.c_str(), v.times_blamed, v.worst_distance);
    }
  }
  return out;
}

}  // namespace oak::core
