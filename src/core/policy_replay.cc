#include "core/policy_replay.h"

#include <algorithm>
#include <stdexcept>

namespace oak::core {

namespace {

// The replay MatchSource: the first matches OakServer recorded for this
// report (record_report_context), looked up instead of probed.
class RecordedMatches final : public MatchSource {
 public:
  explicit RecordedMatches(const ReportContext& ctx) : ctx_(ctx) {}

  ViolatorMatch rule_match(const Rule& rule) override {
    for (const auto& m : ctx_.rule_matches) {
      if (m.rule_id == rule.id) return {m.severity, &m.violator_ip};
    }
    return {};
  }
  ViolatorMatch alt_match(const Rule& rule, std::size_t alt) override {
    for (const auto& m : ctx_.alt_matches) {
      if (m.rule_id == rule.id && m.alt_index == alt) {
        return {m.severity, &m.violator_ip};
      }
    }
    return {};
  }

 private:
  const ReportContext& ctx_;
};

}  // namespace

PolicyReplayer::PolicyReplayer(std::vector<Rule> rules, const Policy& policy,
                               HistoryMode history)
    : rules_(std::move(rules)),
      policy_(policy),
      history_(history),
      engine_(std::make_unique<PolicyEngine>(policy_, nullptr)),
      core_(*engine_, rules_, log_) {
  for (const auto& r : rules_) {
    if (!r.policy.empty() && !engine_->has_strategy(r.policy)) {
      throw std::invalid_argument("replay rule '" + r.name +
                                  "' names policy '" + r.policy +
                                  "' but no such strategy exists");
    }
  }
}

PolicyReplayer::~PolicyReplayer() = default;

UserProfile& PolicyReplayer::profile(const ReportContext& ctx) {
  UserProfile& user = users_[ctx.user_id];
  if (user.user_id.empty()) user.user_id = ctx.user_id;
  if (!ctx.client_ip.empty()) user.client_ip = ctx.client_ip;
  return user;
}

void PolicyReplayer::step(const ReportContext& ctx) {
  UserProfile& user = profile(ctx);
  if (ctx.serve_only) {
    // A page serve advances expiry time but decides nothing else.
    ++serve_ticks_;
    core_.expire(user, ctx.time);
    return;
  }

  const double plt_s = DecisionCore::count_report(user, ctx.plt_s);
  core_.expire(user, ctx.time);
  // Scoring snapshot: was the candidate's mitigation live when this report
  // (measuring the *previous* page load) arrived? Taken after expiry and
  // before this report's own decisions mutate the active set — the same
  // instant the racing sample is taken.
  Sample sample;
  sample.time = ctx.time;
  sample.plt_s = plt_s;
  sample.violating = !ctx.rule_matches.empty();
  for (const auto& m : ctx.rule_matches) {
    if (user.active.count(m.rule_id) != 0) {
      sample.mitigated_live = true;
      break;
    }
  }
  samples_.push_back(sample);

  RecordedMatches matches(ctx);
  core_.decide(user, matches, plt_s, history_, ctx.time);
}

ReplayScore PolicyReplayer::score(double bucket_s) const {
  ReplayScore s;
  s.reports = samples_.size();
  s.serve_ticks = serve_ticks_;
  s.activations = log_.count(DecisionType::kActivate);
  s.deactivations = log_.count(DecisionType::kDeactivate);
  s.expirations = log_.count(DecisionType::kExpire);
  s.race_winners = log_.count(DecisionType::kRaceWinner);

  // Healthy baseline per time bucket: mean PLT of non-violating reports.
  std::map<std::int64_t, std::pair<double, std::size_t>> healthy;
  for (const Sample& smp : samples_) {
    if (smp.plt_s <= 0.0 || smp.violating) continue;
    auto& h = healthy[std::int64_t(smp.time / bucket_s)];
    h.first += smp.plt_s;
    h.second += 1;
  }

  double observed_sum = 0.0, estimated_sum = 0.0;
  std::size_t plt_n = 0;
  for (const Sample& smp : samples_) {
    if (smp.violating) {
      ++s.violation_reports;
      if (smp.mitigated_live) {
        ++s.mitigated_reports;
      } else {
        ++s.unmitigated_reports;
      }
    }
    if (smp.plt_s <= 0.0) continue;
    ++plt_n;
    observed_sum += smp.plt_s;
    double est = smp.plt_s;
    if (smp.violating && smp.mitigated_live) {
      auto it = healthy.find(std::int64_t(smp.time / bucket_s));
      if (it != healthy.end() && it->second.second > 0) {
        est = it->second.first / double(it->second.second);
        ++s.substituted_reports;
      }
    }
    estimated_sum += est;
  }
  if (plt_n > 0) {
    s.observed_mean_plt_s = observed_sum / double(plt_n);
    s.estimated_mean_plt_s = estimated_sum / double(plt_n);
  }
  return s;
}

util::Json ReplayScore::to_json() const {
  util::JsonObject o;
  o["reports"] = reports;
  o["serve_ticks"] = serve_ticks;
  o["violation_reports"] = violation_reports;
  o["mitigated_reports"] = mitigated_reports;
  o["unmitigated_reports"] = unmitigated_reports;
  o["activations"] = activations;
  o["deactivations"] = deactivations;
  o["expirations"] = expirations;
  o["race_winners"] = race_winners;
  o["observed_mean_plt_s"] = observed_mean_plt_s;
  o["estimated_mean_plt_s"] = estimated_mean_plt_s;
  o["substituted_reports"] = substituted_reports;
  return util::Json(std::move(o));
}

util::Json PolicyReplayer::result_json(double bucket_s) const {
  util::JsonObject o;
  o["score"] = score(bucket_s).to_json();
  util::JsonArray decisions;
  for (const auto& d : log_.entries()) {
    decisions.push_back(decision_to_json(d));
  }
  o["decisions"] = std::move(decisions);
  return util::Json(std::move(o));
}

ReplayScore replay_and_score(std::vector<Rule> rules, const Policy& policy,
                             HistoryMode history,
                             const std::vector<ReportContext>& contexts,
                             double bucket_s) {
  PolicyReplayer replayer(std::move(rules), policy, history);
  for (const auto& c : contexts) replayer.step(c);
  return replayer.score(bucket_s);
}

}  // namespace oak::core
