#include "core/policy.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "util/rng.h"

namespace oak::core {

std::uint32_t Policy::holdback_bucket(const std::string& user_id) {
  return std::uint32_t(util::stable_hash(user_id) % 10'000);
}

bool Policy::in_holdback(const std::string& user_id) const {
  if (holdback_fraction <= 0.0) return false;
  if (holdback_fraction >= 1.0) return true;
  // Stable assignment: the same user lands on the same side forever. The
  // holdback group is the half-open bucket range [0, fraction * 10'000).
  return double(holdback_bucket(user_id)) < holdback_fraction * 10'000.0;
}

bool Policy::applies_to(const std::string& client_ip_text) const {
  if (!client_filter) return true;
  auto ip = net::IpAddr::parse(client_ip_text);
  if (!ip) return false;  // unknown clients stay on the default page
  return client_filter->contains(*ip);
}

// --- Subnet ---------------------------------------------------------------

std::optional<Subnet> Subnet::parse(const std::string& text) {
  std::string ip_part = text;
  int prefix = 32;
  if (auto slash = text.find('/'); slash != std::string::npos) {
    ip_part = text.substr(0, slash);
    const std::string len = text.substr(slash + 1);
    if (len.empty() || len.size() > 3) return std::nullopt;
    prefix = 0;
    for (char c : len) {
      if (c < '0' || c > '9') return std::nullopt;
      prefix = prefix * 10 + (c - '0');
    }
    if (prefix > 128) return std::nullopt;
  }
  auto base = net::IpAddr::parse(ip_part);
  if (!base) return std::nullopt;
  return Subnet{*base, prefix};
}

std::string Subnet::to_string() const {
  return base.to_string() + "/" + std::to_string(prefix_len);
}

// --- Strategy kinds -------------------------------------------------------

std::string to_string(StrategyKind k) {
  switch (k) {
    case StrategyKind::kPaper: return "paper";
    case StrategyKind::kRacing: return "racing";
    case StrategyKind::kHysteresis: return "hysteresis";
    case StrategyKind::kScoped: return "scoped";
  }
  return "paper";
}

std::optional<StrategyKind> strategy_kind_from_string(const std::string& s) {
  if (s == "paper") return StrategyKind::kPaper;
  if (s == "racing") return StrategyKind::kRacing;
  if (s == "hysteresis") return StrategyKind::kHysteresis;
  if (s == "scoped") return StrategyKind::kScoped;
  return std::nullopt;
}

// --- Policy JSON round-trip -----------------------------------------------

util::Json policy_to_json(const Policy& p) {
  util::JsonObject o;
  o["default_min_violations"] = p.default_min_violations;
  o["selection"] = p.selection == AlternativeSelection::kRoundRobin
                       ? "round_robin"
                       : "linear";
  if (p.client_filter) o["client_filter"] = p.client_filter->to_string();
  o["allow_reactivation"] = p.allow_reactivation;
  o["holdback_fraction"] = p.holdback_fraction;
  o["default_strategy"] = p.default_strategy;
  o["record_context"] = p.record_context;
  util::JsonArray strategies;
  for (const auto& s : p.strategies) {
    util::JsonObject so;
    so["name"] = s.name;
    so["kind"] = to_string(s.kind);
    switch (s.kind) {
      case StrategyKind::kRacing:
        so["min_samples"] = std::uint64_t(s.racing.min_samples);
        break;
      case StrategyKind::kHysteresis:
        so["cooldown_s"] = s.hysteresis.cooldown_s;
        so["keep_margin"] = s.hysteresis.keep_margin;
        break;
      case StrategyKind::kScoped: {
        util::JsonArray routes;
        for (const auto& r : s.routes) {
          util::JsonObject ro;
          ro["subnet"] = r.subnet.to_string();
          ro["strategy"] = r.strategy;
          routes.push_back(std::move(ro));
        }
        so["routes"] = std::move(routes);
        so["fallback"] = s.fallback;
        break;
      }
      case StrategyKind::kPaper:
        break;
    }
    strategies.push_back(std::move(so));
  }
  o["strategies"] = std::move(strategies);
  return util::Json(std::move(o));
}

Policy policy_from_json(const util::Json& j) {
  Policy p;
  if (const auto* v = j.find("default_min_violations")) {
    p.default_min_violations = int(v->as_int());
  }
  if (const auto* v = j.find("selection")) {
    p.selection = v->as_string() == "round_robin"
                      ? AlternativeSelection::kRoundRobin
                      : AlternativeSelection::kLinear;
  }
  if (const auto* v = j.find("client_filter")) {
    auto sub = Subnet::parse(v->as_string());
    if (!sub) throw util::JsonError("policy: bad client_filter subnet");
    p.client_filter = *sub;
  }
  if (const auto* v = j.find("allow_reactivation")) {
    p.allow_reactivation = v->as_bool();
  }
  if (const auto* v = j.find("holdback_fraction")) {
    p.holdback_fraction = v->as_number();
  }
  if (const auto* v = j.find("default_strategy")) {
    p.default_strategy = v->as_string();
  }
  if (const auto* v = j.find("record_context")) {
    p.record_context = v->as_bool();
  }
  if (const auto* v = j.find("strategies")) {
    for (const auto& sj : v->as_array()) {
      StrategyConfig s;
      s.name = sj.at("name").as_string();
      auto kind = strategy_kind_from_string(sj.at("kind").as_string());
      if (!kind) throw util::JsonError("policy: unknown strategy kind");
      s.kind = *kind;
      if (const auto* m = sj.find("min_samples")) {
        s.racing.min_samples = std::uint64_t(m->as_int());
      }
      if (const auto* c = sj.find("cooldown_s")) {
        s.hysteresis.cooldown_s = c->as_number();
      }
      if (const auto* m = sj.find("keep_margin")) {
        s.hysteresis.keep_margin = m->as_number();
      }
      if (const auto* r = sj.find("routes")) {
        for (const auto& rj : r->as_array()) {
          auto sub = Subnet::parse(rj.at("subnet").as_string());
          if (!sub) throw util::JsonError("policy: bad route subnet");
          s.routes.push_back(SubnetRoute{*sub, rj.at("strategy").as_string()});
        }
      }
      if (const auto* f = sj.find("fallback")) s.fallback = f->as_string();
      p.strategies.push_back(std::move(s));
    }
  }
  return p;
}

// --- Built-in strategies --------------------------------------------------

namespace {

// The seed alternative-selection flow, verbatim (oak_server.cc pre-engine):
// selector override wins, else linear/round-robin off next_alternative.
std::size_t seed_select_alternative(const Policy& policy, const Rule& r,
                                    UserProfile& user) {
  std::size_t alt_idx = 0;
  if (!r.alternatives.empty() && policy.alternative_selector) {
    alt_idx = std::min(
        policy.alternative_selector(user.client_ip, r.alternatives.size()),
        r.alternatives.size() - 1);
    user.next_alternative[r.id] = alt_idx + 1;
  } else if (!r.alternatives.empty()) {
    std::size_t& next = user.next_alternative[r.id];
    switch (policy.selection) {
      case AlternativeSelection::kLinear:
        alt_idx = std::min(next, r.alternatives.size() - 1);
        break;
      case AlternativeSelection::kRoundRobin:
        alt_idx = next % r.alternatives.size();
        break;
    }
    next = alt_idx + 1;
  }
  return alt_idx;
}

class PaperStrategy : public PolicyStrategy {
 public:
  using PolicyStrategy::PolicyStrategy;

  std::optional<ActivationChoice> on_rule_violation(PolicyEngine& engine,
                                                    const Rule& rule,
                                                    UserProfile& user,
                                                    double /*severity*/,
                                                    double /*now*/) const override {
    if (!count_violation(engine, rule, user)) return std::nullopt;
    return ActivationChoice{
        seed_select_alternative(engine.policy(), rule, user), -1};
  }
};

class RacingStrategy : public PolicyStrategy {
 public:
  using PolicyStrategy::PolicyStrategy;

  std::optional<ActivationChoice> on_rule_violation(PolicyEngine& engine,
                                                    const Rule& rule,
                                                    UserProfile& user,
                                                    double /*severity*/,
                                                    double /*now*/) const override {
    if (!count_violation(engine, rule, user)) return std::nullopt;
    // Racing needs two alternatives to race; degenerate rules fall back to
    // the seed selection.
    if (rule.alternatives.size() < 2) {
      return ActivationChoice{
          seed_select_alternative(engine.policy(), rule, user), -1};
    }
    if (auto rs = engine.race_state(rule.id); rs && rs->decided) {
      // Race over: everyone gets the winner from here on.
      const std::size_t alt = std::size_t(rs->winner);
      user.next_alternative[rule.id] = alt + 1;
      return ActivationChoice{alt, -1};
    }
    // Mid-race: the user's stable cohort picks the raced alternative, and
    // the profile grows an accumulator so post-activation PLT is attributed
    // to the cohort (and survives snapshots — the engine aggregate is
    // rebuilt by folding these).
    const int cohort = PolicyEngine::cohort_of(user.user_id, rule.id);
    const std::size_t alt = std::size_t(cohort);
    user.next_alternative[rule.id] = alt + 1;
    user.race[rule.id].cohort = cohort;
    return ActivationChoice{alt, cohort};
  }
};

class HysteresisStrategy : public PolicyStrategy {
 public:
  using PolicyStrategy::PolicyStrategy;

  std::optional<ActivationChoice> on_rule_violation(PolicyEngine& engine,
                                                    const Rule& rule,
                                                    UserProfile& user,
                                                    double /*severity*/,
                                                    double now) const override {
    if (auto it = user.cooldown_until.find(rule.id);
        it != user.cooldown_until.end()) {
      if (now < it->second) {
        // Inside the cooldown window: the violation neither activates nor
        // counts toward min_violations.
        engine.note_cooldown_suppressed();
        return std::nullopt;
      }
      user.cooldown_until.erase(it);
    }
    if (!count_violation(engine, rule, user)) return std::nullopt;
    return ActivationChoice{
        seed_select_alternative(engine.policy(), rule, user), -1};
  }

  HistoryAction on_alternative_violation(PolicyEngine& engine,
                                         const Rule& rule, UserProfile& user,
                                         const ActiveRule& active,
                                         double alt_distance,
                                         HistoryMode history) const override {
    if (history == HistoryMode::kMinDistance &&
        alt_distance < cfg_.hysteresis.keep_margin * active.violation_distance) {
      // Keeps the paper would not have made (distance in
      // [violation_distance, margin x violation_distance)) are the
      // hysteresis at work; count them.
      if (alt_distance >= active.violation_distance) {
        engine.note_hysteresis_keep();
      }
      return HistoryAction::kKeep;
    }
    return PolicyStrategy::on_alternative_violation(engine, rule, user, active,
                                                    alt_distance, history);
  }

  void on_deactivated(PolicyEngine& engine, const Rule& rule,
                      UserProfile& user, double now) const override {
    PolicyStrategy::on_deactivated(engine, rule, user, now);
    if (cfg_.hysteresis.cooldown_s > 0.0) {
      user.cooldown_until[rule.id] = now + cfg_.hysteresis.cooldown_s;
    }
  }
};

// Scoped strategies are pure routers: PolicyEngine::strategy_for resolves
// them to their route target before any decision method is called, so these
// entry points are unreachable by construction.
class ScopedStrategy : public PolicyStrategy {
 public:
  using PolicyStrategy::PolicyStrategy;

  std::optional<ActivationChoice> on_rule_violation(PolicyEngine&, const Rule&,
                                                    UserProfile&, double,
                                                    double) const override {
    throw std::logic_error("scoped strategy used without route resolution");
  }
};

std::unique_ptr<PolicyStrategy> make_strategy(StrategyConfig cfg) {
  switch (cfg.kind) {
    case StrategyKind::kPaper:
      return std::make_unique<PaperStrategy>(std::move(cfg));
    case StrategyKind::kRacing:
      return std::make_unique<RacingStrategy>(std::move(cfg));
    case StrategyKind::kHysteresis:
      return std::make_unique<HysteresisStrategy>(std::move(cfg));
    case StrategyKind::kScoped:
      return std::make_unique<ScopedStrategy>(std::move(cfg));
  }
  throw std::invalid_argument("unknown strategy kind");
}

}  // namespace

// --- PolicyStrategy shared behavior ---------------------------------------

std::optional<int> PolicyStrategy::count_violation(PolicyEngine& engine,
                                                   const Rule& rule,
                                                   UserProfile& user) const {
  // Seed threshold flow, verbatim: count toward the larger of the rule's
  // own min_violations and the global default, reset the counter on firing.
  const int required = std::max(rule.min_violations,
                                engine.policy().default_min_violations);
  const int seen = ++user.pending_violations[rule.id];
  if (seen < required) return std::nullopt;
  user.pending_violations.erase(rule.id);
  return required;
}

HistoryAction PolicyStrategy::on_alternative_violation(
    PolicyEngine& /*engine*/, const Rule& rule, UserProfile& /*user*/,
    const ActiveRule& active, double alt_distance, HistoryMode history) const {
  // History rule (§4.2.3): keep whichever side lies closer to the median.
  if (history == HistoryMode::kMinDistance &&
      alt_distance < active.violation_distance) {
    return HistoryAction::kKeep;
  }
  const std::size_t idx =
      std::min(active.alternative_index, rule.alternatives.size() - 1);
  return idx + 1 < rule.alternatives.size() ? HistoryAction::kAdvance
                                            : HistoryAction::kDeactivate;
}

void PolicyStrategy::on_deactivated(PolicyEngine& engine, const Rule& rule,
                                    UserProfile& user, double /*now*/) const {
  if (!engine.policy().allow_reactivation) user.banned.insert(rule.id);
}

// --- PolicyEngine ---------------------------------------------------------

PolicyEngine::PolicyEngine(const Policy& policy, obs::MetricsRegistry* metrics)
    : policy_(&policy) {
  // Built-ins first; operator entries append or shadow by name.
  for (const char* name : {"paper", "racing", "hysteresis"}) {
    StrategyConfig cfg;
    cfg.name = name;
    cfg.kind = *strategy_kind_from_string(name);
    strategies_.push_back(make_strategy(std::move(cfg)));
  }
  const std::size_t builtin_count = strategies_.size();
  std::vector<std::string> seen;
  for (const auto& cfg : policy_->strategies) {
    if (cfg.name.empty()) {
      throw std::invalid_argument("policy strategy with empty name");
    }
    if (std::find(seen.begin(), seen.end(), cfg.name) != seen.end()) {
      throw std::invalid_argument("duplicate policy strategy '" + cfg.name +
                                  "'");
    }
    seen.push_back(cfg.name);
    auto shadowed =
        std::find_if(strategies_.begin(), strategies_.end(),
                     [&](const auto& s) { return s->name() == cfg.name; });
    if (shadowed != strategies_.end() &&
        std::size_t(shadowed - strategies_.begin()) < builtin_count) {
      *shadowed = make_strategy(cfg);  // operators may shadow a built-in
    } else {
      strategies_.push_back(make_strategy(cfg));
    }
  }
  // Route and fallback targets must exist and must not themselves be scoped
  // (routing is single-hop by design — see DESIGN.md §15).
  auto check_target = [&](const std::string& name, const char* what) {
    const PolicyStrategy* t = find_strategy(name);
    if (!t) {
      throw std::invalid_argument(std::string("scoped ") + what + " '" + name +
                                  "' names no strategy");
    }
    if (t->kind() == StrategyKind::kScoped) {
      throw std::invalid_argument(std::string("scoped ") + what + " '" + name +
                                  "' may not be scoped");
    }
  };
  for (const auto& s : strategies_) {
    if (s->kind() != StrategyKind::kScoped) continue;
    for (const auto& route : s->config().routes) {
      check_target(route.strategy, "route");
    }
    if (!s->config().fallback.empty()) {
      check_target(s->config().fallback, "fallback");
    }
  }
  if (!policy_->default_strategy.empty() &&
      !find_strategy(policy_->default_strategy)) {
    throw std::invalid_argument("default_strategy '" +
                                policy_->default_strategy +
                                "' names no strategy");
  }
  if (metrics) {
    obs_.decisions = &metrics->counter("oak_policy_decisions_total");
    obs_.activations = &metrics->counter("oak_policy_activations_total");
    obs_.cooldown_suppressed =
        &metrics->counter("oak_policy_cooldown_suppressed_total");
    obs_.hysteresis_keeps =
        &metrics->counter("oak_policy_hysteresis_keeps_total");
    obs_.racing_activations =
        &metrics->counter("oak_policy_racing_activations_total");
    obs_.racing_winners = &metrics->counter("oak_policy_racing_winners_total");
    obs_.winner_activations =
        &metrics->counter("oak_policy_winner_activations_total");
    obs_.scoped_routed = &metrics->counter("oak_policy_scoped_routed_total");
  }
}

PolicyEngine::~PolicyEngine() = default;

const PolicyStrategy* PolicyEngine::find_strategy(
    const std::string& name) const {
  for (const auto& s : strategies_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

bool PolicyEngine::has_strategy(const std::string& name) const {
  return find_strategy(name) != nullptr;
}

const PolicyStrategy& PolicyEngine::strategy_for(
    const Rule& rule, const std::string& client_ip) const {
  const std::string& name = !rule.policy.empty() ? rule.policy
                            : !policy_->default_strategy.empty()
                                ? policy_->default_strategy
                                : std::string();
  const PolicyStrategy* s =
      name.empty() ? strategies_[0].get() : find_strategy(name);
  // add_rule / the constructor validated every reachable name.
  if (!s) s = strategies_[0].get();
  if (s->kind() != StrategyKind::kScoped) return *s;

  // Single-hop routing: first matching subnet wins; fallback (default:
  // "paper") catches everyone else, including unparseable client IPs.
  auto ip = net::IpAddr::parse(client_ip);
  if (ip) {
    for (const auto& route : s->config().routes) {
      if (route.subnet.contains(*ip)) {
        if (obs_.scoped_routed != nullptr) obs_.scoped_routed->inc();
        return *find_strategy(route.strategy);
      }
    }
  }
  const std::string& fb = s->config().fallback;
  return fb.empty() ? *strategies_[0] : *find_strategy(fb);
}

std::optional<ActivationChoice> PolicyEngine::on_rule_violation(
    const Rule& rule, UserProfile& user, double severity, double now) {
  if (obs_.decisions != nullptr) obs_.decisions->inc();
  const PolicyStrategy& s = strategy_for(rule, user.client_ip);
  auto choice = s.on_rule_violation(*this, rule, user, severity, now);
  if (choice) {
    if (obs_.activations != nullptr) obs_.activations->inc();
    if (choice->cohort >= 0) {
      if (obs_.racing_activations != nullptr) obs_.racing_activations->inc();
    } else if (s.kind() == StrategyKind::kRacing &&
               rule.alternatives.size() >= 2) {
      // A racing rule activating outside a cohort means the race is decided
      // and the winner is being replayed.
      if (obs_.winner_activations != nullptr) obs_.winner_activations->inc();
    }
  }
  return choice;
}

HistoryAction PolicyEngine::on_alternative_violation(const Rule& rule,
                                                     UserProfile& user,
                                                     const ActiveRule& active,
                                                     double alt_distance,
                                                     HistoryMode history) {
  if (obs_.decisions != nullptr) obs_.decisions->inc();
  return strategy_for(rule, user.client_ip)
      .on_alternative_violation(*this, rule, user, active, alt_distance,
                                history);
}

void PolicyEngine::on_deactivated(const Rule& rule, UserProfile& user,
                                  double now) {
  strategy_for(rule, user.client_ip).on_deactivated(*this, rule, user, now);
}

void PolicyEngine::observe_report(
    UserProfile& user, double plt_s, double now,
    const std::function<const Rule*(int)>& rule_of,
    std::vector<Decision>* events) {
  if (user.race.empty()) return;  // fast path: nobody racing
  for (auto& [rule_id, stat] : user.race) {
    if (!user.active.count(rule_id)) continue;  // race sample needs the
                                                // alternative live
    const Rule* r = rule_of(rule_id);
    if (!r) continue;
    RaceState& rs = race_[rule_id];
    if (rs.decided) continue;  // race over: aggregates freeze so the winner
                               // recomputes identically after import
    stat.plt_sum += plt_s;
    ++stat.count;
    rs.plt_sum[stat.cohort] += plt_s;
    ++rs.count[stat.cohort];
    const std::uint64_t need = race_min_samples(*r);
    if (rs.count[0] >= need && rs.count[1] >= need) {
      rs.decided = true;
      rs.winner = rs.mean(0) <= rs.mean(1) ? 0 : 1;  // ties go to cohort 0
      if (events != nullptr) {
        events->push_back(Decision{now, user.user_id, rule_id,
                                   DecisionType::kRaceWinner, "",
                                   rs.mean(rs.winner),
                                   std::size_t(rs.winner)});
      }
      if (obs_.racing_winners != nullptr) obs_.racing_winners->inc();
    }
  }
}

std::uint64_t PolicyEngine::race_min_samples(const Rule& rule) const {
  // Resolved rule-wide (not per client): a race has one threshold. A scoped
  // strategy contributes its fallback's options when that is racing.
  const std::string& name = !rule.policy.empty() ? rule.policy
                            : !policy_->default_strategy.empty()
                                ? policy_->default_strategy
                                : std::string("paper");
  const PolicyStrategy* s = find_strategy(name);
  if (s && s->kind() == StrategyKind::kScoped &&
      !s->config().fallback.empty()) {
    s = find_strategy(s->config().fallback);
  }
  if (s && s->kind() == StrategyKind::kRacing) {
    return s->config().racing.min_samples;
  }
  return RacingOptions{}.min_samples;
}

void PolicyEngine::reset_race_state() { race_.clear(); }

void PolicyEngine::fold_profile(const UserProfile& user) {
  for (const auto& [rule_id, stat] : user.race) {
    RaceState& rs = race_[rule_id];
    rs.plt_sum[stat.cohort] += stat.plt_sum;
    rs.count[stat.cohort] += stat.count;
  }
}

void PolicyEngine::finalize_races(
    const std::function<const Rule*(int)>& rule_of) {
  for (auto& [rule_id, rs] : race_) {
    const Rule* r = rule_of(rule_id);
    if (!r) continue;
    const std::uint64_t need = race_min_samples(*r);
    if (rs.count[0] >= need && rs.count[1] >= need) {
      rs.decided = true;
      rs.winner = rs.mean(0) <= rs.mean(1) ? 0 : 1;
    }
  }
}

void PolicyEngine::erase_rule(int rule_id) { race_.erase(rule_id); }

std::optional<RaceState> PolicyEngine::race_state(int rule_id) const {
  const RaceState* rs = race_.at_ptr(rule_id);
  if (!rs) return std::nullopt;
  return *rs;
}

int PolicyEngine::cohort_of(const std::string& user_id, int rule_id) {
  // Salted separately from the holdback bucket (different hash input), so
  // cohort membership and holdback are independent splits of the population.
  //
  // FNV-1a multiplies by an odd prime, so its low bit is just the XOR of the
  // input bytes' low bits — taking `hash & 1` would put e.g. "user0" and
  // "user1" in opposite cohorts for every rule. Fold the high half in first
  // so the cohort bit depends on the whole hash.
  std::uint64_t h =
      util::stable_hash(user_id + "#race" + std::to_string(rule_id));
  h ^= h >> 32;
  h *= 0x9e3779b97f4a7c15ull;
  return int(h >> 63);
}

void PolicyEngine::note_cooldown_suppressed() {
  if (obs_.cooldown_suppressed != nullptr) obs_.cooldown_suppressed->inc();
}

void PolicyEngine::note_hysteresis_keep() {
  if (obs_.hysteresis_keeps != nullptr) obs_.hysteresis_keeps->inc();
}

// --- DecisionCore ---------------------------------------------------------

DecisionCore::DecisionCore(PolicyEngine& engine,
                           const std::vector<Rule>& rules, DecisionLog& log,
                           DecisionCounters counters)
    : engine_(engine), rules_(rules), log_(log), counters_(counters) {}

const Rule* DecisionCore::rule(int id) const {
  for (const auto& r : rules_) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

double DecisionCore::count_report(UserProfile& user, double plt_s) {
  ++user.reports_received;
  if (!std::isfinite(plt_s) || plt_s <= 0.0) return 0.0;
  user.plt_sum_s += plt_s;
  ++user.plt_count;
  return plt_s;
}

void DecisionCore::expire(UserProfile& user, double now) {
  for (auto it = user.active.begin(); it != user.active.end();) {
    if (it->second.expires_at > 0.0 && now >= it->second.expires_at) {
      log_.record(Decision{now, user.user_id, it->first, DecisionType::kExpire,
                           "", 0.0, it->second.alternative_index});
      if (counters_.expirations != nullptr) counters_.expirations->inc();
      it = user.active.erase(it);
    } else {
      ++it;
    }
  }
}

void DecisionCore::decide(UserProfile& user, MatchSource& matches,
                          double plt_s, HistoryMode history, double now,
                          std::vector<int>* first_state) {
  // The report's PLT is a racing sample for every raced rule still active
  // at this instant: after expiry, before the history verdict (the page it
  // measures was served under the pre-review alternative).
  if (plt_s > 0.0) {
    race_events_.clear();
    engine_.observe_report(user, plt_s, now,
                           [this](int id) { return rule(id); }, &race_events_);
    for (Decision& d : race_events_) log_.record(std::move(d));
  }
  review(user, matches, history, now);
  activate(user, matches, now, first_state);
}

void DecisionCore::review(UserProfile& user, MatchSource& matches,
                          HistoryMode history, double now) {
  if (history == HistoryMode::kAlwaysKeep) return;
  for (auto it = user.active.begin(); it != user.active.end();) {
    ActiveRule& ar = it->second;
    const Rule* r = rule(ar.rule_id);
    if (!r || r->type == RuleType::kRemove || r->alternatives.empty()) {
      ++it;
      continue;
    }
    const std::size_t idx =
        std::min(ar.alternative_index, r->alternatives.size() - 1);
    const ViolatorMatch hit = matches.alt_match(*r, idx);
    if (!hit) {
      ++it;
      continue;
    }
    // The verdict (§4.2.3 and its strategy variants) is the engine's call;
    // this loop owns the mutation and the logging.
    DecisionType type = DecisionType::kKeepAlternative;
    std::size_t logged_alt = idx;
    switch (engine_.on_alternative_violation(*r, user, ar, hit.severity,
                                             history)) {
      case HistoryAction::kKeep:
        break;
      case HistoryAction::kAdvance:
        type = DecisionType::kAdvanceAlternative;
        logged_alt = ar.alternative_index = idx + 1;
        break;
      case HistoryAction::kDeactivate:
        type = DecisionType::kDeactivate;
        break;
    }
    log_.record(Decision{now, user.user_id, ar.rule_id, type,
                         *hit.violator_ip, hit.severity, logged_alt});
    if (type != DecisionType::kDeactivate) {
      ++it;
      continue;
    }
    if (counters_.deactivations != nullptr) counters_.deactivations->inc();
    engine_.on_deactivated(*r, user, now);
    user.pending_violations.erase(ar.rule_id);
    it = user.active.erase(it);
  }
}

void DecisionCore::activate(UserProfile& user, MatchSource& matches,
                            double now, std::vector<int>* first_state) {
  for (const auto& r : rules_) {
    if (user.active.count(r.id) || user.banned.count(r.id)) continue;
    const ViolatorMatch hit = matches.rule_match(r);
    if (!hit) continue;
    // Active and banned were ruled out above; no other state either means
    // this violation gives the user their first state for the rule.
    if (first_state != nullptr && !user.pending_violations.count(r.id) &&
        !user.next_alternative.count(r.id) && !user.race.count(r.id) &&
        !user.cooldown_until.count(r.id)) {
      first_state->push_back(r.id);
    }
    // Threshold counting and alternative choice are the strategy's call
    // (the built-in "paper" strategy reproduces the seed flow bit-for-bit).
    auto choice = engine_.on_rule_violation(r, user, hit.severity, now);
    if (!choice) continue;

    ActiveRule ar;
    ar.rule_id = r.id;
    ar.alternative_index = choice->alternative_index;
    ar.activated_at = now;
    ar.expires_at = r.ttl_s > 0.0 ? now + r.ttl_s : 0.0;
    ar.violation_distance = hit.severity;
    ar.violator_ip = *hit.violator_ip;
    user.active[r.id] = ar;
    log_.record(Decision{now, user.user_id, r.id, DecisionType::kActivate,
                         ar.violator_ip, ar.violation_distance,
                         ar.alternative_index});
    if (counters_.activations != nullptr) counters_.activations->inc();
  }
}

}  // namespace oak::core
