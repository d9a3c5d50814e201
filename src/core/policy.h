// The policy engine: who activates what, when, and with which alternative.
//
// The paper fixes one policy (§4.2.4): a minimum violation count before
// activation, linear progression through a rule's alternatives, and an
// optional client filter. That policy survives here — bit-for-bit — as the
// built-in "paper" strategy, but it is now one strategy among several
// behind a pluggable PolicyEngine:
//
//   paper       the §4.2.4 default: min-violation threshold, linear (or
//               round-robin) alternative progression, min-distance history.
//   racing      Go-With-The-Winner: users are split into two stable hash
//               cohorts; cohort 0 activates alternative 0, cohort 1
//               alternative 1. Post-activation PLT is accumulated per
//               cohort, and once both cohorts have enough samples the
//               lower-mean cohort's alternative becomes the winner — all
//               later activations use it.
//   hysteresis  the paper flow plus a per-(user, rule) cooldown after a
//               deactivation and a keep-margin on the history rule (the
//               alternative must be decisively worse before Oak moves on).
//   scoped      per-subnet routing: clients inside a configured subnet are
//               handled by one strategy, everyone else by a fallback.
//
// Strategies are selected *per rule* (`policy: "racing"` in the rule file)
// with a configurable default. Every strategy is deterministic: decisions
// are pure functions of (policy config, user id, rule, per-user profile
// state, report-derived inputs), so WAL replay and snapshot import
// reproduce them exactly. Racing's only cross-user state — the per-cohort
// PLT aggregates — is derived state: it folds per-user accumulators that
// live in the UserProfile (and therefore in every snapshot), and is rebuilt
// from them on import. See DESIGN.md §15 for the determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/decision_log.h"
#include "core/rule.h"
#include "core/user_store.h"
#include "net/address.h"
#include "obs/metrics.h"
#include "util/flat_map.h"
#include "util/json.h"

namespace oak::core {

enum class AlternativeSelection {
  kLinear,      // first alternative, then the next on re-activation
  kRoundRobin,  // wrap around instead of exhausting
};

// What to do when an activated alternative itself becomes a violator.
// kMinDistance is the paper's §4.2.3 rule ("Oak then chooses the action
// which minimizes this distance"); the other two exist as ablation
// baselines. Lives here (not oak_server.h) because strategies weigh it.
enum class HistoryMode {
  kMinDistance,   // keep whichever side sits closer to the median
  kAlwaysKeep,    // never revert once switched
  kAlwaysRevert,  // any violation of the alternative reverts/advances
};

struct Subnet {
  net::IpAddr base;
  int prefix_len = 0;
  // prefix_len <= 0 matches every address; >= 32 demands exact equality
  // (so an over-long "/128" behaves as /32 rather than shifting out of
  // range). See docs/RULES.md for the boundary table.
  bool contains(net::IpAddr ip) const { return ip.in_subnet(base, prefix_len); }
  // "a.b.c.d/len"; bare "a.b.c.d" means /32.
  static std::optional<Subnet> parse(const std::string& text);
  std::string to_string() const;
};

// --- Strategy configuration (table-driven, deterministic) -----------------

enum class StrategyKind { kPaper, kRacing, kHysteresis, kScoped };

std::string to_string(StrategyKind k);
std::optional<StrategyKind> strategy_kind_from_string(const std::string& s);

struct RacingOptions {
  // Post-activation PLT samples required *per cohort* before the winner is
  // declared. Until then each cohort keeps exercising its own alternative.
  std::uint64_t min_samples = 25;
};

struct HysteresisOptions {
  // After a deactivation, the rule may not re-arm for that user until this
  // much simulated time has passed (re-activation attempts during the
  // window are suppressed and do not count toward min_violations).
  double cooldown_s = 900.0;
  // History-rule margin: the alternative is kept unless its violation
  // distance reaches keep_margin x the distance that triggered activation.
  // 1.0 reproduces the paper's min-distance comparison; >1 favors staying.
  double keep_margin = 1.5;
};

struct SubnetRoute {
  Subnet subnet;
  std::string strategy;  // must name a non-scoped strategy
};

struct StrategyConfig {
  std::string name;  // referenced by Rule::policy
  StrategyKind kind = StrategyKind::kPaper;
  RacingOptions racing;
  HysteresisOptions hysteresis;
  // kScoped only: first matching subnet wins; `fallback` (or the engine
  // default when empty) handles clients outside every route.
  std::vector<SubnetRoute> routes;
  std::string fallback;
};

// --- Policy: global knobs + the strategy table ----------------------------

struct Policy {
  // Global default for rules that do not set their own min_violations.
  int default_min_violations = 1;
  AlternativeSelection selection = AlternativeSelection::kLinear;
  // When set, Oak only applies rules (and counts violations) for clients in
  // this subnet; everyone else gets the default page.
  std::optional<Subnet> client_filter;
  // When false, a rule deactivated by history is never re-activated for the
  // same user (conservative operators).
  bool allow_reactivation = true;

  // A/B holdback: this fraction of users (chosen by a stable hash of their
  // Oak id) always receives the default page. Their reports are still
  // analyzed, so the operator can measure Oak's lift — treated vs held-back
  // page load times — from the same telemetry (§6's auditing story).
  // Boundary semantics: a user is held back iff
  // holdback_bucket(user_id) < holdback_fraction * 10'000, i.e. the
  // holdback group is the half-open bucket range [0, fraction * 10'000).
  double holdback_fraction = 0.0;

  // stable_hash(user_id) % 10'000 — the bucket the fraction is compared
  // against. Exposed so operators and the replay tooling can reason about
  // exactly which users fall on which side (docs/RULES.md).
  static std::uint32_t holdback_bucket(const std::string& user_id);

  // True when `user_id` falls into the holdback group.
  bool in_holdback(const std::string& user_id) const;

  // Client-aware alternative selection ("Oak ... could further discriminate
  // the activation of rules based on client information, for example by IP
  // subnet", §4.2.4). Given the client's IP and the number of alternatives,
  // return the index to use; overrides `selection` when set. The §5.3
  // reproduction uses this to direct each client to its closest replica.
  // Not serializable — replay and durability recovery rely on the named
  // strategy table instead.
  std::function<std::size_t(const std::string& client_ip,
                            std::size_t num_alternatives)>
      alternative_selector;

  bool applies_to(const std::string& client_ip_text) const;

  // Operator-defined strategy instances. The engine always registers the
  // built-ins "paper", "racing" and "hysteresis" (with the option defaults
  // above); entries here add new named instances or shadow the built-ins.
  std::vector<StrategyConfig> strategies;
  // Strategy for rules whose `policy` field is empty. Empty = "paper",
  // which is the seed behavior.
  std::string default_strategy;

  // Record a replayable ReportContext for every processed report and a
  // serve tick for every page serve (core/decision_log.h). Off by default:
  // recording costs matcher probes per (rule x alternative) and log memory.
  bool record_context = false;
};

// Deterministic JSON round-trip of everything above except
// alternative_selector (a live callback; documented non-serializable).
util::Json policy_to_json(const Policy& p);
Policy policy_from_json(const util::Json& j);

// --- The engine -----------------------------------------------------------

// Outcome of the §4.2.3 history review for one active rule.
enum class HistoryAction { kKeep, kAdvance, kDeactivate };

// A decided activation: which alternative to switch on, and (for racing)
// which cohort the user raced in (-1 when the strategy does not race).
struct ActivationChoice {
  std::size_t alternative_index = 0;
  int cohort = -1;
};

// Per-rule racing aggregate, introspectable by benches and tests.
struct RaceState {
  std::uint64_t count[2] = {0, 0};
  double plt_sum[2] = {0.0, 0.0};
  bool decided = false;  // both cohorts reached min_samples
  int winner = -1;       // cohort index with the lower mean PLT
  double mean(int cohort) const {
    return count[cohort] == 0 ? 0.0 : plt_sum[cohort] / double(count[cohort]);
  }
};

// The pluggable strategy interface. Implementations are stateless value
// objects configured at engine construction; all mutable state lives in the
// UserProfile (pending counts, cooldowns, race accumulators) or in the
// engine's derived racing aggregates, so strategies never hide state from
// snapshots.
class PolicyStrategy;

class PolicyEngine {
 public:
  // `policy` is borrowed, not copied: scalar knobs (default_min_violations,
  // selection, allow_reactivation, alternative_selector) read live, so
  // OakServer::config() mutations keep working exactly as before the
  // engine existed. The strategy *table* (strategies/default_strategy) is
  // materialized here and fixed for the engine's lifetime. `metrics` may be
  // null (instrumentation off). Throws std::invalid_argument on an
  // inconsistent strategy table (duplicate names, scoped routes naming
  // unknown or scoped strategies).
  PolicyEngine(const Policy& policy, obs::MetricsRegistry* metrics);
  ~PolicyEngine();

  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  const Policy& policy() const { return *policy_; }

  // True when `name` resolves to a configured strategy (add_rule validates
  // Rule::policy against this).
  bool has_strategy(const std::string& name) const;
  // The strategy a rule resolves to for a given client (scoped strategies
  // route by client IP; everything else ignores it). Never null.
  const PolicyStrategy& strategy_for(const Rule& rule,
                                     const std::string& client_ip) const;

  // --- Decision points (called by OakServer / PolicyReplayer) ------------

  // A violator matched `rule` for `user` (rule neither active nor banned).
  // Counts the violation toward the threshold; returns the activation
  // choice once the threshold is met, nullopt otherwise. Mutates
  // user.pending_violations / next_alternative exactly as the seed did.
  std::optional<ActivationChoice> on_rule_violation(const Rule& rule,
                                                    UserProfile& user,
                                                    double severity,
                                                    double now);

  // The active alternative of `rule` matched a violator with distance
  // `alt_distance`. Decides keep / advance / deactivate under `history`.
  HistoryAction on_alternative_violation(const Rule& rule, UserProfile& user,
                                         const ActiveRule& active,
                                         double alt_distance,
                                         HistoryMode history);

  // Bookkeeping after a deactivation decided above: reactivation ban and
  // hysteresis cooldown.
  void on_deactivated(const Rule& rule, UserProfile& user, double now);

  // A report with an accepted (finite, positive) PLT arrived. Accumulates
  // racing cohort PLT for every raced active rule of this user; appends a
  // kRaceWinner decision to `events` the first time a rule's race decides.
  // `rule_of` resolves a rule id to the live rule (null = rule retired).
  void observe_report(UserProfile& user, double plt_s, double now,
                      const std::function<const Rule*(int)>& rule_of,
                      std::vector<Decision>* events);

  // --- Derived racing aggregates -----------------------------------------

  // Aggregates fold per-user accumulators; import/recovery rebuilds them.
  void reset_race_state();
  void fold_profile(const UserProfile& user);
  // Recompute decided/winner after folding (import/recovery). Aggregates
  // freeze at declaration time, so the recomputed verdicts are identical to
  // the live ones.
  void finalize_races(const std::function<const Rule*(int)>& rule_of);
  void erase_rule(int rule_id);
  std::optional<RaceState> race_state(int rule_id) const;
  // The per-cohort sample threshold a rule's race decides at (rule-wide: a
  // race has one threshold even under scoped routing).
  std::uint64_t race_min_samples(const Rule& rule) const;

  // Stable 0/1 cohort assignment for (user, rule) — a pure function, so
  // cohorts survive export/import and shard-count changes. Independent of
  // the holdback bucket by construction (different hash input).
  static int cohort_of(const std::string& user_id, int rule_id);

  // Instrumentation hooks for strategies (no-ops when metrics are off).
  void note_cooldown_suppressed();
  void note_hysteresis_keep();

 private:
  const PolicyStrategy* find_strategy(const std::string& name) const;

  const Policy* policy_;
  std::vector<std::unique_ptr<PolicyStrategy>> strategies_;
  // Racing aggregates per rule id; values are derived state (see above).
  // Flat and sorted: a handful of rules, iterated deterministically by
  // finalize_races.
  util::SmallFlatMap<int, RaceState> race_;

  struct Instruments {
    obs::Counter* decisions = nullptr;
    obs::Counter* activations = nullptr;
    obs::Counter* cooldown_suppressed = nullptr;
    obs::Counter* hysteresis_keeps = nullptr;
    obs::Counter* racing_activations = nullptr;
    obs::Counter* racing_winners = nullptr;
    obs::Counter* winner_activations = nullptr;
    obs::Counter* scoped_routed = nullptr;
  } obs_;

  friend class PolicyStrategy;
};

// --- The decision core ----------------------------------------------------

// The first of a report's violators (in detection order) that matched a rule
// text: its MAD distance and IP. A null violator_ip means none matched.
struct ViolatorMatch {
  double severity = 0.0;
  const std::string* violator_ip = nullptr;
  explicit operator bool() const { return violator_ip != nullptr; }
};

// Where DecisionCore reads one report's matches. Live serving probes the
// memoized matcher against the detected violators (OakServer); replay looks
// up what that probe recorded (PolicyReplayer).
class MatchSource {
 public:
  virtual ~MatchSource() = default;
  virtual ViolatorMatch rule_match(const Rule& rule) = 0;  // default text
  virtual ViolatorMatch alt_match(const Rule& rule, std::size_t alt) = 0;
};

// Decision counters the core bumps; any may be null (replay passes none).
struct DecisionCounters {
  obs::Counter* activations = nullptr;
  obs::Counter* deactivations = nullptr;
  obs::Counter* expirations = nullptr;
};

// The per-user decisions of one report (§4.2.3 history rule, §4.2.4
// activation policy), written once for live serving and offline replay:
// count_report, expire, then decide (racing sample -> history review ->
// activation). Every decision lands in `log`; all state lives in the
// UserProfile and the engine's racing aggregates.
class DecisionCore {
 public:
  // `rules` and `log` are borrowed and read live.
  DecisionCore(PolicyEngine& engine, const std::vector<Rule>& rules,
               DecisionLog& log, DecisionCounters counters = {});

  // Counts one report for `user`, folding a finite, positive PLT into the
  // mean (plt_s comes off the wire: one 1e308 sample would make every
  // derived mean Inf). Returns the accepted PLT, 0 when rejected.
  static double count_report(UserProfile& user, double plt_s);

  // Ends active rules whose half-open lifetime [activated_at, expires_at)
  // is over: at exactly now == expires_at a rule is expired (rule.h ttl_s).
  // Page serves run it too.
  void expire(UserProfile& user, double now);

  // The rest of one report, after expire: the racing sample when plt_s (as
  // count_report returned it) is positive, the history review of every
  // active alternative, then activation of every matching rule that is
  // neither active nor banned. Appends to `first_state`, when given, each
  // rule id the user gets first state for (OakServer's holder index).
  void decide(UserProfile& user, MatchSource& matches, double plt_s,
              HistoryMode history, double now,
              std::vector<int>* first_state = nullptr);

 private:
  const Rule* rule(int id) const;
  void review(UserProfile& user, MatchSource& matches, HistoryMode history,
              double now);
  void activate(UserProfile& user, MatchSource& matches, double now,
                std::vector<int>* first_state);

  PolicyEngine& engine_;
  const std::vector<Rule>& rules_;
  DecisionLog& log_;
  DecisionCounters counters_;
  std::vector<Decision> race_events_;  // observe_report scratch
};

// --- Strategy interface (exposed for tests and the replay kernel) ---------

class PolicyStrategy {
 public:
  explicit PolicyStrategy(StrategyConfig cfg) : cfg_(std::move(cfg)) {}
  virtual ~PolicyStrategy() = default;

  const std::string& name() const { return cfg_.name; }
  StrategyKind kind() const { return cfg_.kind; }
  const StrategyConfig& config() const { return cfg_; }

  // Mirrors PolicyEngine::on_rule_violation for one resolved strategy.
  virtual std::optional<ActivationChoice> on_rule_violation(
      PolicyEngine& engine, const Rule& rule, UserProfile& user,
      double severity, double now) const = 0;

  virtual HistoryAction on_alternative_violation(PolicyEngine& engine,
                                                 const Rule& rule,
                                                 UserProfile& user,
                                                 const ActiveRule& active,
                                                 double alt_distance,
                                                 HistoryMode history) const;

  virtual void on_deactivated(PolicyEngine& engine, const Rule& rule,
                              UserProfile& user, double now) const;

 protected:
  // The seed activation flow (threshold + selection), shared by paper,
  // racing (pre-winner) and hysteresis.
  std::optional<int> count_violation(PolicyEngine& engine, const Rule& rule,
                                     UserProfile& user) const;

  StrategyConfig cfg_;
};

}  // namespace oak::core
