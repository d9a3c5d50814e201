// The Oak decision log: every activation, deactivation, history verdict and
// page modification, timestamped and per-user.
//
// The paper leans on this twice: operationally ("the server also maintains
// log information on ... the activation and removal of rules", §5) and as a
// product feature — "effectively using the performance reports of Oak as an
// offline auditing tool" (§6). Fig. 14 / Table 3 are computed from exactly
// this log.
//
// Beyond audit, the log is the substrate for offline policy what-if replay
// (core/policy_replay.h, tools/policy_replay): when
// Policy::record_context is on, every processed report also records a
// ReportContext — the policy-independent inputs a candidate policy needs to
// re-decide the same stream (which rules matched which violators at what
// severity, per alternative). Replaying contexts through a different
// PolicyEngine yields the counterfactual decision stream without re-running
// detection or the matcher.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/json_stream.h"

namespace oak::core {

enum class DecisionType {
  kActivate,         // rule switched on for a user
  kDeactivate,       // history verdict: alternative worse than original
  kAdvanceAlternative,  // history verdict: try the next alternative
  kKeepAlternative,  // alternative violated but still beats the original
  kExpire,           // TTL elapsed
  kServeModified,    // a page was served with >=1 text edit
  kRaceWinner,       // racing policy: a rule's cohort race decided
};

std::string to_string(DecisionType t);

struct Decision {
  double time = 0.0;
  std::string user_id;
  int rule_id = 0;
  DecisionType type = DecisionType::kActivate;
  std::string violator_ip;  // when triggered by a violation
  double distance = 0.0;    // MAD distance involved in the decision
  std::size_t alternative_index = 0;
};

// The one JSON codec for decisions and report contexts, streamed: the
// persistence snapshot and the replay log file write the same bytes (keys
// alt/distance/rule/t/type/user/violator in JsonObject order; type as an
// integer so new enum values pass through).
void write_decision(util::JsonWriter& w, const Decision& d);
Decision read_decision(util::JsonReader& r);
// The parsed form of write_decision's bytes, for JSON reports.
util::Json decision_to_json(const Decision& d);

// --- Replayable report context --------------------------------------------

// One (rule, violator) match from a processed report: the rule's default
// text matched this violator at this severity. First-match only: the
// answer DecisionCore's MatchSource gives (core/policy.h).
struct ContextRuleMatch {
  int rule_id = 0;
  double severity = 0.0;
  std::string violator_ip;
};

// Same, for one alternative of a rule (the history review's input): the
// alternative's text matched this violator. Recorded for *every*
// alternative of every rule regardless of what is active, because a
// candidate policy may have a different alternative live at this point.
struct ContextAltMatch {
  int rule_id = 0;
  std::size_t alt_index = 0;
  double severity = 0.0;
  std::string violator_ip;
};

// Everything a policy needs to re-decide one report (or one page serve —
// serve_only ticks exist because rule expiry is evaluated on serves too,
// and a replay that skipped them would expire rules later than the live
// server did).
struct ReportContext {
  double time = 0.0;
  std::string user_id;
  std::string client_ip;
  double plt_s = 0.0;       // <= 0: rejected by the accumulator gate
  bool serve_only = false;  // page serve tick, no report attached
  std::vector<ContextRuleMatch> rule_matches;
  std::vector<ContextAltMatch> alt_matches;
};

void write_context(util::JsonWriter& w, const ReportContext& c);
ReportContext read_context(util::JsonReader& r);

class DecisionLog {
 public:
  void record(Decision d);
  void record_context(ReportContext c);

  const std::vector<Decision>& entries() const { return entries_; }
  const std::vector<ReportContext>& contexts() const { return contexts_; }
  std::size_t size() const { return entries_.size(); }
  void clear() {
    entries_.clear();
    contexts_.clear();
  }

  std::vector<Decision> by_type(DecisionType t) const;
  std::size_t count(DecisionType t) const;

  // Distinct users that ever activated each rule (Fig. 14's numerator).
  std::map<int, std::set<std::string>> users_activating() const;
  // Activation event counts per rule.
  std::map<int, std::size_t> activations_per_rule() const;

  // Full log as JSON: {"decisions": [...], "contexts": [...]} ("contexts"
  // omitted when none were recorded, keeping pre-context logs byte-stable).
  util::Json to_json() const;
  static DecisionLog from_json(const util::Json& j);

 private:
  std::vector<Decision> entries_;
  std::vector<ReportContext> contexts_;
};

}  // namespace oak::core
