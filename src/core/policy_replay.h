// Offline policy what-if replay (the evidence half of the policy engine).
//
// When Policy::record_context is on, the decision log carries one
// ReportContext per processed report (plus serve ticks): the policy-
// independent inputs — which rules matched which violators at what severity,
// for the default text and for every alternative. This kernel re-runs that
// context stream through a *candidate* PolicyEngine and produces:
//
//   * the counterfactual decision stream (what the candidate policy would
//     have activated/advanced/deactivated, report by report), and
//   * a ReplayScore: violation pressure, how much of it the candidate
//     mitigated, and an estimated PLT built by substituting the treated
//     cohort's observed outcome wherever the candidate had a mitigation
//     live that the recording actually measured.
//
// Replay is deterministic by construction: it touches no clock, no RNG and
// no network — two runs over the same log are byte-identical (the CI
// policy-replay job asserts exactly this). It differs from re-running the
// write-ahead journal (core/durability.h) into a fresh server, which
// re-decides raw *requests* (detection, matcher and all) and needs the
// WebUniverse; a context replay starts after detection, so it can re-decide
// with nothing but the log file — the right shape for an operator laptop.
//
// Fidelity contract, pinned by tests/policy_replay_test.cc over every
// strategy and history mode: replaying a log through the engine
// configuration that recorded it reproduces the live decision stream
// exactly (minus kServeModified, which is a serving-plane event the context
// stream does not model).
//
// Counterfactual PLT scoring and its limits: the recorded reports embed
// whatever mitigations the *recording* policy made, so a candidate that
// activates earlier cannot observe the page loads it would have changed.
// The estimator is therefore explicitly labeled an estimate:
// `estimated_mean_plt_s` replaces a violating report's PLT with the
// concurrent *healthy* mean — the mean PLT of non-violating reports in the
// same time bucket (default 300 s) — whenever the candidate had a
// mitigation live for the matched rule when the report arrived. A report
// that still shows a rule match was, by construction, not mitigated when it
// was recorded (a live mitigation rewrites the violator out of the page),
// so the substitution asks: what did a clean page load cost at that moment?
// Buckets with no healthy sample keep the observed PLT. See
// docs/POLICIES.md for the workflow and the caveats.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/decision_log.h"
#include "core/policy.h"
#include "core/rule.h"
#include "core/user_store.h"
#include "util/json.h"

namespace oak::core {

struct ReplayScore {
  std::size_t reports = 0;      // contexts replayed (serve ticks excluded)
  std::size_t serve_ticks = 0;
  std::size_t violation_reports = 0;  // reports with >= 1 rule match
  // Violating reports split by whether the candidate policy had a
  // mitigation (an active rule for a matching rule id) live when the
  // report arrived.
  std::size_t mitigated_reports = 0;
  std::size_t unmitigated_reports = 0;
  std::size_t activations = 0;
  std::size_t deactivations = 0;
  std::size_t expirations = 0;
  std::size_t race_winners = 0;
  // Mean PLT of the recorded stream, and the counterfactual estimate after
  // treated-mean substitution (== observed when nothing was substituted).
  double observed_mean_plt_s = 0.0;
  double estimated_mean_plt_s = 0.0;
  std::size_t substituted_reports = 0;

  util::Json to_json() const;
};

// Re-decides a recorded context stream under one candidate policy.
//
// Runs live serving's DecisionCore (core/policy.h) over the recorded
// matches where the live server probes its matcher. All state is per-user
// UserProfile plus the engine's derived aggregates; nothing reads a clock.
class PolicyReplayer {
 public:
  // `rules` must carry the ids the log refers to. Throws
  // std::invalid_argument for an inconsistent policy (same checks as the
  // live engine) or a rule naming an unknown strategy.
  PolicyReplayer(std::vector<Rule> rules, const Policy& policy,
                 HistoryMode history = HistoryMode::kMinDistance);
  ~PolicyReplayer();

  // Feed contexts in recorded order.
  void step(const ReportContext& ctx);

  // The counterfactual decision stream.
  const DecisionLog& log() const { return log_; }
  const PolicyEngine& engine() const { return *engine_; }

  // Scoring over everything stepped so far. `bucket_s` is the time-bucket
  // width for treated-mean substitution.
  ReplayScore score(double bucket_s = 300.0) const;

  // Deterministic result document: {"score": ..., "decisions": [...]}.
  util::Json result_json(double bucket_s = 300.0) const;

 private:
  UserProfile& profile(const ReportContext& ctx);

  std::vector<Rule> rules_;
  Policy policy_;  // owned: the engine borrows it (declared before engine_)
  HistoryMode history_;
  std::unique_ptr<PolicyEngine> engine_;
  std::map<std::string, UserProfile> users_;  // deterministic iteration
  DecisionLog log_;
  DecisionCore core_;  // over engine_, rules_ and log_ (declared after them)

  // Per-report outcome retained for scoring. `mitigated_live` means the
  // candidate policy had the matching rule active when the report arrived —
  // the report's PLT would counterfactually have been a mitigated load.
  struct Sample {
    double time = 0.0;
    double plt_s = 0.0;  // 0 = rejected/no PLT
    bool violating = false;
    bool mitigated_live = false;
  };
  std::vector<Sample> samples_;
  std::size_t serve_ticks_ = 0;
};

// Convenience: replay a full context stream and score it.
ReplayScore replay_and_score(std::vector<Rule> rules, const Policy& policy,
                             HistoryMode history,
                             const std::vector<ReportContext>& contexts,
                             double bucket_s = 300.0);

}  // namespace oak::core
