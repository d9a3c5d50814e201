// The Oak server (paper §4, Figs. 4 & 5).
//
// Sits beside a site's web server (here: in front of the static object
// store) and performs Oak's two interactions:
//
//  * Page serving — identify the user by cookie (issuing one on first
//    contact), load the default page, apply the user's active rules within
//    scope, attach type-2 cache-alias headers, and deliver the customized
//    page. Everything is per-user: "any changes that a user observes are in
//    direct response to the performance that the user reported" (§4.3).
//
//  * Report ingestion — accept the client's POSTed performance report,
//    group by server, detect MAD violators, re-examine active rules whose
//    alternative is now violating (the §4.2.3 history rule: keep whichever
//    side sits closer to the median), and activate operator rules that match
//    a violator through the three-tier connection-dependency test, subject
//    to policy (minimum violations, client filters, alternative selection).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "browser/report_view.h"
#include "core/decision_log.h"
#include "core/durability_options.h"
#include "core/matcher.h"
#include "core/modifier.h"
#include "core/policy.h"
#include "core/rule.h"
#include "core/user_store.h"
#include "core/violator.h"
#include "http/message.h"
#include "obs/metrics.h"
#include "util/arena.h"
#include "util/flat_map.h"
#include "util/json.h"
#include "page/site.h"

namespace oak::core {

// HistoryMode (what to do when an activated alternative itself becomes a
// violator) lives in core/policy.h with the rest of the policy vocabulary.

struct OakConfig {
  DetectorConfig detector;
  MatcherConfig matcher;
  Policy policy;
  HistoryMode history = HistoryMode::kMinDistance;
  std::string report_path = "/oak/report";
  // Master switch: when false Oak serves default pages and ignores reports
  // (the paper's baseline condition).
  bool enabled = true;
  // Evaluation mode: every rule applied for every user regardless of
  // reports (the paper's "Oak with all rules activated" condition, §5.3).
  bool force_all_rules = false;
  // Runtime switch for the oak::obs instrumentation. When false the stage
  // timers never read the clock and no counters are touched; the registry
  // still exists (snapshots are simply empty).
  bool metrics = true;
  // Crash-consistent persistence (core/durability.h): per-shard write-ahead
  // journal + periodic snapshot, honoured by ShardedOakServer (the
  // single-threaded OakServer ignores it; durability is a property of the
  // concurrent entry point). Off by default.
  durability::Options durability;
  // Tiered user-state store (core/user_store.h): hot_capacity bounds the
  // in-memory profiles per shard; everyone else lives in the cold spill
  // file and faults back in on their next request. Default (hot_capacity
  // == 0) keeps every profile hot — the pre-tiering behavior.
  UserStoreConfig user_store;
};

// What OakServer::replace_rules did to the rule set.
struct RuleReplacement {
  std::vector<int> ids;             // final id of each given rule
  std::vector<int> retired;         // in their old rule-set order
  std::vector<std::size_t> added;   // input positions installed, ascending
};

class OakServer {
 public:
  OakServer(page::WebUniverse& universe, std::string site_host,
            OakConfig cfg = {});

  // Throws std::invalid_argument unless the rule passes Rule::validate and
  // names a strategy this server's policy engine has.
  void check_rule(const Rule& rule) const;
  // Returns the rule id (assigned when the rule arrives with id 0).
  int add_rule(Rule rule);
  // All-or-nothing: every rule is checked before the first is added.
  void add_rules(std::vector<Rule> rules);
  // Retire a rule at runtime: deactivates it in every profile that holds
  // state for it (logged as an expiration) and removes it from the rule
  // set. Returns false for an unknown id.
  bool remove_rule(int rule_id, double now);
  // Make `rules` the rule set, by diff. A given rule whose rule-file text
  // (ids left out) equals a current rule's keeps that rule's id, its users'
  // state and its memo entries; duplicate texts pair up as a multiset.
  // Every other current rule is retired as remove_rule would, in rule-set
  // order, then every unpaired given rule is appended in input order (id 0
  // draws a fresh id, any other id is pinned). That is the order WAL replay
  // of the matching kRemoveRule/kAddRule records reproduces. Checks every
  // rule before changing anything.
  RuleReplacement replace_rules(std::vector<Rule> rules, double now);

  // Register this server as the universe's handler for the site host.
  void install();

  http::Response handle(const http::Request& req, double now);

  // --- Introspection (tests, experiment harnesses, auditing).
  const OakConfig& config() const { return cfg_; }
  OakConfig& config() { return cfg_; }
  const std::vector<Rule>& rules() const { return rules_; }
  const Rule* rule(int id) const;
  const DecisionLog& decision_log() const { return log_; }
  // The pluggable policy engine (core/policy.h): per-rule strategy
  // resolution and the derived racing aggregates.
  const PolicyEngine& policy_engine() const { return *engine_; }
  PolicyEngine& policy_engine() { return *engine_; }
  // One index probe for hot users; a cold hit transparently faults the
  // profile in (logically const — observable state is identical to the
  // profile never having been demoted). Does not touch the LRU clock, so
  // introspection cannot rejuvenate idle users. The pointer is valid only
  // until the next request or store mutation.
  const UserProfile* profile(const std::string& user_id) const;
  // Visit every profile — hot and cold — in ascending user-id order (the
  // iteration order the snapshot/export format pins). Cold profiles are
  // materialized transiently without promotion.
  void for_each_profile(
      const std::function<void(const UserProfile&)>& fn) const {
    users_.for_each_sorted(fn);
  }
  std::size_t user_count() const { return users_.size(); }
  const TieredUserStore& user_store() const { return users_; }
  TieredUserStore& user_store() { return users_; }
  // Rewrite the cold spill file keeping only live records; wired into the
  // sharded server's snapshot compaction cut.
  void compact_user_store() { users_.compact_cold(); }
  std::size_t reports_processed() const { return reports_processed_; }
  // Rule-id allocation state, exposed so the durability snapshot can
  // preserve it: after recovery a fresh rule must not reuse the id of one
  // retired before the crash (stale per-profile bans would attach to it).
  int next_rule_id() const { return next_rule_id_; }
  void reserve_rule_ids(int next) {
    next_rule_id_ = std::max(next_rule_id_, next);
  }
  const std::string& site_host() const { return site_host_; }
  page::WebUniverse& universe() { return universe_; }
  // The §4.2.2 matcher (and its memoization counters, when enabled).
  const Matcher& matcher() const { return *matcher_; }

  // --- Observability (src/obs). Per-server registry: counters for the
  // serve/ingest planes, latency histograms for the five ingest stages
  // (decode → group → detect → match → modify). In ShardedOakServer each
  // shard's registry is merged into one fleet view on snapshot.
  obs::MetricsRegistry& metrics_registry() { return metrics_; }
  const obs::MetricsRegistry& metrics_registry() const { return metrics_; }
  // Registry snapshot with the match-cache counters folded in (the cache
  // keeps plain tallies, not atomics — it is shard-local by design).
  obs::MetricsSnapshot metrics_snapshot() const;

  // Run one report through the analysis pipeline directly (harness entry
  // point that skips HTTP framing).
  DetectionResult analyze(const std::string& user_id,
                          const browser::PerfReport& report, double now);

  // --- State persistence (core/persistence.cc). export_state/import_state
  // produce and consume the versioned JSON snapshot document — the unit of
  // backup, migration and audit. A production deployment does not rely on
  // snapshots alone: ShardedOakServer layers the oak::durability contract
  // on top (core/durability.h) — every state-mutating request is appended
  // to a checksummed per-shard write-ahead journal, compaction periodically
  // folds the journal into a snapshot-<epoch>.json + MANIFEST pair, and
  // recovery after a crash loads the latest committed snapshot and replays
  // the journal suffix (torn tail records dropped by design), reproducing
  // this document byte-for-byte. Rules themselves are configuration, not
  // state, and are NOT part of *this* snapshot; import expects the same
  // rule set to be configured (the durability envelope carries the rules
  // separately so recovery can rebuild them).
  util::Json export_state() const;
  // Replaces all user state and the decision log. Throws util::JsonError on
  // malformed input.
  void import_state(const util::Json& snapshot);

 private:
  http::Response serve_page(const http::Request& req, double now);
  http::Response ingest_report(const http::Request& req, double now);
  void process_report(UserProfile& user, const browser::ReportView& report,
                      double now, DetectionResult* out_detection);
  // `domain_hashes[i]` is fnv1a(detection.violators[i].domains) and
  // `scripts_hash` is fnv1a(scripts) — computed once per report in
  // process_report and threaded through so the matcher's memo probes skip
  // rehashing per (rule × violator).
  void review_active_rules(UserProfile& user, const DetectionResult& detection,
                           const std::vector<std::string>& scripts,
                           const std::vector<std::uint64_t>& domain_hashes,
                           std::uint64_t scripts_hash, double now);
  void consider_activations(UserProfile& user,
                            const DetectionResult& detection,
                            const std::vector<std::string>& scripts,
                            const std::vector<std::uint64_t>& domain_hashes,
                            std::uint64_t scripts_hash, double now);
  void expire_rules(UserProfile& user, double now);
  // Checked rule in, matcher memo untouched (callers decide).
  int install_rule_(Rule rule);
  // Drops the rule and every holder's state for it, logging kExpire for
  // each active holder in ascending uid order; false for an unknown id.
  bool retire_rule_(int rule_id, double now);
  // Capture the policy-independent replay context for one report: every
  // rule's (and every alternative's) first matching violator, via the
  // memoized matcher (Policy::record_context).
  void record_report_context(UserProfile& user,
                             const DetectionResult& detection,
                             const std::vector<std::string>& scripts,
                             const std::vector<std::uint64_t>& domain_hashes,
                             std::uint64_t scripts_hash, double plt_s,
                             double now);
  UserProfile& user_for(const http::Request& req, http::Response& resp,
                        double now);
  // Find-or-create through the store's uid index (one hash probe on the hot
  // path; demotion/fault-in only runs when tiering is configured).
  UserProfile& profile_ref(const std::string& user_id, double now);

  // Instrument pointers resolved once in the constructor; all null when
  // cfg_.metrics is false, which a null-histogram ScopedTimer turns into a
  // no-clock-read no-op.
  struct Instruments {
    obs::Histogram* decode = nullptr;
    obs::Histogram* group = nullptr;
    obs::Histogram* detect = nullptr;
    obs::Histogram* match = nullptr;
    obs::Histogram* modify = nullptr;
    obs::Histogram* report_bytes = nullptr;
    obs::Counter* reports_ingested = nullptr;
    obs::Counter* reports_rejected = nullptr;
    obs::Counter* pages_served = nullptr;
    obs::Counter* pages_modified = nullptr;
    obs::Counter* activations = nullptr;
    obs::Counter* expirations = nullptr;
    obs::Counter* deactivations = nullptr;
    obs::Counter* contexts_recorded = nullptr;
  };

  page::WebUniverse& universe_;
  std::string site_host_;
  OakConfig cfg_;
  std::unique_ptr<Matcher> matcher_;
  std::unique_ptr<PolicyEngine> engine_;
  std::vector<Rule> rules_;
  int next_rule_id_ = 1;
  // All per-user state, hot and cold (core/user_store.h). Untiered by
  // default; cfg_.user_store.hot_capacity bounds resident profiles.
  // Declared after cfg_ (construction reads cfg_.user_store).
  TieredUserStore users_;
  // Holder index: rule id → uids that may hold state for that rule (active,
  // pending, next-alternative, banned, race or cooldown), so retirement
  // visits those users only. A uid is appended when a matcher hit finds it
  // holding no state for the rule, and when import_state loads it; entries
  // leave only with their rule. Duplicates and stale uids (state since
  // expired) are harmless: retirement dedups and they change nothing.
  std::unordered_map<int, std::vector<std::string>> holders_;
  std::size_t next_user_ = 1;
  std::size_t reports_processed_ = 0;
  DecisionLog log_;
  obs::MetricsRegistry metrics_;
  Instruments obs_;
  // Backs the string_views of the report being ingested; cleared per report.
  // Anything retained past process_report() is copied into owned strings.
  util::StringArena ingest_arena_;
  // Per-report scratch recycled across ingests (capacity survives clear();
  // with the arena's block retention, steady-state ingest allocates
  // nothing). Valid only inside one ingest_report/process_report call.
  browser::ReportView view_scratch_;
  std::vector<std::string_view> urls_scratch_;
  std::vector<std::string> scripts_scratch_;
  std::vector<std::uint64_t> domain_hash_scratch_;
  // Racing kRaceWinner events staged by PolicyEngine::observe_report.
  std::vector<Decision> race_events_scratch_;
};

}  // namespace oak::core
