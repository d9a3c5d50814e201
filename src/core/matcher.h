// Connection-dependency matching (paper §4.2.2).
//
// A rule activates for a violator when any of three conditions ties the
// rule's text to the violating server:
//
//   Tier 1 (direct include)   the rule contains an explicit src/href whose
//                             hostname is one of the violator's domains;
//   Tier 2 (text mention)     a violator domain appears anywhere in the rule
//                             text (inline scripts building URLs
//                             programmatically);
//   Tier 3 (external script)  the rule references an external script (by
//                             tier 1/2 on the *script's* domain); Oak fetches
//                             that script server-side and re-runs tiers 1/2
//                             over the script body. One level of expansion —
//                             "the payoff is rapidly diminishing" beyond it.
//
// Oak is explicitly *not* tracking execution/ordering dependencies; it only
// answers "did this block cause a connection to that server?" (Fig. 6).
//
// Matching is memoized through an optional MatchCache (on by default):
// script bodies are fetched once per TTL window instead of per report, and
// repeated (rule text, violator domains, reported scripts) questions are
// answered from a memo table. Owners must call invalidate_memo() whenever
// rule text they match against changes (the Oak server does this on
// add_rule/remove_rule). A Matcher instance is not thread-safe.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/match_cache.h"
#include "core/rule.h"
#include "util/flat_map.h"

namespace oak::core {

enum class MatchTier {
  kNone = 0,
  kDirect = 1,
  kText = 2,
  kExternalScript = 3,
};

std::string to_string(MatchTier t);

struct MatcherConfig {
  bool enable_text = true;             // tier 2
  bool enable_external_scripts = true; // tier 3
  bool enable_cache = true;            // memo + script-body cache
  MatchCacheConfig cache;
};

class Matcher {
 public:
  // Fetches a script body by URL, server-side ("Oak ... loading them
  // directly from the external sources"). Returns nullopt when unavailable.
  using ScriptFetcher =
      std::function<std::optional<std::string>(const std::string& url)>;

  explicit Matcher(ScriptFetcher fetch_script = nullptr,
                   MatcherConfig cfg = {});
  ~Matcher();

  // The best (lowest) tier connecting `rule_text` to a server reachable via
  // `violator_domains`. `report_script_urls` are the external scripts the
  // client reported loading — the tier-3 candidates. `now` drives the
  // script cache's TTL (pass the report timestamp).
  MatchTier match_text(const std::string& rule_text,
                       const std::vector<std::string>& violator_domains,
                       const std::vector<std::string>& report_script_urls = {},
                       double now = 0.0) const;

  MatchTier match_rule(const Rule& rule,
                       const std::vector<std::string>& violator_domains,
                       const std::vector<std::string>& report_script_urls = {},
                       double now = 0.0) const;

  // Hash-hoisted variants for the hot ingest loop: the caller computes
  // fnv1a(violator_domains) once per violator and fnv1a(report_script_urls)
  // once per report instead of per (rule × violator) probe. The hashes MUST
  // be fnv1a of the exact vectors passed alongside them (see
  // match_cache.h::fnv1a) — they key the memo table.
  MatchTier match_rule(const Rule& rule,
                       const std::vector<std::string>& violator_domains,
                       std::uint64_t domains_hash,
                       const std::vector<std::string>& report_script_urls,
                       std::uint64_t scripts_hash, double now) const;
  MatchTier match_text(const std::string& rule_text,
                       const std::vector<std::string>& violator_domains,
                       std::uint64_t domains_hash,
                       const std::vector<std::string>& report_script_urls,
                       std::uint64_t scripts_hash, double now) const;

  // Rule set changed: drop memoized verdicts (script bodies stay cached —
  // they belong to the web, not to the rule set).
  void invalidate_memo();
  // A rule id left the set: drop its cached text hash, so an id pinned
  // again later cannot match against the old text. Memo entries and
  // digests are keyed by text and stay exact.
  void forget_rule(int rule_id) { rule_text_hash_.erase(rule_id); }

  const MatcherConfig& config() const { return cfg_; }
  // Nullptr when the cache is disabled.
  const MatchCacheStats* cache_stats() const;

 private:
  // Everything expensive about one rule text, computed once per text and
  // reused across every (violator × report) probe. Tier 1 drops from an
  // html::extract_references() pass over a multi-KB body to a binary search
  // in ref_hosts; tier-3 script labeling reuses the same host list instead
  // of re-extracting per reported script URL. Cleared with the memo — the
  // digest is a function of rule text, which rule churn rewrites.
  struct RuleDigest {
    std::uint64_t text_hash = 0;
    // Sorted, deduplicated hostnames of the text's explicit src/href
    // references (the tier-1 edge set).
    std::vector<std::string> ref_hosts;
  };

  const RuleDigest& digest_for(std::uint64_t text_hash,
                               const std::string& text) const;
  const RuleDigest& body_digest_for(std::uint64_t body_hash,
                                    const std::string& body) const;
  static RuleDigest build_digest(std::uint64_t text_hash,
                                 const std::string& text);

  MatchTier match_hashed(std::uint64_t text_hash, const std::string& text,
                         const std::vector<std::string>& domains,
                         std::uint64_t domains_hash,
                         const std::vector<std::string>& scripts,
                         std::uint64_t scripts_hash, double now) const;
  MatchTier compute(const RuleDigest& digest, const std::string& text,
                    const std::vector<std::string>& domains,
                    const std::vector<std::string>& scripts, double now) const;
  std::optional<std::string> fetch_body(const std::string& url,
                                        double now) const;
  bool text_mention(const std::string& text,
                    const std::vector<std::string>& domains) const;

  ScriptFetcher fetch_script_;
  MatcherConfig cfg_;
  mutable std::unique_ptr<MatchCache> cache_;  // null when disabled
  // rule id → hash of its default text, so the hot match_rule path does not
  // rehash multi-KB rule bodies per violator. Cleared with the memo.
  mutable util::FlatHashMap<int, std::uint64_t> rule_text_hash_;
  // text hash → digest. Keyed by hash rather than rule id because
  // match_text() (alternative texts, ad-hoc probes) has no id; collisions
  // carry the same (accepted) risk as the memo table itself. Script-body
  // digests live in their own table: compute() holds a reference into
  // text_digest_ while it runs, and inserting body digests there could
  // rehash it out from under that reference.
  mutable util::FlatHashMap<std::uint64_t, RuleDigest> text_digest_;
  mutable util::FlatHashMap<std::uint64_t, RuleDigest> body_digest_;
};

// External-script URLs among a report's entries (candidates for tier 3).
std::vector<std::string> report_script_urls(
    const std::vector<std::string>& entry_urls);
// View-based variant for the zero-copy ingest path: only the .js survivors
// are copied into owned strings.
std::vector<std::string> report_script_urls(
    std::span<const std::string_view> entry_urls);
// Recycling variant: clears and refills `out`, reusing both the vector and
// its strings' capacity across reports (steady-state ingest allocates
// nothing here).
void report_script_urls(std::span<const std::string_view> entry_urls,
                        std::vector<std::string>& out);

}  // namespace oak::core
