// Sharded, thread-safe front for Oak — the concurrent entry point.
//
// OakServer is a single-threaded state machine, but its mutable state is
// almost perfectly partitionable: every request touches exactly one user
// profile (identified by the oak_uid cookie), and the §4.2.3/§4.2.4
// machinery never reads across users. ShardedOakServer exploits that:
//
//  * N lock shards, each a full single-threaded OakServer owning the
//    profiles whose user-id hash lands on it (plus that shard's DecisionLog
//    and memoized Matcher). A request takes its shard's mutex directly and
//    runs to completion under it; with one shard this is the plain
//    single-mutex server.
//  * The rule set is read-mostly configuration. Each rule change (one add,
//    one remove, a whole POSTed file or a whole PUT replacement) is one
//    exclusive section of a std::shared_mutex that replicates the change to
//    every shard (ids stay identical across shards); requests hold it
//    shared, so a request sees one rule-set version from start to end.
//  * Users are minted here: a cookie-less request draws a fresh id from one
//    atomic counter, is routed by its hash, and the Set-Cookie is attached
//    on the way out — so shards never race on id allocation.
//  * Audits, snapshots and the merged decision log are assembled by locking
//    the shards (all of them, in index order, for a consistent cut) and
//    merging per-shard state; import partitions a snapshot the same way.
//
// Lock order, everywhere: rules_mu_ before any shard mutex, shard mutexes
// in ascending index order. OakServer stays the single-threaded core; this
// wrapper adds routing and locking only.
//
// Durability (core/durability.h): when cfg.durability.enabled, construction
// first recovers — snapshot import, then parallel per-shard replay of the
// journal suffixes — and every subsequent state-mutating request is
// journaled under the shard lock it already holds (rule churn under the
// exclusive rule lock). Compaction runs opportunistically off the request
// path once the journal suffix crosses the configured threshold.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/analytics.h"
#include "core/durability.h"
#include "core/oak_server.h"

namespace oak::core {

class ShardedOakServer {
 public:
  static constexpr std::size_t kDefaultShards = 8;

  ShardedOakServer(page::WebUniverse& universe, std::string site_host,
                   OakConfig cfg = {},
                   std::size_t num_shards = kDefaultShards);

  // --- Rule configuration (exclusive over the rule set; replicated to all
  // shards with identical ids). Every rule is checked
  // (OakServer::check_rule) before any shard changes: a bad rule throws
  // std::invalid_argument and leaves the rules, state and journal as they
  // were.
  int add_rule(Rule rule);
  // Returns the new ids in input order.
  std::vector<int> add_rules(std::vector<Rule> rules);
  bool remove_rule(int rule_id, double now);
  // Make `rules` the rule set (OakServer::replace_rules on every shard; ids
  // in `rules` are ignored). Only the change is journaled, as the
  // kRemoveRule/kAddRule records remove_rule and add_rule would write.
  // Returns the final id of each rule, in input order.
  std::vector<int> replace_rules(std::vector<Rule> rules, double now);

  // --- Request plane (shared rule lock + one shard lock).
  http::Response handle(const http::Request& req, double now);

  // Shard-targeted entry point for callers that already parsed the
  // oak_uid cookie (the wire front-end's shard-affine ingest path): skips
  // the cookie re-parse and routes straight to shard_for(uid). `uid` must
  // be the request's oak_uid cookie value, or empty to mint a fresh
  // identity (Set-Cookie is attached exactly as handle() would).
  http::Response handle_for_user(const http::Request& req, double now,
                                 std::string uid);

  // Register this server as the universe's handler for the site host. The
  // handler captures `this` and is safe to drive from many request threads.
  void install();

  // --- Introspection / aggregation.
  const std::string& site_host() const { return site_host_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_for(const std::string& user_id) const;
  std::size_t user_count() const;
  std::size_t reports_processed() const;
  // A copy of the rule set (identical on every shard).
  std::vector<Rule> rules() const;
  const OakConfig& config() const { return cfg_; }
  // Profile lookup crosses a lock boundary, so it returns a copy.
  std::optional<UserProfile> profile(const std::string& user_id) const;

  // Per-shard decision logs merged into one, stably ordered by timestamp.
  DecisionLog merged_decision_log() const;
  std::size_t decision_count(DecisionType t) const;

  // Consistent point-in-time snapshot in OakServer's schema — importable by
  // a single OakServer or by a ShardedOakServer with any shard count. The
  // parsed view of the same streamed bytes compaction writes; import
  // decodes the dump() of one, partitioning it by shard_for.
  util::Json export_state() const;
  void import_state(const util::Json& snapshot);

  // Consistent audit over all shards, including concurrency counters.
  // `now` (audit time) makes the expired-vs-active classification agree
  // with the serving plane; see SiteAnalytics.
  SiteAnalytics audit(std::optional<double> now = std::nullopt) const;

  // --- Observability. One consistent cut over every shard's registry
  // (identical histogram specs merge by addition), with the wrapper's own
  // serving-plane tallies (requests, lock contentions, shard count) and the
  // per-shard match-cache counters folded in. metrics_text() is the
  // Prometheus exposition; metrics_json() the JSON one (reused by the
  // bench emitters).
  obs::MetricsSnapshot metrics_snapshot() const;
  std::string metrics_text() const;
  util::Json metrics_json() const;

  // Aggregated matcher-cache counters across shards.
  MatchCacheStats match_cache_stats() const;

  struct ShardStats {
    std::size_t shards = 0;
    std::uint64_t requests_handled = 0;
    // A request found its shard lock held and had to block.
    std::uint64_t contentions = 0;
  };
  ShardStats shard_stats() const;

  // Escape hatch for single-threaded phases (setup, assertions in tests).
  // Callers must guarantee no concurrent handle() calls while using it.
  OakServer& shard(std::size_t i) { return *shards_[i]->server; }

  // --- Durability (no-ops unless cfg.durability.enabled).
  // Snapshot + journal truncation under a consistent all-shard cut. Safe to
  // call concurrently with the request plane; redundant calls coalesce. The
  // snapshot streams from the shards to its file, so the pause costs the
  // serialization time but no copy of the state. Throws when the snapshot
  // cannot be written (counted in oak_compact_failures_total); the previous
  // manifest and snapshot then stay authoritative.
  void compact();
  // What recovery did at construction (performed=false when disabled).
  durability::RecoveryReport recovery_report() const {
    return dur_ ? dur_->report() : durability::RecoveryReport{};
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<OakServer> server;
    std::atomic<std::uint64_t> handled{0};
    std::atomic<std::uint64_t> contended{0};
  };

  std::unique_lock<std::mutex> lock_shard(Shard& s) const;
  // Rule churn bodies; the caller holds rules_mu_ exclusively.
  int add_rule_locked_(Rule rule);
  void journal_add_rule_(const Rule& rule);
  void journal_remove_rule_(int rule_id, double now);
  // Recovery at construction: startup() → rules + state import → parallel
  // per-shard replay → start_recording() (+ baseline compact on bootstrap).
  void enable_durability_();
  // Streams the merged state document; the caller holds the shared rule
  // lock and every shard lock in index order.
  void write_state_locked_(util::JsonWriter& w) const;
  // The merged state document, under a consistent all-shard cut.
  std::string state_bytes_() const;
  // Decodes a state document and commits it, shard by shard, only after
  // all of it decoded.
  void import_state_(std::string_view doc);

  page::WebUniverse& universe_;
  std::string site_host_;
  OakConfig cfg_;
  // Guards the replicated rule set (and shard topology invariants): shared
  // for requests and reads, exclusive for rule churn.
  mutable std::shared_mutex rules_mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> next_user_{1};
  // Null unless cfg_.durability.enabled.
  std::unique_ptr<durability::Manager> dur_;
  // Coalesces threshold-triggered compactions: the request thread that wins
  // the exchange runs compact(); everyone else keeps serving.
  std::atomic<bool> compacting_{false};
  // Compactions that threw (disk full, fsync failure), threshold-triggered
  // or explicit. The compacting_ reset is RAII-scoped so a throwing
  // compaction can't wedge it true and silently disable compaction for the
  // rest of the process.
  std::atomic<std::uint64_t> compact_failures_{0};
};

}  // namespace oak::core
