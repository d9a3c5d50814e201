// Sharded, thread-safe front for Oak — the concurrent entry point.
//
// ConcurrentOakServer (core/concurrent_server.h) funnels every page serve
// and report POST through one global mutex, so adding cores buys nothing.
// But Oak's mutable state is almost perfectly partitionable: every request
// touches exactly one user profile (identified by the oak_uid cookie), and
// the §4.2.3/§4.2.4 machinery never reads across users. ShardedOakServer
// exploits that:
//
//  * N lock shards, each a full single-threaded OakServer owning the
//    profiles whose user-id hash lands on it (plus that shard's DecisionLog
//    and memoized Matcher). A request locks only its shard.
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
#include <condition_variable>
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
  // a single OakServer or by a ShardedOakServer with any shard count.
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

  // --- Backpressure signal (wire front-end admission control).
  // Fraction [0, 1] of the fullest shard's ingest queue: 0.0 idle, 1.0 when
  // some shard's unclaimed queue has reached its depth bound and producers
  // are about to block. Lock-free; always 0 when the queue is disabled.
  double ingest_pressure() const;
  // Unclaimed queued ops summed across shards (diagnostics/metrics).
  std::size_t ingest_queue_pending() const;

  // Escape hatch for single-threaded phases (setup, assertions in tests).
  // Callers must guarantee no concurrent handle() calls while using it.
  OakServer& shard(std::size_t i) { return *shards_[i]->server; }

  // --- Durability (no-ops unless cfg.durability.enabled).
  // Snapshot + journal truncation under a consistent all-shard cut. Safe to
  // call concurrently with the request plane; redundant calls coalesce.
  void compact();
  // What recovery did at construction (performed=false when disabled).
  durability::RecoveryReport recovery_report() const {
    return dur_ ? dur_->report() : durability::RecoveryReport{};
  }

 private:
  // One queued request, living on its producer's stack until done. The
  // combiner fills `resp` while holding the shard lock; `done` flips (and
  // the producer wakes) only under the queue mutex, so the producer reads a
  // fully published response.
  struct PendingOp {
    const http::Request* req = nullptr;  // effective request (cookie attached)
    double now = 0.0;
    const std::string* uid = nullptr;
    bool fresh = false;
    std::uint64_t minted = 0;
    http::Response resp;
    bool done = false;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unique_ptr<OakServer> server;
    std::atomic<std::uint64_t> handled{0};
    std::atomic<std::uint64_t> contended{0};

    // --- Batched ingest hand-off (flat combining; DESIGN.md §6).
    // qmu is a leaf lock: never held together with mu or rules_mu_ — the
    // combiner claims a batch under qmu, releases it, takes mu to execute,
    // releases mu, then retakes qmu to publish completions.
    std::mutex qmu;
    std::condition_variable qcv;
    std::vector<PendingOp*> queue;  // unclaimed ops, enqueue order
    bool combiner_active = false;
    // Mirrors queue.size(), updated under qmu but readable lock-free: the
    // wire front-end polls it per request for admission control and must
    // never touch qmu on that path.
    std::atomic<std::size_t> q_pending{0};

    // Queue health instruments (registered in this shard's server registry
    // so metrics_snapshot() merges them fleet-wide). Null when metrics or
    // the queue are disabled.
    obs::Gauge* q_depth = nullptr;
    obs::Histogram* q_batch_size = nullptr;
    obs::Counter* q_enqueued = nullptr;
    obs::Counter* q_batches = nullptr;
    obs::Counter* q_backpressure = nullptr;
  };

  std::unique_lock<std::mutex> lock_shard(Shard& s) const;
  // Rule churn bodies; the caller holds rules_mu_ exclusively.
  int add_rule_locked_(Rule rule);
  void journal_add_rule_(const Rule& rule);
  void journal_remove_rule_(int rule_id, double now);
  // Run one request against its shard's core + journal; caller holds the
  // shard lock (directly, or as the combiner).
  void execute_op(std::size_t shard_index, Shard& shard, PendingOp& op);
  // Combiner loop: drain `shard.queue` in batches of at most
  // cfg_.ingest_queue.max_batch, one shard-lock acquisition per batch.
  // Entered and exited with `ql` (shard.qmu) held and combiner_active true;
  // resets combiner_active before returning. Guarantees own.done on return.
  void combine(std::size_t shard_index, Shard& shard,
               std::unique_lock<std::mutex>& ql, PendingOp& own);
  // Recovery at construction: startup() → rules + state import → parallel
  // per-shard replay → start_recording() (+ baseline compact on bootstrap).
  void enable_durability_();
  // Merge bodies for callers that already hold the shared rule lock and
  // every shard lock in index order.
  util::Json export_state_locked() const;
  durability::SnapshotEnvelope make_envelope_locked() const;

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
  // Compactions that threw (disk full, fsync failure). The flag reset is
  // RAII-scoped so a throwing compaction can't wedge compacting_ true and
  // silently disable compaction for the rest of the process.
  std::atomic<std::uint64_t> compact_failures_{0};
};

}  // namespace oak::core
