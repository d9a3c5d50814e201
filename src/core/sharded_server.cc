#include "core/sharded_server.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "core/rule_parser.h"
#include "http/cookies.h"
#include "util/strings.h"

namespace oak::core {

namespace {

// Rebuild the HTTP request a journaled record described and run it through
// the shard's core. Only the fields OakServer's state machine reads are
// restored (method, url, oak_uid cookie, body, client_ip); response-only
// details are irrelevant to replay.
void replay_record(OakServer& server, const durability::Record& rec) {
  switch (rec.kind) {
    case durability::RecordKind::kRequest: {
      http::Request req;
      req.method =
          rec.request.post ? http::Method::kPost : http::Method::kGet;
      // The journaled URL is the to_string() of a URL that parsed at admit
      // time, so it parses back; a failure would mean journal corruption
      // that survived the CRC, which scan_journal_file rules out.
      auto url = util::parse_url(rec.request.path);
      if (!url) return;
      req.url = *url;
      req.body = rec.request.body;
      req.client_ip = rec.request.client_ip;
      req.headers.set("Cookie", std::string(http::kOakUserCookie) + "=" +
                                    rec.request.uid);
      server.handle(req, rec.request.now);
      break;
    }
    case durability::RecordKind::kAddRule: {
      std::vector<Rule> rules = parse_rules(rec.add_rule.rule_text);
      for (Rule& r : rules) {
        r.id = static_cast<int>(rec.add_rule.rule_id);
        server.add_rule(std::move(r));
      }
      break;
    }
    case durability::RecordKind::kRemoveRule:
      server.remove_rule(static_cast<int>(rec.remove_rule.rule_id),
                         rec.remove_rule.now);
      break;
  }
}

// Control records apply to every shard; request records to one. Merge the
// two seq-ascending streams so each shard replays its mutations in the
// order they originally happened.
std::vector<const durability::Record*> merge_for_shard(
    const std::vector<durability::Record>& ctl,
    const std::vector<durability::Record>& mine) {
  std::vector<const durability::Record*> out;
  out.reserve(ctl.size() + mine.size());
  std::size_t a = 0, b = 0;
  while (a < ctl.size() || b < mine.size()) {
    if (b == mine.size() ||
        (a < ctl.size() && ctl[a].seq() < mine[b].seq())) {
      out.push_back(&ctl[a++]);
    } else {
      out.push_back(&mine[b++]);
    }
  }
  return out;
}

}  // namespace

ShardedOakServer::ShardedOakServer(page::WebUniverse& universe,
                                   std::string site_host, OakConfig cfg,
                                   std::size_t num_shards)
    : universe_(universe), site_host_(std::move(site_host)), cfg_(cfg) {
  if (num_shards == 0) num_shards = 1;
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    OakConfig shard_cfg = cfg_;
    // Tiered stores spill per shard: a named spill_dir gets one file per
    // shard (they are truncated-on-open caches, so sharing one would be a
    // correctness bug, not just contention); the anonymous default already
    // creates a distinct unlinked file per store.
    if (shard_cfg.user_store.hot_capacity > 0 &&
        !shard_cfg.user_store.spill_dir.empty() &&
        shard_cfg.user_store.cold_file.empty()) {
      shard_cfg.user_store.cold_file =
          shard_cfg.user_store.spill_dir + "/cold-" + std::to_string(i) +
          ".dat";
    }
    shard->server = std::make_unique<OakServer>(universe_, site_host_,
                                                shard_cfg);
    shards_.push_back(std::move(shard));
  }
  if (cfg_.durability.enabled) enable_durability_();
}

void ShardedOakServer::enable_durability_() {
  dur_ = std::make_unique<durability::Manager>(cfg_.durability, shards_.size(),
                                               cfg_.metrics);
  durability::Manager::Startup su = dur_->startup();

  // 1. Rules the journal suffix was written against, with their pinned ids.
  int next_rule_id = 1;
  if (su.have_snapshot && !su.legacy) {
    for (const auto& entry : su.snapshot.rules) {
      std::vector<Rule> parsed = parse_rules(entry.text);
      for (Rule& r : parsed) {
        r.id = static_cast<int>(entry.id);
        for (auto& shard : shards_) shard->server->add_rule(r);
      }
    }
    next_rule_id = static_cast<int>(su.snapshot.next_rule_id);
  }
  for (const auto& rec : su.ctl) {
    if (rec.kind == durability::RecordKind::kAddRule) {
      next_rule_id =
          std::max(next_rule_id, static_cast<int>(rec.add_rule.rule_id) + 1);
    }
  }

  // 2. Snapshot state (legacy: a bare pre-journal export_state document —
  // state restored, no suffix to replay, rules are operator configuration).
  if (su.have_snapshot && !su.legacy) {
    import_state(su.snapshot.state);
  } else if (su.legacy) {
    import_state(su.legacy_state);
  }

  // 3. Parallel per-shard replay. Construction is single-threaded and each
  // replay thread touches only its own shard's OakServer, so no locks.
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t replayed = su.ctl.size();
  for (const auto& list : su.shards) replayed += list.size();
  if (replayed > 0) {
    std::vector<std::thread> threads;
    threads.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      threads.emplace_back([this, i, &su] {
        for (const durability::Record* rec :
             merge_for_shard(su.ctl, su.shards[i])) {
          replay_record(*shards_[i]->server, *rec);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double replay_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // 4. Counter restoration. next_user_ must clear every uid ever minted —
  // including those whose request left no profile (a fresh mint that 404'd),
  // which is exactly why the minted value rides in the record.
  std::size_t next_user = next_user_.load();
  for (const auto& list : su.shards) {
    for (const auto& rec : list) {
      if (rec.kind == durability::RecordKind::kRequest &&
          rec.request.minted != 0) {
        next_user = std::max(
            next_user, static_cast<std::size_t>(rec.request.minted) + 1);
      }
    }
  }
  next_user_.store(next_user);
  for (auto& shard : shards_) shard->server->reserve_rule_ids(next_rule_id);
  dur_->seed_seq(su.max_seq);

  // 5. Go live. A bootstrap (no manifest yet, including the legacy upgrade)
  // commits its baseline via an initial compaction *before* serving, so a
  // crash at any later point recovers from a committed snapshot.
  dur_->start_recording();
  dur_->note_recovery(replayed, replay_s);
  if (su.bootstrap) compact();
}

std::size_t ShardedOakServer::shard_for(const std::string& user_id) const {
  return std::hash<std::string>{}(user_id) % shards_.size();
}

std::unique_lock<std::mutex> ShardedOakServer::lock_shard(Shard& s) const {
  std::unique_lock<std::mutex> lock(s.mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    s.contended.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

int ShardedOakServer::add_rule(Rule rule) {
  std::unique_lock<std::shared_mutex> rules_lock(rules_mu_);
  return add_rule_locked_(std::move(rule));
}

std::vector<int> ShardedOakServer::add_rules(std::vector<Rule> rules) {
  std::unique_lock<std::shared_mutex> rules_lock(rules_mu_);
  for (const Rule& r : rules) shards_[0]->server->check_rule(r);
  std::vector<int> ids;
  ids.reserve(rules.size());
  for (Rule& r : rules) ids.push_back(add_rule_locked_(std::move(r)));
  return ids;
}

int ShardedOakServer::add_rule_locked_(Rule rule) {
  // The first shard checks and (for id 0) assigns the id; the others
  // receive the rule with the id pinned, keeping the sets identical. A
  // failed check throws before any shard is touched.
  const int id = shards_[0]->server->add_rule(rule);
  rule.id = id;
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    shards_[i]->server->add_rule(rule);
  }
  journal_add_rule_(rule);
  return id;
}

void ShardedOakServer::journal_add_rule_(const Rule& rule) {
  if (!dur_ || !dur_->recording()) return;
  // One control record under the exclusive rule lock: rule churn is a
  // cross-shard mutation, and a single record can never tear across shards
  // the way N per-shard copies could.
  durability::Record rec;
  rec.kind = durability::RecordKind::kAddRule;
  rec.add_rule.seq = dur_->next_seq();
  rec.add_rule.rule_id = rule.id;
  rec.add_rule.rule_text = format_rules({rule});
  dur_->append_control(rec);
}

void ShardedOakServer::journal_remove_rule_(int rule_id, double now) {
  if (!dur_ || !dur_->recording()) return;
  durability::Record rec;
  rec.kind = durability::RecordKind::kRemoveRule;
  rec.remove_rule.seq = dur_->next_seq();
  rec.remove_rule.now = now;
  rec.remove_rule.rule_id = rule_id;
  dur_->append_control(rec);
}

bool ShardedOakServer::remove_rule(int rule_id, double now) {
  std::unique_lock<std::shared_mutex> rules_lock(rules_mu_);
  bool removed = false;
  for (auto& shard : shards_) {
    removed = shard->server->remove_rule(rule_id, now) || removed;
  }
  if (removed) journal_remove_rule_(rule_id, now);
  return removed;
}

std::vector<int> ShardedOakServer::replace_rules(std::vector<Rule> rules,
                                                 double now) {
  for (Rule& r : rules) r.id = 0;
  std::unique_lock<std::shared_mutex> rules_lock(rules_mu_);
  // Shard 0 checks every rule (throwing before any shard changes), diffs
  // and draws the fresh ids; the others apply the same diff with those ids
  // pinned, so the sets stay identical.
  const RuleReplacement done = shards_[0]->server->replace_rules(rules, now);
  for (std::size_t k = 0; k < rules.size(); ++k) rules[k].id = done.ids[k];
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    shards_[i]->server->replace_rules(rules, now);
  }
  // Only the change is journaled, as the records remove_rule and add_rule
  // write; replaying them in this order rebuilds the same rule order (kept,
  // then added), so journals from before diff-based PUT replay unchanged.
  for (int id : done.retired) journal_remove_rule_(id, now);
  for (std::size_t k : done.added) journal_add_rule_(rules[k]);
  return done.ids;
}

http::Response ShardedOakServer::handle(const http::Request& req, double now) {
  std::string uid;
  if (auto cookie = req.headers.get("Cookie")) {
    auto jar = http::parse_cookie_header(*cookie);
    auto it = jar.find(http::kOakUserCookie);
    if (it != jar.end()) uid = it->second;
  }
  return handle_for_user(req, now, std::move(uid));
}

http::Response ShardedOakServer::handle_for_user(const http::Request& req,
                                                 double now,
                                                 std::string uid) {
  // Mint the identity here (one atomic counter, no shard involvement) and
  // hand the core a request that already carries it; the Set-Cookie is
  // attached on the way out, exactly as the single-threaded server does.
  const bool fresh = uid.empty();
  std::uint64_t minted = 0;
  http::Request with_cookie;
  const http::Request* effective = &req;
  if (fresh) {
    minted = next_user_.fetch_add(1, std::memory_order_relaxed);
    uid = util::format("u%zu", static_cast<std::size_t>(minted));
    with_cookie = req;
    const std::string pair = std::string(http::kOakUserCookie) + "=" + uid;
    if (auto cookie = req.headers.get("Cookie")) {
      with_cookie.headers.set("Cookie", *cookie + "; " + pair);
    } else {
      with_cookie.headers.set("Cookie", pair);
    }
    effective = &with_cookie;
  }

  http::Response resp;
  {
    std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
    const std::size_t shard_index = shard_for(uid);
    Shard& shard = *shards_[shard_index];
    auto shard_lock = lock_shard(shard);
    shard.handled.fetch_add(1, std::memory_order_relaxed);
    resp = shard.server->handle(*effective, now);
    const bool tracked = shard.server->profile(uid) != nullptr;
    // Only advertise the minted id if the core actually kept a profile (a
    // 404 or a disabled Oak tracks nobody and should set no cookie).
    if (fresh && tracked) {
      resp.headers.add("Set-Cookie",
                       std::string(http::kOakUserCookie) + "=" + uid);
    }
    // Journal under the shard lock already held. `fresh` requests are
    // journaled even when untracked: the minted counter value must survive a
    // crash or recovery would re-issue the same uid to a different user.
    if (dur_ && dur_->recording() && (fresh || tracked)) {
      const std::string path = effective->url.to_string();
      durability::RequestRecordView rec;
      rec.seq = dur_->next_seq();
      rec.now = now;
      rec.post = effective->method == http::Method::kPost;
      rec.minted = minted;
      rec.uid = uid;
      rec.client_ip = effective->client_ip;
      rec.path = path;
      rec.body = effective->body;
      dur_->append_request(shard_index, rec);
    }
  }
  // Threshold compaction runs outside the serving locks; one thread wins
  // the flag and pays the pause, the rest keep serving. The reset is
  // RAII-scoped: a compaction that throws (disk full, fsync error) must not
  // leave compacting_ latched true, which would disable compaction for the
  // life of the process.
  if (dur_ && dur_->should_compact() &&
      !compacting_.exchange(true, std::memory_order_acq_rel)) {
    struct Reset {
      std::atomic<bool>& flag;
      ~Reset() { flag.store(false, std::memory_order_release); }
    } reset{compacting_};
    try {
      compact();
    } catch (...) {
      compact_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return resp;
}

void ShardedOakServer::install() {
  universe_.set_handler(site_host_,
                        [this](const http::Request& req, double now) {
                          return handle(req, now);
                        });
}

std::size_t ShardedOakServer::user_count() const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    total += shard->server->user_count();
  }
  return total;
}

std::size_t ShardedOakServer::reports_processed() const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    total += shard->server->reports_processed();
  }
  return total;
}

std::vector<Rule> ShardedOakServer::rules() const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  return shards_[0]->server->rules();
}

std::optional<UserProfile> ShardedOakServer::profile(
    const std::string& user_id) const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  Shard& shard = *shards_[shard_for(user_id)];
  auto lock = lock_shard(shard);
  const UserProfile* p = shard.server->profile(user_id);
  if (!p) return std::nullopt;
  return *p;
}

DecisionLog ShardedOakServer::merged_decision_log() const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.push_back(lock_shard(*shard));

  std::vector<Decision> merged;
  for (const auto& shard : shards_) {
    const auto& entries = shard->server->decision_log().entries();
    merged.insert(merged.end(), entries.begin(), entries.end());
  }
  // Stable by timestamp: same-time decisions keep shard-index order, which
  // is deterministic for a given user→shard mapping.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Decision& a, const Decision& b) {
                     return a.time < b.time;
                   });
  DecisionLog log;
  for (auto& d : merged) log.record(std::move(d));

  // Replay contexts merge the same way, so a bundle recorded against a
  // sharded deployment replays in one global time order.
  std::vector<ReportContext> contexts;
  for (const auto& shard : shards_) {
    const auto& cs = shard->server->decision_log().contexts();
    contexts.insert(contexts.end(), cs.begin(), cs.end());
  }
  std::stable_sort(contexts.begin(), contexts.end(),
                   [](const ReportContext& a, const ReportContext& b) {
                     return a.time < b.time;
                   });
  for (auto& c : contexts) log.record_context(std::move(c));
  return log;
}

std::size_t ShardedOakServer::decision_count(DecisionType t) const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    total += shard->server->decision_log().count(t);
  }
  return total;
}

util::Json ShardedOakServer::export_state() const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  // Lock every shard (index order) for one consistent cut, then merge the
  // per-shard snapshots into OakServer's schema.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.push_back(lock_shard(*shard));
  return export_state_locked();
}

util::Json ShardedOakServer::export_state_locked() const {
  util::Json merged = shards_[0]->server->export_state();
  util::JsonObject& users = merged["users"].as_object();
  util::JsonArray& log = merged["log"].as_array();
  // Replay contexts, present only when recorded, merge like the log.
  util::JsonArray contexts;
  auto take_contexts = [&contexts](util::Json& part) {
    util::JsonObject& o = part.as_object();
    auto it = o.find("contexts");
    if (it == o.end()) return;
    for (auto& c : it->second.as_array()) contexts.push_back(std::move(c));
    o.erase(it);
  };
  take_contexts(merged);
  std::size_t reports = shards_[0]->server->reports_processed();
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    util::Json part = shards_[i]->server->export_state();
    for (auto& [uid, u] : part["users"].as_object()) {
      users[uid] = std::move(u);
    }
    for (auto& d : part["log"].as_array()) log.push_back(std::move(d));
    take_contexts(part);
    reports += shards_[i]->server->reports_processed();
  }
  auto by_time = [](const util::Json& a, const util::Json& b) {
    return a.at("t").as_number() < b.at("t").as_number();
  };
  std::stable_sort(log.begin(), log.end(), by_time);
  if (!contexts.empty()) {
    std::stable_sort(contexts.begin(), contexts.end(), by_time);
    merged["contexts"] = std::move(contexts);
  }
  merged["reports_processed"] = reports;
  merged["next_user"] = next_user_.load();
  return merged;
}

durability::SnapshotEnvelope ShardedOakServer::make_envelope_locked() const {
  durability::SnapshotEnvelope env;
  for (const Rule& r : shards_[0]->server->rules()) {
    env.rules.push_back({r.id, format_rules({r})});
  }
  env.next_rule_id = shards_[0]->server->next_rule_id();
  env.state = export_state_locked();
  return env;
}

void ShardedOakServer::compact() {
  const bool tiered = cfg_.user_store.hot_capacity > 0;
  if ((!dur_ || !dur_->recording()) && !tiered) return;
  // Shared on the rule lock is enough to freeze the rule set (churn is
  // exclusive); all shard locks give the consistent cut.
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.push_back(lock_shard(*shard));
  if (dur_ && dur_->recording()) dur_->compact(make_envelope_locked());
  // The snapshot cut is also the natural moment to fold the cold spill
  // files: dead records (stale demotions) are dropped alongside the
  // journal's, under the same consistent cut.
  if (tiered) {
    for (const auto& shard : shards_) shard->server->compact_user_store();
  }
}

void ShardedOakServer::import_state(const util::Json& snapshot) {
  std::unique_lock<std::shared_mutex> rules_lock(rules_mu_);
  // Partition the snapshot by user hash. All reads of `snapshot` (and thus
  // all schema validation that could throw here) happen before any shard
  // commits.
  const auto& users = snapshot.at("users").as_object();
  const auto& log = snapshot.at("log").as_array();
  const std::size_t next_user =
      static_cast<std::size_t>(snapshot.at("next_user").as_int());
  const auto total_reports = snapshot.at("reports_processed").as_int();

  std::vector<util::JsonObject> shard_users(shards_.size());
  std::vector<util::JsonArray> shard_logs(shards_.size());
  std::vector<util::JsonArray> shard_contexts(shards_.size());
  for (const auto& [uid, u] : users) shard_users[shard_for(uid)][uid] = u;
  for (const auto& d : log) {
    shard_logs[shard_for(d.at("user").as_string())].push_back(d);
  }
  if (const util::Json* contexts = snapshot.find("contexts")) {
    for (const auto& c : contexts->as_array()) {
      shard_contexts[shard_for(c.at("user").as_string())].push_back(c);
    }
  }

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    util::JsonObject part;
    part["version"] = snapshot.at("version");
    part["site"] = site_host_;
    part["next_user"] = next_user;
    // The aggregate counter lives on shard 0 so the fleet-wide sum is exact.
    part["reports_processed"] = i == 0 ? total_reports : 0;
    part["users"] = std::move(shard_users[i]);
    part["log"] = std::move(shard_logs[i]);
    if (!shard_contexts[i].empty()) {
      part["contexts"] = std::move(shard_contexts[i]);
    }
    shards_[i]->server->import_state(util::Json(std::move(part)));
  }
  next_user_.store(next_user);
}

SiteAnalytics ShardedOakServer::audit(std::optional<double> now) const {
  // Materialize the merged state into a scratch single-threaded server and
  // audit that — SiteAnalytics stays a pure function of one OakServer.
  util::Json snapshot = export_state();
  // The scratch server is untiered regardless of cfg_: it exists for one
  // read-only pass over the merged state, and spinning up spill files to
  // then fault every profile back out of them would serve nothing.
  OakConfig scratch_cfg = cfg_;
  scratch_cfg.user_store = UserStoreConfig{};
  OakServer scratch(universe_, site_host_, scratch_cfg);
  for (const Rule& r : rules()) scratch.add_rule(r);
  scratch.import_state(snapshot);
  SiteAnalytics analytics(scratch, now);

  // The legacy counters struct is now a projection of the merged registry.
  analytics.set_concurrency(
      ConcurrencyCounters::from_metrics(metrics_snapshot(), shards_.size()));
  return analytics;
}

obs::MetricsSnapshot ShardedOakServer::metrics_snapshot() const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  // Incremental per-shard cut: lock one shard, fold it in, release, move
  // on. Counters are monotone and gauges merge by addition, so the merged
  // view is a valid (slightly time-skewed) observation — not worth stalling
  // the whole serving plane for, the way an all-shard cut would.
  obs::MetricsSnapshot merged;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    merged.merge(shard->server->metrics_snapshot());
  }
  if (dur_) merged.merge(dur_->metrics_snapshot());
  if (cfg_.metrics) {
    // The wrapper's own serving-plane tallies are plain atomics, not
    // registry instruments (they predate oak::obs and feed shard_stats());
    // fold them in here so one exposition carries the whole story.
    std::uint64_t handled = 0, contended = 0;
    for (const auto& shard : shards_) {
      handled += shard->handled.load(std::memory_order_relaxed);
      contended += shard->contended.load(std::memory_order_relaxed);
    }
    merged.counters["oak_requests_total"] += handled;
    merged.counters["oak_shard_contentions_total"] += contended;
    merged.counters["oak_compact_failures_total"] +=
        compact_failures_.load(std::memory_order_relaxed);
    merged.gauges["oak_shards"] += static_cast<double>(shards_.size());
  }
  return merged;
}

std::string ShardedOakServer::metrics_text() const {
  return metrics_snapshot().to_prometheus();
}

util::Json ShardedOakServer::metrics_json() const {
  return metrics_snapshot().to_json();
}

MatchCacheStats ShardedOakServer::match_cache_stats() const {
  std::shared_lock<std::shared_mutex> rules_lock(rules_mu_);
  MatchCacheStats total;
  for (const auto& shard : shards_) {
    auto lock = lock_shard(*shard);
    if (const MatchCacheStats* s = shard->server->matcher().cache_stats()) {
      total += *s;
    }
  }
  return total;
}

ShardedOakServer::ShardStats ShardedOakServer::shard_stats() const {
  ShardStats s;
  s.shards = shards_.size();
  for (const auto& shard : shards_) {
    s.requests_handled += shard->handled.load(std::memory_order_relaxed);
    s.contentions += shard->contended.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace oak::core
