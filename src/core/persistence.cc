// Snapshot/restore of an OakServer's per-user state and decision log.
//
// The snapshot is plain JSON with a version tag. Rules are configuration
// (they live in the operator's rule files), so they are not serialized;
// active-rule references are stored by rule id and survive as long as the
// operator keeps ids stable — which add_rule does, since explicit ids are
// preserved and generated ids are sequential.
#include <algorithm>
#include <vector>

#include "core/oak_server.h"

namespace oak::core {

namespace {
constexpr int kSnapshotVersion = 1;

util::Json active_rule_to_json(const ActiveRule& ar) {
  util::JsonObject o;
  o["rule"] = ar.rule_id;
  o["alt"] = ar.alternative_index;
  o["activated_at"] = ar.activated_at;
  o["expires_at"] = ar.expires_at;
  o["distance"] = ar.violation_distance;
  o["violator"] = ar.violator_ip;
  return util::Json(std::move(o));
}

ActiveRule active_rule_from_json(const util::Json& j) {
  ActiveRule ar;
  ar.rule_id = static_cast<int>(j.at("rule").as_int());
  ar.alternative_index = static_cast<std::size_t>(j.at("alt").as_int());
  ar.activated_at = j.at("activated_at").as_number();
  ar.expires_at = j.at("expires_at").as_number();
  ar.violation_distance = j.at("distance").as_number();
  ar.violator_ip = j.at("violator").as_string();
  return ar;
}

}  // namespace

util::Json OakServer::export_state() const {
  util::JsonObject root;
  root["version"] = kSnapshotVersion;
  root["site"] = site_host_;
  root["next_user"] = next_user_;
  root["reports_processed"] = reports_processed_;

  util::JsonObject users;
  // The store's sorted visitation covers hot and cold profiles alike — a
  // demoted user serializes byte-identically to one that stayed resident
  // (and JsonObject keeps the `users` keys sorted regardless).
  users_.for_each_sorted([&](const UserProfile& p) {
    util::JsonObject u;
    u["client_ip"] = p.client_ip;
    u["reports"] = p.reports_received;
    u["pages"] = p.pages_served;
    u["plt_sum"] = p.plt_sum_s;
    u["plt_count"] = p.plt_count;
    u["holdback"] = p.holdback;
    util::JsonArray active;
    for (const auto& [rid, ar] : p.active) active.push_back(active_rule_to_json(ar));
    u["active"] = std::move(active);
    util::JsonObject pending;
    for (const auto& [rid, n] : p.pending_violations) {
      pending[std::to_string(rid)] = n;
    }
    u["pending"] = std::move(pending);
    util::JsonObject next_alt;
    for (const auto& [rid, n] : p.next_alternative) {
      next_alt[std::to_string(rid)] = n;
    }
    u["next_alt"] = std::move(next_alt);
    util::JsonArray banned;
    for (int rid : p.banned) banned.emplace_back(rid);
    u["banned"] = std::move(banned);
    // Policy-engine state, emitted only when present: snapshots of
    // deployments that never race or cool down stay byte-identical to the
    // pre-engine format.
    if (!p.race.empty()) {
      util::JsonArray race;
      for (const auto& [rid, rs] : p.race) {
        util::JsonObject ro;
        ro["rule"] = rid;
        ro["cohort"] = rs.cohort;
        ro["plt_sum"] = rs.plt_sum;
        ro["count"] = rs.count;
        race.push_back(std::move(ro));
      }
      u["race"] = std::move(race);
    }
    if (!p.cooldown_until.empty()) {
      util::JsonObject cooldown;
      for (const auto& [rid, until] : p.cooldown_until) {
        cooldown[std::to_string(rid)] = until;
      }
      u["cooldown"] = std::move(cooldown);
    }
    users[p.user_id] = util::Json(std::move(u));
  });
  root["users"] = std::move(users);

  util::JsonArray log;
  for (const auto& d : log_.entries()) log.push_back(decision_to_json(d));
  root["log"] = std::move(log);
  // Replay contexts ride along only when recording was on, for the same
  // byte-compatibility reason as "race"/"cooldown" above.
  if (!log_.contexts().empty()) {
    util::JsonArray contexts;
    for (const auto& c : log_.contexts()) {
      contexts.push_back(context_to_json(c));
    }
    root["contexts"] = std::move(contexts);
  }
  return util::Json(std::move(root));
}

void OakServer::import_state(const util::Json& snapshot) {
  if (snapshot.at("version").as_int() != kSnapshotVersion) {
    throw util::JsonError("oak snapshot: unsupported version");
  }
  std::vector<UserProfile> profiles;
  for (const auto& [uid, u] : snapshot.at("users").as_object()) {
    UserProfile p;
    p.user_id = uid;
    p.client_ip = u.at("client_ip").as_string();
    p.reports_received = static_cast<std::size_t>(u.at("reports").as_int());
    p.pages_served = static_cast<std::size_t>(u.at("pages").as_int());
    p.plt_sum_s = u.at("plt_sum").as_number();
    p.plt_count = static_cast<std::size_t>(u.at("plt_count").as_int());
    p.holdback = u.at("holdback").as_bool();
    for (const auto& a : u.at("active").as_array()) {
      ActiveRule ar = active_rule_from_json(a);
      p.active[ar.rule_id] = ar;
    }
    for (const auto& [rid, n] : u.at("pending").as_object()) {
      p.pending_violations[std::stoi(rid)] = static_cast<int>(n.as_int());
    }
    for (const auto& [rid, n] : u.at("next_alt").as_object()) {
      p.next_alternative[std::stoi(rid)] =
          static_cast<std::size_t>(n.as_int());
    }
    for (const auto& b : u.at("banned").as_array()) {
      p.banned.insert(static_cast<int>(b.as_int()));
    }
    if (const auto* race = u.find("race")) {
      for (const auto& r : race->as_array()) {
        RaceStat rs;
        rs.cohort = static_cast<int>(r.at("cohort").as_int());
        rs.plt_sum = r.at("plt_sum").as_number();
        rs.count = static_cast<std::uint64_t>(r.at("count").as_int());
        p.race[static_cast<int>(r.at("rule").as_int())] = rs;
      }
    }
    if (const auto* cooldown = u.find("cooldown")) {
      for (const auto& [rid, until] : cooldown->as_object()) {
        p.cooldown_until[std::stoi(rid)] = until.as_number();
      }
    }
    profiles.push_back(std::move(p));
  }
  DecisionLog log;
  for (const auto& d : snapshot.at("log").as_array()) {
    log.record(decision_from_json(d));
  }
  if (const auto* contexts = snapshot.find("contexts")) {
    for (const auto& c : contexts->as_array()) {
      log.record_context(context_from_json(c));
    }
  }
  // Commit only after the whole snapshot parsed (strong exception safety).
  // Rebuilding through get_or_create re-establishes tiering naturally: once
  // the hot tier fills, earlier-imported profiles demote to the spill file.
  // The holder index is rebuilt from the imported state: every uid under
  // every rule id it holds anything for (profiles arrive in uid order).
  holders_.clear();
  std::vector<int> held;
  for (const UserProfile& p : profiles) {
    held.clear();
    for (const auto& [id, ar] : p.active) held.push_back(id);
    for (const auto& [id, n] : p.pending_violations) held.push_back(id);
    for (const auto& [id, n] : p.next_alternative) held.push_back(id);
    for (int id : p.banned) held.push_back(id);
    for (const auto& [id, rs] : p.race) held.push_back(id);
    for (const auto& [id, until] : p.cooldown_until) held.push_back(id);
    std::sort(held.begin(), held.end());
    held.erase(std::unique(held.begin(), held.end()), held.end());
    for (int id : held) holders_[id].push_back(p.user_id);
  }
  users_.clear();
  for (UserProfile& p : profiles) {
    users_.get_or_create(p.user_id, 0.0) = std::move(p);
  }
  log_ = std::move(log);
  next_user_ = static_cast<std::size_t>(snapshot.at("next_user").as_int());
  reports_processed_ =
      static_cast<std::size_t>(snapshot.at("reports_processed").as_int());
  // The engine's racing aggregates are derived state: rebuild them from the
  // imported profiles so a recovered server races (and declares winners)
  // exactly as the original would have.
  engine_->reset_race_state();
  users_.for_each_sorted([&](const UserProfile& p) {
    engine_->fold_profile(p);
  });
  engine_->finalize_races([this](int id) { return rule(id); });
}

}  // namespace oak::core
