// Snapshot/restore of OakServer per-user state and decision log.
//
// The snapshot is plain JSON with a version tag. Rules are configuration
// (they live in the operator's rule files), so they are not serialized;
// active-rule references are stored by rule id and survive as long as the
// operator keeps ids stable — which add_rule does, since explicit ids are
// preserved and generated ids are sequential.
//
// Both directions stream: write_state emits the document token by token
// straight from the profiles and logs, and read_state decodes it event by
// event straight into profiles and logs. Neither builds a util::Json tree,
// so saving or loading the state costs the state plus one buffer.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/oak_server.h"
#include "util/json_stream.h"

namespace oak::core {

namespace {
constexpr int kSnapshotVersion = 1;

using util::JsonReader;
using util::JsonWriter;

// --- Writing. Members go out in byte-wise key order, the order a
// JsonObject keeps, so the bytes equal Json::dump() of the same document.

void write_active(JsonWriter& w, const ActiveRule& ar) {
  w.begin_object();
  w.member("activated_at", ar.activated_at);
  w.member("alt", double(ar.alternative_index));
  w.member("distance", ar.violation_distance);
  w.member("expires_at", ar.expires_at);
  w.member("rule", ar.rule_id);
  w.member("violator", ar.violator_ip);
  w.end_object();
}

// A per-rule map is an object keyed by the rule id's decimal text, so its
// members sort as strings ("10" before "2").
template <typename Map>
void write_id_object(JsonWriter& w, std::string_view name, const Map& m) {
  std::vector<std::pair<std::string, double>> keyed;
  keyed.reserve(m.size());
  for (const auto& [id, v] : m) {
    keyed.emplace_back(std::to_string(id), static_cast<double>(v));
  }
  std::sort(keyed.begin(), keyed.end());
  w.key(name);
  w.begin_object();
  for (const auto& [k, v] : keyed) w.member(k, v);
  w.end_object();
}

void write_profile(JsonWriter& w, const UserProfile& p) {
  w.begin_object();
  w.key("active");
  w.begin_array();
  for (const auto& [rid, ar] : p.active) write_active(w, ar);
  w.end_array();
  w.key("banned");
  w.begin_array();
  for (int rid : p.banned) w.number(rid);
  w.end_array();
  w.member("client_ip", p.client_ip);
  // Policy-engine state ("cooldown", "race") is emitted only when present:
  // snapshots of deployments that never race or cool down stay
  // byte-identical to the pre-engine format.
  if (!p.cooldown_until.empty()) {
    write_id_object(w, "cooldown", p.cooldown_until);
  }
  w.key("holdback");
  w.boolean(p.holdback);
  write_id_object(w, "next_alt", p.next_alternative);
  w.member("pages", double(p.pages_served));
  write_id_object(w, "pending", p.pending_violations);
  w.member("plt_count", double(p.plt_count));
  w.member("plt_sum", p.plt_sum_s);
  if (!p.race.empty()) {
    w.key("race");
    w.begin_array();
    for (const auto& [rid, rs] : p.race) {
      w.begin_object();
      w.member("cohort", rs.cohort);
      w.member("count", double(rs.count));
      w.member("plt_sum", rs.plt_sum);
      w.member("rule", rid);
      w.end_object();
    }
    w.end_array();
  }
  w.member("reports", double(p.reports_received));
  w.end_object();
}

// One array over every server's records, in server-then-record order,
// stably sorted by time when `by_time`. The sort runs over an index of
// (time, server, position), never over the records themselves.
template <typename Records, typename Write>
void write_records(JsonWriter& w, const std::vector<const OakServer*>& servers,
                   bool by_time, Records records, Write write_one) {
  struct At {
    double t;
    std::uint32_t server;
    std::uint32_t pos;
  };
  std::vector<At> index;
  for (std::size_t s = 0; s < servers.size(); ++s) {
    const auto& v = records(*servers[s]);
    for (std::size_t i = 0; i < v.size(); ++i) {
      index.push_back({v[i].time, std::uint32_t(s), std::uint32_t(i)});
    }
  }
  if (by_time) {
    std::stable_sort(index.begin(), index.end(),
                     [](const At& a, const At& b) { return a.t < b.t; });
  }
  w.begin_array();
  for (const At& a : index) write_one(w, records(*servers[a.server])[a.pos]);
  w.end_array();
}

// --- Reading mirrors writing, member for member (util::JsonReader).

ActiveRule read_active(JsonReader& r) {
  ActiveRule ar;
  r.begin_object();
  ar.activated_at = r.number("activated_at");
  ar.alternative_index = std::size_t(r.integer("alt"));
  ar.violation_distance = r.number("distance");
  ar.expires_at = r.number("expires_at");
  ar.rule_id = static_cast<int>(r.integer("rule"));
  ar.violator_ip = r.string("violator");
  r.end_object();
  return ar;
}

template <typename Map, typename Convert>
void read_id_object(JsonReader& r, Map& out, Convert convert) {
  r.begin_object();
  std::string_view key;
  while (r.next_key(key)) {
    int id = 0;
    const char* end = key.data() + key.size();
    auto [p, ec] = std::from_chars(key.data(), end, id);
    if (ec != std::errc{} || p != end) r.fail("bad rule id key");
    out[id] = convert(r.number());
  }
  r.end_object();
}

UserProfile read_profile(JsonReader& r, std::string uid) {
  auto to_int = [](double n) { return static_cast<int>(std::llround(n)); };
  auto to_size = [](double n) { return std::size_t(std::llround(n)); };
  UserProfile p;
  p.user_id = std::move(uid);
  r.begin_object();
  r.want("active");
  r.begin_array();
  while (r.more()) {
    ActiveRule ar = read_active(r);
    p.active[ar.rule_id] = std::move(ar);
  }
  r.want("banned");
  r.begin_array();
  while (r.more()) p.banned.insert(static_cast<int>(r.integer()));
  p.client_ip = r.string("client_ip");
  if (r.has("cooldown")) {
    read_id_object(r, p.cooldown_until, [](double n) { return n; });
  }
  p.holdback = r.boolean("holdback");
  r.want("next_alt");
  read_id_object(r, p.next_alternative, to_size);
  p.pages_served = std::size_t(r.integer("pages"));
  r.want("pending");
  read_id_object(r, p.pending_violations, to_int);
  p.plt_count = std::size_t(r.integer("plt_count"));
  p.plt_sum_s = r.number("plt_sum");
  if (r.has("race")) {
    r.begin_array();
    while (r.more()) {
      RaceStat rs;
      r.begin_object();
      rs.cohort = static_cast<int>(r.integer("cohort"));
      rs.count = static_cast<std::uint64_t>(r.integer("count"));
      rs.plt_sum = r.number("plt_sum");
      const int rule = static_cast<int>(r.integer("rule"));
      r.end_object();
      // The engine indexes its per-cohort sums by this value.
      if (rs.cohort != 0 && rs.cohort != 1) r.fail("race cohort not 0 or 1");
      p.race[rule] = rs;
    }
  }
  p.reports_received = std::size_t(r.integer("reports"));
  r.end_object();
  return p;
}

}  // namespace

void write_state(util::JsonWriter& w,
                 const std::vector<const OakServer*>& servers,
                 std::size_t next_user, bool by_time) {
  bool any_contexts = false;
  std::size_t reports = 0;
  for (const OakServer* s : servers) {
    any_contexts = any_contexts || !s->decision_log().contexts().empty();
    reports += s->reports_processed();
  }
  w.begin_object();
  // Replay contexts ride along only when recording was on, for the same
  // byte-compatibility reason as "race"/"cooldown".
  if (any_contexts) {
    w.key("contexts");
    write_records(
        w, servers, by_time,
        [](const OakServer& s) -> const auto& {
          return s.decision_log().contexts();
        },
        write_context);
  }
  w.key("log");
  write_records(
      w, servers, by_time,
      [](const OakServer& s) -> const auto& {
        return s.decision_log().entries();
      },
      write_decision);
  w.member("next_user", double(next_user));
  w.member("reports_processed", double(reports));
  w.member("site", servers.front()->site_host());
  // Users: a k-way merge of each server's uid-sorted visit. Hot and cold
  // profiles alike — a demoted user serializes byte-identically to one
  // that stayed resident.
  std::vector<TieredUserStore::SortedCursor> cursors;
  cursors.reserve(servers.size());
  for (const OakServer* s : servers) cursors.push_back(s->user_store().sorted());
  w.key("users");
  w.begin_object();
  while (true) {
    TieredUserStore::SortedCursor* least = nullptr;
    for (auto& c : cursors) {
      if (!c.done() && (least == nullptr || c.uid() < least->uid())) least = &c;
    }
    if (least == nullptr) break;
    w.key(least->uid());
    write_profile(w, least->profile());
    least->advance();
  }
  w.end_object();
  w.member("version", kSnapshotVersion);
  w.end_object();
}

std::vector<StatePart> read_state(
    std::string_view doc, std::size_t parts,
    const std::function<std::size_t(const std::string&)>& part_of) {
  JsonReader r(doc);
  std::vector<StatePart> out(parts);
  r.begin_object();
  if (r.has("contexts")) {
    r.begin_array();
    while (r.more()) {
      ReportContext c = read_context(r);
      out[part_of(c.user_id)].log.record_context(std::move(c));
    }
  }
  r.want("log");
  r.begin_array();
  while (r.more()) {
    Decision d = read_decision(r);
    out[part_of(d.user_id)].log.record(std::move(d));
  }
  const auto next_user = std::size_t(r.integer("next_user"));
  out.front().reports_processed = std::size_t(r.integer("reports_processed"));
  r.want("users");
  r.begin_object();
  std::string_view key;
  std::string prev;
  for (bool first = true; r.next_key(key); first = false) {
    // A JsonObject holds each uid once, in ascending order: the order the
    // profiles commit (and tiering demotes) in.
    if (!first && !(prev < key)) r.fail("users out of order");
    prev = key;
    out[part_of(prev)].profiles.push_back(read_profile(r, prev));
  }
  r.end_object();
  if (r.integer("version") != kSnapshotVersion) {
    throw util::JsonError("oak snapshot: unsupported version");
  }
  r.end_object();
  r.end();
  for (StatePart& p : out) p.next_user = next_user;
  return out;
}

util::Json OakServer::export_state() const {
  util::JsonWriter w;
  write_state(w, {this}, next_user_, /*by_time=*/false);
  return util::Json::parse(w.take());
}

void OakServer::import_state(const util::Json& snapshot) {
  import_state(std::move(
      read_state(snapshot.dump(), 1, [](const std::string&) { return 0; })
          .front()));
}

void OakServer::import_state(StatePart part) {
  // The holder index is rebuilt from the imported state: every uid under
  // every rule id it holds anything for (profiles arrive in uid order).
  holders_.clear();
  std::vector<int> held;
  for (const UserProfile& p : part.profiles) {
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
  // Rebuilding through get_or_create re-establishes tiering naturally: once
  // the hot tier fills, earlier-imported profiles demote to the spill file.
  users_.clear();
  for (UserProfile& p : part.profiles) {
    users_.get_or_create(p.user_id, 0.0) = std::move(p);
  }
  log_ = std::move(part.log);
  next_user_ = part.next_user;
  reports_processed_ = part.reports_processed;
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
