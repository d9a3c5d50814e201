#include "core/decision_log.h"

namespace oak::core {

std::string to_string(DecisionType t) {
  switch (t) {
    case DecisionType::kActivate: return "activate";
    case DecisionType::kDeactivate: return "deactivate";
    case DecisionType::kAdvanceAlternative: return "advance-alternative";
    case DecisionType::kKeepAlternative: return "keep-alternative";
    case DecisionType::kExpire: return "expire";
    case DecisionType::kServeModified: return "serve-modified";
    case DecisionType::kRaceWinner: return "race-winner";
  }
  return "?";
}

void write_decision(util::JsonWriter& w, const Decision& d) {
  w.begin_object();
  w.member("alt", double(d.alternative_index));
  w.member("distance", d.distance);
  w.member("rule", d.rule_id);
  w.member("t", d.time);
  w.member("type", static_cast<int>(d.type));
  w.member("user", d.user_id);
  w.member("violator", d.violator_ip);
  w.end_object();
}

Decision read_decision(util::JsonReader& r) {
  Decision d;
  r.begin_object();
  d.alternative_index = std::size_t(r.integer("alt"));
  d.distance = r.number("distance");
  d.rule_id = static_cast<int>(r.integer("rule"));
  d.time = r.number("t");
  d.type = static_cast<DecisionType>(r.integer("type"));
  d.user_id = r.string("user");
  d.violator_ip = r.string("violator");
  r.end_object();
  return d;
}

util::Json decision_to_json(const Decision& d) {
  util::JsonWriter w;
  write_decision(w, d);
  return util::Json::parse(w.take());
}

void write_context(util::JsonWriter& w, const ReportContext& c) {
  w.begin_object();
  w.key("alts");
  w.begin_array();
  for (const auto& m : c.alt_matches) {
    w.begin_object();
    w.member("alt", double(m.alt_index));
    w.member("rule", m.rule_id);
    w.member("sev", m.severity);
    w.member("violator", m.violator_ip);
    w.end_object();
  }
  w.end_array();
  w.member("ip", c.client_ip);
  w.member("plt", c.plt_s);
  w.key("rules");
  w.begin_array();
  for (const auto& m : c.rule_matches) {
    w.begin_object();
    w.member("rule", m.rule_id);
    w.member("sev", m.severity);
    w.member("violator", m.violator_ip);
    w.end_object();
  }
  w.end_array();
  if (c.serve_only) {
    w.key("serve");
    w.boolean(true);
  }
  w.member("t", c.time);
  w.member("user", c.user_id);
  w.end_object();
}

ReportContext read_context(util::JsonReader& r) {
  ReportContext c;
  r.begin_object();
  r.want("alts");
  r.begin_array();
  while (r.more()) {
    r.begin_object();
    ContextAltMatch m;
    m.alt_index = std::size_t(r.integer("alt"));
    m.rule_id = static_cast<int>(r.integer("rule"));
    m.severity = r.number("sev");
    m.violator_ip = r.string("violator");
    r.end_object();
    c.alt_matches.push_back(std::move(m));
  }
  c.client_ip = r.string("ip");
  c.plt_s = r.number("plt");
  r.want("rules");
  r.begin_array();
  while (r.more()) {
    r.begin_object();
    ContextRuleMatch m;
    m.rule_id = static_cast<int>(r.integer("rule"));
    m.severity = r.number("sev");
    m.violator_ip = r.string("violator");
    r.end_object();
    c.rule_matches.push_back(std::move(m));
  }
  if (r.has("serve")) c.serve_only = r.boolean();
  c.time = r.number("t");
  c.user_id = r.string("user");
  r.end_object();
  return c;
}

void DecisionLog::record(Decision d) { entries_.push_back(std::move(d)); }

void DecisionLog::record_context(ReportContext c) {
  contexts_.push_back(std::move(c));
}

std::vector<Decision> DecisionLog::by_type(DecisionType t) const {
  std::vector<Decision> out;
  for (const auto& d : entries_) {
    if (d.type == t) out.push_back(d);
  }
  return out;
}

std::size_t DecisionLog::count(DecisionType t) const {
  std::size_t n = 0;
  for (const auto& d : entries_) {
    if (d.type == t) ++n;
  }
  return n;
}

std::map<int, std::set<std::string>> DecisionLog::users_activating() const {
  std::map<int, std::set<std::string>> out;
  for (const auto& d : entries_) {
    if (d.type == DecisionType::kActivate) out[d.rule_id].insert(d.user_id);
  }
  return out;
}

std::map<int, std::size_t> DecisionLog::activations_per_rule() const {
  std::map<int, std::size_t> out;
  for (const auto& d : entries_) {
    if (d.type == DecisionType::kActivate) out[d.rule_id]++;
  }
  return out;
}

util::Json DecisionLog::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  if (!contexts_.empty()) {
    w.key("contexts");
    w.begin_array();
    for (const auto& c : contexts_) write_context(w, c);
    w.end_array();
  }
  w.key("decisions");
  w.begin_array();
  for (const auto& d : entries_) write_decision(w, d);
  w.end_array();
  w.end_object();
  return util::Json::parse(w.take());
}

DecisionLog DecisionLog::from_json(const util::Json& j) {
  const std::string doc = j.dump();
  util::JsonReader r(doc);
  DecisionLog log;
  r.begin_object();
  if (r.has("contexts")) {
    r.begin_array();
    while (r.more()) log.record_context(read_context(r));
  }
  r.want("decisions");
  r.begin_array();
  while (r.more()) log.record(read_decision(r));
  r.end_object();
  r.end();
  return log;
}

}  // namespace oak::core
