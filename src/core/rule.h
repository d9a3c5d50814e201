// Operator-authored rules (paper §4.1).
//
// "These rules consist of: a rule type, a block of text representing a
// default object, a block of text representing an alternative object, a time
// to live, a scope, and a potential list of sub-rules."
//
//   Type 1 (kRemove)            remove the default block entirely
//   Type 2 (kAlternativeSource) same object from an alternative server
//   Type 3 (kAlternativeObject) replace with a non-identical object
//
// §4.2.4 extends this with policy: a rule may carry *multiple* alternatives
// (progressed through linearly by default) and a minimum violation count
// before activation ("only activating a rule after 3 violations").
//
// The default/alternative texts are literal page fragments: a whole tag, an
// inline script, several tags — or just a hostname, which expresses the
// domain-wide replacement rules the §5.3 evaluation generates ("a type 2
// replacement rule for every observed domain").
#pragma once

#include <string>
#include <vector>

#include "util/scope.h"

namespace oak::core {

enum class RuleType {
  kRemove = 1,
  kAlternativeSource = 2,
  kAlternativeObject = 3,
};

std::string to_string(RuleType t);

// A dependent replacement applied only when the parent rule activates
// ("rules may also load sub-rules ... simple replacements which occur only
// if the parent rule is activated").
struct SubRule {
  std::string from;
  std::string to;
};

struct Rule {
  int id = 0;  // assigned by the OakServer when 0
  std::string name;
  RuleType type = RuleType::kAlternativeSource;
  std::string default_text;
  std::vector<std::string> alternatives;  // empty for type 1
  // Activation lifetime. An activation made at time t is live over the
  // half-open interval [t, t + ttl_s): at exactly now == t + ttl_s the rule
  // is already expired — the server will not apply it, DecisionCore::expire
  // reaps it (logging kExpire), and SiteAnalytics counts it as an expiration.
  // Half-open matches every other TTL in the stack (browser DNS cache,
  // match-cache memo/script TTLs), so "ttl_s = horizon" never leaks one
  // extra serve at the boundary. 0 = never expires.
  double ttl_s = 0.0;
  util::Scope scope{"*"};
  std::vector<SubRule> sub_rules;
  int min_violations = 1;  // policy: violations required to activate
  // Named policy strategy handling this rule (core/policy.h). Empty = the
  // engine's default strategy (Policy::default_strategy, itself defaulting
  // to the paper policy). Validated against the strategy table by
  // OakServer::add_rule. Rule-file syntax: `policy: "racing"`.
  std::string policy;

  // Structural validity; fills `why` on failure.
  bool validate(std::string* why = nullptr) const;

  // True when default_text is a bare hostname (domain-wide rule) rather
  // than a literal markup block.
  bool is_domain_rule() const;
};

// Convenience constructors for the common shapes.
Rule make_removal_rule(std::string name, std::string default_text,
                       double ttl_s = 0.0, std::string scope = "*");
Rule make_source_rule(std::string name, std::string default_text,
                      std::vector<std::string> alternatives,
                      double ttl_s = 0.0, std::string scope = "*");
// Domain-wide type 2: replace every occurrence of `domain` with an
// alternative domain.
Rule make_domain_rule(std::string name, std::string domain,
                      std::vector<std::string> alt_domains,
                      double ttl_s = 0.0, std::string scope = "*");

}  // namespace oak::core
