#include "common.h"

#include <algorithm>
#include <stdexcept>

#include "core/rule_parser.h"

namespace oakbench {

namespace {

oak::workload::ExistingSitesScenario::Options scenario_options() {
  oak::workload::ExistingSitesScenario::Options opt;
  opt.seed = kCorpusSeed;
  return opt;
}

}  // namespace

Web::Web() : scenario(scenario_options()) {
  for (auto& s : scenario.sites()) {
    if (s.h2) {
      site = &s;
      break;
    }
  }
  if (site == nullptr) throw std::runtime_error("corpus has no H2 site");
}

oak::core::OakConfig oak_config(std::size_t hot_capacity,
                                const std::string& journal_dir) {
  oak::core::OakConfig cfg;
  cfg.policy.default_min_violations = 5;
  cfg.policy.alternative_selector = [](const std::string& client_ip,
                                       std::size_t n) {
    const std::size_t idx = oak::workload::closest_mirror_index(client_ip);
    return idx < n ? idx : 0;
  };
  cfg.user_store.hot_capacity = hot_capacity;
  if (!journal_dir.empty()) {
    cfg.durability.enabled = true;
    cfg.durability.dir = journal_dir;
    cfg.durability.compact_threshold_bytes = kCompactBytes;
    cfg.user_store.spill_dir = journal_dir;
  }
  return cfg;
}

std::string rule_file(const Web& web, int set) {
  std::vector<oak::core::Rule> rules;
  const auto& domains = web.site->domains;
  for (std::size_t i = 0; i < domains.size(); ++i) {
    std::vector<std::string> alts;
    for (oak::net::Region r : oak::workload::kMirrorRegions) {
      alts.push_back(oak::workload::mirror_host(r, domains[i]));
    }
    if (set == 1) std::reverse(alts.begin(), alts.end());
    rules.push_back(oak::core::make_domain_rule("switch-" + domains[i],
                                                domains[i], std::move(alts)));
  }
  return oak::core::format_rules(rules);
}

std::string arg(int argc, char** argv, const std::string& name,
                const std::string& fallback) {
  const std::string flag = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (flag != argv[i]) continue;
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      return argv[i + 1];
    }
    return "1";
  }
  return fallback;
}

}  // namespace oakbench
