// Shared set-up of the oakbench server and load generator: the simulated
// web, the Oak configuration and the rule files.
//
// Both processes build the same web from a fixed corpus seed; the workload
// seed never reaches the server. The generator derives its traffic from the
// workload seed and hands the server nothing but HTTP requests and a rule
// file, so two runs with one seed send the same requests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/oak_server.h"
#include "workload/existing_sites.h"

namespace oakbench {

// The simulated web is part of the deployment, not of the workload.
inline constexpr std::uint64_t kCorpusSeed = 42;

// Serving-plane constants shared by the server and the generator's
// in-process replicas (reference server, traced replay).
inline constexpr std::size_t kShards = 4;
// One event loop: with two, the kernel's SO_REUSEPORT hash decided in each
// run whether the load connections shared a loop, and latencies took one of
// two values depending on it.
inline constexpr std::size_t kEventLoops = 1;
// Large enough that the threshold never fires while measuring; the
// generator compacts explicitly at fixed points instead.
inline constexpr std::uint64_t kCompactBytes = 1ull << 30;

// The Existing Sites scenario with its first H2 site (more than 15
// external hosts) picked as the site under test.
struct Web {
  Web();
  oak::workload::ExistingSitesScenario scenario;
  oak::workload::ExistingSitesScenario::SiteUnderTest* site = nullptr;

  oak::page::WebUniverse& universe() { return scenario.universe(); }
  const std::string& host() const { return site->site->host; }
  const std::string& index_path() const { return site->site->index_path; }
};

// The Oak configuration of the scenario (five violations before a switch,
// closest-mirror alternative), with `hot_capacity` user-store slots per
// shard (0: untiered). Durability is enabled when `journal_dir` is
// non-empty.
oak::core::OakConfig oak_config(std::size_t hot_capacity,
                                const std::string& journal_dir);

// Rule files in core/rule_parser format. Set 0 is the scenario's type-2
// rule for every external domain of the site; set 1 lists each rule's
// mirrors in reverse order, so swapping between the two changes every
// rule's text while the rule count stays the same.
std::string rule_file(const Web& web, int set);

// Parse "--name value" pairs; a bare "--name" maps to "1".
std::string arg(int argc, char** argv, const std::string& name,
                const std::string& fallback);

}  // namespace oakbench
