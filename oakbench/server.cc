// oakbench_server: Oak's serving plane as its own process.
//
//   oakbench_server --journal DIR --rules FILE --ready FILE
//                   [--hot-capacity N]
//
// Builds the simulated web, opens (or recovers) the journal in DIR, loads
// the rule file when the journal is new, and serves HTTP on an ephemeral
// loopback port behind wire::Server. Once listening it writes a one-line
// JSON document to the ready file (written whole, then renamed into place):
// the port and what recovery restored. SIGTERM drains and exits 0. It runs
// one event loop and one worker thread per CPU it may run on.
#include <sched.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"
#include "core/rule_parser.h"
#include "core/sharded_server.h"
#include "util/json.h"
#include "wire/server.h"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int run(int argc, char** argv) {
  using oakbench::arg;
  const std::string journal = arg(argc, argv, "journal", "");
  const std::string rules_path = arg(argc, argv, "rules", "");
  const std::string ready_path = arg(argc, argv, "ready", "");
  if (journal.empty() || rules_path.empty() || ready_path.empty()) {
    std::fprintf(stderr,
                 "usage: oakbench_server --journal DIR --rules FILE "
                 "--ready FILE [--hot-capacity N]\n");
    return 2;
  }
  const std::size_t hot_capacity =
      std::stoul(arg(argc, argv, "hot-capacity", "2000"));

  oakbench::Web web;
  oak::core::ShardedOakServer oak(web.universe(), web.host(),
                                  oakbench::oak_config(hot_capacity, journal),
                                  oakbench::kShards);
  const oak::durability::RecoveryReport rec = oak.recovery_report();
  // A recovered journal carries its own rules; only a new one takes the
  // rule file.
  if (rec.bootstrapped) oak.add_rules(oak::core::parse_rules(read_file(rules_path)));

  oak::wire::WireConfig wcfg;
  wcfg.loops = oakbench::kEventLoops;
  cpu_set_t cpus;
  const int ncpu =
      ::sched_getaffinity(0, sizeof cpus, &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  wcfg.worker_threads = std::size_t(std::max(1, ncpu));
  oak::wire::Server server(oak, wcfg);
  server.start();
  server.install_signal_drain(SIGTERM);

  oak::util::JsonObject ready;
  ready["port"] = static_cast<std::int64_t>(server.port());
  ready["reports"] = static_cast<std::int64_t>(oak.reports_processed());
  ready["users"] = static_cast<std::int64_t>(oak.user_count());
  ready["bootstrapped"] = rec.bootstrapped;
  ready["records_replayed"] = static_cast<std::int64_t>(rec.records_replayed);
  ready["replay_s"] = rec.replay_seconds;
  {
    const std::string tmp = ready_path + ".tmp";
    std::ofstream out(tmp);
    out << oak::util::Json(std::move(ready)).dump() << "\n";
    out.close();
    if (!out || std::rename(tmp.c_str(), ready_path.c_str()) != 0) {
      throw std::runtime_error("cannot write " + ready_path);
    }
  }
  server.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oakbench_server: %s\n", e.what());
    return 1;
  }
}
