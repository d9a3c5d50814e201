// Umbrella header: the public API of the Oak reproduction.
//
// Most programs need only this. The sub-headers remain individually
// includable for faster builds; see README.md ("Architecture") for the
// layer-by-layer tour.
//
//   #include "oak.h"
//
//   oak::page::WebUniverse web({.seed = 1});
//   oak::core::OakServer server(web, "example.com", {});
//   oak::browser::Browser user(web, client_id);
#pragma once

// Substrate: statistics, simulated network, HTTP, HTML, the web universe.
#include "net/network.h"     // IWYU pragma: export
#include "page/corpus.h"     // IWYU pragma: export
#include "page/site.h"       // IWYU pragma: export
#include "util/cdf.h"        // IWYU pragma: export
#include "util/stats.h"      // IWYU pragma: export

// The client.
#include "browser/browser.h"  // IWYU pragma: export

// Oak proper.
#include "core/analytics.h"       // IWYU pragma: export
#include "core/fleet.h"           // IWYU pragma: export
#include "core/oak_server.h"      // IWYU pragma: export
#include "core/policy_replay.h"   // IWYU pragma: export
#include "core/rule_parser.h"     // IWYU pragma: export
#include "core/sharded_server.h"  // IWYU pragma: export

// Experiment scaffolding (vantage points, scenario builders, survey).
#include "workload/existing_experiment.h"  // IWYU pragma: export
#include "workload/survey.h"               // IWYU pragma: export
