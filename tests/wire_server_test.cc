// oak::wire::Server over real sockets: routing, hostile-input behavior,
// slowloris deadlines, the three shedding layers, pipelining, and graceful
// drain (including the WAL-verified zero-acknowledged-loss property).
#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "browser/report.h"
#include "core/rule_parser.h"
#include "core/sharded_server.h"
#include "page/site.h"
#include "wire/client.h"
#include "wire/server.h"

namespace oak::wire {
namespace {

using core::OakConfig;
using core::ShardedOakServer;

void sleep_s(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

class WireFixture : public ::testing::Test {
 protected:
  WireFixture() : universe_(net::NetworkConfig{.seed = 17, .horizon_s = 0}) {
    net::Network& net = universe_.network();
    origin_ = net.add_server(net::ServerConfig{.name = "origin"});
    universe_.dns().bind("busy.com", net.server(origin_).addr());
    net::ServerId sid = net.add_server(net::ServerConfig{});
    universe_.dns().bind("x0.net", net.server(sid).addr());
    x0_ip_ = net.server(sid).addr().to_string();

    page::SiteBuilder b(universe_, "busy.com", origin_);
    b.add_direct("x0.net", "/o.js", html::RefKind::kScript, 9000,
                 page::Category::kCdn);
    site_ = b.finish();
  }

  ~WireFixture() override {
    srv_.reset();  // server first: it holds a reference into oak_
    oak_.reset();
  }

  // Build the serving plane + front-end. Callers tweak the configs, then
  // boot(); srv_ is started and listening on an ephemeral port.
  void boot(WireConfig wc = {}, OakConfig oc = {},
            std::function<void()> on_drained = nullptr) {
    oak_ = std::make_unique<ShardedOakServer>(universe_, "busy.com", oc, 4);
    wc.worker_threads = 2;
    srv_ = std::make_unique<Server>(*oak_, wc);
    if (on_drained) srv_->set_on_drained(std::move(on_drained));
    srv_->start();
  }

  BlockingClient client(double timeout_s = 5.0) {
    BlockingClient cli;
    EXPECT_TRUE(cli.connect("127.0.0.1", srv_->port(), timeout_s));
    return cli;
  }

  std::string report_wire() {
    browser::PerfReport r;
    r.page_url = site_.index_url();
    r.entries.push_back(
        {site_.index_url(), "busy.com", "10.0.0.1", 4000, 0, 0.09});
    r.entries.push_back(
        {"http://x0.net/o.js", "x0.net", x0_ip_, 9000, 0.1, 4.0});
    return r.serialize();
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  std::string x0_ip_;
  page::Site site_;
  std::unique_ptr<ShardedOakServer> oak_;
  std::unique_ptr<Server> srv_;
};

TEST_F(WireFixture, ServesPageAndMintsCookie) {
  boot();
  BlockingClient cli = client();
  auto resp = cli.request("GET", site_.index_path, {{"Host", "busy.com"}});
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_FALSE(resp->body.empty());
  const std::string cookie = resp->headers.get("set-cookie").value_or("");
  EXPECT_NE(cookie.find(http::kOakUserCookie), std::string::npos) << cookie;
}

TEST_F(WireFixture, ReportPostIngestsAndBadBodyIs400) {
  boot();
  BlockingClient cli = client();
  auto ok =
      cli.request("POST", "/oak/report", {{"Host", "busy.com"}}, report_wire());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 204);
  EXPECT_EQ(oak_->reports_processed(), 1u);

  auto bad = cli.request("POST", "/oak/report", {{"Host", "busy.com"}},
                         "{not json");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, 400);
  EXPECT_EQ(oak_->reports_processed(), 1u);
}

TEST_F(WireFixture, UnknownPage404) {
  boot();
  BlockingClient cli = client();
  auto resp = cli.request("GET", "/no-such-page", {{"Host", "busy.com"}});
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
}

TEST_F(WireFixture, UnroutedMethodGets405WithAllow) {
  boot();
  BlockingClient cli = client();
  ASSERT_TRUE(cli.send_raw("BREW /pot HTTP/1.1\r\nHost: busy.com\r\n\r\n"));
  auto resp = cli.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 405);
  EXPECT_EQ(resp->headers.get("allow").value_or(""), http::kAllowedMethods);
  // The request was well-formed, so the connection stays usable.
  auto next = cli.request("GET", site_.index_path, {{"Host", "busy.com"}});
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->status, 200);
}

TEST_F(WireFixture, RoutedButWrongMethodGets405) {
  boot();
  BlockingClient cli = client();
  auto resp = cli.request("PUT", site_.index_path, {{"Host", "busy.com"}});
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 405);
  EXPECT_FALSE(resp->headers.get("allow").value_or("").empty());
}

TEST_F(WireFixture, HeadOmitsBodyButKeepsFraming) {
  boot();
  BlockingClient cli = client();
  auto head = cli.request("HEAD", site_.index_path, {{"Host", "busy.com"}});
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->status, 200);
  EXPECT_TRUE(head->body.empty());
  const std::string cl = head->headers.get("content-length").value_or("0");
  EXPECT_GT(std::stoul(cl), 0u);  // advertises the GET body it didn't send
  // Framing intact: the next request on the same connection still parses.
  auto get = cli.request("GET", site_.index_path, {{"Host", "busy.com"}});
  ASSERT_TRUE(get.has_value());
  EXPECT_EQ(get->status, 200);
  EXPECT_EQ(std::to_string(get->body.size()), cl);
}

TEST_F(WireFixture, MetricsEndpointsExposeWirePlane) {
  boot();
  BlockingClient cli = client();
  auto prom = cli.request("GET", "/metrics");
  ASSERT_TRUE(prom.has_value());
  EXPECT_EQ(prom->status, 200);
  EXPECT_NE(prom->body.find("oak_wire_requests_total"), std::string::npos);
  EXPECT_NE(prom->body.find("oak_wire_conns_active"), std::string::npos);

  auto js = cli.request("GET", "/metrics.json");
  ASSERT_TRUE(js.has_value());
  EXPECT_EQ(js->status, 200);
  EXPECT_NE(js->body.find("oak_wire_requests_total"), std::string::npos);
}

TEST_F(WireFixture, AdminRulesCrudRoundTrip) {
  boot();
  BlockingClient cli = client();
  auto empty = cli.request("GET", "/admin/rules");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->status, 200);

  const std::string rule_file =
      "rule \"shed-x0\" {\n"
      "  type: 2\n"
      "  default: \"x0.net\"\n"
      "  alt: \"alt.net\"\n"
      "}\n";
  auto added = cli.request("POST", "/admin/rules", {}, rule_file);
  ASSERT_TRUE(added.has_value());
  ASSERT_EQ(added->status, 201) << added->body;
  ASSERT_EQ(oak_->rules().size(), 1u);
  const int id = oak_->rules()[0].id;

  auto listed = cli.request("GET", "/admin/rules");
  ASSERT_TRUE(listed.has_value());
  EXPECT_NE(listed->body.find("shed-x0"), std::string::npos);

  auto gone =
      cli.request("DELETE", "/admin/rules/" + std::to_string(id));
  ASSERT_TRUE(gone.has_value());
  EXPECT_EQ(gone->status, 200);
  EXPECT_TRUE(oak_->rules().empty());

  auto again =
      cli.request("DELETE", "/admin/rules/" + std::to_string(id));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->status, 404);

  auto bad_rules = cli.request("POST", "/admin/rules", {}, "rule ??? {\n");
  ASSERT_TRUE(bad_rules.has_value());
  EXPECT_EQ(bad_rules->status, 400);
}

// Every regular file under `dir`, by path.
std::map<std::string, std::string> dir_bytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    out[e.path().string()] = ss.str();
  }
  return out;
}

// A rule file is checked whole before anything changes: a second rule
// naming an unknown strategy makes PUT and POST alike a 400 that leaves
// the rules, the exported state and the journal byte-identical.
TEST_F(WireFixture, AdminRuleFileWithUnknownPolicyIs400AndChangesNothing) {
  const std::string dir = ::testing::TempDir() + "/oak_wire_bad_rules_test";
  std::filesystem::remove_all(dir);
  OakConfig oc;
  oc.durability.enabled = true;
  oc.durability.dir = dir;
  boot({}, oc);
  BlockingClient cli = client();
  auto added = cli.request("POST", "/admin/rules", {},
                           "rule \"shed-x0\" {\n  type: 2\n"
                           "  default: \"x0.net\"\n  alt: \"alt.net\"\n}\n");
  ASSERT_TRUE(added.has_value());
  ASSERT_EQ(added->status, 201) << added->body;
  auto report =
      cli.request("POST", "/oak/report", {{"Host", "busy.com"}}, report_wire());
  ASSERT_TRUE(report.has_value());
  ASSERT_EQ(report->status, 204);

  const std::string bad_file =
      "rule \"a\" {\n  type: 2\n  default: \"x1.net\"\n  alt: \"alt.net\"\n}\n"
      "rule \"b\" {\n  type: 2\n  default: \"x2.net\"\n  alt: \"alt.net\"\n"
      "  policy: \"nosuch\"\n}\n";
  const std::string rules_before = core::format_rules(oak_->rules());
  const int id_before = oak_->rules().at(0).id;
  const std::string state_before = oak_->export_state().dump();
  const auto journal_before = dir_bytes(dir);
  for (const char* method : {"PUT", "POST"}) {
    auto resp = cli.request(method, "/admin/rules", {}, bad_file);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 400) << method << ": " << resp->body;
    EXPECT_NE(resp->body.find("nosuch"), std::string::npos) << resp->body;
    ASSERT_EQ(oak_->rules().size(), 1u);
    EXPECT_EQ(oak_->rules()[0].id, id_before);
    EXPECT_EQ(core::format_rules(oak_->rules()), rules_before);
    EXPECT_EQ(oak_->export_state().dump(), state_before);
    EXPECT_TRUE(dir_bytes(dir) == journal_before) << method;
  }
  srv_.reset();
  oak_.reset();
  std::filesystem::remove_all(dir);
}

// PUT is a diff: an unchanged rule keeps its id, and the answer lists the
// final id of every rule in the file, in file order.
TEST_F(WireFixture, AdminRulesPutKeepsUnchangedRules) {
  boot();
  BlockingClient cli = client();
  const std::string x0 =
      "rule \"shed-x0\" {\n  type: 2\n  default: \"x0.net\"\n"
      "  alt: \"alt.net\"\n}\n";
  const std::string x1 =
      "rule \"shed-x1\" {\n  type: 2\n  default: \"x1.net\"\n"
      "  alt: \"alt.net\"\n}\n";
  auto first = cli.request("PUT", "/admin/rules", {}, x0);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, 201) << first->body;
  const int id0 = oak_->rules().at(0).id;
  EXPECT_EQ(first->body, "{\"replaced\":[" + std::to_string(id0) + "]}");

  auto grown = cli.request("PUT", "/admin/rules", {}, x1 + x0);
  ASSERT_TRUE(grown.has_value());
  ASSERT_EQ(grown->status, 201) << grown->body;
  ASSERT_EQ(oak_->rules().size(), 2u);
  EXPECT_EQ(oak_->rules()[0].id, id0);  // kept rules first, then added
  const int id1 = oak_->rules()[1].id;
  EXPECT_NE(id1, id0);
  EXPECT_EQ(grown->body, "{\"replaced\":[" + std::to_string(id1) + "," +
                             std::to_string(id0) + "]}");

  auto shrunk = cli.request("PUT", "/admin/rules", {}, x1);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_EQ(shrunk->body, "{\"replaced\":[" + std::to_string(id1) + "]}");
  ASSERT_EQ(oak_->rules().size(), 1u);
  EXPECT_EQ(oak_->rules()[0].id, id1);
}

TEST_F(WireFixture, AdminHealthReportsDrainState) {
  boot();
  BlockingClient cli = client();
  auto live = cli.request("GET", "/admin/health");
  ASSERT_TRUE(live.has_value());
  EXPECT_NE(live->body.find("\"ok\""), std::string::npos);
}

TEST_F(WireFixture, ParseErrorAnswers400ThenCloses) {
  boot();
  BlockingClient cli = client();
  ASSERT_TRUE(cli.send_raw("GARBAGE\r\n\r\n"));
  auto resp = cli.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 400);
  EXPECT_FALSE(resp->keep_alive);
  EXPECT_TRUE(cli.read_all().empty());  // server closed after the 4xx
}

TEST_F(WireFixture, PipelinedRequestsAnsweredInOrder) {
  boot();
  BlockingClient cli = client();
  const std::string h = "busy.com";
  ASSERT_TRUE(cli.send_raw(
      "GET " + site_.index_path + " HTTP/1.1\r\nHost: " + h + "\r\n\r\n" +
      "GET /nope HTTP/1.1\r\nHost: " + h + "\r\n\r\n" +
      "GET /admin/health HTTP/1.1\r\nHost: " + h + "\r\n\r\n"));
  int statuses[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    auto resp = cli.read_response();
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    statuses[i] = resp->status;
  }
  EXPECT_EQ(statuses[0], 200);
  EXPECT_EQ(statuses[1], 404);
  EXPECT_EQ(statuses[2], 200);
}

TEST_F(WireFixture, SlowlorisHeaderDeadline408) {
  WireConfig wc;
  wc.header_deadline_s = 0.25;
  boot(wc);
  BlockingClient cli = client();
  ASSERT_TRUE(cli.send_raw("GET / HTTP/1.1\r\nHo"));  // ...and stall
  auto resp = cli.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 408);
  EXPECT_TRUE(cli.read_all().empty());
  EXPECT_GE(srv_->metrics_snapshot().counter("oak_wire_timeout_header_total"),
            1u);
}

TEST_F(WireFixture, IdleKeepAliveDeadlineCloses) {
  WireConfig wc;
  wc.idle_deadline_s = 0.25;
  boot(wc);
  BlockingClient cli = client();
  auto resp = cli.request("GET", "/admin/health");
  ASSERT_TRUE(resp.has_value());
  sleep_s(0.6);
  EXPECT_TRUE(cli.read_all().empty());  // idle conn reaped
  EXPECT_GE(srv_->metrics_snapshot().counter("oak_wire_timeout_idle_total"),
            1u);
}

TEST_F(WireFixture, ConnectionCapShedsAtAccept) {
  WireConfig wc;
  wc.max_connections = 1;
  boot(wc);
  BlockingClient first = client();
  auto ok = first.request("GET", "/admin/health");
  ASSERT_TRUE(ok.has_value());

  BlockingClient second = client();
  auto shed = second.read_response();  // server speaks first: 503 + close
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->status, 503);
  EXPECT_FALSE(shed->headers.get("retry-after").value_or("").empty());
  EXPECT_GE(srv_->metrics_snapshot().counter("oak_wire_shed_conn_cap_total"),
            1u);
}

TEST_F(WireFixture, DispatchDepthSheds503) {
  WireConfig wc;
  wc.dispatch_depth = 0;  // every request overflows the queue
  boot(wc);
  BlockingClient cli = client();
  auto resp = cli.request("GET", "/admin/health");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 503);
  EXPECT_FALSE(resp->headers.get("retry-after").value_or("").empty());
  EXPECT_GE(srv_->metrics_snapshot().counter("oak_wire_shed_dispatch_total"),
            1u);
}

TEST_F(WireFixture, SigtermDrainsAndRunsOnDrained) {
  std::atomic<bool> drained{false};
  WireConfig wc;
  wc.loops = 2;  // the signal must stop every loop, not just one
  boot(wc, {}, [&] { drained.store(true); });
  srv_->install_signal_drain(SIGTERM);
  BlockingClient idle = client();  // an idle conn drain must reap
  auto warm = idle.request("GET", "/admin/health");
  ASSERT_TRUE(warm.has_value());

  ::kill(::getpid(), SIGTERM);
  srv_->join();
  EXPECT_TRUE(drained.load());
  EXPECT_TRUE(srv_->draining());
  EXPECT_TRUE(idle.read_all().empty());  // closed by drain

  // Fully down: new connections are refused.
  BlockingClient late;
  EXPECT_FALSE(late.connect("127.0.0.1", srv_->port(), 0.5));
}

TEST_F(WireFixture, GracefulDrainLosesNoAcknowledgedReports) {
  const std::string dir =
      ::testing::TempDir() + "/oak_wire_drain_test";
  std::filesystem::remove_all(dir);
  OakConfig oc;
  oc.durability.enabled = true;
  oc.durability.dir = dir;
  // Multi-loop drain is the hard case: the kernel spreads the loader
  // connections across SO_REUSEPORT listeners, so the
  // zero-acknowledged-loss property has to hold on every loop at once.
  WireConfig wc;
  wc.loops = 3;
  boot(wc, oc);
  ASSERT_EQ(srv_->loop_count(), 3u);

  const std::string wire = report_wire();
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acked{0};
  std::vector<std::thread> loaders;
  for (int t = 0; t < 4; ++t) {
    loaders.emplace_back([&] {
      BlockingClient cli;
      if (!cli.connect("127.0.0.1", srv_->port(), 2.0)) return;
      while (!stop.load()) {
        auto resp =
            cli.request("POST", "/oak/report", {{"Host", "busy.com"}}, wire);
        if (!resp.has_value()) {
          // Connection died (likely drain). Reconnect until refused.
          cli.close();
          if (!cli.connect("127.0.0.1", srv_->port(), 2.0)) return;
          continue;
        }
        if (resp->status == 204) acked.fetch_add(1);
        if (!resp->keep_alive) {
          cli.close();
          if (!cli.connect("127.0.0.1", srv_->port(), 2.0)) return;
        }
      }
    });
  }

  sleep_s(0.4);  // let load build
  const auto drain_start = std::chrono::steady_clock::now();
  srv_->request_drain();
  srv_->join();
  const double drain_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - drain_start)
                             .count();
  stop.store(true);
  for (auto& th : loaders) th.join();

  EXPECT_GT(acked.load(), 0u);
  EXPECT_LT(drain_s, srv_->config().drain_deadline_s + 2.0);
  // Every acknowledged report is on the live server...
  EXPECT_GE(oak_->reports_processed(), acked.load());

  // ...and — the real gate — on disk: recover a fresh instance from the
  // WAL and count again. A 2xx the client saw must have been journaled
  // before it was written to the socket.
  srv_.reset();
  oak_.reset();
  ShardedOakServer recovered(universe_, "busy.com", oc, 4);
  EXPECT_TRUE(recovered.recovery_report().performed);
  EXPECT_GE(recovered.reports_processed(), acked.load());
  std::filesystem::remove_all(dir);
}

// An explicit compaction that cannot write its snapshot is a 503 with
// Retry-After, is counted, and leaves the committed epoch authoritative:
// a restart recovers every acknowledged report from the old snapshot plus
// the journal. The fault is a directory squatting on the snapshot's tmp
// path, so the open fails.
TEST_F(WireFixture, FailedCompactionIs503AndLosesNoAcknowledgedReports) {
  const std::string dir = ::testing::TempDir() + "/oak_wire_compact_fail_test";
  std::filesystem::remove_all(dir);
  OakConfig oc;
  oc.durability.enabled = true;
  oc.durability.dir = dir;
  boot({}, oc);
  // Bootstrap committed epoch 1; the next compaction stages epoch 2.
  ASSERT_TRUE(std::filesystem::exists(dir + "/snapshot-1.json"));
  std::filesystem::create_directories(dir + "/snapshot-2.json.tmp");
  const std::string manifest_before = [&] {
    std::ifstream in(dir + "/MANIFEST", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();

  BlockingClient cli = client();
  const std::string wire = report_wire();
  int acked = 0;
  for (int i = 0; i < 5; ++i) {
    auto r = cli.request("POST", "/oak/report", {{"Host", "busy.com"}}, wire);
    ASSERT_TRUE(r.has_value());
    if (r->status == 204) ++acked;
  }
  auto resp = cli.request("POST", "/admin/compact", {}, "");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 503) << resp->body;
  EXPECT_EQ(resp->headers.get("retry-after").value_or(""), "1");
  EXPECT_EQ(oak_->metrics_snapshot().counter("oak_compact_failures_total"),
            1u);
  for (int i = 0; i < 5; ++i) {
    auto r = cli.request("POST", "/oak/report", {{"Host", "busy.com"}}, wire);
    ASSERT_TRUE(r.has_value());
    if (r->status == 204) ++acked;
  }
  EXPECT_EQ(acked, 10);
  EXPECT_FALSE(std::filesystem::exists(dir + "/snapshot-2.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/snapshot-1.json"));
  {
    std::ifstream in(dir + "/MANIFEST", std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
              manifest_before);
  }
  cli.close();

  srv_.reset();
  oak_.reset();
  ShardedOakServer recovered(universe_, "busy.com", oc, 4);
  EXPECT_EQ(recovered.recovery_report().epoch, 1u);
  EXPECT_EQ(recovered.reports_processed(), std::size_t(acked));
  std::filesystem::remove_all(dir);
}

TEST_F(WireFixture, OversizedBodySheds413BeforeBuffering) {
  WireConfig wc;
  wc.limits.max_body_bytes = 64;
  boot(wc);
  BlockingClient cli = client();
  ASSERT_TRUE(cli.send_raw("POST /oak/report HTTP/1.1\r\nHost: busy.com\r\n"
                           "Content-Length: 100000\r\n\r\n"));
  auto resp = cli.read_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 413);  // refused at the header, body never read
}

TEST_F(WireFixture, MultiLoopServesAndExposesPerLoopMetrics) {
  WireConfig wc;
  wc.loops = 3;
  boot(wc);
  ASSERT_EQ(srv_->loop_count(), 3u);

  // Enough connections that the kernel's SO_REUSEPORT hash exercises the
  // listeners; which loop gets which conn is the kernel's business, but
  // every conn must be served and the per-loop accept counters must sum
  // to the total.
  const int kConns = 12;
  for (int i = 0; i < kConns; ++i) {
    BlockingClient cli = client();
    auto page = cli.request("GET", site_.index_path, {{"Host", "busy.com"}});
    ASSERT_TRUE(page.has_value());
    EXPECT_EQ(page->status, 200);
    auto rep = cli.request("POST", "/oak/report", {{"Host", "busy.com"}},
                           report_wire());
    ASSERT_TRUE(rep.has_value());
    EXPECT_EQ(rep->status, 204);
  }
  EXPECT_EQ(oak_->reports_processed(), static_cast<std::size_t>(kConns));

  const obs::MetricsSnapshot snap = srv_->metrics_snapshot();
  EXPECT_EQ(snap.gauge("oak_wire_loops"), 3.0);
  std::uint64_t per_loop_accepts = 0;
  for (int i = 0; i < 3; ++i) {
    const std::string prefix = "oak_wire_loop_" + std::to_string(i);
    ASSERT_TRUE(snap.counters.count(prefix + "_accepts_total")) << prefix;
    ASSERT_TRUE(snap.gauges.count(prefix + "_conns_active")) << prefix;
    ASSERT_TRUE(snap.histograms.count(prefix + "_lag_seconds")) << prefix;
    per_loop_accepts += snap.counter(prefix + "_accepts_total");
  }
  EXPECT_EQ(per_loop_accepts, snap.counter("oak_wire_conns_accepted_total"));
  // No stray loop_3 instruments.
  EXPECT_FALSE(snap.counters.count("oak_wire_loop_3_accepts_total"));

  // Both expositions carry the per-loop names.
  BlockingClient cli = client();
  auto prom = cli.request("GET", "/metrics");
  ASSERT_TRUE(prom.has_value());
  EXPECT_NE(prom->body.find("oak_wire_loop_0_accepts_total"),
            std::string::npos);
  auto js = cli.request("GET", "/metrics.json");
  ASSERT_TRUE(js.has_value());
  EXPECT_NE(js->body.find("oak_wire_loop_0_lag_seconds"), std::string::npos);
}

TEST_F(WireFixture, PipelinedReportsAnswerInOrderAndCoalesceWrites) {
  boot();
  BlockingClient cli = client();
  const std::string wire = report_wire();
  // Warm up: first request mints the cookie so pipelined reports share
  // one uid (and thus one shard) like a real beacon stream.
  auto warm =
      cli.request("POST", "/oak/report", {{"Host", "busy.com"}}, wire);
  ASSERT_TRUE(warm.has_value());
  ASSERT_EQ(warm->status, 204);
  std::string cookie;
  if (auto sc = warm->headers.get("set-cookie")) {
    cookie = sc->substr(0, sc->find(';'));
  }
  ASSERT_FALSE(cookie.empty());

  const int kPipelined = 6;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) {
    burst += "POST /oak/report HTTP/1.1\r\nHost: busy.com\r\nCookie: " +
             cookie + "\r\nContent-Length: " + std::to_string(wire.size()) +
             "\r\n\r\n" + wire;
  }
  ASSERT_TRUE(cli.send_raw(burst));
  for (int i = 0; i < kPipelined; ++i) {
    auto resp = cli.read_response();
    ASSERT_TRUE(resp.has_value()) << "response " << i;
    EXPECT_EQ(resp->status, 204) << "response " << i;
  }
  EXPECT_EQ(oak_->reports_processed(),
            static_cast<std::size_t>(kPipelined + 1));

  // Barrier before snapshotting: the writev counters are bumped after
  // sendmsg() returns, so on a busy box the client can read the burst
  // responses (and snapshot) before the loop thread runs the bookkeeping.
  // A follow-up request's response bytes are sent after those bumps in
  // loop-thread program order, so reading it orders the snapshot after
  // them.
  auto barrier = cli.request("GET", "/admin/health", {{"Host", "busy.com"}});
  ASSERT_TRUE(barrier.has_value());
  ASSERT_EQ(barrier->status, 200);

  const obs::MetricsSnapshot snap = srv_->metrics_snapshot();
  // The whole burst ran shard-affine on the loop thread...
  EXPECT_GE(snap.counter("oak_wire_affine_ingests_total"),
            static_cast<std::uint64_t>(kPipelined + 1));
  // ...and its responses coalesced: at least one gathered write carried
  // more than one response buffer (the burst flush; the barrier request
  // adds one single-buffer write, which keeps the inequality strict).
  EXPECT_GT(snap.counter("oak_wire_writev_buffers_total"),
            snap.counter("oak_wire_writev_calls_total"));
}

TEST_F(WireFixture, AffineIngestOffFallsBackToWorkerPool) {
  WireConfig wc;
  wc.affine_ingest = false;
  boot(wc);
  BlockingClient cli = client();
  auto resp =
      cli.request("POST", "/oak/report", {{"Host", "busy.com"}}, report_wire());
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 204);
  EXPECT_EQ(oak_->reports_processed(), 1u);
  const obs::MetricsSnapshot snap = srv_->metrics_snapshot();
  EXPECT_EQ(snap.counter("oak_wire_affine_ingests_total"), 0u);
}

TEST_F(WireFixture, IPv6LoopbackListenerServes) {
  WireConfig wc;
  wc.bind_addr = "::1";
  wc.loops = 2;
  try {
    boot(wc);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "IPv6 loopback unavailable: " << e.what();
  }
  BlockingClient cli;
  ASSERT_TRUE(cli.connect("::1", srv_->port(), 5.0));
  auto page = cli.request("GET", site_.index_path, {{"Host", "busy.com"}});
  ASSERT_TRUE(page.has_value());
  EXPECT_EQ(page->status, 200);
  auto rep = cli.request("POST", "/oak/report", {{"Host", "busy.com"}},
                         report_wire());
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->status, 204);
  EXPECT_EQ(oak_->reports_processed(), 1u);
}

}  // namespace
}  // namespace oak::wire
