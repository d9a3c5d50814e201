// oak::durability functional coverage: journal encode/scan round-trips,
// torn-tail handling, the manifest/snapshot version gates, legacy (pre-
// journal) snapshot upgrade, compaction, shard-count pinning, and the core
// promise — a restart reproduces the uninterrupted server's export_state()
// byte for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/durability.h"
#include "core/sharded_server.h"
#include "http/cookies.h"
#include "util/framing.h"

namespace oak::core {
namespace {

namespace fs = std::filesystem;
using durability::Record;
using durability::RecordKind;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Fresh per-test scratch directory under the gtest temp root.
class DurabilityFixture : public ::testing::Test {
 protected:
  DurabilityFixture()
      : universe_(net::NetworkConfig{.seed = 17, .horizon_s = 0}) {
    dir_ = fs::path(::testing::TempDir()) /
           ("oak_dur_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);

    net::Network& net = universe_.network();
    origin_ = net.add_server(net::ServerConfig{.name = "origin"});
    universe_.dns().bind("busy.com", net.server(origin_).addr());
    for (const char* host : {"x0.net", "x1.net", "x2.net", "x3.net",
                             "alt.net"}) {
      net::ServerId sid = net.add_server(net::ServerConfig{});
      universe_.dns().bind(host, net.server(sid).addr());
      ips_[host] = net.server(sid).addr().to_string();
    }
    page::SiteBuilder b(universe_, "busy.com", origin_);
    for (int i = 0; i < 4; ++i) {
      b.add_direct("x" + std::to_string(i) + ".net", "/o.js",
                   html::RefKind::kScript, 9000, page::Category::kCdn);
    }
    site_ = b.finish();
    universe_.store().replicate("http://x0.net/o.js", "http://alt.net/o.js");
    cfg_.detector.min_population = 4;
  }

  ~DurabilityFixture() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  OakConfig durable_config() const {
    OakConfig cfg = cfg_;
    cfg.durability.enabled = true;
    cfg.durability.dir = dir_.string();
    return cfg;
  }

  Rule the_rule() const {
    return make_domain_rule("direct", "x0.net", {"alt.net"});
  }

  std::string report_wire() {
    browser::PerfReport r;
    r.page_url = site_.index_url();
    r.entries.push_back(
        {site_.index_url(), "busy.com", "10.0.0.1", 4000, 0, 0.09});
    for (int i = 0; i < 4; ++i) {
      const std::string host = "x" + std::to_string(i) + ".net";
      r.entries.push_back({"http://" + host + "/o.js", host, ips_[host], 9000,
                           0.1, i == 0 ? 4.0 : 0.10 + 0.01 * i});
    }
    return r.serialize();
  }

  // One user's page-serve + report tick against any server type.
  template <typename ServerT>
  void drive(ServerT& server, const std::string& uid, double t,
             const std::string& wire) {
    const std::string cookie = std::string(http::kOakUserCookie) + "=" + uid;
    http::Request get = http::Request::get(site_.index_url());
    get.headers.set("Cookie", cookie);
    ASSERT_TRUE(server.handle(get, t).ok());
    http::Request post =
        http::Request::post("http://busy.com/oak/report", wire);
    post.headers.set("Cookie", cookie);
    ASSERT_LT(server.handle(post, t + 0.5).status, 400);
  }

  template <typename ServerT>
  void run_workload(ServerT& server) {
    const std::string wire = report_wire();
    for (int tick = 0; tick < 6; ++tick) {
      for (int u = 0; u < 5; ++u) {
        drive(server, "user" + std::to_string(u), double(tick), wire);
      }
    }
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  std::map<std::string, std::string> ips_;
  page::Site site_;
  OakConfig cfg_;
  fs::path dir_;
};

TEST(DurabilityRecords, EncodeDecodeRoundTrip) {
  Record req;
  req.kind = RecordKind::kRequest;
  req.request = {42, 1.5, true, 7, "u7", "10.0.0.9",
                 "http://busy.com/oak/report", std::string("body\0bytes", 10)};
  Record add;
  add.kind = RecordKind::kAddRule;
  add.add_rule = {43, 3, "rule text\n"};
  Record rem;
  rem.kind = RecordKind::kRemoveRule;
  rem.remove_rule = {44, 9.25, 3};

  for (const Record& r : {req, add, rem}) {
    Record out;
    ASSERT_TRUE(durability::decode_record(durability::encode_record(r), out));
    EXPECT_EQ(out.kind, r.kind);
    EXPECT_EQ(out.seq(), r.seq());
  }
  Record out;
  ASSERT_TRUE(durability::decode_record(durability::encode_record(req), out));
  EXPECT_EQ(out.request.now, 1.5);
  EXPECT_TRUE(out.request.post);
  EXPECT_EQ(out.request.minted, 7u);
  EXPECT_EQ(out.request.uid, "u7");
  EXPECT_EQ(out.request.client_ip, "10.0.0.9");
  EXPECT_EQ(out.request.path, "http://busy.com/oak/report");
  EXPECT_EQ(out.request.body, std::string("body\0bytes", 10));

  // Trailing garbage after a well-formed record is corruption, not slack.
  std::string padded = durability::encode_record(rem) + "x";
  EXPECT_FALSE(durability::decode_record(padded, out));
  EXPECT_FALSE(durability::decode_record("", out));
  EXPECT_FALSE(durability::decode_record("\x09", out));  // unknown kind
}

TEST_F(DurabilityFixture, JournalScanStopsCleanAtTornTail) {
  fs::create_directories(dir_);
  const std::string path = (dir_ / "wal-test.log").string();
  std::vector<std::string> payloads;
  {
    durability::Journal j(path, durability::PosixFile::open_append(path), 0);
    for (int i = 0; i < 5; ++i) {
      Record r;
      r.kind = RecordKind::kRequest;
      r.request.seq = std::uint64_t(i) + 1;
      r.request.uid = "user" + std::to_string(i);
      r.request.path = "http://busy.com/";
      payloads.push_back(durability::encode_record(r));
      j.append(payloads.back());
    }
  }
  const std::string whole = read_file(path);

  // Clean scan: all five records, fully consumed, not torn.
  auto scan = durability::scan_journal_file(path, 0);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.bytes_consumed, whole.size());
  EXPECT_FALSE(scan.torn);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(scan.records[std::size_t(i)].seq(), std::uint64_t(i) + 1);
  }

  // Scan from a mid-file offset replays only the suffix.
  std::size_t third_start = 0;
  {
    std::size_t pos = 0;
    std::string_view p;
    ASSERT_EQ(util::read_frame(whole, pos, p), util::FrameStatus::kOk);
    ASSERT_EQ(util::read_frame(whole, pos, p), util::FrameStatus::kOk);
    third_start = pos;
  }
  scan = durability::scan_journal_file(path, third_start);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].seq(), 3u);

  // Cut the file at every byte inside the last record: the first four must
  // always survive, the tail must read as torn, never as a fifth record
  // with different contents.
  std::size_t fourth_end = 0;
  {
    std::size_t pos = 0;
    std::string_view p;
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(util::read_frame(whole, pos, p), util::FrameStatus::kOk);
    }
    fourth_end = pos;
  }
  for (std::size_t cut = fourth_end; cut < whole.size(); ++cut) {
    write_file(path, whole.substr(0, cut));
    scan = durability::scan_journal_file(path, 0);
    EXPECT_EQ(scan.records.size(), 4u) << cut;
    EXPECT_EQ(scan.bytes_consumed, fourth_end) << cut;
    EXPECT_EQ(scan.torn, cut != fourth_end) << cut;
  }

  // Offset past EOF (the compaction crash window): empty suffix, no error.
  write_file(path, whole.substr(0, fourth_end));
  scan = durability::scan_journal_file(path, whole.size() + 100);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_FALSE(scan.torn);

  // Missing file: empty suffix.
  scan = durability::scan_journal_file((dir_ / "absent.log").string(), 0);
  EXPECT_TRUE(scan.records.empty());
}

TEST_F(DurabilityFixture, RestartReproducesExportByteForByte) {
  const std::string oracle = [&] {
    ShardedOakServer plain(universe_, "busy.com", cfg_, 4);
    plain.add_rule(the_rule());
    run_workload(plain);
    return plain.export_state().dump();
  }();

  {
    ShardedOakServer durable(universe_, "busy.com", durable_config(), 4);
    durable.add_rule(the_rule());
    run_workload(durable);
    EXPECT_EQ(durable.export_state().dump(), oracle);
    // No shutdown hook, no final compaction: everything past the bootstrap
    // snapshot lives only in the journals, exactly like a kill -9.
  }

  ShardedOakServer recovered(universe_, "busy.com", durable_config(), 4);
  const durability::RecoveryReport report = recovered.recovery_report();
  EXPECT_TRUE(report.performed);
  EXPECT_FALSE(report.legacy);
  EXPECT_FALSE(report.bootstrapped);
  EXPECT_GT(report.records_replayed, 0u);
  EXPECT_EQ(report.rules_loaded, 0u);  // rule arrived via the control journal
  EXPECT_EQ(recovered.export_state().dump(), oracle);
  ASSERT_EQ(recovered.rules().size(), 1u);
  EXPECT_EQ(recovered.rules()[0].id, 1);

  // The recovered server is live: more traffic, then another restart.
  drive(recovered, "user1", 50.0, report_wire());
  const std::string extended = recovered.export_state().dump();
  ShardedOakServer again(universe_, "busy.com", durable_config(), 4);
  EXPECT_EQ(again.export_state().dump(), extended);
}

TEST_F(DurabilityFixture, FreshMintSurvivesRestartEvenWhenUntracked) {
  {
    ShardedOakServer durable(universe_, "busy.com", durable_config(), 4);
    // A cookie-less request that 404s: no profile is kept, no Set-Cookie
    // goes out — but the mint must still be durable or the next incarnation
    // would hand the same uid to a different person.
    http::Request missing = http::Request::get("http://busy.com/absent");
    EXPECT_EQ(durable.handle(missing, 1.0).status, 404);
    EXPECT_EQ(durable.user_count(), 0u);
    EXPECT_EQ(durable.export_state().at("next_user").as_int(), 2);
  }
  ShardedOakServer recovered(universe_, "busy.com", durable_config(), 4);
  EXPECT_EQ(recovered.export_state().at("next_user").as_int(), 2);
}

TEST_F(DurabilityFixture, RuleChurnReplaysInOrder) {
  const std::string wire = report_wire();
  auto churn = [&](ShardedOakServer& s) {
    const int id = s.add_rule(the_rule());
    for (int u = 0; u < 5; ++u) drive(s, "user" + std::to_string(u), 0, wire);
    EXPECT_TRUE(s.remove_rule(id, 1.0));
    for (int u = 0; u < 5; ++u) drive(s, "user" + std::to_string(u), 2, wire);
    // Re-added after removal: must get a fresh id, not recycle the old one.
    const int id2 = s.add_rule(the_rule());
    EXPECT_GT(id2, id);
    for (int u = 0; u < 5; ++u) drive(s, "user" + std::to_string(u), 3, wire);
  };

  const std::string oracle = [&] {
    ShardedOakServer plain(universe_, "busy.com", cfg_, 4);
    churn(plain);
    return plain.export_state().dump();
  }();
  {
    ShardedOakServer durable(universe_, "busy.com", durable_config(), 4);
    churn(durable);
    EXPECT_EQ(durable.export_state().dump(), oracle);
  }
  ShardedOakServer recovered(universe_, "busy.com", durable_config(), 4);
  EXPECT_EQ(recovered.export_state().dump(), oracle);
  ASSERT_EQ(recovered.rules().size(), 1u);
  EXPECT_EQ(recovered.rules()[0].id, 2);
  // And the id allocator is past both historical ids.
  EXPECT_EQ(recovered.add_rule(make_domain_rule("next", "x1.net", {"alt.net"})),
            3);
}

TEST_F(DurabilityFixture, CompactionTruncatesJournalsAndBumpsEpoch) {
  OakConfig cfg = durable_config();
  // Tiny threshold: the workload crosses it many times; the compacting_
  // flag keeps the passes serialized.
  cfg.durability.compact_threshold_bytes = 1;

  const std::string oracle = [&] {
    ShardedOakServer plain(universe_, "busy.com", cfg_, 4);
    plain.add_rule(the_rule());
    run_workload(plain);
    return plain.export_state().dump();
  }();

  std::uint64_t final_epoch = 0;
  {
    ShardedOakServer durable(universe_, "busy.com", cfg, 4);
    durable.add_rule(the_rule());
    run_workload(durable);
    EXPECT_EQ(durable.export_state().dump(), oracle);
    const auto snap = durable.metrics_snapshot();
    auto it = snap.counters.find("oak_journal_compactions_total");
    ASSERT_NE(it, snap.counters.end());
    EXPECT_GE(it->second, 2u);  // bootstrap + at least one threshold pass
    final_epoch = std::uint64_t(snap.gauges.at("oak_journal_epoch"));
    EXPECT_GE(final_epoch, 2u);
  }

  // On disk: one snapshot for the final epoch, a manifest pointing at it.
  const auto manifest = durability::Manifest::from_json(
      util::Json::parse(read_file((dir_ / "MANIFEST").string())));
  EXPECT_EQ(manifest.epoch, final_epoch);
  EXPECT_EQ(manifest.shards, 4u);
  EXPECT_TRUE(fs::exists(dir_ / manifest.snapshot_file));
  EXPECT_FALSE(
      fs::exists(dir_ / ("snapshot-" + std::to_string(final_epoch - 1) +
                         ".json")));

  ShardedOakServer recovered(universe_, "busy.com", cfg, 4);
  EXPECT_EQ(recovered.export_state().dump(), oracle);
  EXPECT_EQ(recovered.recovery_report().rules_loaded, 1u);
}

TEST_F(DurabilityFixture, NewerManifestVersionIsRejected) {
  {
    ShardedOakServer durable(universe_, "busy.com", durable_config(), 4);
    run_workload(durable);
  }
  util::Json manifest =
      util::Json::parse(read_file((dir_ / "MANIFEST").string()));
  manifest["format_version"] = durability::kManifestFormatVersion + 1;
  write_file((dir_ / "MANIFEST").string(), manifest.dump());
  EXPECT_THROW(ShardedOakServer(universe_, "busy.com", durable_config(), 4),
               std::runtime_error);
}

TEST_F(DurabilityFixture, NewerSnapshotEnvelopeVersionIsRejected) {
  {
    ShardedOakServer durable(universe_, "busy.com", durable_config(), 4);
    run_workload(durable);
  }
  const auto manifest = durability::Manifest::from_json(
      util::Json::parse(read_file((dir_ / "MANIFEST").string())));
  const std::string snap_path = (dir_ / manifest.snapshot_file).string();
  util::Json env = util::Json::parse(read_file(snap_path));
  env["envelope_version"] = durability::kSnapshotEnvelopeVersion + 1;
  write_file(snap_path, env.dump());
  EXPECT_THROW(ShardedOakServer(universe_, "busy.com", durable_config(), 4),
               std::runtime_error);
}

// Pin the on-disk format versions: bumping either is a compatibility event
// that must be deliberate (and come with an upgrade path), not a side
// effect of a refactor.
TEST(DurabilityVersioning, FormatVersionsArePinned) {
  EXPECT_EQ(durability::kManifestFormatVersion, 1);
  EXPECT_EQ(durability::kSnapshotEnvelopeVersion, 1);
}

TEST_F(DurabilityFixture, LegacyBareSnapshotLoadsAsDegradedColdStart) {
  // A PR-era deployment persisted raw export_state() JSON with no manifest,
  // no rules, no journals. Recovery must accept it: state restored, rules
  // left to operator configuration, journal baseline committed on the spot.
  const std::string legacy = [&] {
    ShardedOakServer plain(universe_, "busy.com", cfg_, 4);
    plain.add_rule(the_rule());
    run_workload(plain);
    return plain.export_state().dump();
  }();
  fs::create_directories(dir_);
  write_file((dir_ / "snapshot.json").string(), legacy);

  ShardedOakServer upgraded(universe_, "busy.com", durable_config(), 4);
  const durability::RecoveryReport report = upgraded.recovery_report();
  EXPECT_TRUE(report.performed);
  EXPECT_TRUE(report.legacy);
  EXPECT_TRUE(report.bootstrapped);
  EXPECT_EQ(report.records_replayed, 0u);
  // Degraded: user state is back…
  EXPECT_EQ(upgraded.export_state().dump(), legacy);
  // …but rules are configuration, re-added by the operator as before.
  EXPECT_TRUE(upgraded.rules().empty());
  upgraded.add_rule(the_rule());
  run_workload(upgraded);
  const std::string extended = upgraded.export_state().dump();

  // The upgrade is one-way: the next restart recovers through the manifest.
  ShardedOakServer next(universe_, "busy.com", durable_config(), 4);
  EXPECT_FALSE(next.recovery_report().legacy);
  EXPECT_EQ(next.export_state().dump(), extended);
}

TEST_F(DurabilityFixture, ShardCountMismatchIsRejected) {
  {
    ShardedOakServer durable(universe_, "busy.com", durable_config(), 4);
    run_workload(durable);
  }
  // Journals are per shard and the uid→shard map depends on the count, so
  // recovery refuses to guess; resizing goes through export/import.
  EXPECT_THROW(ShardedOakServer(universe_, "busy.com", durable_config(), 8),
               std::runtime_error);
  ShardedOakServer same(universe_, "busy.com", durable_config(), 4);
  EXPECT_TRUE(same.recovery_report().performed);
}

TEST_F(DurabilityFixture, JournalMetricsAreExported) {
  ShardedOakServer durable(universe_, "busy.com", durable_config(), 4);
  durable.add_rule(the_rule());
  run_workload(durable);
  const auto snap = durable.metrics_snapshot();
  EXPECT_GT(snap.counters.at("oak_journal_appends_total"), 0u);
  EXPECT_GT(snap.gauges.at("oak_journal_live_bytes"), 0.0);
  EXPECT_EQ(snap.counters.at("oak_journal_compactions_total"), 1u);
  ASSERT_TRUE(snap.histograms.count("oak_journal_append_bytes"));
  EXPECT_GT(snap.histograms.at("oak_journal_append_bytes").count(), 0u);
  // Compaction cost: one timed pass (the bootstrap), and the size of the
  // snapshot it wrote.
  ASSERT_TRUE(snap.histograms.count("oak_journal_compact_seconds"));
  EXPECT_EQ(snap.histograms.at("oak_journal_compact_seconds").count(), 1u);
  EXPECT_EQ(snap.gauges.at("oak_journal_snapshot_bytes"),
            double(fs::file_size(dir_ / "snapshot-1.json")));
  durable.compact();
  const auto after = durable.metrics_snapshot();
  EXPECT_EQ(after.histograms.at("oak_journal_compact_seconds").count(), 2u);
  EXPECT_EQ(after.gauges.at("oak_journal_snapshot_bytes"),
            double(fs::file_size(dir_ / "snapshot-2.json")));

  // With metrics off the journal still works, it just reports nothing.
  OakConfig quiet = durable_config();
  quiet.metrics = false;
  quiet.durability.dir = (dir_ / "quiet").string();
  ShardedOakServer silent(universe_, "busy.com", quiet, 2);
  silent.add_rule(the_rule());
  run_workload(silent);
  const auto empty = silent.metrics_snapshot();
  EXPECT_EQ(empty.counters.count("oak_journal_appends_total"), 0u);
  ShardedOakServer silent_back(universe_, "busy.com", quiet, 2);
  EXPECT_EQ(silent_back.export_state().dump(),
            silent.export_state().dump());
}

// A compaction that throws (disk trouble mid-snapshot) must not wedge the
// compacting_ flag: the failure is counted, serving continues, and a later
// pass — once the disk recovers — compacts successfully. The fault is a
// directory squatting on the snapshot's tmp path, which makes the atomic
// write's fopen fail deterministically.
TEST_F(DurabilityFixture, ThrowingCompactionDoesNotWedgeCompaction) {
  OakConfig cfg = durable_config();
  cfg.durability.compact_threshold_bytes = 1;  // every report trips a pass

  ShardedOakServer durable(universe_, "busy.com", cfg, 4);
  durable.add_rule(the_rule());
  // Bootstrap compaction already ran: epoch 1 on disk. The next pass will
  // try to stage snapshot-2.json.tmp — block it.
  ASSERT_TRUE(fs::exists(dir_ / "snapshot-1.json"));
  fs::create_directories(dir_ / "snapshot-2.json.tmp");

  run_workload(durable);
  const auto broken = durable.metrics_snapshot();
  EXPECT_GE(broken.counter("oak_compact_failures_total"), 1u);
  // Still epoch 1: no pass succeeded while the tmp path was blocked.
  EXPECT_FALSE(fs::exists(dir_ / "snapshot-2.json"));

  // "Disk" recovers. If a throwing pass had left compacting_ stuck true,
  // no further compaction could ever run; instead the next report's pass
  // succeeds and the epoch advances.
  fs::remove_all(dir_ / "snapshot-2.json.tmp");
  const std::string wire = report_wire();
  drive(durable, "user0", 100.0, wire);
  const auto manifest = durability::Manifest::from_json(
      util::Json::parse(read_file((dir_ / "MANIFEST").string())));
  EXPECT_GE(manifest.epoch, 2u);
  EXPECT_TRUE(fs::exists(dir_ / manifest.snapshot_file));
  const auto healed = durable.metrics_snapshot();
  EXPECT_GE(healed.counter("oak_journal_compactions_total"), 2u);

  // The failed passes never corrupted recovery state.
  ShardedOakServer recovered(universe_, "busy.com", cfg, 4);
  EXPECT_EQ(recovered.export_state().dump(), durable.export_state().dump());
}

}  // namespace
}  // namespace oak::core
