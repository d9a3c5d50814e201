// The snapshot file is a format: its bytes are pinned by a checked-in
// fixture (tests/data/snapshot_fixture.json), written from a 4-shard tiered
// server with racing, cooldown and replay-context state, escaped and
// non-ASCII strings, uids whose string order differs from their numeric
// order, equal timestamps on different shards and one shard whose own log
// runs backwards in time. A server that recovers from the fixture must
// compact back to the same bytes, and so must a server driven live to the
// same state. Around that: hostile snapshot input (every sampled
// truncation, a byte-flip corpus, over-deep nesting) must fail startup
// with an exception, and a failed import must leave every shard as it was.
//
// When the live-driven bytes differ from the fixture, the test leaves them
// in the gtest temp dir (snapshot_fixture.actual.json) and names the path;
// that file is how the fixture was made.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/durability.h"
#include "core/sharded_server.h"
#include "http/cookies.h"

namespace oak::core {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kShards = 4;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const fs::path kFixture = fs::path(OAK_TEST_DATA_DIR) / "snapshot_fixture.json";

class SnapshotStream : public ::testing::Test {
 protected:
  SnapshotStream() : universe_(net::NetworkConfig{.seed = 17, .horizon_s = 0}) {
    dir_ = fs::path(::testing::TempDir()) /
           ("oak_snapshot_stream_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    net::Network& net = universe_.network();
    origin_ = net.add_server(net::ServerConfig{.name = "origin"});
    universe_.dns().bind("busy.com", net.server(origin_).addr());
    for (const char* host : {"x0.net", "x1.net", "x2.net", "x3.net",
                             "alt.net", "alt2.net"}) {
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
    universe_.store().replicate("http://x2.net/o.js", "http://alt.net/o.js");

    cfg_.detector.min_population = 4;
    cfg_.policy.record_context = true;
    cfg_.policy.allow_reactivation = false;  // deactivations leave bans
    cfg_.user_store.hot_capacity = 2;        // most users live cold
    cfg_.durability.enabled = true;
    cfg_.durability.dir = (dir_ / "journal").string();
  }

  ~SnapshotStream() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::vector<Rule> rules() const {
    std::vector<Rule> r;
    r.push_back(make_domain_rule("x0", "x0.net", {"alt.net", "alt2.net"}));
    Rule pending = make_domain_rule("x1", "x1.net", {"alt.net"});
    pending.min_violations = 2;
    r.push_back(pending);
    Rule race = make_domain_rule("x2", "x2.net", {"alt.net", "alt2.net"});
    race.policy = "racing";
    r.push_back(race);
    Rule cool = make_domain_rule("x3", "x3.net", {"alt2.net"});
    cool.policy = "hysteresis";
    r.push_back(cool);
    return r;
  }

  std::string report(std::mt19937& rng) {
    browser::PerfReport r;
    r.page_url = site_.index_url();
    r.plt_s = 1.0 + double(rng() % 100) / 50.0;
    r.entries.push_back(
        {site_.index_url(), "busy.com", "10.0.0.1", 4000, 0, 0.09});
    for (const char* host :
         {"x0.net", "x1.net", "x2.net", "x3.net", "alt.net", "alt2.net"}) {
      const bool slow = rng() % 3 == 0;
      r.entries.push_back(
          {std::string("http://") + host + "/o.js", host, ips_[host], 9000,
           0.1, slow ? 3.0 + double(rng() % 100) / 40.0
                     : 0.10 + 0.01 * double(rng() % 5)});
    }
    return r.serialize();
  }

  http::Request request(bool post, const std::string& uid,
                        const std::string& client_ip, std::mt19937& rng) {
    http::Request req =
        post ? http::Request::post("http://busy.com/oak/report", report(rng))
             : http::Request::get(site_.index_url());
    req.headers.set("Cookie", std::string(http::kOakUserCookie) + "=" + uid);
    req.client_ip = client_ip;
    return req;
  }

  // The first uid of the form <prefix><n> that lands on `shard`.
  static std::string uid_on(const ShardedOakServer& s, const std::string& prefix,
                            std::size_t shard) {
    for (int n = 0;; ++n) {
      std::string uid = prefix + std::to_string(n);
      if (s.shard_for(uid) == shard) return uid;
    }
  }

  // Drives `s` (fresh, durable) to the fixture state and compacts it.
  void drive_fixture_state(ShardedOakServer& s) {
    s.add_rules(rules());
    std::mt19937 rng(4243);
    // u9 sorts after u10; the last two need escaping or are UTF-8.
    std::vector<std::string> uids;
    for (int i = 1; i <= 12; ++i) uids.push_back("u" + std::to_string(i));
    uids.push_back("u\"q\\\x01");
    uids.push_back("u\xc3\xa9\xe2\x82\xac");
    const std::vector<std::string> client_ips = {
        "10.0.0.7", "10.0.0.8\t\"\\/\x1f", "10.0.0.9 \xc3\xa9\xe2\x82\xac"};
    for (int step = 0; step < 160; ++step) {
      const std::string& uid = uids[rng() % uids.size()];
      const std::string& ip = client_ips[rng() % client_ips.size()];
      const bool post = rng() % 3 != 0;
      ASSERT_LT(s.handle(request(post, uid, ip, rng), double(step)).status,
                500);
    }
    // Equal timestamps on different shards: a page serve and a report for
    // a user of each shard, all at t = 400.
    for (std::size_t shard = 0; shard < kShards; ++shard) {
      const std::string uid = uid_on(s, "tie", shard);
      s.handle(request(true, uid, client_ips[0], rng), 400.0);
      s.handle(request(false, uid, client_ips[0], rng), 400.0);
    }
    // Shard 1's own log runs backwards: its records at t = 900 precede
    // those at t = 700.
    const std::string late = uid_on(s, "late", 1);
    for (double t : {900.0, 700.0}) {
      s.handle(request(true, late, client_ips[1], rng), t);
      s.handle(request(false, late, client_ips[1], rng), t);
    }
    const auto& log1 = s.shard(1).decision_log();
    ASSERT_FALSE(std::is_sorted(
        log1.contexts().begin(), log1.contexts().end(),
        [](const ReportContext& a, const ReportContext& b) {
          return a.time < b.time;
        }));
    s.compact();
  }

  // Lays the fixture down as the committed epoch-1 snapshot of a journal
  // directory with empty journals.
  void install_snapshot(const std::string& bytes) {
    fs::create_directories(cfg_.durability.dir);
    durability::Manifest m;
    m.epoch = 1;
    m.shards = kShards;
    m.snapshot_file = "snapshot-1.json";
    m.shard_offsets.assign(kShards, 0);
    write_file(fs::path(cfg_.durability.dir) / "MANIFEST", m.to_json().dump());
    write_file(fs::path(cfg_.durability.dir) / "snapshot-1.json", bytes);
  }

  std::string latest_snapshot() const {
    const auto m = durability::Manifest::from_json(util::Json::parse(
        read_file(fs::path(cfg_.durability.dir) / "MANIFEST")));
    return read_file(fs::path(cfg_.durability.dir) / m.snapshot_file);
  }

  // Startup from `bytes` must throw, and only a std::exception (whose
  // message contains `why`).
  void expect_startup_fails(const std::string& bytes, const std::string& what,
                            const std::string& why = "") {
    fs::remove_all(cfg_.durability.dir);
    install_snapshot(bytes);
    try {
      ShardedOakServer s(universe_, "busy.com", cfg_, kShards);
      ADD_FAILURE() << "startup accepted " << what;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << what << ": " << e.what();
    } catch (...) {
      ADD_FAILURE() << "non-std exception from " << what;
    }
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  std::map<std::string, std::string> ips_;
  page::Site site_;
  OakConfig cfg_;
  fs::path dir_;
};

TEST_F(SnapshotStream, FixtureCoversTheFormat) {
  const std::string fixture = read_file(kFixture);
  ASSERT_FALSE(fixture.empty()) << kFixture;
  for (const char* needle :
       {"\"race\":", "\"cooldown\":", "\"contexts\":", "\"pending\":{\"",
        "\"banned\":[", "\"serve\":true", "\\u0001", "\\t\\\"\\\\/\\u001f",
        "\xc3\xa9\xe2\x82\xac"}) {
    EXPECT_NE(fixture.find(needle), std::string::npos) << needle;
  }
  // String order, not numeric order.
  EXPECT_LT(fixture.find("\"u10\":"), fixture.find("\"u9\":"));
}

TEST_F(SnapshotStream, RecoveredFixtureCompactsToTheSameBytes) {
  const std::string fixture = read_file(kFixture);
  ASSERT_FALSE(fixture.empty()) << kFixture;
  install_snapshot(fixture);
  ShardedOakServer s(universe_, "busy.com", cfg_, kShards);
  EXPECT_GT(s.shard(0).user_store().cold_count(), 0u);
  s.compact();
  EXPECT_EQ(latest_snapshot(), fixture);
}

TEST_F(SnapshotStream, LiveStateCompactsToTheFixtureBytes) {
  ShardedOakServer s(universe_, "busy.com", cfg_, kShards);
  drive_fixture_state(s);
  const std::string bytes = latest_snapshot();
  const std::string fixture = read_file(kFixture);
  if (bytes != fixture) {
    const fs::path actual =
        fs::path(::testing::TempDir()) / "snapshot_fixture.actual.json";
    write_file(actual, bytes);
    ADD_FAILURE() << "snapshot bytes differ from " << kFixture
                  << "; this run's bytes are in " << actual;
  }
  // The JSON view is the parse of the same bytes.
  const std::string state = bytes.substr(bytes.find("\"state\":") + 8);
  EXPECT_EQ(s.export_state().dump() + "}", state);
}

// Random traffic (times out of order, any shard count): the streamed
// snapshot is a fixed point of parse + dump, so its key order and number
// formatting are dump()'s.
TEST_F(SnapshotStream, RandomStatesStreamAsTheirParsedDump) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    std::mt19937 rng(seed);
    fs::remove_all(cfg_.durability.dir);
    const std::size_t shards = 1 + seed % 5;
    ShardedOakServer s(universe_, "busy.com", cfg_, shards);
    s.add_rules(rules());
    for (int step = 0; step < 80; ++step) {
      const std::string uid = "r" + std::to_string(rng() % 30);
      const double t = double(rng() % 200) + double(rng() % 1000) / 1e4;
      s.handle(request(rng() % 3 != 0, uid, "10.0.0." + std::to_string(seed),
                       rng),
               t);
    }
    s.compact();
    const std::string bytes = latest_snapshot();
    EXPECT_EQ(util::Json::parse(bytes).dump(), bytes) << "seed " << seed;
  }
}

TEST_F(SnapshotStream, TruncatedSnapshotsFailStartup) {
  const std::string fixture = read_file(kFixture);
  ASSERT_FALSE(fixture.empty()) << kFixture;
  // Every prefix near both ends, and an even sample of the middle.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 64 && n < fixture.size(); ++n) {
    cuts.push_back(n);
    cuts.push_back(fixture.size() - 1 - n);
  }
  for (std::size_t n = 64; n + 64 < fixture.size(); n += fixture.size() / 150) {
    cuts.push_back(n);
  }
  for (std::size_t cut : cuts) {
    expect_startup_fails(fixture.substr(0, cut),
                         "a " + std::to_string(cut) + "-byte prefix");
  }
  // A directory where the snapshot file should be reads as empty.
  fs::remove_all(cfg_.durability.dir);
  install_snapshot(fixture);
  const fs::path snap = fs::path(cfg_.durability.dir) / "snapshot-1.json";
  fs::remove(snap);
  fs::create_directories(snap);
  EXPECT_THROW(ShardedOakServer s(universe_, "busy.com", cfg_, kShards),
               util::JsonError);
}

// The reader takes members in the order the writer emits them (every
// JsonObject dump's order): out-of-order users, or a member the reader
// passed, are errors.
TEST_F(SnapshotStream, MisorderedMembersFailStartup) {
  std::string fixture = read_file(kFixture);
  ASSERT_FALSE(fixture.empty()) << kFixture;
  std::string bytes = fixture;
  const std::size_t u10 = bytes.find("\"u10\":");
  ASSERT_NE(u10, std::string::npos);
  bytes.replace(u10, 6, "\"u99\":");  // now sorts after u11
  expect_startup_fails(bytes, "users out of order", "users out of order");
  bytes = fixture;
  const std::size_t holdback = bytes.find("\"holdback\":");
  ASSERT_NE(holdback, std::string::npos);
  bytes.replace(holdback, 11, "\"zholdback\":");
  expect_startup_fails(bytes, "a renamed member", "missing key 'holdback'");
}

TEST_F(SnapshotStream, ByteFlipsFailCleanlyOrRecover) {
  const std::string fixture = read_file(kFixture);
  ASSERT_FALSE(fixture.empty()) << kFixture;
  std::mt19937 rng(20261019);
  int rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes = fixture;
    const std::size_t pos = rng() % bytes.size();
    bytes[pos] = static_cast<char>(bytes[pos] ^ (1 + rng() % 255));
    fs::remove_all(cfg_.durability.dir);
    install_snapshot(bytes);
    try {
      // A flip inside a string or a digit can still be a valid snapshot;
      // then the server must come up and compact like any other.
      ShardedOakServer s(universe_, "busy.com", cfg_, kShards);
      s.compact();
    } catch (const std::exception&) {
      ++rejected;
    } catch (...) {
      ADD_FAILURE() << "non-std exception, flip at " << pos;
    }
  }
  EXPECT_GT(rejected, 50);  // the corpus does reach the error paths
}

TEST_F(SnapshotStream, OverDeepNestingIsRejected) {
  const std::string fixture = read_file(kFixture);
  ASSERT_FALSE(fixture.empty()) << kFixture;
  const std::string deep = std::string(util::kMaxJsonDepth, '[') +
                           std::string(util::kMaxJsonDepth, ']');
  // An unknown member (named to sort first, where a reader meets it) of
  // the envelope, and one inside the state.
  expect_startup_fails("{\"a\":" + deep + "," + fixture.substr(1),
                       "deep envelope member", "nesting too deep");
  const std::size_t state = fixture.find("\"state\":{") + 9;
  expect_startup_fails(
      fixture.substr(0, state) + "\"a\":" + deep + "," + fixture.substr(state),
      "deep state member", "nesting too deep");
  // One level less is accepted: skipped like any unknown member.
  const std::string ok = std::string(util::kMaxJsonDepth - 2, '[') +
                         std::string(util::kMaxJsonDepth - 2, ']');
  install_snapshot(fixture.substr(0, state) + "\"a\":" + ok + "," +
                   fixture.substr(state));
  ShardedOakServer s(universe_, "busy.com", cfg_, kShards);
  s.compact();
  EXPECT_EQ(latest_snapshot(), fixture);
}

TEST_F(SnapshotStream, FailedImportLeavesEveryShardAsItWas) {
  ShardedOakServer s(universe_, "busy.com", cfg_, kShards);
  drive_fixture_state(s);
  const std::string before = s.export_state().dump();
  util::Json bad = s.export_state();
  // Valid JSON, invalid state, as late in the document as possible: the
  // last user (string order) lacks a member, after every other user and
  // the whole log decoded.
  util::JsonObject& users = bad["users"].as_object();
  users.rbegin()->second.as_object().erase("holdback");
  EXPECT_THROW(s.import_state(bad), util::JsonError);
  EXPECT_EQ(s.export_state().dump(), before);
  // Same for a racing cohort that names neither alternative.
  bad = s.export_state();
  for (auto& [uid, u] : bad["users"].as_object()) {
    if (const util::Json* race = u.find("race")) {
      util::Json edited = *race;
      edited.as_array().back()["cohort"] = 7;
      u["race"] = edited;
    }
  }
  EXPECT_THROW(s.import_state(bad), util::JsonError);
  EXPECT_EQ(s.export_state().dump(), before);
}

}  // namespace
}  // namespace oak::core
