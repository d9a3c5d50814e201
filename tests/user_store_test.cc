// TieredUserStore (core/user_store.h): the contract under test is
// *transparency* — a profile that was demoted to the cold spill file and
// faulted back must be indistinguishable, byte-for-byte in export_state(),
// from one that never left the hot tier. Plus the supporting invariants:
// bounded hot tier, bit-exact codec, sorted hot+cold visitation, garbage
// compaction, and pointer discipline under churn (the ASan stress).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_server.h"
#include "core/user_store.h"
#include "http/cookies.h"

namespace oak::core {
namespace {

UserProfile sample_profile(const std::string& uid) {
  UserProfile p;
  p.user_id = uid;
  p.client_ip = "10.1.2.3";
  p.reports_received = 17;
  p.pages_served = 123456789;
  p.plt_sum_s = 0.1 + 0.2;  // not representable exactly: bit-exactness matters
  p.plt_count = 3;
  p.holdback = true;
  ActiveRule ar;
  ar.rule_id = 42;
  ar.alternative_index = 2;
  ar.activated_at = 1e-17;
  ar.expires_at = 9.75e300;
  ar.violation_distance = 3.999999999999999;
  ar.violator_ip = "203.0.113.9";
  p.active.insert_or_assign(42, ar);
  ActiveRule ar2;
  ar2.rule_id = -7;  // negative ids survive zigzag
  p.active.insert_or_assign(-7, ar2);
  p.pending_violations.insert_or_assign(5, 2);
  p.next_alternative.insert_or_assign(42, std::size_t(3));
  p.banned.insert(13);
  p.banned.insert(-1);
  return p;
}

TEST(UserStoreCodec, RoundTripIsBitExact) {
  const UserProfile original = sample_profile("u99");
  std::string bytes;
  encode_profile(original, bytes);
  UserProfile decoded;
  ASSERT_TRUE(decode_profile(bytes, decoded));
  decoded.user_id = original.user_id;  // uid travels beside the blob
  // Field spot checks...
  EXPECT_EQ(decoded.client_ip, original.client_ip);
  EXPECT_EQ(decoded.reports_received, original.reports_received);
  EXPECT_EQ(decoded.plt_count, original.plt_count);
  EXPECT_EQ(decoded.holdback, original.holdback);
  ASSERT_EQ(decoded.active.size(), 2u);
  EXPECT_EQ(decoded.active.at(42).violator_ip, "203.0.113.9");
  EXPECT_EQ(decoded.banned.count(-1), 1u);
  // ...and the real contract: re-encoding reproduces the identical bytes,
  // doubles included.
  std::string bytes2;
  encode_profile(decoded, bytes2);
  EXPECT_EQ(bytes, bytes2);
}

TEST(UserStoreCodec, TruncatedInputIsRejected) {
  const UserProfile original = sample_profile("u1");
  std::string bytes;
  encode_profile(original, bytes);
  UserProfile scratch;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_profile(std::string_view(bytes).substr(0, cut),
                                scratch))
        << "cut=" << cut;
  }
  // Trailing garbage is rejected too (pos must land exactly at the end).
  EXPECT_FALSE(decode_profile(bytes + "x", scratch));
}

TEST(UserStore, UntieredKeepsEverythingHot) {
  TieredUserStore store;  // hot_capacity = 0
  EXPECT_FALSE(store.tiered());
  for (int i = 0; i < 100; ++i) {
    store.get_or_create("u" + std::to_string(i), double(i));
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.hot_count(), 100u);
  EXPECT_EQ(store.cold_count(), 0u);
  EXPECT_EQ(store.stats().demotions, 0u);
  EXPECT_EQ(store.cold_file_bytes(), 0u);
  EXPECT_EQ(store.find("unknown", 0.0, true), nullptr);
  EXPECT_EQ(store.demote_lru(), 0u);
  EXPECT_EQ(store.demote_idle(1e9), 0u);
}

TEST(UserStore, DemotesAtCapacityAndFaultsBackIn) {
  UserStoreConfig cfg;
  cfg.hot_capacity = 4;
  cfg.cold_buckets = 64;
  TieredUserStore store(cfg);
  for (int i = 0; i < 10; ++i) {
    UserProfile& p = store.get_or_create("u" + std::to_string(i), double(i));
    p.pages_served = std::size_t(i) + 1;
    p.plt_sum_s = 0.5 * double(i);
    p.plt_count = 1;
  }
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.hot_count(), 4u);
  EXPECT_EQ(store.cold_count(), 6u);
  EXPECT_GE(store.stats().demotions, 6u);
  // Every user — demoted or not — comes back with identical state.
  for (int i = 0; i < 10; ++i) {
    UserProfile* p = store.find("u" + std::to_string(i), 100.0, true);
    ASSERT_NE(p, nullptr) << i;
    EXPECT_EQ(p->user_id, "u" + std::to_string(i));
    EXPECT_EQ(p->pages_served, std::size_t(i) + 1);
    EXPECT_EQ(p->plt_count, 1u);
  }
  EXPECT_GT(store.stats().faultins, 0u);
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.find("never-seen", 0.0, true), nullptr);
}

TEST(UserStore, SortedVisitationCoversBothTiers) {
  UserStoreConfig cfg;
  cfg.hot_capacity = 3;
  TieredUserStore store(cfg);
  // Insertion order deliberately unsorted; uids chosen so lexicographic
  // order differs from it.
  for (const char* uid : {"u9", "u03", "u5", "u21", "u1", "u44", "u2"}) {
    store.get_or_create(uid, 1.0).client_ip = uid;
  }
  std::vector<std::string> visited;
  store.for_each_sorted([&](const UserProfile& p) {
    visited.push_back(p.user_id);
    EXPECT_EQ(p.client_ip, p.user_id);  // cold decode restored the state
  });
  const std::vector<std::string> expect = {"u03", "u1",  "u2", "u21",
                                           "u44", "u5",  "u9"};
  EXPECT_EQ(visited, expect);

  // Mutating visit writes back through the cold tier: flip every client_ip,
  // then re-read via fault-in.
  store.for_each_of_mut(expect, [](UserProfile& p) {
    p.client_ip = "x-" + p.user_id;
    return true;
  });
  for (const std::string& uid : expect) {
    UserProfile* p = store.find(uid, 2.0, true);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->client_ip, "x-" + uid);
  }
}

TEST(UserStore, SubsetVisitReadsOnlyNamedColdUsers) {
  UserStoreConfig cfg;
  cfg.hot_capacity = 2;
  TieredUserStore store(cfg);
  for (const char* uid : {"a", "b", "c", "d", "e", "f"}) {
    store.get_or_create(uid, 1.0).client_ip = uid;
  }
  ASSERT_EQ(store.cold_count(), 4u);
  const std::uint64_t bytes_before = store.cold_file_bytes();
  // Named: two cold users (one changed, one not), one hot, one unknown.
  std::vector<std::string> visited;
  store.for_each_of_mut({"a", "b", "f", "zz"}, [&](UserProfile& p) {
    visited.push_back(p.user_id);
    if (p.user_id != "a") return false;
    p.client_ip = "changed";
    return true;
  });
  EXPECT_EQ(visited, (std::vector<std::string>{"a", "b", "f"}));
  // Only the changed cold profile was re-appended, and nothing promoted.
  EXPECT_GT(store.cold_file_bytes(), bytes_before);
  const std::uint64_t after_one = store.cold_file_bytes();
  store.for_each_of_mut({"b"}, [](UserProfile&) { return false; });
  EXPECT_EQ(store.cold_file_bytes(), after_one);
  EXPECT_EQ(store.cold_count(), 4u);
  EXPECT_EQ(store.stats().faultins, 0u);
  EXPECT_EQ(store.find("a", 2.0, true)->client_ip, "changed");
  EXPECT_EQ(store.find("b", 2.0, true)->client_ip, "b");
}

TEST(UserStore, CompactionDropsGarbageAndPreservesState) {
  UserStoreConfig cfg;
  cfg.hot_capacity = 2;
  cfg.cold_buckets = 64;
  TieredUserStore store(cfg);
  // Churn the same small population through demote/fault-in cycles so the
  // spill file accumulates stale records.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 6; ++i) {
      UserProfile& p =
          store.get_or_create("u" + std::to_string(i), double(round));
      p.reports_received = std::size_t(round);
    }
  }
  EXPECT_EQ(store.size(), 6u);
  EXPECT_GT(store.cold_file_bytes(), store.cold_live_bytes());
  const std::uint64_t before = store.cold_file_bytes();
  store.compact_cold();
  EXPECT_LT(store.cold_file_bytes(), before);
  EXPECT_EQ(store.cold_file_bytes(), store.cold_live_bytes());
  EXPECT_EQ(store.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    UserProfile* p = store.find("u" + std::to_string(i), 1000.0, true);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->reports_received, 49u);
  }
}

TEST(UserStore, ClearTruncatesSpillFile) {
  UserStoreConfig cfg;
  cfg.hot_capacity = 2;
  TieredUserStore store(cfg);
  for (int i = 0; i < 20; ++i) {
    store.get_or_create("u" + std::to_string(i), double(i));
  }
  EXPECT_GT(store.cold_file_bytes(), 0u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.cold_file_bytes(), 0u);
  EXPECT_EQ(store.find("u1", 0.0, true), nullptr);
  // The store keeps working after a clear (import_state's lifecycle).
  store.get_or_create("u1", 0.0).pages_served = 7;
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.find("u1", 0.0, true)->pages_served, 7u);
}

TEST(UserStore, DemoteIdleEvictsOnlyStaleUsers) {
  UserStoreConfig cfg;
  cfg.hot_capacity = 100;
  cfg.idle_after_s = 10.0;
  TieredUserStore store(cfg);
  store.get_or_create("old", 0.0);
  store.get_or_create("fresh", 95.0);
  EXPECT_EQ(store.demote_idle(100.0), 1u);
  EXPECT_EQ(store.hot_count(), 1u);
  EXPECT_EQ(store.cold_count(), 1u);
  // The idle user is still reachable — demotion is transparent.
  ASSERT_NE(store.find("old", 101.0, true), nullptr);
  EXPECT_EQ(store.hot_count(), 2u);
}

TEST(UserStore, DemoteLruPrefersCold) {
  UserStoreConfig cfg;
  cfg.hot_capacity = 8;
  TieredUserStore store(cfg);
  for (int i = 0; i < 8; ++i) {
    store.get_or_create("u" + std::to_string(i), double(i));
  }
  // Touch u7 so its reference bit survives the first clock pass; a forced
  // eviction must pick one of the untouched users first.
  store.find("u7", 9.0, true);
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(store.demote_lru(), 1u);
    ASSERT_NE(store.find("u7", 10.0, false), nullptr);
    EXPECT_EQ(store.find("u7", 10.0, false)->user_id, "u7");
  }
}

// The ISSUE's ASan stress: 10k users through a hot tier of 8. The pointer
// contract — returned UserProfile*/string_view aliases are valid only until
// the next store mutation — means every access here uses the pointer
// immediately and re-looks-up after churn. Under ASan, any dangling alias
// (slot reuse, index rehash, scratch-buffer recycling) turns into a
// use-after-free/poison report.
TEST(UserStoreStress, PointerDisciplineUnderChurn10kUsersCapacity8) {
  UserStoreConfig cfg;
  cfg.hot_capacity = 8;
  cfg.cold_buckets = 256;
  TieredUserStore store(cfg);
  std::mt19937 rng(7);
  constexpr std::size_t kUsers = 10'000;
  for (std::size_t i = 0; i < kUsers; ++i) {
    const std::string uid = "u" + std::to_string(i);
    UserProfile& p = store.get_or_create(uid, double(i));
    ASSERT_EQ(p.user_id, uid);
    p.pages_served = i;
    p.plt_sum_s = 0.25 * double(i);
    p.plt_count = 1;
    // Interleaved lookup of a random earlier user: likely faults it in,
    // demoting someone else (possibly the profile just written above).
    const std::size_t j = rng() % (i + 1);
    UserProfile* q = store.find("u" + std::to_string(j), double(i), true);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->pages_served, j);
    EXPECT_EQ(q->user_id, "u" + std::to_string(j));
  }
  EXPECT_EQ(store.size(), kUsers);
  EXPECT_LE(store.hot_count(), 8u);
  EXPECT_GE(store.stats().demotions, kUsers - 8);
  // Sweep every profile (reads every cold record) and compact, then verify
  // a sample faults back intact.
  std::size_t seen = 0;
  store.for_each_sorted([&](const UserProfile& p) {
    ++seen;
    EXPECT_EQ(p.plt_count, 1u);
  });
  EXPECT_EQ(seen, kUsers);
  store.compact_cold();
  EXPECT_EQ(store.size(), kUsers);
  for (std::size_t i = 0; i < kUsers; i += 997) {
    UserProfile* p = store.find("u" + std::to_string(i), 1e6, true);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->pages_served, i);
  }
}

// --- Server-level transparency -------------------------------------------

class TieredServerFixture : public ::testing::Test {
 protected:
  TieredServerFixture()
      : universe_(net::NetworkConfig{.seed = 23, .horizon_s = 0}) {
    net::Network& net = universe_.network();
    origin_ = net.add_server(net::ServerConfig{.name = "origin"});
    universe_.dns().bind("busy.com", net.server(origin_).addr());
    for (const char* host :
         {"x0.net", "x1.net", "x2.net", "x3.net", "alt.net"}) {
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
    wire_ = report_wire();
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

  static std::string cookie(std::size_t user) {
    return std::string(http::kOakUserCookie) + "=tz" + std::to_string(user);
  }

  // Mixed deterministic workload over `span` cookie users: serves, reports,
  // rule add/remove, fresh mints, 404s. Same stream → same observable state,
  // which is what the parity assertions compare.
  template <typename Server>
  void apply_ops(Server& s, std::size_t count, std::size_t span) {
    int rule_id = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t kind = i % 10;
      const double t = double(i) * 0.25;
      if (kind == 3 && rule_id == 0) {
        rule_id = s.add_rule(make_domain_rule("direct", "x0.net", {"alt.net"}));
      } else if (kind == 8 && rule_id != 0 && i % 40 == 8) {
        s.remove_rule(rule_id, t);
        rule_id = 0;
      } else if (kind == 6) {
        http::Request req = http::Request::get(
            i % 20 == 6 ? "http://busy.com/absent" : site_.index_url());
        s.handle(req, t);
      } else if (kind % 2 == 0) {
        http::Request get = http::Request::get(site_.index_url());
        get.headers.set("Cookie", cookie(i % span));
        s.handle(get, t);
      } else {
        http::Request post =
            http::Request::post("http://busy.com/oak/report", wire_);
        post.headers.set("Cookie", cookie(i % span));
        s.handle(post, t);
      }
    }
  }

  page::WebUniverse universe_;
  net::ServerId origin_ = net::kInvalidServer;
  std::map<std::string, std::string> ips_;
  page::Site site_;
  OakConfig cfg_;
  std::string wire_;
};

// The acceptance criterion, single-threaded form: a hot tier far smaller
// than the population must leave export_state() byte-identical to an
// untiered run of the same stream — through demotions, fault-ins,
// remove_rule sweeps over cold users, and spill-file compaction.
TEST_F(TieredServerFixture, ExportParityTieredVsUntiered) {
  OakServer plain(universe_, "busy.com", cfg_);
  OakConfig tiered_cfg = cfg_;
  tiered_cfg.user_store.hot_capacity = 4;
  tiered_cfg.user_store.cold_buckets = 64;
  OakServer tiered(universe_, "busy.com", tiered_cfg);

  apply_ops(plain, 400, 40);
  apply_ops(tiered, 400, 40);

  EXPECT_EQ(tiered.user_count(), plain.user_count());
  EXPECT_LE(tiered.user_store().hot_count(), 4u);
  EXPECT_GT(tiered.user_store().stats().demotions, 0u);
  EXPECT_GT(tiered.user_store().stats().faultins, 0u);
  EXPECT_EQ(tiered.export_state().dump(), plain.export_state().dump());

  // Compaction is invisible to the export too.
  tiered.compact_user_store();
  EXPECT_EQ(tiered.export_state().dump(), plain.export_state().dump());

  // And the tiering metrics reached the registry snapshot.
  obs::MetricsSnapshot snap = tiered.metrics_snapshot();
  EXPECT_GT(snap.counters["oak_user_demotions_total"], 0u);
  EXPECT_GT(snap.counters["oak_user_faultins_total"], 0u);
  EXPECT_GT(snap.gauges["oak_users_cold"], 0.0);
}

TEST_F(TieredServerFixture, ImportStateRebuildsTieredStore) {
  OakServer source(universe_, "busy.com", cfg_);
  apply_ops(source, 200, 30);
  const std::string want = source.export_state().dump();

  OakConfig tiered_cfg = cfg_;
  tiered_cfg.user_store.hot_capacity = 3;
  OakServer dst(universe_, "busy.com", tiered_cfg);
  apply_ops(dst, 50, 5);  // pre-existing state must be fully replaced
  dst.import_state(source.export_state());
  EXPECT_LE(dst.user_store().hot_count(), 3u);
  EXPECT_EQ(dst.export_state().dump(), want);
}

// Sharded form of the parity contract, plus spill_dir: per-shard named
// spill files under one directory.
TEST_F(TieredServerFixture, ShardedExportParityWithSpillDir) {
  ShardedOakServer plain(universe_, "busy.com", cfg_, 4);
  OakConfig tiered_cfg = cfg_;
  tiered_cfg.user_store.hot_capacity = 2;  // per shard
  tiered_cfg.user_store.cold_buckets = 64;
  tiered_cfg.user_store.spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "oak_spill_test")
          .string();
  ShardedOakServer tiered(universe_, "busy.com", tiered_cfg, 4);

  apply_ops(plain, 400, 40);
  apply_ops(tiered, 400, 40);
  EXPECT_EQ(tiered.export_state().dump(), plain.export_state().dump());
  // compact() folds the spill files even with durability off.
  tiered.compact();
  EXPECT_EQ(tiered.export_state().dump(), plain.export_state().dump());
  std::error_code ec;
  std::filesystem::remove_all(tiered_cfg.user_store.spill_dir, ec);
}

// Concurrency smoke for the tiered store behind the shard locks: request
// threads churn a population 50× the total hot capacity while audit/metrics
// readers take consistent cuts. TSan covers the locking; the final
// assertions cover counts surviving the churn.
TEST_F(TieredServerFixture, ShardedConcurrentChurnKeepsCountsConsistent) {
  OakConfig tiered_cfg = cfg_;
  tiered_cfg.user_store.hot_capacity = 8;  // per shard; 4 shards ⇒ 32 hot
  tiered_cfg.user_store.cold_buckets = 64;
  ShardedOakServer s(universe_, "busy.com", tiered_cfg, 4);
  s.add_rule(make_domain_rule("direct", "x0.net", {"alt.net"}));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kUsersPerThread = 400;
  std::vector<std::thread> threads;
  for (std::size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (std::size_t i = 0; i < kUsersPerThread; ++i) {
        const std::string c =
            std::string(http::kOakUserCookie) + "=c" + std::to_string(tid) +
            "-" + std::to_string(i);
        http::Request get = http::Request::get(site_.index_url());
        get.headers.set("Cookie", c);
        s.handle(get, double(i));
        http::Request post =
            http::Request::post("http://busy.com/oak/report", wire_);
        post.headers.set("Cookie", c);
        s.handle(post, double(i) + 0.5);
      }
    });
  }
  std::thread auditor([&] {
    for (int i = 0; i < 20; ++i) {
      (void)s.metrics_snapshot();
      (void)s.user_count();
      (void)s.audit(double(i));
    }
  });
  for (auto& t : threads) t.join();
  auditor.join();

  EXPECT_EQ(s.user_count(), kThreads * kUsersPerThread);
  obs::MetricsSnapshot snap = s.metrics_snapshot();
  EXPECT_GT(snap.counters["oak_user_demotions_total"], 0u);
  EXPECT_EQ(snap.gauges["oak_users_hot"] + snap.gauges["oak_users_cold"],
            double(kThreads * kUsersPerThread));
  // Export → import round trip stays intact after heavy churn.
  ShardedOakServer copy(universe_, "busy.com", cfg_, 4);
  copy.add_rules(s.rules());
  copy.import_state(s.export_state());
  EXPECT_EQ(copy.user_count(), s.user_count());
  EXPECT_EQ(copy.export_state().dump(), s.export_state().dump());
}

}  // namespace
}  // namespace oak::core
