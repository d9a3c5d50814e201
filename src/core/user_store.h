// Tiered per-shard user-state store (oak::core::TieredUserStore).
//
// The north star is millions of users, but every per-user byte — violator
// histories, active/pending rule state, PLT accumulators — used to live
// forever in an unbounded ordered map per shard, so node memory grew
// linearly with population. This store converts that to O(hot-set):
//
//  * Hot tier — a dense slot array of UserProfile payloads with the store
//    bookkeeping split struct-of-arrays style into parallel byte/double
//    vectors (clock reference bits, liveness, last-touch stamps), so the
//    eviction sweep walks a few contiguous bytes per slot instead of
//    dragging whole ~200-byte profiles through the cache. Lookup is one
//    probe of an open-addressed uid index (util::FlatHashMap, which grew
//    backward-shift erase for exactly this use).
//
//  * Eviction — an intrusive CLOCK (second-chance) hand over the slot
//    array: every access sets the slot's reference bit, the hand clears
//    bits until it finds a cold one, and that profile is demoted. CLOCK
//    approximates LRU with one byte per slot and no list splicing.
//
//  * Cold tier — demoted profiles are serialized (bit-exact binary codec:
//    varints + IEEE-754 bit patterns, the util/framing.h vocabulary the
//    durability journal already uses) and appended as checksummed frames to
//    a per-shard spill file, bucket-chained by uid hash: each record
//    carries the file offset of the previous record in its bucket, and an
//    in-memory bucket-head array (fixed size, independent of population) is
//    the only per-shard index. A Bloom filter over demoted uids makes the
//    "never seen cold" miss free; a real fault-in walks the bucket chain
//    with pread. In-memory cost per cold user is therefore ~a filter bit,
//    not an index entry — the property the bounded-memory soak gate
//    (bench/load_userscale) measures.
//
//  * Fault-in — the next lookup of a demoted user decodes the newest cold
//    record back into a hot slot, byte-identical to never having been
//    evicted (pinned by the tiering parity tests). Records are logged, so
//    stale versions accumulate until compact_cold() rewrites live records
//    only (triggered automatically on garbage ratio, and by the durability
//    snapshot cut in ShardedOakServer::compact()).
//
// The spill file is a cache, not a durability artifact: it is truncated at
// construction and rebuilt by use. Crash recovery replays the WAL through
// the same deterministic code, which re-demotes idle users as it goes —
// the recovered export_state() stays byte-identical (durability fuzz).
//
// Not thread-safe; one store per shard behind the shard lock, like every
// other shard-local structure.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/flat_map.h"

namespace oak::core {

// One activated rule inside a user profile.
struct ActiveRule {
  int rule_id = 0;
  std::size_t alternative_index = 0;
  double activated_at = 0.0;
  double expires_at = 0.0;  // 0 = never
  // MAD distance of the violator that caused activation — the yardstick the
  // history mechanism compares the alternative against.
  double violation_distance = 0.0;
  std::string violator_ip;
};

// Per-(user, rule) racing accumulator (core/policy.h, racing strategy):
// which cohort the user raced in, and the post-activation PLT mass their
// reports contributed. Lives in the profile — not the engine — so the
// engine's per-rule race aggregates are pure derived state, rebuilt by
// folding profiles after snapshot import or WAL recovery.
struct RaceStat {
  int cohort = 0;  // 0 or 1: which alternative this user races
  double plt_sum = 0.0;
  std::uint64_t count = 0;
};

struct UserProfile {
  std::string user_id;
  std::string client_ip;
  // Per-user rule state. Flat sorted containers (util/flat_map.h): a user
  // holds a handful of entries, touched on every report — contiguous
  // storage beats one heap node per entry, and sorted iteration keeps
  // snapshot/export byte-compatibility with the std::map originals.
  util::SmallFlatMap<int, ActiveRule> active;       // keyed by rule id
  util::SmallFlatMap<int, int> pending_violations;  // toward min_violations
  util::SmallFlatMap<int, std::size_t> next_alternative;
  util::SmallFlatSet<int> banned;  // never re-activate (allow_reactivation=false)
  // Racing cohort accumulators; persists after deactivation (like banned)
  // so the derived aggregates survive export/import byte-identically.
  util::SmallFlatMap<int, RaceStat> race;
  // Hysteresis: rule may not re-arm for this user before this time.
  util::SmallFlatMap<int, double> cooldown_until;
  std::size_t reports_received = 0;
  std::size_t pages_served = 0;
  // Rolling page-load-time statistics from this user's reports; the
  // treated-vs-holdback comparison in SiteAnalytics measures Oak's lift.
  double plt_sum_s = 0.0;
  std::size_t plt_count = 0;
  bool holdback = false;

  double mean_plt_s() const {
    return plt_count == 0 ? 0.0 : plt_sum_s / double(plt_count);
  }
};

// Bit-exact binary profile codec (shared with tests): round-tripping
// through encode/decode reproduces every field including IEEE-754 double
// bit patterns — the "byte-identical export after eviction" contract does
// not survive a lossy decimal round-trip.
void encode_profile(const UserProfile& p, std::string& out);
bool decode_profile(std::string_view in, UserProfile& out);

struct UserStoreConfig {
  // Hot slots per store (per shard). 0 = untiered: every profile stays hot
  // and no spill file is opened — the pre-tiering behavior and the default.
  std::size_t hot_capacity = 0;
  // When > 0, demote_idle(now) evicts users untouched for this long even
  // with hot slots to spare (operators reclaim memory from abandoned
  // cookies without waiting for capacity pressure).
  double idle_after_s = 0.0;
  // Directory for the spill file. Empty: an anonymous unlinked temp file
  // (auto-reclaimed on process exit, the right default for a cache).
  std::string spill_dir;
  // Explicit spill file path; overrides spill_dir. ShardedOakServer sets
  // this per shard ("<spill_dir>/cold-<i>.dat") so shards never share one.
  std::string cold_file;
  // Bucket-head count for the cold file's hash chains (rounded up to a
  // power of two). Fixed memory: 8 bytes per bucket, regardless of
  // population; chains average cold_count / cold_buckets records.
  std::size_t cold_buckets = 1 << 14;
  // Bloom-filter size in bits. 0 = auto: rebuilt at 16 bits per live cold
  // user on every compaction — the filter then grows with the population
  // (~2 bytes per cold user of RAM). Setting it pins the filter to a fixed
  // allocation made at construction, so cold-tier metadata memory is
  // constant no matter how far the population grows; provision ~16 bits
  // per expected cold user (see the sizing worksheet in docs/OPERATIONS.md).
  std::uint64_t bloom_bits = 0;
};

struct UserStoreStats {
  std::uint64_t demotions = 0;          // hot → cold serializations
  std::uint64_t faultins = 0;           // cold → hot restorations
  std::uint64_t cold_compactions = 0;   // spill-file rewrites
};

// Bloom filter over demoted uid hashes: the negative cache that makes
// "fresh user, never demoted" lookups skip the chain walk entirely.
// Rebuilt (and re-sized to the live cold population) at each compaction.
class ColdBloom {
 public:
  void reset(std::uint64_t bits);  // rounded up to a power of two
  void clear();
  void insert(std::uint64_t h);
  bool maybe(std::uint64_t h) const;
  std::uint64_t inserts() const { return inserts_; }
  std::uint64_t bit_count() const { return words_.size() * 64; }

 private:
  std::vector<std::uint64_t> words_;
  std::uint64_t inserts_ = 0;
};

class TieredUserStore {
 public:
  explicit TieredUserStore(UserStoreConfig cfg = {});
  ~TieredUserStore();
  TieredUserStore(const TieredUserStore&) = delete;
  TieredUserStore& operator=(const TieredUserStore&) = delete;

  bool tiered() const { return cfg_.hot_capacity > 0; }
  std::size_t size() const { return hot_count_ + cold_count_; }
  std::size_t hot_count() const { return hot_count_; }
  std::size_t cold_count() const { return cold_count_; }
  const UserStoreStats& stats() const { return stats_; }
  std::uint64_t cold_file_bytes() const { return file_bytes_; }
  std::uint64_t cold_live_bytes() const { return cold_live_bytes_; }

  // Lookup with transparent fault-in; nullptr when the uid was never seen.
  // `touch` feeds the clock/idle machinery (introspection passes false so
  // audits don't rejuvenate idle users). The returned pointer is valid
  // until the next store mutation (create/fault-in/demote/clear) — callers
  // must not hold it across requests.
  UserProfile* find(const std::string& uid, double now, bool touch);
  // Find-or-create. A created profile has user_id set to `uid` and is hot.
  UserProfile& get_or_create(const std::string& uid, double now);

  // Visit every profile — hot and cold — in ascending uid order (the
  // std::map iteration order the snapshot/export format pins). Cold
  // profiles are materialized transiently, without promotion.
  void for_each_sorted(
      const std::function<void(const UserProfile&)>& fn) const;
  // The same visit in pull form, so several stores can be merged into one
  // uid order (the sharded snapshot stream). Reads the store without
  // changing it, and is valid until the next store mutation.
  class SortedCursor {
   public:
    SortedCursor(SortedCursor&&) = default;
    bool done() const { return i_ == entries_.size(); }
    std::string_view uid() const { return entries_[i_].uid; }
    // The current profile; a cold one is decoded into the cursor's
    // scratch, valid until the next call.
    const UserProfile& profile();
    void advance() { ++i_; }

   private:
    friend class TieredUserStore;
    SortedCursor() = default;
    struct Entry {
      std::string_view uid;  // into a hot slot or cold_
      std::uint64_t slot_or_off = 0;
      bool hot = false;
    };
    const TieredUserStore* store_ = nullptr;
    std::vector<Entry> entries_;
    std::vector<std::pair<std::string, std::uint64_t>> cold_;
    std::size_t i_ = 0;
    UserProfile scratch_;
  };
  SortedCursor sorted() const;
  // Mutating visit of the named profiles only, in the order given (rule
  // retirement passes its holders ascending, the order for_each_sorted
  // would reach them). Hot profiles change in place; cold ones are read
  // without promotion and, when the callback returns true, re-serialized
  // in place of their old record. Uids the store does not hold are
  // skipped, and no other cold record is read.
  void for_each_of_mut(const std::vector<std::string>& uids,
                       const std::function<bool(UserProfile&)>& fn);

  // Drop every profile and truncate the spill file (import_state rebuild).
  void clear();
  // Evict users untouched since now - idle_after_s. No-op unless tiered
  // and idle_after_s > 0. Returns the number demoted.
  std::size_t demote_idle(double now);
  // Force one CLOCK eviction (tests and capacity experiments). Returns the
  // number demoted (0 when the hot tier is empty or the store untiered).
  std::size_t demote_lru();
  // Rewrite the spill file keeping only the newest record per cold uid,
  // resize the bucket array and Bloom filter to the live population.
  void compact_cold();

 private:
  struct ColdRecord {
    std::uint64_t prev_plus1 = 0;   // offset+1 of the next-older record, 0 = end
    std::string_view uid;           // views into read_buf_
    std::string_view blob;
    std::uint64_t framed_bytes = 0; // on-disk frame size
  };

  void open_cold_file_();
  std::uint32_t alloc_slot_(double now);
  std::uint32_t evict_one_();
  void demote_slot_(std::uint32_t slot);
  UserProfile* fault_in_(const std::string& uid, double now, bool touch);
  // Newest cold record for `uid` (its views alias read_buf_); false when
  // the uid was never demoted.
  bool find_cold_(const std::string& uid, ColdRecord& out) const;
  // Frames [prev][uid][blob] and appends it at file_bytes_, linking the
  // bucket chain. Returns the framed size.
  std::uint64_t append_cold_(std::string_view uid, std::string_view blob);
  bool read_record_(std::uint64_t offset, ColdRecord& out) const;
  // Newest live record per cold uid: (uid, file offset). Skips hot uids.
  std::vector<std::pair<std::string, std::uint64_t>> collect_cold_() const;
  void maybe_autocompact_();

  UserStoreConfig cfg_;
  // Hot tier. Payload slots plus SoA bookkeeping; `free_` recycles slots
  // vacated by demotion, `hand_` is the CLOCK cursor.
  std::vector<UserProfile> slots_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint8_t> ref_;
  std::vector<double> touched_;
  std::vector<std::uint32_t> free_;
  util::FlatHashMap<std::string, std::uint32_t> index_;  // uid → hot slot
  std::size_t hand_ = 0;
  std::size_t hot_count_ = 0;

  // Cold tier.
  int fd_ = -1;
  std::string cold_path_;  // empty for anonymous files
  std::uint64_t file_bytes_ = 0;
  std::uint64_t cold_live_bytes_ = 0;
  std::size_t cold_count_ = 0;
  std::size_t buckets_ = 0;                // power of two
  std::vector<std::uint64_t> heads_;       // bucket → offset+1 of newest record
  ColdBloom bloom_;
  UserStoreStats stats_;

  // Reused scratch: encode (payload/frame) and read (one record) buffers,
  // so steady-state demote/fault-in traffic allocates nothing. read_buf_
  // is mutable because reading a record is logically const (audits and
  // sorted exports read cold records without changing observable state).
  std::string payload_scratch_;
  std::string record_scratch_;
  std::string frame_scratch_;
  mutable std::string read_buf_;
};

}  // namespace oak::core
