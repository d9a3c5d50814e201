#include "core/user_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "util/framing.h"

namespace oak::core {
namespace {

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Signed ints (rule ids) as zigzag varints, same scheme the journal uses.
void put_zigzag(std::string& out, std::int64_t v) {
  util::put_uvarint(out,
                    (std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63));
}

bool get_zigzag(std::string_view in, std::size_t& pos, std::int64_t& out) {
  std::uint64_t u = 0;
  if (!util::get_uvarint(in, pos, u)) return false;
  out = std::int64_t(u >> 1) ^ -std::int64_t(u & 1);
  return true;
}

void pwrite_all(int fd, std::string_view data, std::uint64_t off) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::pwrite(fd, p, left, off_t(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("user_store: spill-file write failed: " +
                               std::string(std::strerror(errno)));
    }
    p += n;
    left -= std::size_t(n);
    off += std::uint64_t(n);
  }
}

bool pread_all(int fd, char* dst, std::size_t len, std::uint64_t off) {
  while (len > 0) {
    const ssize_t n = ::pread(fd, dst, len, off_t(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // short file: offset past EOF
    dst += n;
    len -= std::size_t(n);
    off += std::uint64_t(n);
  }
  return true;
}

// Anonymous spill file: O_TMPFILE when the filesystem supports it, else
// mkstemp + immediate unlink. Either way the kernel reclaims the bytes when
// the fd closes — a cache should not be able to leak.
int open_anon_spill(const std::string& dir_cfg) {
  std::string dir = dir_cfg;
  if (dir.empty()) {
    const char* t = ::getenv("TMPDIR");
    dir = (t != nullptr && *t != '\0') ? t : "/tmp";
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
#ifdef O_TMPFILE
  const int fd = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  if (fd >= 0) return fd;
#endif
  std::string tmpl = dir + "/oak-cold-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const int fd2 = ::mkstemp(buf.data());
  if (fd2 < 0) {
    throw std::runtime_error("user_store: cannot create spill file in " + dir);
  }
  ::unlink(buf.data());
  return fd2;
}

int open_named_spill(const std::string& path) {
  std::error_code ec;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("user_store: cannot open spill file " + path);
  }
  return fd;
}

[[noreturn]] void throw_corrupt() {
  // The spill file is written and read by this process only; a bad frame
  // means a code or disk fault, and silently dropping user state would turn
  // that into an invisible behavior change. Fail loudly.
  throw std::runtime_error("user_store: corrupt cold record");
}

}  // namespace

// --- Profile codec -------------------------------------------------------

void encode_profile(const UserProfile& p, std::string& out) {
  util::put_lv(out, p.client_ip);
  util::put_uvarint(out, p.reports_received);
  util::put_uvarint(out, p.pages_served);
  util::put_double_bits(out, p.plt_sum_s);
  util::put_uvarint(out, p.plt_count);
  out.push_back(p.holdback ? char(1) : char(0));
  util::put_uvarint(out, p.active.size());
  for (const auto& [rid, ar] : p.active) {
    put_zigzag(out, rid);
    util::put_uvarint(out, ar.alternative_index);
    util::put_double_bits(out, ar.activated_at);
    util::put_double_bits(out, ar.expires_at);
    util::put_double_bits(out, ar.violation_distance);
    util::put_lv(out, ar.violator_ip);
  }
  util::put_uvarint(out, p.pending_violations.size());
  for (const auto& [rid, n] : p.pending_violations) {
    put_zigzag(out, rid);
    put_zigzag(out, n);
  }
  util::put_uvarint(out, p.next_alternative.size());
  for (const auto& [rid, n] : p.next_alternative) {
    put_zigzag(out, rid);
    util::put_uvarint(out, n);
  }
  util::put_uvarint(out, p.banned.size());
  for (int rid : p.banned) put_zigzag(out, rid);
  util::put_uvarint(out, p.race.size());
  for (const auto& [rid, rs] : p.race) {
    put_zigzag(out, rid);
    put_zigzag(out, rs.cohort);
    util::put_double_bits(out, rs.plt_sum);
    util::put_uvarint(out, rs.count);
  }
  util::put_uvarint(out, p.cooldown_until.size());
  for (const auto& [rid, until] : p.cooldown_until) {
    put_zigzag(out, rid);
    util::put_double_bits(out, until);
  }
}

bool decode_profile(std::string_view in, UserProfile& p) {
  p.active.clear();
  p.pending_violations.clear();
  p.next_alternative.clear();
  p.banned.clear();
  p.race.clear();
  p.cooldown_until.clear();
  std::size_t pos = 0;
  std::string_view sv;
  std::uint64_t u = 0;
  std::int64_t z = 0;
  if (!util::get_lv(in, pos, sv)) return false;
  p.client_ip.assign(sv);
  if (!util::get_uvarint(in, pos, u)) return false;
  p.reports_received = std::size_t(u);
  if (!util::get_uvarint(in, pos, u)) return false;
  p.pages_served = std::size_t(u);
  if (!util::get_double_bits(in, pos, p.plt_sum_s)) return false;
  if (!util::get_uvarint(in, pos, u)) return false;
  p.plt_count = std::size_t(u);
  if (pos >= in.size()) return false;
  p.holdback = in[pos++] != 0;

  std::uint64_t count = 0;
  if (!util::get_uvarint(in, pos, count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_zigzag(in, pos, z)) return false;
    ActiveRule ar;
    ar.rule_id = int(z);
    if (!util::get_uvarint(in, pos, u)) return false;
    ar.alternative_index = std::size_t(u);
    if (!util::get_double_bits(in, pos, ar.activated_at)) return false;
    if (!util::get_double_bits(in, pos, ar.expires_at)) return false;
    if (!util::get_double_bits(in, pos, ar.violation_distance)) return false;
    if (!util::get_lv(in, pos, sv)) return false;
    ar.violator_ip.assign(sv);
    p.active.insert_or_assign(ar.rule_id, std::move(ar));
  }
  if (!util::get_uvarint(in, pos, count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_zigzag(in, pos, z)) return false;
    const int rid = int(z);
    if (!get_zigzag(in, pos, z)) return false;
    p.pending_violations.insert_or_assign(rid, int(z));
  }
  if (!util::get_uvarint(in, pos, count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_zigzag(in, pos, z)) return false;
    const int rid = int(z);
    if (!util::get_uvarint(in, pos, u)) return false;
    p.next_alternative.insert_or_assign(rid, std::size_t(u));
  }
  if (!util::get_uvarint(in, pos, count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_zigzag(in, pos, z)) return false;
    p.banned.insert(int(z));
  }
  if (!util::get_uvarint(in, pos, count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_zigzag(in, pos, z)) return false;
    const int rid = int(z);
    RaceStat rs;
    if (!get_zigzag(in, pos, z)) return false;
    rs.cohort = int(z);
    if (!util::get_double_bits(in, pos, rs.plt_sum)) return false;
    if (!util::get_uvarint(in, pos, rs.count)) return false;
    p.race.insert_or_assign(rid, rs);
  }
  if (!util::get_uvarint(in, pos, count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_zigzag(in, pos, z)) return false;
    const int rid = int(z);
    double until = 0.0;
    if (!util::get_double_bits(in, pos, until)) return false;
    p.cooldown_until.insert_or_assign(rid, until);
  }
  return pos == in.size();
}

// --- Bloom filter --------------------------------------------------------

void ColdBloom::reset(std::uint64_t bits) {
  std::uint64_t b = 64;
  while (b < bits) b <<= 1;
  words_.assign(b / 64, 0);
  inserts_ = 0;
}

void ColdBloom::clear() {
  std::fill(words_.begin(), words_.end(), 0);
  inserts_ = 0;
}

void ColdBloom::insert(std::uint64_t h) {
  if (words_.empty()) return;
  const std::uint64_t mask = words_.size() * 64 - 1;
  const std::uint64_t step = (h * 0x9e3779b97f4a7c15ull) | 1;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t bit = (h + i * step) & mask;
    words_[bit >> 6] |= 1ull << (bit & 63);
  }
  ++inserts_;
}

bool ColdBloom::maybe(std::uint64_t h) const {
  if (words_.empty()) return false;
  const std::uint64_t mask = words_.size() * 64 - 1;
  const std::uint64_t step = (h * 0x9e3779b97f4a7c15ull) | 1;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t bit = (h + i * step) & mask;
    if ((words_[bit >> 6] & (1ull << (bit & 63))) == 0) return false;
  }
  return true;
}

// --- Store ---------------------------------------------------------------

TieredUserStore::TieredUserStore(UserStoreConfig cfg) : cfg_(std::move(cfg)) {
  if (!tiered()) return;
  buckets_ = 64;
  while (buckets_ < cfg_.cold_buckets) buckets_ <<= 1;
  heads_.assign(buckets_, 0);
  bloom_.reset(cfg_.bloom_bits > 0 ? cfg_.bloom_bits : (1u << 16));
  slots_.reserve(cfg_.hot_capacity);
  live_.reserve(cfg_.hot_capacity);
  ref_.reserve(cfg_.hot_capacity);
  touched_.reserve(cfg_.hot_capacity);
  open_cold_file_();
}

TieredUserStore::~TieredUserStore() {
  if (fd_ >= 0) ::close(fd_);
}

void TieredUserStore::open_cold_file_() {
  if (!cfg_.cold_file.empty()) {
    cold_path_ = cfg_.cold_file;
    fd_ = open_named_spill(cold_path_);
  } else {
    fd_ = open_anon_spill(cfg_.spill_dir);
  }
}

UserProfile* TieredUserStore::find(const std::string& uid, double now,
                                   bool touch) {
  if (std::uint32_t* slot = index_.find(uid)) {
    if (touch) {
      ref_[*slot] = 1;
      touched_[*slot] = now;
    }
    return &slots_[*slot];
  }
  if (!tiered() || cold_count_ == 0) return nullptr;
  if (!bloom_.maybe(fnv1a64(uid))) return nullptr;
  UserProfile* p = fault_in_(uid, now, touch);
  // Compaction rewrites the cold file only; `p` points into the hot tier.
  if (p != nullptr) maybe_autocompact_();
  return p;
}

UserProfile& TieredUserStore::get_or_create(const std::string& uid,
                                            double now) {
  if (UserProfile* existing = find(uid, now, true)) return *existing;
  const std::uint32_t slot = alloc_slot_(now);
  UserProfile& p = slots_[slot];
  p = UserProfile{};
  p.user_id = uid;
  index_[uid] = slot;
  live_[slot] = 1;
  ref_[slot] = 1;
  touched_[slot] = now;
  ++hot_count_;
  maybe_autocompact_();
  return p;
}

std::uint32_t TieredUserStore::alloc_slot_(double now) {
  (void)now;
  if (!free_.empty()) {
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  if (!tiered() || slots_.size() < cfg_.hot_capacity) {
    slots_.emplace_back();
    live_.push_back(0);
    ref_.push_back(0);
    touched_.push_back(0.0);
    return std::uint32_t(slots_.size() - 1);
  }
  const std::uint32_t s = evict_one_();
  // evict_one_ demoted the occupant and parked the slot on free_; claim it.
  free_.pop_back();
  return s;
}

std::uint32_t TieredUserStore::evict_one_() {
  const std::size_t n = slots_.size();
  // Bound: one full sweep clears every reference bit, so the second sweep
  // must find a victim.
  for (std::size_t scanned = 0; scanned <= 2 * n; ++scanned) {
    if (hand_ >= n) hand_ = 0;
    const std::size_t s = hand_++;
    if (!live_[s]) continue;
    if (ref_[s]) {
      ref_[s] = 0;
      continue;
    }
    demote_slot_(std::uint32_t(s));
    return std::uint32_t(s);
  }
  throw std::logic_error("user_store: clock sweep found no victim");
}

void TieredUserStore::demote_slot_(std::uint32_t s) {
  UserProfile& p = slots_[s];
  payload_scratch_.clear();
  encode_profile(p, payload_scratch_);
  append_cold_(p.user_id, payload_scratch_);
  bloom_.insert(fnv1a64(p.user_id));
  index_.erase(p.user_id);
  p = UserProfile{};
  live_[s] = 0;
  ref_[s] = 0;
  free_.push_back(s);
  --hot_count_;
  ++cold_count_;
  ++stats_.demotions;
}

std::uint64_t TieredUserStore::append_cold_(std::string_view uid,
                                            std::string_view blob) {
  const std::uint64_t h = fnv1a64(uid);
  const std::size_t bucket = std::size_t(h) & (buckets_ - 1);
  record_scratch_.clear();
  util::put_uvarint(record_scratch_, heads_[bucket]);
  util::put_lv(record_scratch_, uid);
  record_scratch_.append(blob);
  frame_scratch_.clear();
  util::append_frame(frame_scratch_, record_scratch_);
  const std::uint64_t off = file_bytes_;
  pwrite_all(fd_, frame_scratch_, off);
  file_bytes_ += frame_scratch_.size();
  cold_live_bytes_ += frame_scratch_.size();
  heads_[bucket] = off + 1;
  return frame_scratch_.size();
}

bool TieredUserStore::find_cold_(const std::string& uid,
                                 ColdRecord& out) const {
  std::uint64_t off_plus1 = heads_[std::size_t(fnv1a64(uid)) & (buckets_ - 1)];
  while (off_plus1 != 0) {
    if (!read_record_(off_plus1 - 1, out)) throw_corrupt();
    if (out.uid == uid) return true;
    off_plus1 = out.prev_plus1;
  }
  return false;
}

UserProfile* TieredUserStore::fault_in_(const std::string& uid, double now,
                                        bool touch) {
  ColdRecord rec;
  // Bloom false positive: the uid was never demoted.
  if (!find_cold_(uid, rec)) return nullptr;
  // Decode before allocating: alloc may demote another user, which reuses
  // the scratch buffers this record views into.
  UserProfile restored;
  if (!decode_profile(rec.blob, restored)) throw_corrupt();
  restored.user_id = uid;
  cold_live_bytes_ -= rec.framed_bytes;
  --cold_count_;
  ++stats_.faultins;
  const std::uint32_t slot = alloc_slot_(now);
  slots_[slot] = std::move(restored);
  index_[uid] = slot;
  live_[slot] = 1;
  ref_[slot] = touch ? 1 : 0;
  touched_[slot] = now;
  ++hot_count_;
  return &slots_[slot];
}

bool TieredUserStore::read_record_(std::uint64_t offset,
                                   ColdRecord& out) const {
  // Peek enough for the header (varint length <= 10 bytes + fixed32 CRC),
  // then read the exact frame.
  char hdr[14];
  const ssize_t got = ::pread(fd_, hdr, sizeof hdr, off_t(offset));
  if (got <= 0) return false;
  const std::string_view hv(hdr, std::size_t(got));
  std::size_t pos = 0;
  std::uint64_t len = 0;
  if (!util::get_uvarint(hv, pos, len)) return false;
  if (len > util::kMaxFramePayload) return false;
  const std::uint64_t framed = pos + 4 + len;
  read_buf_.resize(std::size_t(framed));
  if (!pread_all(fd_, read_buf_.data(), std::size_t(framed), offset)) {
    return false;
  }
  std::size_t fpos = 0;
  std::string_view payload;
  if (util::read_frame(read_buf_, fpos, payload) != util::FrameStatus::kOk) {
    return false;
  }
  std::size_t p = 0;
  if (!util::get_uvarint(payload, p, out.prev_plus1)) return false;
  if (!util::get_lv(payload, p, out.uid)) return false;
  out.blob = payload.substr(p);
  out.framed_bytes = framed;
  return true;
}

std::vector<std::pair<std::string, std::uint64_t>>
TieredUserStore::collect_cold_() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(cold_count_);
  std::vector<std::string> seen;  // per-bucket: newest record shadows older
  for (std::size_t b = 0; b < buckets_; ++b) {
    std::uint64_t off_plus1 = heads_[b];
    if (off_plus1 == 0) continue;
    seen.clear();
    while (off_plus1 != 0) {
      ColdRecord rec;
      if (!read_record_(off_plus1 - 1, rec)) throw_corrupt();
      const std::uint64_t older = rec.prev_plus1;
      std::string uid(rec.uid);
      if (std::find(seen.begin(), seen.end(), uid) == seen.end()) {
        if (index_.find(uid) == nullptr) {  // hot copy shadows cold records
          out.emplace_back(uid, off_plus1 - 1);
        }
        seen.push_back(std::move(uid));
      }
      off_plus1 = older;
    }
  }
  return out;
}

TieredUserStore::SortedCursor TieredUserStore::sorted() const {
  SortedCursor c;
  c.store_ = this;
  c.entries_.reserve(size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (live_[s]) c.entries_.push_back({slots_[s].user_id, s, true});
  }
  if (tiered() && cold_count_ > 0) {
    c.cold_ = collect_cold_();
    for (const auto& [uid, off] : c.cold_) {
      c.entries_.push_back({uid, off, false});
    }
  }
  std::sort(c.entries_.begin(), c.entries_.end(),
            [](const SortedCursor::Entry& a, const SortedCursor::Entry& b) {
              return a.uid < b.uid;
            });
  return c;
}

const UserProfile& TieredUserStore::SortedCursor::profile() {
  const Entry& e = entries_[i_];
  if (e.hot) return store_->slots_[std::size_t(e.slot_or_off)];
  ColdRecord rec;
  if (!store_->read_record_(e.slot_or_off, rec)) throw_corrupt();
  scratch_ = UserProfile{};
  if (!decode_profile(rec.blob, scratch_)) throw_corrupt();
  scratch_.user_id.assign(e.uid);
  return scratch_;
}

void TieredUserStore::for_each_sorted(
    const std::function<void(const UserProfile&)>& fn) const {
  for (SortedCursor c = sorted(); !c.done(); c.advance()) fn(c.profile());
}

void TieredUserStore::for_each_of_mut(
    const std::vector<std::string>& uids,
    const std::function<bool(UserProfile&)>& fn) {
  bool any_cold_changed = false;
  for (const std::string& uid : uids) {
    if (std::uint32_t* slot = index_.find(uid)) {
      fn(slots_[*slot]);  // mutated in place
      continue;
    }
    if (!tiered() || cold_count_ == 0 || !bloom_.maybe(fnv1a64(uid))) continue;
    ColdRecord rec;
    if (!find_cold_(uid, rec)) continue;  // Bloom false positive
    UserProfile tmp;
    if (!decode_profile(rec.blob, tmp)) throw_corrupt();
    tmp.user_id = uid;
    if (fn(tmp)) {
      // Re-serialize in place of the old record: the new version shadows it
      // via the bucket chain; the old bytes become compactable garbage.
      payload_scratch_.clear();
      encode_profile(tmp, payload_scratch_);
      append_cold_(tmp.user_id, payload_scratch_);
      cold_live_bytes_ -= rec.framed_bytes;
      any_cold_changed = true;
    }
  }
  if (any_cold_changed) maybe_autocompact_();
}

void TieredUserStore::clear() {
  slots_.clear();
  live_.clear();
  ref_.clear();
  touched_.clear();
  free_.clear();
  index_.clear();
  hand_ = 0;
  hot_count_ = 0;
  cold_count_ = 0;
  cold_live_bytes_ = 0;
  if (fd_ >= 0) {
    if (::ftruncate(fd_, 0) != 0) {
      throw std::runtime_error("user_store: spill-file truncate failed");
    }
    file_bytes_ = 0;
    std::fill(heads_.begin(), heads_.end(), 0);
    bloom_.clear();
  }
}

std::size_t TieredUserStore::demote_idle(double now) {
  if (!tiered() || cfg_.idle_after_s <= 0.0) return 0;
  std::size_t demoted = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (live_[s] && touched_[s] + cfg_.idle_after_s <= now) {
      demote_slot_(std::uint32_t(s));
      ++demoted;
    }
  }
  if (demoted > 0) maybe_autocompact_();
  return demoted;
}

std::size_t TieredUserStore::demote_lru() {
  if (!tiered() || hot_count_ == 0) return 0;
  const std::uint32_t s = evict_one_();
  (void)s;  // stays on free_ for the next allocation
  maybe_autocompact_();
  return 1;
}

void TieredUserStore::compact_cold() {
  if (!tiered() || fd_ < 0) return;
  const auto live = collect_cold_();

  // Geometry sized to the live cold population: chains stay short and the
  // Bloom filter keeps its false-positive rate as the population grows.
  std::size_t new_buckets = 64;
  while (new_buckets < cfg_.cold_buckets) new_buckets <<= 1;
  while (new_buckets * 8 < live.size() && new_buckets < (1u << 22)) {
    new_buckets <<= 1;
  }
  ColdBloom new_bloom;
  new_bloom.reset(cfg_.bloom_bits > 0
                      ? cfg_.bloom_bits
                      : std::max<std::uint64_t>(1u << 16, live.size() * 16));

  std::string rename_from;
  int nfd = -1;
  if (cold_path_.empty()) {
    nfd = open_anon_spill(cfg_.spill_dir);
  } else {
    rename_from = cold_path_ + ".compact";
    nfd = open_named_spill(rename_from);
  }

  std::vector<std::uint64_t> new_heads(new_buckets, 0);
  std::uint64_t new_bytes = 0;
  try {
    for (const auto& [uid, off] : live) {
      ColdRecord rec;
      if (!read_record_(off, rec)) throw_corrupt();
      const std::uint64_t h = fnv1a64(uid);
      const std::size_t b = std::size_t(h) & (new_buckets - 1);
      record_scratch_.clear();
      util::put_uvarint(record_scratch_, new_heads[b]);
      util::put_lv(record_scratch_, uid);
      record_scratch_.append(rec.blob);
      frame_scratch_.clear();
      util::append_frame(frame_scratch_, record_scratch_);
      pwrite_all(nfd, frame_scratch_, new_bytes);
      new_heads[b] = new_bytes + 1;
      new_bytes += frame_scratch_.size();
      new_bloom.insert(h);
    }
  } catch (...) {
    ::close(nfd);
    if (!rename_from.empty()) ::unlink(rename_from.c_str());
    throw;
  }
  if (!rename_from.empty() &&
      ::rename(rename_from.c_str(), cold_path_.c_str()) != 0) {
    ::close(nfd);
    throw std::runtime_error("user_store: spill-file rename failed");
  }
  ::close(fd_);
  fd_ = nfd;
  file_bytes_ = new_bytes;
  cold_live_bytes_ = new_bytes;
  heads_ = std::move(new_heads);
  buckets_ = new_buckets;
  bloom_ = std::move(new_bloom);
  cold_count_ = live.size();
  ++stats_.cold_compactions;
}

void TieredUserStore::maybe_autocompact_() {
  if (!tiered() || fd_ < 0) return;
  // Garbage trigger: over half the (non-trivial) file is dead records.
  const bool garbage = file_bytes_ > (4u << 20) &&
                       file_bytes_ > 2 * cold_live_bytes_ + (1u << 20);
  // Saturation trigger: enough inserts that false positives start costing
  // chain walks; compaction re-sizes the filter to the live population (or,
  // with a pinned bloom_bits, re-inserts only live users). Only fires when
  // rebuilding would actually shed inserts — if the live population alone
  // saturates a pinned filter, compacting in a loop cannot fix it.
  const bool saturated = bloom_.inserts() * 10 > bloom_.bit_count() &&
                         bloom_.inserts() > 2 * cold_count_;
  if (garbage || saturated) compact_cold();
}

}  // namespace oak::core
