#include "core/durability.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define OAK_HAVE_FSYNC 1
#endif

#include "util/framing.h"

namespace oak::durability {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Files.

std::unique_ptr<PosixFile> PosixFile::open_append(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    throw std::runtime_error("durability: cannot open '" + path +
                             "' for append: " + std::strerror(errno));
  }
  // Unbuffered: every append goes straight to the OS page cache in one
  // write(). The journal's baseline guarantee is surviving a *process*
  // crash, and bytes parked in a stdio buffer die with the process; a
  // buffered fwrite+fflush pair reaches the same place with an extra copy.
  std::setvbuf(f, nullptr, _IONBF, 0);
  return std::unique_ptr<PosixFile>(new PosixFile(f));
}

PosixFile::~PosixFile() {
  if (f_ != nullptr) std::fclose(f_);
}

std::size_t PosixFile::append(std::string_view bytes) {
  if (bytes.empty()) return 0;
  return std::fwrite(bytes.data(), 1, bytes.size(), f_);
}

bool PosixFile::sync() {
  if (std::fflush(f_) != 0) return false;
#if defined(OAK_HAVE_FSYNC)
  return ::fsync(fileno(f_)) == 0;
#else
  return true;
#endif
}

std::size_t FaultFile::append(std::string_view bytes) {
  if (plan_->dead()) return 0;
  const std::uint64_t remaining = plan_->budget_bytes - plan_->written;
  const std::size_t allowed =
      static_cast<std::size_t>(std::min<std::uint64_t>(remaining, bytes.size()));
  const std::size_t wrote = inner_->append(bytes.substr(0, allowed));
  plan_->written += wrote;
  if (wrote == bytes.size()) ++plan_->complete_appends;
  return wrote;
}

bool FaultFile::sync() {
  if (plan_->dead()) return false;
  return inner_->sync();
}

// ---------------------------------------------------------------------------
// Records.

std::uint64_t Record::seq() const {
  switch (kind) {
    case RecordKind::kRequest:
      return request.seq;
    case RecordKind::kAddRule:
      return add_rule.seq;
    case RecordKind::kRemoveRule:
      return remove_rule.seq;
  }
  return 0;
}

std::string encode_record(const Record& r) {
  std::string out;
  encode_record_into(r, out);
  return out;
}

void encode_request_into(const RequestRecordView& q, std::string& out) {
  util::put_uvarint(out, q.seq);
  util::put_double_bits(out, q.now);
  out.push_back(q.post ? 1 : 0);
  util::put_uvarint(out, q.minted);
  util::put_lv(out, q.uid);
  util::put_lv(out, q.client_ip);
  util::put_lv(out, q.path);
  util::put_lv(out, q.body);
}

void encode_record_into(const Record& r, std::string& out) {
  out.push_back(static_cast<char>(r.kind));
  switch (r.kind) {
    case RecordKind::kRequest: {
      const RequestRecord& q = r.request;
      encode_request_into(
          RequestRecordView{q.seq, q.now, q.post, q.minted, q.uid, q.client_ip,
                            q.path, q.body},
          out);
      break;
    }
    case RecordKind::kAddRule: {
      util::put_uvarint(out, r.add_rule.seq);
      util::put_uvarint(out, static_cast<std::uint64_t>(r.add_rule.rule_id));
      util::put_lv(out, r.add_rule.rule_text);
      break;
    }
    case RecordKind::kRemoveRule: {
      util::put_uvarint(out, r.remove_rule.seq);
      util::put_double_bits(out, r.remove_rule.now);
      util::put_uvarint(out,
                        static_cast<std::uint64_t>(r.remove_rule.rule_id));
      break;
    }
  }
}

bool decode_record(std::string_view payload, Record& out) {
  if (payload.empty()) return false;
  std::size_t pos = 0;
  const auto kind = static_cast<std::uint8_t>(payload[pos++]);
  std::string_view sv;
  switch (kind) {
    case static_cast<std::uint8_t>(RecordKind::kRequest): {
      out.kind = RecordKind::kRequest;
      RequestRecord& q = out.request;
      if (!util::get_uvarint(payload, pos, q.seq)) return false;
      if (!util::get_double_bits(payload, pos, q.now)) return false;
      if (pos >= payload.size()) return false;
      q.post = payload[pos++] != 0;
      if (!util::get_uvarint(payload, pos, q.minted)) return false;
      if (!util::get_lv(payload, pos, sv)) return false;
      q.uid.assign(sv);
      if (!util::get_lv(payload, pos, sv)) return false;
      q.client_ip.assign(sv);
      if (!util::get_lv(payload, pos, sv)) return false;
      q.path.assign(sv);
      if (!util::get_lv(payload, pos, sv)) return false;
      q.body.assign(sv);
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kAddRule): {
      out.kind = RecordKind::kAddRule;
      AddRuleRecord& a = out.add_rule;
      std::uint64_t id = 0;
      if (!util::get_uvarint(payload, pos, a.seq)) return false;
      if (!util::get_uvarint(payload, pos, id)) return false;
      a.rule_id = static_cast<std::int64_t>(id);
      if (!util::get_lv(payload, pos, sv)) return false;
      a.rule_text.assign(sv);
      break;
    }
    case static_cast<std::uint8_t>(RecordKind::kRemoveRule): {
      out.kind = RecordKind::kRemoveRule;
      RemoveRuleRecord& d = out.remove_rule;
      std::uint64_t id = 0;
      if (!util::get_uvarint(payload, pos, d.seq)) return false;
      if (!util::get_double_bits(payload, pos, d.now)) return false;
      if (!util::get_uvarint(payload, pos, id)) return false;
      d.rule_id = static_cast<std::int64_t>(id);
      break;
    }
    default:
      return false;
  }
  return pos == payload.size();  // trailing bytes are corruption
}

// ---------------------------------------------------------------------------
// Journal.

std::size_t Journal::append(std::string_view payload) {
  std::string frame;
  frame.reserve(payload.size() + 16);
  util::append_frame(frame, payload);
  if (file_ != nullptr) file_->append(frame);
  bytes_ += frame.size();
  return frame.size();
}

// Room reserved in front of the payload for the frame header: a payload
// length uvarint (<= 10 bytes) plus the fixed32 CRC.
constexpr std::size_t kFrameHeaderMax = 10 + 4;

std::size_t Journal::append_record(const Record& r) {
  frame_scratch_.assign(kFrameHeaderMax, '\0');
  encode_record_into(r, frame_scratch_);
  return flush_scratch_();
}

std::size_t Journal::append_request(const RequestRecordView& q) {
  frame_scratch_.assign(kFrameHeaderMax, '\0');
  frame_scratch_.push_back(static_cast<char>(RecordKind::kRequest));
  encode_request_into(q, frame_scratch_);
  return flush_scratch_();
}

std::size_t Journal::flush_scratch_() {
  const std::size_t payload_len = frame_scratch_.size() - kFrameHeaderMax;
  const std::string_view payload(frame_scratch_.data() + kFrameHeaderMax,
                                 payload_len);
  // Build the real header in a small (SSO) buffer, then butt it up against
  // the payload so the frame goes out as one contiguous write.
  std::string head;
  util::put_uvarint(head, payload_len);
  util::put_fixed32(head, util::crc32(payload));
  const std::size_t start = kFrameHeaderMax - head.size();
  std::memcpy(frame_scratch_.data() + start, head.data(), head.size());
  const std::string_view frame(frame_scratch_.data() + start,
                               head.size() + payload_len);
  if (file_ != nullptr) file_->append(frame);
  bytes_ += frame.size();
  return frame.size();
}

void Journal::sync() {
  if (file_ != nullptr) file_->sync();
}

namespace {

std::string read_whole_file(const std::string& path) {
  // One allocation of the file's size (a snapshot runs to tens of MB); a
  // directory or missing file reads as empty.
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) return {};
  std::ifstream in(path, std::ios::binary);
  std::string data(static_cast<std::size_t>(size), '\0');
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  data.resize(static_cast<std::size_t>(in.gcount()));
  return data;
}

}  // namespace

JournalScan scan_journal_file(const std::string& path,
                              std::uint64_t start_offset) {
  JournalScan scan;
  const std::string data = read_whole_file(path);
  if (start_offset >= data.size()) {
    scan.bytes_consumed = data.size();
    return scan;
  }
  scan.bytes_consumed = start_offset;
  std::size_t pos = static_cast<std::size_t>(start_offset);
  while (pos < data.size()) {
    std::string_view payload;
    const util::FrameStatus status = util::read_frame(data, pos, payload);
    if (status != util::FrameStatus::kOk) break;
    Record rec;
    if (!decode_record(payload, rec)) break;  // CRC ok, contents not: stop
    scan.records.push_back(std::move(rec));
    scan.bytes_consumed = pos;
  }
  scan.torn = scan.bytes_consumed < data.size();
  return scan;
}

// ---------------------------------------------------------------------------
// Manifest and snapshot envelope.

util::Json Manifest::to_json() const {
  util::JsonObject o;
  o["format_version"] = format_version;
  o["epoch"] = epoch;
  o["shards"] = shards;
  o["snapshot"] = snapshot_file;
  o["ctl_offset"] = ctl_offset;
  util::JsonArray offs;
  for (std::uint64_t v : shard_offsets) offs.emplace_back(v);
  o["shard_offsets"] = std::move(offs);
  return util::Json(std::move(o));
}

Manifest Manifest::from_json(const util::Json& j) {
  Manifest m;
  m.format_version = static_cast<int>(j.at("format_version").as_int());
  if (m.format_version > kManifestFormatVersion) {
    throw std::runtime_error(
        "durability: MANIFEST format_version " +
        std::to_string(m.format_version) +
        " is newer than this binary supports (" +
        std::to_string(kManifestFormatVersion) +
        "); recover with the binary that wrote it");
  }
  m.epoch = static_cast<std::uint64_t>(j.at("epoch").as_int());
  m.shards = static_cast<std::size_t>(j.at("shards").as_int());
  m.snapshot_file = j.at("snapshot").as_string();
  m.ctl_offset = static_cast<std::uint64_t>(j.at("ctl_offset").as_int());
  for (const auto& v : j.at("shard_offsets").as_array()) {
    m.shard_offsets.push_back(static_cast<std::uint64_t>(v.as_int()));
  }
  if (m.shard_offsets.size() != m.shards) {
    throw std::runtime_error("durability: MANIFEST shard_offsets/shards mismatch");
  }
  return m;
}

void SnapshotEnvelope::write(util::JsonWriter& w,
                             const StateWriter& write_state) const {
  w.begin_object();
  w.member("envelope_version", kSnapshotEnvelopeVersion);
  w.member("next_rule_id", double(next_rule_id));
  w.key("rules");
  w.begin_array();
  for (const RuleEntry& r : rules) {
    w.begin_object();
    w.member("id", double(r.id));
    w.member("rule", r.text);
    w.end_object();
  }
  w.end_array();
  w.key("state");
  write_state(w);
  w.end_object();
}

SnapshotEnvelope SnapshotEnvelope::parse(std::string bytes) {
  SnapshotEnvelope env;
  env.bytes = std::move(bytes);
  util::JsonReader r(env.bytes);
  r.begin_object();
  if (!r.has("envelope_version")) {
    throw std::runtime_error(
        "durability: snapshot file is not an envelope (missing "
        "envelope_version)");
  }
  if (r.integer() > kSnapshotEnvelopeVersion) {
    throw std::runtime_error(
        "durability: snapshot envelope_version newer than this binary");
  }
  env.next_rule_id = r.integer("next_rule_id");
  r.want("rules");
  r.begin_array();
  while (r.more()) {
    RuleEntry e;
    r.begin_object();
    e.id = r.integer("id");
    e.text = r.string("rule");
    r.end_object();
    env.rules.push_back(std::move(e));
  }
  // The state is only checked for syntax here; its reader decodes it.
  // Its value starts after the colon that follows the key.
  r.want("state");
  const std::size_t after_key = r.offset();
  r.skip();
  env.state_begin = env.bytes.find_first_not_of(" \t\n\r:", after_key);
  env.state_end = r.offset();
  r.end_object();
  r.end();
  return env;
}

// ---------------------------------------------------------------------------
// Atomic file write.

void write_file_atomic(const std::string& path,
                       const std::function<void(std::FILE*)>& write) {
  const std::string tmp = path + ".tmp";
  {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
      throw std::runtime_error("durability: cannot write '" + tmp +
                               "': " + std::strerror(errno));
    }
    auto discard = [&] {
      std::fclose(f);
      std::error_code ec;
      fs::remove(tmp, ec);
    };
    try {
      write(f);
    } catch (...) {
      discard();
      throw;
    }
    bool ok = std::ferror(f) == 0 && std::fflush(f) == 0;
#if defined(OAK_HAVE_FSYNC)
    ok = ok && ::fsync(fileno(f)) == 0;
#endif
    if (!ok) {
      discard();
      throw std::runtime_error("durability: short write to '" + tmp + "'");
    }
    std::fclose(f);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("durability: rename '" + tmp + "' -> '" + path +
                             "' failed: " + std::strerror(errno));
  }
}

// ---------------------------------------------------------------------------
// Manager.

namespace {
constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kCtlName = "wal-ctl.log";
constexpr const char* kLegacySnapshotName = "snapshot.json";

std::string shard_journal_name(std::size_t i) {
  return "wal-" + std::to_string(i) + ".log";
}

void truncate_to(const std::string& path, std::uint64_t size) {
  std::error_code ec;
  if (!fs::exists(path, ec)) return;
  const std::uint64_t actual = fs::file_size(path, ec);
  if (ec || actual <= size) return;
  fs::resize_file(path, size, ec);
  if (ec) {
    throw std::runtime_error("durability: cannot truncate '" + path +
                             "': " + ec.message());
  }
}

}  // namespace

Manager::Manager(Options opts, std::size_t shards, bool metrics_enabled)
    : opts_(std::move(opts)), num_shards_(shards) {
  if (opts_.dir.empty()) {
    throw std::runtime_error("durability: Options::dir must be set");
  }
  std::error_code ec;
  fs::create_directories(opts_.dir, ec);
  if (ec) {
    throw std::runtime_error("durability: cannot create '" + opts_.dir +
                             "': " + ec.message());
  }
  shard_offsets_.assign(num_shards_, 0);
  consumed_shards_.assign(num_shards_, 0);
  journals_.resize(num_shards_);
  if (metrics_enabled) {
    obs_.appends = &metrics_.counter("oak_journal_appends_total");
    obs_.append_bytes = &metrics_.histogram("oak_journal_append_bytes",
                                            obs::HistogramSpec::bytes());
    obs_.sync_seconds = &metrics_.histogram("oak_journal_sync_seconds");
    obs_.compactions = &metrics_.counter("oak_journal_compactions_total");
    obs_.compact_seconds = &metrics_.histogram("oak_journal_compact_seconds");
    obs_.snapshot_bytes = &metrics_.gauge("oak_journal_snapshot_bytes");
    obs_.live_bytes = &metrics_.gauge("oak_journal_live_bytes");
    obs_.epoch = &metrics_.gauge("oak_journal_epoch");
    obs_.recovery_seconds = &metrics_.histogram("oak_journal_recovery_seconds");
    obs_.replayed = &metrics_.counter("oak_journal_records_replayed_total");
    obs_.torn_tails = &metrics_.counter("oak_journal_torn_tails_total");
  }
}

std::string Manager::file_path(const std::string& name) const {
  return (fs::path(opts_.dir) / name).string();
}

std::unique_ptr<AppendFile> Manager::open_file(const std::string& path) const {
  if (opts_.file_factory) return opts_.file_factory(path);
  return PosixFile::open_append(path);
}

Manager::Startup Manager::startup() {
  Startup st;
  st.shards.resize(num_shards_);
  const std::string manifest_path = file_path(kManifestName);
  std::error_code ec;
  if (fs::exists(manifest_path, ec)) {
    have_manifest_ = true;
    const Manifest m =
        Manifest::from_json(util::Json::parse(read_whole_file(manifest_path)));
    if (m.shards != num_shards_) {
      throw std::runtime_error(
          "durability: MANIFEST was written for " + std::to_string(m.shards) +
          " shards but this server has " + std::to_string(num_shards_) +
          "; recover with the manifest's shard count, then export/import to "
          "resize");
    }
    epoch_ = m.epoch;
    snapshot_file_ = m.snapshot_file;
    ctl_offset_ = m.ctl_offset;
    shard_offsets_ = m.shard_offsets;
    if (!snapshot_file_.empty()) {
      st.snapshot =
          SnapshotEnvelope::parse(read_whole_file(file_path(snapshot_file_)));
      st.have_snapshot = true;
      report_.rules_loaded = st.snapshot.rules.size();
    }
    JournalScan cs = scan_journal_file(file_path(kCtlName), ctl_offset_);
    consumed_ctl_ = cs.bytes_consumed;
    if (cs.torn) ++st.torn_tails;
    st.ctl = std::move(cs.records);
    for (std::size_t i = 0; i < num_shards_; ++i) {
      JournalScan ss =
          scan_journal_file(file_path(shard_journal_name(i)), shard_offsets_[i]);
      consumed_shards_[i] = ss.bytes_consumed;
      if (ss.torn) ++st.torn_tails;
      st.shards[i] = std::move(ss.records);
    }
    for (const Record& r : st.ctl) st.max_seq = std::max(st.max_seq, r.seq());
    for (const auto& list : st.shards) {
      for (const Record& r : list) st.max_seq = std::max(st.max_seq, r.seq());
    }
  } else if (fs::exists(file_path(kLegacySnapshotName), ec)) {
    // Pre-journal deployment: a bare export_state JSON and nothing else.
    // Degraded cold start — state restored, no journal suffix to replay,
    // rules expected from operator configuration (the old contract).
    st.legacy = true;
    st.bootstrap = true;
    st.have_snapshot = true;
    st.snapshot.bytes = read_whole_file(file_path(kLegacySnapshotName));
    st.snapshot.state_end = st.snapshot.bytes.size();
  } else {
    st.bootstrap = true;
  }
  report_.legacy = st.legacy;
  report_.bootstrapped = st.bootstrap;
  report_.epoch = epoch_;
  report_.torn_tails = st.torn_tails;
  if (obs_.torn_tails != nullptr) obs_.torn_tails->inc(st.torn_tails);
  return st;
}

void Manager::start_recording() {
  // Drop torn tails so appending resumes at a clean frame boundary, clamp
  // replay offsets to what actually survived, and re-commit the manifest so
  // offsets can never point past data that future appends will overwrite.
  truncate_to(file_path(kCtlName), consumed_ctl_);
  ctl_offset_ = std::min(ctl_offset_, consumed_ctl_);
  for (std::size_t i = 0; i < num_shards_; ++i) {
    truncate_to(file_path(shard_journal_name(i)), consumed_shards_[i]);
    shard_offsets_[i] = std::min(shard_offsets_[i], consumed_shards_[i]);
  }
  if (have_manifest_) write_manifest(current_manifest());

  ctl_ = std::make_unique<Journal>(file_path(kCtlName),
                                   open_file(file_path(kCtlName)),
                                   consumed_ctl_);
  for (std::size_t i = 0; i < num_shards_; ++i) {
    const std::string path = file_path(shard_journal_name(i));
    journals_[i] =
        std::make_unique<Journal>(path, open_file(path), consumed_shards_[i]);
    live_bytes_.fetch_add(consumed_shards_[i] - shard_offsets_[i]);
  }
  live_bytes_.fetch_add(consumed_ctl_ - ctl_offset_);
  if (obs_.live_bytes != nullptr) {
    obs_.live_bytes->set(static_cast<double>(live_bytes_.load()));
  }
  if (obs_.epoch != nullptr) obs_.epoch->set(static_cast<double>(epoch_));
  recording_ = true;
}

Manifest Manager::current_manifest() const {
  Manifest m;
  m.epoch = epoch_;
  m.shards = num_shards_;
  m.snapshot_file = snapshot_file_;
  m.ctl_offset = ctl_offset_;
  m.shard_offsets = shard_offsets_;
  return m;
}

void Manager::write_manifest(const Manifest& m) {
  write_file_atomic(file_path(kManifestName), [&m](std::FILE* f) {
    util::JsonWriter w(f, /*indent=*/2);
    w.value(m.to_json());
    w.flush();
  });
}

void Manager::append_request(std::size_t shard, const RequestRecordView& r) {
  Journal& j = *journals_[shard];
  const std::size_t framed = j.append_request(r);
  if (opts_.fsync_each_append) {
    obs::ScopedTimer timer(obs_.sync_seconds);
    j.sync();
  }
  live_bytes_.fetch_add(framed, std::memory_order_relaxed);
  if (obs_.appends != nullptr) obs_.appends->inc();
  if (obs_.append_bytes != nullptr) {
    obs_.append_bytes->observe(static_cast<double>(framed));
  }
  if (obs_.live_bytes != nullptr) {
    obs_.live_bytes->set(
        static_cast<double>(live_bytes_.load(std::memory_order_relaxed)));
  }
}

void Manager::append_control(const Record& r) {
  const std::size_t framed = ctl_->append_record(r);
  if (opts_.fsync_each_append) {
    obs::ScopedTimer timer(obs_.sync_seconds);
    ctl_->sync();
  }
  live_bytes_.fetch_add(framed, std::memory_order_relaxed);
  if (obs_.appends != nullptr) obs_.appends->inc();
  if (obs_.append_bytes != nullptr) {
    obs_.append_bytes->observe(static_cast<double>(framed));
  }
}

void Manager::note_recovery(std::uint64_t records_replayed,
                            double replay_seconds) {
  report_.performed = true;
  report_.records_replayed = records_replayed;
  report_.replay_seconds = replay_seconds;
  if (obs_.replayed != nullptr) obs_.replayed->inc(records_replayed);
  if (obs_.recovery_seconds != nullptr) {
    obs_.recovery_seconds->observe(replay_seconds);
  }
}

bool Manager::should_compact() const {
  return recording_ &&
         live_bytes_.load(std::memory_order_relaxed) >=
             opts_.compact_threshold_bytes;
}

void Manager::compact(const SnapshotEnvelope& env,
                      const SnapshotEnvelope::StateWriter& write_state) {
  obs::ScopedTimer compact_timer(obs_.compact_seconds);
  const std::uint64_t e = epoch_ + 1;
  const std::string snap_name = "snapshot-" + std::to_string(e) + ".json";

  // 1. The snapshot itself, streamed, durable before anything references
  // it.
  std::uint64_t snap_bytes = 0;
  write_file_atomic(file_path(snap_name), [&](std::FILE* f) {
    util::JsonWriter w(f);
    env.write(w, write_state);
    w.flush();
    snap_bytes = w.bytes();
  });
  if (obs_.snapshot_bytes != nullptr) {
    obs_.snapshot_bytes->set(static_cast<double>(snap_bytes));
  }

  // 2. Commit: a manifest pointing at the new snapshot, replay offsets at
  // the current journal ends. From here on, recovery uses epoch `e`.
  Manifest committed;
  committed.epoch = e;
  committed.shards = num_shards_;
  committed.snapshot_file = snap_name;
  committed.ctl_offset = ctl_->bytes();
  for (const auto& j : journals_) committed.shard_offsets.push_back(j->bytes());
  {
    obs::ScopedTimer timer(obs_.sync_seconds);
    write_manifest(committed);
  }
  const std::string old_snap = snapshot_file_;
  epoch_ = e;
  snapshot_file_ = snap_name;
  ctl_offset_ = committed.ctl_offset;
  shard_offsets_ = committed.shard_offsets;
  if (!old_snap.empty() && old_snap != snap_name) {
    std::error_code ec;
    fs::remove(file_path(old_snap), ec);  // best effort
  }

  // 3. Reclaim journal space. A crash anywhere in here leaves offsets
  // pointing at or past EOF, which recovery reads as "suffix empty" —
  // correct, everything is in the snapshot; start_recording() then
  // normalizes the manifest.
  auto reclaim = [this](Journal& j) {
    j.sync();
    j.close();
    std::error_code ec;
    fs::resize_file(j.path(), 0, ec);
    j.reset(open_file(j.path()));
  };
  reclaim(*ctl_);
  for (const auto& j : journals_) reclaim(*j);
  ctl_offset_ = 0;
  shard_offsets_.assign(num_shards_, 0);
  write_manifest(current_manifest());

  live_bytes_.store(0, std::memory_order_relaxed);
  if (obs_.compactions != nullptr) obs_.compactions->inc();
  if (obs_.live_bytes != nullptr) obs_.live_bytes->set(0.0);
  if (obs_.epoch != nullptr) obs_.epoch->set(static_cast<double>(epoch_));
}

}  // namespace oak::durability
