// Crash-consistent durability for the Oak serving plane (oak::durability).
//
// OakServer::export_state()/import_state() (core/persistence.cc) snapshot
// the per-user state, but a snapshot alone has no crash story: everything
// since the last snapshot dies with the process. This module adds the
// standard database answer — a write-ahead journal per shard plus periodic
// snapshot + journal truncation — arranged so that recovery after a kill at
// *any* byte reproduces a state the uninterrupted run actually passed
// through, byte-identical under export_state().
//
// Design in one paragraph: the journal records *inputs*, not deltas. Every
// state-mutating request admitted by ShardedOakServer (page serve, report
// POST, including the uid it minted) is framed (util/framing.h: varint
// length + CRC32) and appended to its shard's journal under the shard lock
// it already holds; rule add/remove goes to a single control journal under
// the exclusive rule lock. Since OakServer processing is deterministic in
// (request, now, rules, universe), replaying the surviving records through
// the same code reproduces the exact state — there is no second "apply
// delta" code path to drift. A global sequence number stamped inside each
// record's critical section makes the per-shard merge of control and
// request records replay in mutation order.
//
// On-disk layout (Options::dir):
//
//   MANIFEST              epoch, snapshot file, per-journal replay offsets
//   snapshot-<epoch>.json envelope: rules + OakServer export_state
//   wal-ctl.log           control journal (rule churn)
//   wal-<shard>.log       one request journal per shard
//
// Compaction: under all shard locks, stream snapshot-<E+1>.json (tmp +
// rename) straight from the shards' state, commit a MANIFEST pointing at it
// with offsets = current journal sizes, then truncate the journals and
// commit a second MANIFEST with offsets 0. A crash between the two commits leaves offsets pointing past
// EOF, which recovery reads as "suffix empty" — correct, the data is all in
// the snapshot. Journals are never destroyed before the manifest that
// obsoletes them is durable.
//
// Recovery: load the manifest (rejecting a format_version newer than this
// binary), import the snapshot (decoded by the scanner straight into each
// shard's state), scan each journal from its offset —
// stopping at the first torn or corrupt frame, by design — then replay
// shards in parallel. A directory with no MANIFEST but a bare
// export_state JSON in snapshot.json is accepted as a degraded cold start
// (the pre-journal format: state restored, no journal suffix, rules from
// operator configuration).
//
// Failure injection: FaultFile wraps any AppendFile and burns a CrashPlan's
// global byte budget shared by every file of the simulated process; the
// append that exhausts it is torn mid-record and all later appends write
// nothing — exactly one process crash. tests/durability_fuzz_test.cc drives
// ≥200 randomized kill points through this seam.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/durability_options.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/json_stream.h"

namespace oak::durability {

// ---------------------------------------------------------------------------
// Files.

class AppendFile {
 public:
  virtual ~AppendFile() = default;
  // Appends, returning the bytes actually written. A short count models a
  // crash mid-write; the journal does not retry — the "process" is dead and
  // the partial frame becomes the torn tail recovery must tolerate.
  virtual std::size_t append(std::string_view bytes) = 0;
  // Flush to the OS and fsync. Returns false on failure (or when "dead").
  virtual bool sync() = 0;
};

class PosixFile final : public AppendFile {
 public:
  // Opens (creating if needed) for append. Throws std::runtime_error when
  // the file cannot be opened.
  static std::unique_ptr<PosixFile> open_append(const std::string& path);
  ~PosixFile() override;

  std::size_t append(std::string_view bytes) override;
  bool sync() override;

 private:
  explicit PosixFile(std::FILE* f) : f_(f) {}
  std::FILE* f_ = nullptr;
};

// One simulated process crash, shared by every FaultFile of that process:
// appends burn a global byte budget in call order; the append that exhausts
// it is written only up to the budget boundary (a torn record) and every
// later append — on any file — writes nothing.
struct CrashPlan {
  explicit CrashPlan(std::uint64_t budget) : budget_bytes(budget) {}
  std::uint64_t budget_bytes = ~0ull;
  std::uint64_t written = 0;
  // Appends fully written before death; the fuzz oracle maps this to "ops
  // whose records survived".
  std::uint64_t complete_appends = 0;
  bool dead() const { return written >= budget_bytes; }
};

class FaultFile final : public AppendFile {
 public:
  FaultFile(std::unique_ptr<AppendFile> inner,
            std::shared_ptr<CrashPlan> plan)
      : inner_(std::move(inner)), plan_(std::move(plan)) {}

  std::size_t append(std::string_view bytes) override;
  bool sync() override;

 private:
  std::unique_ptr<AppendFile> inner_;
  std::shared_ptr<CrashPlan> plan_;
};

// ---------------------------------------------------------------------------
// Records.

enum class RecordKind : std::uint8_t {
  kRequest = 1,     // one admitted HTTP request (serve or report)
  kAddRule = 2,     // rule added with its pinned id
  kRemoveRule = 3,  // rule retired
};

struct RequestRecord {
  std::uint64_t seq = 0;
  double now = 0.0;
  bool post = false;         // false: GET page serve; true: report POST
  std::uint64_t minted = 0;  // nonzero: uid was freshly minted as u<minted>
  std::string uid;
  std::string client_ip;
  std::string path;  // request path; the site host is configuration
  std::string body;  // report wire bytes (empty for GET)
};

// View-typed twin of RequestRecord for the ingest hot path: encodes to the
// exact same bytes but borrows the request's strings instead of copying
// them. Valid only for the duration of the append call.
struct RequestRecordView {
  std::uint64_t seq = 0;
  double now = 0.0;
  bool post = false;
  std::uint64_t minted = 0;
  std::string_view uid;
  std::string_view client_ip;
  std::string_view path;
  std::string_view body;
};

struct AddRuleRecord {
  std::uint64_t seq = 0;
  std::int64_t rule_id = 0;
  std::string rule_text;  // core/rule_parser.h format_rules() of the one rule
};

struct RemoveRuleRecord {
  std::uint64_t seq = 0;
  double now = 0.0;
  std::int64_t rule_id = 0;
};

struct Record {
  RecordKind kind = RecordKind::kRequest;
  RequestRecord request;
  AddRuleRecord add_rule;
  RemoveRuleRecord remove_rule;

  std::uint64_t seq() const;
};

std::string encode_record(const Record& r);
// Same encoding appended to `out` (not cleared) — the allocation-free form
// the ingest path uses with a reused scratch buffer.
void encode_record_into(const Record& r, std::string& out);
// The body of a kRequest record (everything after the kind byte). Both the
// owning and the view encode paths funnel through this so they cannot
// drift apart.
void encode_request_into(const RequestRecordView& q, std::string& out);
// False on malformed payload (a CRC-passing but undecodable record is
// corruption; the journal scan stops there).
bool decode_record(std::string_view payload, Record& out);

// ---------------------------------------------------------------------------
// Journal.

// Append side of one journal file. Not internally synchronized: callers
// serialize appends with the lock that already guards the matching state
// mutation (shard mutex for request journals, exclusive rule lock for the
// control journal).
class Journal {
 public:
  Journal(std::string path, std::unique_ptr<AppendFile> file,
          std::uint64_t start_bytes)
      : path_(std::move(path)), file_(std::move(file)), bytes_(start_bytes) {}

  // Frames and appends one record payload; returns the framed size. A
  // short (faulted) write is not retried — the simulated process is dead.
  std::size_t append(std::string_view payload);
  // Encode + frame + append in one step, reusing a member scratch buffer so
  // the steady-state ingest path allocates nothing and the payload bytes
  // are written exactly once. Safe because appends are already serialized
  // by the caller's lock (see class comment).
  std::size_t append_record(const Record& r);
  std::size_t append_request(const RequestRecordView& q);
  void sync();
  void close() { file_.reset(); }
  // Rebind after truncation to zero (compaction reset).
  void reset(std::unique_ptr<AppendFile> file) {
    file_ = std::move(file);
    bytes_ = 0;
  }
  const std::string& path() const { return path_; }
  // Logical size: bytes at open plus everything appended since (what the
  // file size *would* be absent injected faults).
  std::uint64_t bytes() const { return bytes_; }

 private:
  // frame_scratch_ holds [header slot][payload]; flush_scratch_ writes the
  // real header flush against the payload and appends from there.
  std::size_t flush_scratch_();

  std::string path_;
  std::unique_ptr<AppendFile> file_;
  std::uint64_t bytes_ = 0;
  std::string frame_scratch_;
};

struct JournalScan {
  std::vector<Record> records;
  std::uint64_t bytes_consumed = 0;  // offset of the last clean frame end
  bool torn = false;  // scan stopped before the end of the file
};

// Reads a journal file from `start_offset`, decoding frames until the end
// or the first torn/corrupt frame. A missing file or an offset at/past EOF
// scans as empty. Never throws on bad bytes — bad bytes are the expected
// crash residue.
JournalScan scan_journal_file(const std::string& path,
                              std::uint64_t start_offset);

// ---------------------------------------------------------------------------
// Manifest and snapshot envelope.

// Bump when the manifest schema changes incompatibly. Recovery refuses a
// manifest written by a newer binary instead of guessing.
inline constexpr int kManifestFormatVersion = 1;
inline constexpr int kSnapshotEnvelopeVersion = 1;

struct Manifest {
  int format_version = kManifestFormatVersion;
  std::uint64_t epoch = 0;
  std::size_t shards = 0;
  std::string snapshot_file;  // empty: no snapshot yet (empty baseline)
  std::uint64_t ctl_offset = 0;
  std::vector<std::uint64_t> shard_offsets;  // one per shard journal

  util::Json to_json() const;
  // Throws std::runtime_error on a newer format_version or schema errors.
  static Manifest from_json(const util::Json& j);
};

// The durable snapshot file: operator rules (with their pinned ids) plus
// the plain export_state document, so recovery rebuilds the rule set the
// journal suffix was written against. The state is never held as a tree:
// write() streams it from a callback, and a parsed envelope keeps the
// file's bytes and the state document's span in them.
struct SnapshotEnvelope {
  struct RuleEntry {
    std::int64_t id = 0;
    std::string text;  // format_rules() of the one rule
  };
  using StateWriter = std::function<void(util::JsonWriter&)>;

  std::vector<RuleEntry> rules;
  std::int64_t next_rule_id = 1;
  std::string bytes;  // parsed envelopes only
  std::size_t state_begin = 0;
  std::size_t state_end = 0;

  std::string_view state() const {
    return std::string_view(bytes).substr(state_begin,
                                          state_end - state_begin);
  }
  void write(util::JsonWriter& w, const StateWriter& write_state) const;
  // The state is checked for syntax only; read_state decodes it. Throws
  // std::runtime_error on a missing or newer envelope_version,
  // util::JsonError on anything else malformed.
  static SnapshotEnvelope parse(std::string bytes);
};

struct RecoveryReport {
  bool performed = false;     // durability was enabled and startup ran
  bool legacy = false;        // bare export_state loaded (degraded cold start)
  bool bootstrapped = false;  // no manifest found: fresh baseline written
  std::uint64_t epoch = 0;
  std::uint64_t records_replayed = 0;
  std::uint64_t torn_tails = 0;  // journals whose scan stopped early
  std::size_t rules_loaded = 0;  // from the snapshot envelope
  double replay_seconds = 0.0;
};

// ---------------------------------------------------------------------------
// Manager: file layout, manifest dance, metrics. The ShardedOakServer owns
// one and drives it; the Manager knows nothing about Oak state — records in,
// records out.

class Manager {
 public:
  // Throws std::runtime_error on an unusable directory, a manifest written
  // by a newer binary, or a shard-count mismatch (recover with the
  // manifest's shard count, then export/import to resize).
  Manager(Options opts, std::size_t shards, bool metrics_enabled);

  struct Startup {
    bool legacy = false;
    bool bootstrap = false;        // no manifest: baseline must be committed
    bool have_snapshot = false;
    // Valid when have_snapshot. A legacy file has no rules: its whole
    // bytes are the state.
    SnapshotEnvelope snapshot;
    std::vector<Record> ctl;       // control journal suffix
    std::vector<std::vector<Record>> shards;  // request journal suffixes
    std::uint64_t torn_tails = 0;
    std::uint64_t max_seq = 0;
  };

  // Reads manifest + snapshot + journal suffixes. Call once, before
  // start_recording().
  Startup startup();

  // Truncates torn tails, re-commits a normalized manifest, and opens the
  // journals for append. After this, append_* and compact() are legal.
  void start_recording();
  bool recording() const { return recording_; }

  // Next global record sequence number. Call inside the critical section
  // that performs the matching state mutation.
  std::uint64_t next_seq() { return seq_.fetch_add(1) + 1; }
  void seed_seq(std::uint64_t max_seen) { seq_.store(max_seen); }

  // Appends (framed) under the caller's locks; see Journal.
  void append_request(std::size_t shard, const RequestRecordView& r);
  void append_control(const Record& r);

  bool should_compact() const;
  // Writes the snapshot + manifest pair and resets the journals. The caller
  // holds every shard lock (consistent cut) and passes the rules plus a
  // writer that streams the state. A throw (the snapshot could not be
  // written) leaves the committed manifest, snapshot and journals alone.
  void compact(const SnapshotEnvelope& env,
               const SnapshotEnvelope::StateWriter& write_state);

  // Folds the replay outcome into the report and the recovery instruments.
  void note_recovery(std::uint64_t records_replayed, double replay_seconds);

  const Options& options() const { return opts_; }
  std::uint64_t epoch() const { return epoch_; }
  RecoveryReport& report() { return report_; }
  const RecoveryReport& report() const { return report_; }

  obs::MetricsSnapshot metrics_snapshot() const { return metrics_.snapshot(); }

 private:
  std::string file_path(const std::string& name) const;
  std::unique_ptr<AppendFile> open_file(const std::string& path) const;
  void write_manifest(const Manifest& m);
  Manifest current_manifest() const;

  Options opts_;
  std::size_t num_shards_;
  std::uint64_t epoch_ = 0;
  std::string snapshot_file_;  // currently referenced by the manifest
  // Offsets the current manifest replays from (journal bytes at last
  // commit); live journal bytes beyond them are the un-snapshotted suffix.
  std::uint64_t ctl_offset_ = 0;
  std::vector<std::uint64_t> shard_offsets_;
  // Clean scan ends from startup(): where torn tails get truncated and
  // appending resumes.
  bool have_manifest_ = false;
  std::uint64_t consumed_ctl_ = 0;
  std::vector<std::uint64_t> consumed_shards_;
  std::unique_ptr<Journal> ctl_;
  std::vector<std::unique_ptr<Journal>> journals_;
  bool recording_ = false;
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> live_bytes_{0};  // appended since last compact
  RecoveryReport report_;

  obs::MetricsRegistry metrics_;
  struct Instruments {
    obs::Counter* appends = nullptr;
    obs::Histogram* append_bytes = nullptr;
    obs::Histogram* sync_seconds = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Histogram* compact_seconds = nullptr;
    obs::Gauge* snapshot_bytes = nullptr;
    obs::Gauge* live_bytes = nullptr;
    obs::Gauge* epoch = nullptr;
    obs::Histogram* recovery_seconds = nullptr;
    obs::Counter* replayed = nullptr;
    obs::Counter* torn_tails = nullptr;
  } obs_;
};

// Writes `path` atomically: `write` streams the content into a tmp file,
// then flush + fsync + rename. Throws std::runtime_error on IO failure;
// when `write` throws, the tmp file is removed and the error propagates.
void write_file_atomic(const std::string& path,
                       const std::function<void(std::FILE*)>& write);

}  // namespace oak::durability
