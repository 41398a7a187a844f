// Durability for loosely structured databases: binary snapshots plus a
// crash-consistent, checksummed, segmented write-ahead log. The paper
// leaves storage strategies as an open problem (Sec 6.2); this is the
// hardened version of the obvious strategy: snapshot the whole store,
// log subsequent mutations, recover by replaying the log over the
// snapshot — now with the properties a real log needs:
//
//  * CRC32C per record (over the length prefix and the payload), so a
//    flipped byte anywhere in a record is detected deterministically,
//    not just a torn final record.
//  * Salvage-to-last-valid-prefix recovery: replay stops at the first
//    invalid record, the bad suffix (and any later segments) is
//    truncated away, and RecoveryStats reports exactly what was kept
//    and what was dropped. Acknowledged writes before the damage are
//    never lost; bytes after it are never trusted.
//  * Size-based segment rotation (<base>.000001, <base>.000002, ...),
//    so one corrupt region cannot poison an unbounded file and old
//    segments can be dropped wholesale at checkpoints.
//  * Checkpoint generations: a checkpoint writes a snapshot stamped
//    with generation G+1 (atomically, via rename), starts a fresh
//    segment stamped G+1, then unlinks older segments. Recovery skips
//    any segment whose generation predates the snapshot's, so a crash
//    anywhere inside the checkpoint sequence recovers correctly and
//    replay work stays bounded by the data written since the last
//    checkpoint.
//
// WAL records are self-contained (they carry entity names, not ids), so
// a log remains valid regardless of interning order.
//
// Fault injection: the write, flush, fsync, rotate and checkpoint paths
// carry failpoints (util/failpoint.h) named wal.append.write,
// wal.append.flush, wal.fsync, wal.rotate, snapshot.write, plus the
// group-commit sites wal.batch.record (before each record of a group)
// and wal.batch.sync (after the group's flush, before its fsync); the
// crash-torture harness kills the process at each of them.
#ifndef LSD_STORE_PERSISTENCE_H_
#define LSD_STORE_PERSISTENCE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "rules/rule.h"
#include "store/fact_store.h"
#include "util/status.h"

namespace lsd {

// Writes a full snapshot (entities, facts, rules) to `path`, stamped
// with a checkpoint generation. Flushes and fsyncs before returning.
Status SaveSnapshot(const std::string& path, const FactStore& store,
                    const std::vector<Rule>& rules, uint64_t generation = 0);

// SaveSnapshot to `path + ".tmp"`, then atomically rename over `path`:
// a crash mid-write leaves the previous snapshot intact.
Status SaveSnapshotAtomic(const std::string& path, const FactStore& store,
                          const std::vector<Rule>& rules,
                          uint64_t generation = 0);

// Loads a snapshot into an empty FactStore. `store` must be freshly
// constructed (only builtins interned); rules are appended. The
// snapshot's checkpoint generation is returned through `generation`
// when non-null.
Status LoadSnapshot(const std::string& path, FactStore* store,
                    std::vector<Rule>* rules,
                    uint64_t* generation = nullptr);

// How hard the WAL pushes each record toward the platter.
enum class WalSync : uint8_t {
  kFlush,  // fflush only: survives process crashes, not power loss
  kFsync,  // fflush + fsync every record: survives power loss, slower
};

struct WalOptions {
  WalSync sync = WalSync::kFlush;
  // Rotate to a fresh segment once the active one exceeds this many
  // bytes (0 disables rotation).
  uint64_t segment_bytes = 4ull << 20;
};

// What recovery found and what it had to do. Returned by Wal::Replay
// (and surfaced by LooseDb::Recover / SharedStore::last_recovery()).
struct RecoveryStats {
  bool snapshot_loaded = false;
  uint64_t generation = 0;         // checkpoint generation recovered at
  uint64_t records_replayed = 0;   // checksum-valid records applied
  uint64_t segments_replayed = 0;  // segments read end to end (or salvaged)
  uint64_t segments_skipped = 0;   // stale generation: data already in snap
  uint64_t segments_dropped = 0;   // unreadable, or after a corrupt record
  uint64_t bytes_replayed = 0;     // record bytes applied
  uint64_t bytes_dropped = 0;      // corrupt or torn bytes truncated away
  bool tail_truncated = false;     // a torn/corrupt suffix was removed
  std::string detail;              // human-readable note on damage, if any

  std::string ToString() const;
};

// WAL record opcodes. Public so readers other than Replay (the
// replication follower, kMutation frames) can interpret records.
enum class WalOpCode : uint8_t {
  kAssert = 1,
  kRetract = 2,
  kRule = 3,
  kEnableRule = 4,
  kDisableRule = 5,
};

// One mutation record: an opcode plus its name fields. This is the only
// form an assert, retract or rule change takes outside a LooseDb: the
// log writes it, recovery and the replication follower read it back,
// and a kMutation frame carries a run of them. The group-commit leader
// collects the records of every mutation in a commit group
// (LooseDb::set_mutation_capture) and hands them to Wal::AppendBatch so
// the whole group shares one fflush+fsync; LooseDb::Apply applies them.
struct WalRecord {
  uint8_t op = 0;
  std::vector<std::string> fields;
};

// The record framing, the one encoder: appends
// [u32 len][u32 crc][u8 op][u8 nfields][u32 len, bytes]... to `out`,
// where len counts the bytes after the crc and the crc (CRC32C) covers
// len and those bytes. Integers are in host byte order.
void EncodeWalRecord(const WalRecord& record, std::string* out);

// A byte coordinate in the segmented log: (checkpoint generation,
// segment sequence number, byte offset within that segment, header
// included). Replication followers resume from one of these; the
// zero position means "from the very beginning / send me everything".
struct WalPosition {
  uint64_t generation = 0;
  uint64_t segment_seq = 0;
  uint64_t offset = 0;

  bool IsZero() const { return segment_seq == 0 && offset == 0; }
  friend bool operator==(const WalPosition& a, const WalPosition& b) {
    return a.generation == b.generation &&
           a.segment_seq == b.segment_seq && a.offset == b.offset;
  }
  friend bool operator!=(const WalPosition& a, const WalPosition& b) {
    return !(a == b);
  }
  std::string ToString() const;
};

// One on-disk segment as the inventory API reports it (the
// `Wal::TailReader` satellite: replication and the shell read the log
// through this instead of poking at files).
struct WalSegmentInfo {
  uint64_t seq = 0;
  uint64_t generation = 0;
  uint64_t bytes = 0;  // file size, segment header included
  std::string path;
};

// Builders producing the records LooseDb logs. `op` of a fact record is
// kAssert or kRetract; its fields are the fact's three names.
WalRecord WalFactRecord(WalOpCode op, const EntityTable& entities,
                        const Fact& f);
WalRecord WalRuleRecord(const Rule& rule, const EntityTable& entities);
WalRecord WalRuleEnabledRecord(const std::string& rule_name, bool enabled);

// Append-only mutation log over a family of segment files
// `<base>.NNNNNN`. Single-writer; Replay and TailReaders are readers
// (TailReaders only ever read at or below durable_position(), which the
// writer publishes after each batch lands).
class Wal {
 public:
  // Bytes of segment header (magic, generation, seq) before the first
  // record; a WalPosition at the start of a segment's records has
  // offset == kSegmentHeaderSize.
  static constexpr uint64_t kSegmentHeaderSize = 8 + 8 + 8;

  Wal() = default;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens the newest segment of `<base>.NNNNNN` for appending, creating
  // segment 000001 stamped with `generation` if none exist. Run
  // Replay() on the same base first: it leaves the log salvaged back to
  // its last valid prefix, which is the only safe append point.
  Status Open(const std::string& base, const WalOptions& options = {},
              uint64_t generation = 0);
  void Close();

  WalSync sync_mode() const { return options_.sync; }
  bool is_open() const { return file_ != nullptr; }

  // The checkpoint generation stamped into newly created segments.
  uint64_t generation() const { return generation_; }
  // Bytes of record data appended to current-generation segments (the
  // auto-checkpoint trigger; resets on BeginGeneration). Atomic so a
  // stats reader can sample it while the writer appends.
  uint64_t generation_bytes() const { return generation_bytes_.load(); }

  // The one append: frames every record of `records` (EncodeWalRecord),
  // then flushes (and at WalSync::kFsync, fsyncs) ONCE for the whole
  // group — the amortization that makes N concurrent writers pay one
  // platter round trip instead of N. One record is a group of one. The
  // group never spans a rotation: the segment is rotated (if due) before
  // the first record, then the whole group lands in one segment even if
  // it overshoots segment_bytes (the next append rotates). Any
  // write/flush/fsync failure (real or injected) poisons the log and the
  // whole group must be treated as not durable — callers ack their
  // writers only after AppendBatch returns OK. A poisoned log refuses
  // further appends until it is reopened (and thereby salvaged): the
  // active segment may hold a partial record, and interleaving good
  // records after a torn one would turn a clean tail truncation into
  // mid-file corruption. An empty group is a no-op.
  Status AppendBatch(const std::vector<WalRecord>& records);

  // Lifetime counters for the fsync-amortization story ("fsyncs issued
  // vs writes acked"). Atomic so a stats reader can sample them while
  // the (single) writer appends.
  uint64_t appended_records() const { return appended_records_.load(); }
  uint64_t append_batches() const { return append_batches_.load(); }
  uint64_t max_batch_records() const { return max_batch_records_.load(); }
  uint64_t fsyncs() const { return fsyncs_.load(); }

  // The checkpoint swap: starts a fresh segment stamped `generation`,
  // then unlinks every older-generation segment. Call after the
  // matching snapshot has been atomically published.
  Status BeginGeneration(uint64_t generation);

  // ---- Segment inventory & tailing (the replication read side) -----------

  // The on-disk segments of `base`, sorted by sequence number, each with
  // its generation and size. Segments whose header cannot be read are
  // omitted. A missing directory is an empty inventory.
  static std::vector<WalSegmentInfo> Inventory(const std::string& base);
  // Inventory of this (open) log's base.
  std::vector<WalSegmentInfo> SegmentInventory() const;

  // The coordinate of the last byte this log has durably landed (at
  // WalSync::kFlush, "durable" means flushed — the same point at which
  // writers are acked). Shippers must never read past it: bytes beyond
  // may belong to a group that will fail its fsync and be truncated by
  // salvage. Thread-safe.
  WalPosition durable_position() const;
  // Monotonic counter bumped on every durable-position change; pair
  // with WaitAppend to sleep until the log grows.
  uint64_t position_version() const;
  // Blocks until position_version() != seen_version or `timeout`
  // elapses. Returns true when the position moved.
  bool WaitAppend(uint64_t seen_version,
                  std::chrono::milliseconds timeout) const;

  // Replays every segment of `base` (generation >= min_generation; the
  // snapshot already contains older ones) over the store. Missing
  // segments are an empty log. Each segment streams through a
  // WalRecordParser in fixed-size reads. Replay stops at the first
  // invalid record (torn tail, checksum mismatch, malformed or
  // unparsable fields), truncates the damage away, drops any later
  // segments, and reports everything in `stats` (optional). Only
  // environmental failures (unlinkable files, ...) return non-OK; data
  // damage is salvaged, not fatal.
  static Status Replay(const std::string& base, FactStore* store,
                       std::vector<Rule>* rules,
                       RecoveryStats* stats = nullptr,
                       uint64_t min_generation = 0);

 private:
  // Publishes the current (generation_, segment_seq_,
  // segment_bytes_written_) triple as the durable position and wakes
  // WaitAppend callers.
  void PublishPosition();

  // Frames and fwrites one record (no flush/sync); evaluates the
  // wal.append.write failpoint and poisons the log on any failure.
  Status WriteRecord(const WalRecord& record, uint64_t* bytes_written);
  Status OpenSegment(uint64_t seq, uint64_t generation);
  Status RotateIfNeeded();

  std::FILE* file_ = nullptr;
  std::string base_;
  WalOptions options_;
  uint64_t generation_ = 0;
  uint64_t segment_seq_ = 0;
  uint64_t segment_bytes_written_ = 0;  // active segment size
  std::atomic<uint64_t> generation_bytes_{0};
  bool poisoned_ = false;
  std::atomic<uint64_t> appended_records_{0};
  std::atomic<uint64_t> append_batches_{0};
  std::atomic<uint64_t> max_batch_records_{0};
  std::atomic<uint64_t> fsyncs_{0};

  // The published durable position (single writer, many readers).
  mutable std::mutex position_mu_;
  mutable std::condition_variable position_cv_;
  WalPosition position_;
  uint64_t position_version_ = 0;
};

// Sequential reader over one WAL segment, used by the replication
// shipper to stream raw record bytes. Open positions it; Read never
// goes past the caller-supplied limit (the durable position), so a
// torn or in-flight suffix is never shipped.
class WalTailReader {
 public:
  explicit WalTailReader(std::string base) : base_(std::move(base)) {}
  ~WalTailReader() { Close(); }

  WalTailReader(const WalTailReader&) = delete;
  WalTailReader& operator=(const WalTailReader&) = delete;

  // Opens segment `seq` and seeks to `offset` (0 means the first record
  // byte, i.e. Wal::kSegmentHeaderSize). Validates the segment header.
  Status Open(uint64_t seq, uint64_t offset);
  void Close();
  bool is_open() const { return file_ != nullptr; }

  uint64_t seq() const { return seq_; }
  uint64_t generation() const { return generation_; }
  uint64_t offset() const { return offset_; }

  // Appends up to max_bytes from the current position — never past
  // byte `limit_offset` of this segment — to *out, advancing offset().
  // Returns the number of bytes read (0: nothing available below the
  // limit). IoError if the file shrank or a read fails.
  StatusOr<size_t> Read(uint64_t limit_offset, size_t max_bytes,
                        std::string* out);

 private:
  std::string base_;
  std::FILE* file_ = nullptr;
  uint64_t seq_ = 0;
  uint64_t generation_ = 0;
  uint64_t offset_ = 0;
};

// The one decoder of the record framing (EncodeWalRecord): recovery
// feeds it a segment's bytes, the replication follower shipped chunks,
// and a kMutation frame its payload; each pulls whole records out.
// CRC-validated, and every field length is bounded by the bytes its
// record holds: a mismatch or a malformed field table poisons the parser
// (the stream cannot be trusted past it).
class WalRecordParser {
 public:
  enum class Result {
    kRecord,    // *out filled with the next complete record
    kNeedMore,  // no complete record buffered yet
    kError,     // corrupt framing; see error()
  };

  void Feed(std::string_view data);
  Result Next(WalRecord* out);

  const std::string& error() const { return error_; }
  // Bytes fed but not yet consumed by complete records. When this is 0
  // the stream is at a record boundary — the only safe resume point.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace lsd

#endif  // LSD_STORE_PERSISTENCE_H_
