#include "store/persistence.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include "store/delta_index.h"
#include "store/text_format.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace lsd {

namespace {

namespace fs = std::filesystem;

constexpr char kSnapshotMagic[8] = {'L', 'S', 'D', 'S', 'N', 'A', 'P', '2'};
constexpr char kWalMagic[8] = {'L', 'S', 'D', 'W', 'A', 'L', '0', '2'};
constexpr size_t kSegmentHeaderBytes = Wal::kSegmentHeaderSize;
// A record length beyond this is certainly corruption, not data.
constexpr uint32_t kMaxRecordBytes = 1u << 28;
// Replay reads a segment in pieces of this size.
constexpr size_t kReplayReadBytes = 1 << 16;

// File writer with a running CRC32C over everything written (the
// snapshot trailer checks it).
class Writer {
 public:
  explicit Writer(std::FILE* f) : f_(f) {}

  void U8(uint8_t v) { Raw(&v, 1); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* data, size_t n) {
    crc_ = Crc32cExtend(crc_, data, n);
    if (ok_ && std::fwrite(data, 1, n, f_) != n) ok_ = false;
  }
  // Writes the running checksum itself (excluded from the running sum).
  void Trailer() {
    uint32_t crc = crc_;
    if (ok_ && std::fwrite(&crc, 1, sizeof(crc), f_) != sizeof(crc)) {
      ok_ = false;
    }
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  uint32_t crc_ = 0;
  bool ok_ = true;
};

// Bounded reader over an in-memory buffer: every read is checked
// against the bytes that remain, so a hostile length or count can
// neither overrun the buffer nor size an allocation past it.
class Reader {
 public:
  Reader(const char* data, size_t size) : p_(data), end_(data + size) {}

  bool U8(uint8_t* v) { return Raw(v, 1); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t n;
    if (!U32(&n) || n > remaining()) return false;
    s->assign(p_, n);
    p_ += n;
    return true;
  }
  bool Raw(void* data, size_t n) {
    if (n > remaining()) return false;
    std::memcpy(data, p_, n);
    p_ += n;
    return true;
  }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  const char* p_;
  const char* end_;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::string SegmentPath(const std::string& base, uint64_t seq) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), ".%06llu",
                static_cast<unsigned long long>(seq));
  return base + suffix;
}

struct SegmentFile {
  uint64_t seq = 0;
  std::string path;
};

// Segments of `base`, sorted by sequence number. A missing directory or
// no matching files is an empty log.
std::vector<SegmentFile> ListSegments(const std::string& base) {
  fs::path base_path(base);
  fs::path dir = base_path.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = base_path.filename().string() + ".";
  std::vector<SegmentFile> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != prefix.size() + 6 || name.rfind(prefix, 0) != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size());
    if (digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.push_back({std::strtoull(digits.c_str(), nullptr, 10),
                   entry.path().string()});
  }
  std::sort(out.begin(), out.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.seq < b.seq;
            });
  return out;
}

struct SegmentHeader {
  uint64_t generation = 0;
  uint64_t seq = 0;
};

bool ReadSegmentHeader(std::FILE* f, SegmentHeader* header) {
  char magic[8];
  if (std::fread(magic, 1, sizeof(magic), f) != sizeof(magic) ||
      std::memcmp(magic, kWalMagic, sizeof(magic)) != 0) {
    return false;
  }
  return std::fread(&header->generation, 1, 8, f) == 8 &&
         std::fread(&header->seq, 1, 8, f) == 8;
}

uint64_t FileSizeOrZero(const std::string& path) {
  std::error_code ec;
  uint64_t n = static_cast<uint64_t>(fs::file_size(path, ec));
  return ec ? 0 : n;
}

// Replayed fact records not yet applied to the store, in log order:
// each fact with whether its record retracts it.
using PendingFacts = std::vector<std::pair<Fact, bool>>;

// Applies the fact records held back in `pending`. An assert or a
// retract sets a fact's presence outright, so the last record naming a
// fact decides it: the retracted facts go out in one pass (a frozen
// segment holding several is rewritten once) and the asserted ones land
// as one sorted run (a long log of asserts becomes frozen segments).
void FlushFacts(FactStore* store, PendingFacts* pending) {
  std::stable_sort(pending->begin(), pending->end(),
                   [](const auto& a, const auto& b) {
                     return OrderSrt()(a.first, b.first);
                   });
  std::vector<Fact> asserts;
  std::vector<Fact> retracts;
  for (size_t i = 0; i < pending->size(); ++i) {
    const auto& [fact, retract] = (*pending)[i];
    if (i + 1 < pending->size() && (*pending)[i + 1].first == fact) {
      continue;  // a later record decides this fact
    }
    (retract ? retracts : asserts).push_back(fact);
  }
  pending->clear();
  store->RetractRun(std::move(retracts));
  store->AssertRun(std::move(asserts));
}

// Applies one decoded record to the store; fact records are held back
// in `pending` until the end of the log (FlushFacts). A false return
// means the record is well-framed bytes but semantically unparsable
// (unknown opcode, wrong field count, bad rule text): recovery salvages
// up to it.
bool ApplyRecord(const WalRecord& record, FactStore* store,
                 std::vector<Rule>* rules, PendingFacts* pending) {
  const auto op = static_cast<WalOpCode>(record.op);
  const std::vector<std::string>& fields = record.fields;
  switch (op) {
    case WalOpCode::kAssert:
    case WalOpCode::kRetract: {
      if (fields.size() != 3) return false;
      pending->emplace_back(
          store->entities().InternFact(fields[0], fields[1], fields[2]),
          op == WalOpCode::kRetract);
      return true;
    }
    case WalOpCode::kRule: {
      if (fields.size() != 1) return false;
      auto rule = ParseSerializedRule(fields[0], &store->entities());
      if (!rule.ok()) return false;
      if (rules != nullptr) rules->push_back(std::move(rule).value());
      return true;
    }
    case WalOpCode::kEnableRule:
    case WalOpCode::kDisableRule: {
      if (fields.size() != 1) return false;
      if (rules != nullptr) {
        for (Rule& rule : *rules) {
          if (rule.name == fields[0]) {
            rule.enabled = (op == WalOpCode::kEnableRule);
          }
        }
      }
      return true;
    }
  }
  return false;
}

}  // namespace

std::string WalPosition::ToString() const {
  return "gen " + std::to_string(generation) + ", segment " +
         std::to_string(segment_seq) + ", offset " + std::to_string(offset);
}

std::string RecoveryStats::ToString() const {
  std::string out = "recovered";
  out += snapshot_loaded
             ? " from snapshot (generation " + std::to_string(generation) +
                   ")"
             : " without snapshot";
  out += ", replayed " + std::to_string(records_replayed) + " records (" +
         std::to_string(bytes_replayed) + " bytes) from " +
         std::to_string(segments_replayed) + " segments";
  if (segments_skipped > 0) {
    out += ", skipped " + std::to_string(segments_skipped) +
           " pre-checkpoint segments";
  }
  if (tail_truncated || segments_dropped > 0 || bytes_dropped > 0) {
    out += ", dropped " + std::to_string(bytes_dropped) + " bytes";
    if (segments_dropped > 0) {
      out += " and " + std::to_string(segments_dropped) + " segments";
    }
    if (!detail.empty()) out += " (" + detail + ")";
  }
  return out;
}

Status SaveSnapshot(const std::string& path, const FactStore& store,
                    const std::vector<Rule>& rules, uint64_t generation) {
  LSD_FAILPOINT_RETURN_IF_SET(snapshot.write);
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  Writer w(f.get());
  w.Raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  w.U64(generation);

  const EntityTable& entities = store.entities();
  w.U32(static_cast<uint32_t>(entities.size()));
  for (EntityId id = 0; id < entities.size(); ++id) {
    w.U8(static_cast<uint8_t>(entities.Kind(id)));
    w.Str(entities.Name(id));
  }

  w.U64(store.size());
  store.base().ForEach(Pattern(), [&](const Fact& fact) {
    w.U32(fact.source);
    w.U32(fact.relationship);
    w.U32(fact.target);
    return true;
  });

  w.U32(static_cast<uint32_t>(rules.size()));
  for (const Rule& r : rules) {
    w.Str(SerializeRule(r, entities));
    w.U8(r.enabled ? 1 : 0);
  }
  w.Trailer();
  if (!w.ok()) return Status::IoError("write to " + path + " failed");
  LSD_FAILPOINT(snapshot.flush);
  if (std::fflush(f.get()) != 0) {
    return Status::IoError("flush of " + path + " failed");
  }
  if (::fsync(::fileno(f.get())) != 0) {
    return Status::IoError("fsync of " + path + " failed");
  }
  return Status::OK();
}

Status SaveSnapshotAtomic(const std::string& path, const FactStore& store,
                          const std::vector<Rule>& rules,
                          uint64_t generation) {
  const std::string tmp = path + ".tmp";
  LSD_RETURN_IF_ERROR(SaveSnapshot(tmp, store, rules, generation));
  LSD_FAILPOINT(snapshot.rename);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename " + tmp + " over " + path);
  }
  return Status::OK();
}

Status LoadSnapshot(const std::string& path, FactStore* store,
                    std::vector<Rule>* rules, uint64_t* generation) {
  if (store->size() != 0 ||
      store->entities().size() != kNumBuiltinEntities) {
    return Status::FailedPrecondition(
        "LoadSnapshot requires a freshly constructed store");
  }
  std::string bytes;
  {
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (f == nullptr) {
      return Status::IoError("cannot open " + path);
    }
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
      bytes.append(buf, n);
    }
    if (std::ferror(f.get())) return Status::IoError("cannot read " + path);
  }
  // Verify, then decode. The trailer authenticates every byte before
  // it; a snapshot that fails it is rejected wholesale, before any of
  // it reaches `store` (bit rot in the middle of the entity table
  // silently renames entities — worse than an error).
  constexpr size_t kTrailerBytes = sizeof(uint32_t);
  if (bytes.size() < sizeof(kSnapshotMagic) + kTrailerBytes ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::DataLoss(path + " is not an lsd snapshot");
  }
  const size_t body = bytes.size() - kTrailerBytes;
  uint32_t stored_crc;
  std::memcpy(&stored_crc, bytes.data() + body, kTrailerBytes);
  if (Crc32cExtend(0, bytes.data(), body) != stored_crc) {
    return Status::DataLoss(path + " failed its checksum");
  }

  // Decode into locals; every count is bounded by the bytes left (an
  // entity takes at least 5, a fact 12, a rule 5).
  Reader r(bytes.data() + sizeof(kSnapshotMagic),
           body - sizeof(kSnapshotMagic));
  uint64_t gen;
  uint32_t entity_count;
  if (!r.U64(&gen) || !r.U32(&entity_count)) {
    return Status::DataLoss("truncated snapshot");
  }
  if (entity_count > r.remaining() / 5) {
    return Status::DataLoss("snapshot entity count exceeds its size");
  }
  std::vector<std::pair<uint8_t, std::string>> names(entity_count);
  for (auto& [kind, name] : names) {
    if (!r.U8(&kind) || !r.Str(&name)) {
      return Status::DataLoss("truncated snapshot entity table");
    }
  }
  uint64_t fact_count;
  if (!r.U64(&fact_count)) return Status::DataLoss("truncated snapshot");
  if (fact_count > r.remaining() / 12) {
    return Status::DataLoss("snapshot fact count exceeds its size");
  }
  std::vector<Fact> facts(fact_count);
  for (Fact& fact : facts) {
    if (!r.U32(&fact.source) || !r.U32(&fact.relationship) ||
        !r.U32(&fact.target)) {
      return Status::DataLoss("truncated snapshot facts");
    }
    if (fact.source >= entity_count || fact.relationship >= entity_count ||
        fact.target >= entity_count) {
      return Status::DataLoss("snapshot fact names an entity id past "
                              "its entity table");
    }
  }
  uint32_t rule_count;
  if (!r.U32(&rule_count)) return Status::DataLoss("truncated snapshot");
  if (rule_count > r.remaining() / 5) {
    return Status::DataLoss("snapshot rule count exceeds its size");
  }
  std::vector<std::pair<std::string, uint8_t>> rule_texts(rule_count);
  for (auto& [text, enabled] : rule_texts) {
    if (!r.Str(&text) || !r.U8(&enabled)) {
      return Status::DataLoss("truncated snapshot rules");
    }
  }
  if (r.remaining() != 0) {
    return Status::DataLoss("snapshot has bytes past its rules");
  }

  EntityTable& entities = store->entities();
  entities.Reserve(entity_count);
  for (uint32_t i = 0; i < entity_count; ++i) {
    const auto& [kind, name] = names[i];
    EntityId id = static_cast<EntityKind>(kind) == EntityKind::kComposed
                      ? entities.InternComposed(name)
                      : entities.Intern(name);
    if (id != i) {
      return Status::DataLoss("snapshot entity order mismatch at id " +
                              std::to_string(i) + " ('" + name + "')");
    }
  }
  // One sorted run: a large snapshot lands as a frozen segment.
  store->AssertRun(std::move(facts));
  std::vector<Rule> parsed;
  for (const auto& [text, enabled] : rule_texts) {
    LSD_ASSIGN_OR_RETURN(Rule rule, ParseSerializedRule(text, &entities));
    rule.enabled = (enabled != 0);
    parsed.push_back(std::move(rule));
  }
  if (generation != nullptr) *generation = gen;
  if (rules != nullptr) {
    for (Rule& rule : parsed) rules->push_back(std::move(rule));
  }
  return Status::OK();
}

Wal::~Wal() { Close(); }

std::vector<WalSegmentInfo> Wal::Inventory(const std::string& base) {
  std::vector<WalSegmentInfo> out;
  for (const SegmentFile& seg : ListSegments(base)) {
    FilePtr f(std::fopen(seg.path.c_str(), "rb"));
    if (f == nullptr) continue;
    SegmentHeader header;
    if (!ReadSegmentHeader(f.get(), &header) || header.seq != seg.seq) {
      continue;  // unreadable header: Replay will drop it
    }
    out.push_back(WalSegmentInfo{seg.seq, header.generation,
                                 FileSizeOrZero(seg.path), seg.path});
  }
  return out;
}

std::vector<WalSegmentInfo> Wal::SegmentInventory() const {
  return Inventory(base_);
}

void Wal::PublishPosition() {
  std::lock_guard<std::mutex> lock(position_mu_);
  position_ = WalPosition{generation_, segment_seq_, segment_bytes_written_};
  ++position_version_;
  position_cv_.notify_all();
}

WalPosition Wal::durable_position() const {
  std::lock_guard<std::mutex> lock(position_mu_);
  return position_;
}

uint64_t Wal::position_version() const {
  std::lock_guard<std::mutex> lock(position_mu_);
  return position_version_;
}

bool Wal::WaitAppend(uint64_t seen_version,
                     std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(position_mu_);
  return position_cv_.wait_for(lock, timeout, [&] {
    return position_version_ != seen_version;
  });
}

Status Wal::OpenSegment(uint64_t seq, uint64_t generation) {
  const std::string path = SegmentPath(base_, seq);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create WAL segment " + path);
  }
  Writer w(f);
  w.Raw(kWalMagic, sizeof(kWalMagic));
  w.U64(generation);
  w.U64(seq);
  if (!w.ok() || std::fflush(f) != 0) {
    std::fclose(f);
    return Status::IoError("cannot initialize WAL segment " + path);
  }
  if (options_.sync == WalSync::kFsync && ::fsync(::fileno(f)) != 0) {
    std::fclose(f);
    return Status::IoError("cannot fsync WAL segment " + path);
  }
  if (file_ != nullptr) std::fclose(file_);
  file_ = f;
  segment_seq_ = seq;
  generation_ = generation;
  segment_bytes_written_ = kSegmentHeaderBytes;
  PublishPosition();
  return Status::OK();
}

Status Wal::Open(const std::string& base, const WalOptions& options,
                 uint64_t generation) {
  Close();
  base_ = base;
  options_ = options;
  poisoned_ = false;
  generation_bytes_ = 0;

  std::vector<SegmentFile> segments = ListSegments(base);
  if (segments.empty()) {
    return OpenSegment(1, generation);
  }

  // Append to the newest segment. Replay() ran before us (it is the
  // only safe way to find the append point), so the header is expected
  // to be intact; if it is not, start a fresh segment past it rather
  // than appending into a broken file.
  const SegmentFile& last = segments.back();
  SegmentHeader header;
  bool header_ok = false;
  if (std::FILE* probe = std::fopen(last.path.c_str(), "rb")) {
    header_ok = ReadSegmentHeader(probe, &header);
    std::fclose(probe);
  }
  if (!header_ok) {
    std::remove(last.path.c_str());
    return OpenSegment(last.seq + 1, generation);
  }

  file_ = std::fopen(last.path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::IoError("cannot open WAL segment " + last.path);
  }
  segment_seq_ = last.seq;
  generation_ = header.generation;
  segment_bytes_written_ = FileSizeOrZero(last.path);
  // Bytes already logged in this generation (the auto-checkpoint
  // trigger keeps counting across reopens).
  for (const SegmentFile& seg : segments) {
    if (std::FILE* probe = std::fopen(seg.path.c_str(), "rb")) {
      SegmentHeader h;
      if (ReadSegmentHeader(probe, &h) && h.generation == generation_) {
        uint64_t size = FileSizeOrZero(seg.path);
        generation_bytes_ +=
            size > kSegmentHeaderBytes ? size - kSegmentHeaderBytes : 0;
      }
      std::fclose(probe);
    }
  }
  PublishPosition();
  return Status::OK();
}

void Wal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  poisoned_ = false;
}

Status Wal::RotateIfNeeded() {
  if (options_.segment_bytes == 0 ||
      segment_bytes_written_ < options_.segment_bytes) {
    return Status::OK();
  }
  LSD_FAILPOINT_RETURN_IF_SET(wal.rotate);
  return OpenSegment(segment_seq_ + 1, generation_);
}

Status Wal::BeginGeneration(uint64_t generation) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL is not open");
  }
  const uint64_t old_last_seq = segment_seq_;
  LSD_RETURN_IF_ERROR(OpenSegment(old_last_seq + 1, generation));
  // The fresh segment supersedes the partial record of a poisoned log;
  // the snapshot already published the full state.
  poisoned_ = false;
  generation_bytes_ = 0;
  // Crash window: the new-generation segment exists but stale segments
  // linger. Recovery skips them by generation, so this is safe.
  LSD_FAILPOINT(wal.generation.swap);
  for (const SegmentFile& seg : ListSegments(base_)) {
    if (seg.seq <= old_last_seq) std::remove(seg.path.c_str());
  }
  return Status::OK();
}

void EncodeWalRecord(const WalRecord& record, std::string* out) {
  const size_t start = out->size();
  out->append(8, '\0');  // [len][crc], filled in below
  out->push_back(static_cast<char>(record.op));
  out->push_back(static_cast<char>(record.fields.size()));
  for (const std::string& field : record.fields) {
    const uint32_t n = static_cast<uint32_t>(field.size());
    out->append(reinterpret_cast<const char*>(&n), sizeof(n));
    out->append(field);
  }
  const uint32_t len = static_cast<uint32_t>(out->size() - start - 8);
  uint32_t crc = Crc32cExtend(0, &len, sizeof(len));
  crc = Crc32cExtend(crc, out->data() + start + 8, len);
  std::memcpy(out->data() + start, &len, sizeof(len));
  std::memcpy(out->data() + start + 4, &crc, sizeof(crc));
}

Status Wal::WriteRecord(const WalRecord& rec, uint64_t* bytes_written) {
  // Stage the full record, then write it with one fwrite so a crash can
  // only tear it, not interleave it.
  std::string record;
  EncodeWalRecord(rec, &record);

  // A crash policy here dies before any byte is written; a short-write
  // policy leaves a torn record on disk and poisons the log, exactly
  // like a real partial write would.
  LSD_FAILPOINT_HIT(wal.append.write, fp_write);
  if (fp_write.action == failpoint::Action::kError) {
    poisoned_ = true;
    return Status::IoError("injected WAL append failure at " + base_);
  }
  size_t budget = record.size();
  if (fp_write.action == failpoint::Action::kShortWrite) {
    budget = std::min<size_t>(budget, fp_write.arg);
  }
  if (std::fwrite(record.data(), 1, budget, file_) != budget) {
    poisoned_ = true;
    return Status::IoError("WAL append to " + base_ + " failed");
  }
  if (fp_write.action == failpoint::Action::kShortWrite) {
    std::fflush(file_);  // push the torn bytes where recovery will see them
    poisoned_ = true;
    return Status::IoError("injected short write (" +
                           std::to_string(budget) + " of " +
                           std::to_string(record.size()) + " bytes) at " +
                           base_);
  }
  *bytes_written += record.size();
  return Status::OK();
}

Status Wal::AppendBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return Status::OK();
  if (file_ == nullptr) {
    return Status::FailedPrecondition("WAL is not open");
  }
  if (poisoned_) {
    return Status::FailedPrecondition(
        "WAL poisoned by an earlier append failure; reopen to salvage");
  }
  // Rotate once, up front: a group never spans segments, so recovery
  // sees it as a contiguous record run (possibly with a torn suffix —
  // exactly the shape salvage already handles).
  LSD_RETURN_IF_ERROR(RotateIfNeeded());

  uint64_t bytes_written = 0;
  for (const WalRecord& rec : records) {
    // The mid-group site: a crash here leaves the earlier records of
    // the group on disk (buffered or flushed) and the rest missing —
    // the torture harness proves recovery still lands on a valid
    // prefix and that no ack was released for any of them.
    LSD_FAILPOINT_HIT(wal.batch.record, fp_rec);
    if (fp_rec.action == failpoint::Action::kError) {
      poisoned_ = true;
      return Status::IoError("injected mid-group append failure at " +
                             base_);
    }
    LSD_RETURN_IF_ERROR(WriteRecord(rec, &bytes_written));
  }

  // One flush, one (optional) fsync for the whole group.
  LSD_FAILPOINT_HIT(wal.append.flush, fp_flush);
  if (fp_flush.action == failpoint::Action::kError ||
      std::fflush(file_) != 0) {
    poisoned_ = true;
    return Status::IoError("WAL flush of " + base_ + " failed");
  }
  if (options_.sync == WalSync::kFsync) {
    // The group's bytes are in the page cache but not yet durable: the
    // crash window the acked-floor invariant is about. A crash here
    // may surface the whole group after recovery (the kernel got the
    // bytes) or none of it — both are fine, because no follower has
    // been acked yet.
    LSD_FAILPOINT_HIT(wal.batch.sync, fp_bsync);
    if (fp_bsync.action == failpoint::Action::kError) {
      poisoned_ = true;
      return Status::IoError("injected pre-fsync failure at " + base_);
    }
    LSD_FAILPOINT_HIT(wal.fsync, fp_sync);
    if (fp_sync.action == failpoint::Action::kError ||
        ::fsync(::fileno(file_)) != 0) {
      // fsync failure leaves durability unknown; refuse further appends
      // so the caller checkpoints or reopens.
      poisoned_ = true;
      return Status::IoError("WAL fsync of " + base_ + " failed");
    }
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  segment_bytes_written_ += bytes_written;
  generation_bytes_ += bytes_written;
  // The batch is durable (to this log's sync contract): shippers may
  // now read up to the new position and followers may be told about it.
  PublishPosition();
  appended_records_.fetch_add(records.size(), std::memory_order_relaxed);
  append_batches_.fetch_add(1, std::memory_order_relaxed);
  if (records.size() > max_batch_records_.load(std::memory_order_relaxed)) {
    max_batch_records_.store(records.size(), std::memory_order_relaxed);
  }
  return Status::OK();
}

WalRecord WalFactRecord(WalOpCode op, const EntityTable& entities,
                        const Fact& f) {
  return WalRecord{static_cast<uint8_t>(op),
                   {entities.Name(f.source), entities.Name(f.relationship),
                    entities.Name(f.target)}};
}

WalRecord WalRuleRecord(const Rule& rule, const EntityTable& entities) {
  return WalRecord{static_cast<uint8_t>(WalOpCode::kRule),
                   {SerializeRule(rule, entities)}};
}

WalRecord WalRuleEnabledRecord(const std::string& rule_name, bool enabled) {
  return WalRecord{static_cast<uint8_t>(enabled ? WalOpCode::kEnableRule
                                                : WalOpCode::kDisableRule),
                   {rule_name}};
}

Status WalTailReader::Open(uint64_t seq, uint64_t offset) {
  Close();
  const std::string path = SegmentPath(base_, seq);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("WAL segment " + path + " does not exist");
  }
  SegmentHeader header;
  if (!ReadSegmentHeader(f, &header) || header.seq != seq) {
    std::fclose(f);
    return Status::DataLoss("bad segment header in " + path);
  }
  if (offset == 0) offset = Wal::kSegmentHeaderSize;
  if (offset < Wal::kSegmentHeaderSize) {
    std::fclose(f);
    return Status::InvalidArgument("offset " + std::to_string(offset) +
                                   " is inside the segment header");
  }
  if (std::fseek(f, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(f);
    return Status::IoError("cannot seek to offset " +
                           std::to_string(offset) + " of " + path);
  }
  file_ = f;
  seq_ = seq;
  generation_ = header.generation;
  offset_ = offset;
  return Status::OK();
}

void WalTailReader::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

StatusOr<size_t> WalTailReader::Read(uint64_t limit_offset,
                                     size_t max_bytes, std::string* out) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("tail reader is not open");
  }
  if (limit_offset <= offset_ || max_bytes == 0) return size_t{0};
  size_t want = static_cast<size_t>(
      std::min<uint64_t>(limit_offset - offset_, max_bytes));
  size_t start = out->size();
  out->resize(start + want);
  // The writer appends with its own FILE*; clearerr so a previous EOF
  // (we caught up) does not stick after the segment has grown.
  std::clearerr(file_);
  size_t n = std::fread(out->data() + start, 1, want, file_);
  out->resize(start + n);
  if (n < want && std::ferror(file_) != 0) {
    return Status::IoError("read of WAL segment " +
                           SegmentPath(base_, seq_) + " failed");
  }
  offset_ += n;
  return n;
}

void WalRecordParser::Feed(std::string_view data) {
  if (!error_.empty()) return;  // poisoned
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data);
}

WalRecordParser::Result WalRecordParser::Next(WalRecord* out) {
  if (!error_.empty()) return Result::kError;
  if (buf_.size() - pos_ < 8) return Result::kNeedMore;
  uint32_t len = 0, crc = 0;
  std::memcpy(&len, buf_.data() + pos_, 4);
  std::memcpy(&crc, buf_.data() + pos_ + 4, 4);
  if (len > kMaxRecordBytes) {
    error_ = "implausible record length " + std::to_string(len);
    return Result::kError;
  }
  if (buf_.size() - pos_ < 8 + static_cast<size_t>(len)) {
    return Result::kNeedMore;
  }
  const char* payload = buf_.data() + pos_ + 8;
  uint32_t expected = Crc32cExtend(0, &len, sizeof(len));
  expected = Crc32cExtend(expected, payload, len);
  if (expected != crc) {
    error_ = "checksum mismatch";
    return Result::kError;
  }
  // Decode op, field count, fields out of the verified payload.
  Reader r(payload, len);
  uint8_t nfields = 0;
  if (!r.U8(&out->op) || !r.U8(&nfields)) {
    error_ = "record payload shorter than its opcode";
    return Result::kError;
  }
  out->fields.resize(nfields);
  for (std::string& field : out->fields) {
    if (!r.Str(&field)) {
      error_ = "record field table truncated";
      return Result::kError;
    }
  }
  if (r.remaining() != 0) {
    error_ = "trailing bytes after record fields";
    return Result::kError;
  }
  pos_ += 8 + len;
  return Result::kRecord;
}

Status Wal::Replay(const std::string& base, FactStore* store,
                   std::vector<Rule>* rules, RecoveryStats* stats,
                   uint64_t min_generation) {
  RecoveryStats local;
  RecoveryStats& s = stats != nullptr ? *stats : local;

  PendingFacts pending;  // replayed fact records not yet in the store
  bool damaged = false;  // once set, nothing after the damage is trusted
  for (const SegmentFile& seg : ListSegments(base)) {
    const uint64_t size = FileSizeOrZero(seg.path);
    if (damaged) {
      // Records here may depend on state lost with the damaged prefix;
      // committed-prefix semantics require dropping them.
      s.bytes_dropped += size;
      ++s.segments_dropped;
      if (std::remove(seg.path.c_str()) != 0) {
        return Status::IoError("cannot drop WAL segment " + seg.path);
      }
      continue;
    }
    FilePtr f(std::fopen(seg.path.c_str(), "rb"));
    if (f == nullptr) {
      return Status::IoError("cannot open WAL segment " + seg.path);
    }
    SegmentHeader header;
    if (!ReadSegmentHeader(f.get(), &header) || header.seq != seg.seq) {
      // Unreadable header: the segment contributes nothing, and nothing
      // after it can be trusted either.
      f.reset();
      s.bytes_dropped += size;
      ++s.segments_dropped;
      s.tail_truncated = true;
      damaged = true;
      if (s.detail.empty()) {
        s.detail = "bad segment header in " + seg.path;
      }
      if (std::remove(seg.path.c_str()) != 0) {
        return Status::IoError("cannot drop WAL segment " + seg.path);
      }
      continue;
    }
    if (header.generation < min_generation) {
      // Pre-checkpoint leftovers: the snapshot already contains these
      // records (a crash hit between snapshot rename and segment
      // cleanup). Finish the cleanup now.
      f.reset();
      ++s.segments_skipped;
      if (std::remove(seg.path.c_str()) != 0) {
        return Status::IoError("cannot drop stale WAL segment " + seg.path);
      }
      continue;
    }

    // Stream the records through the parser. It buffers one read plus
    // the record in progress; a damaged length field makes it wait for
    // bytes that never come, which holds at most the rest of this
    // segment (rotation bounds its size).
    ++s.segments_replayed;
    WalRecordParser parser;
    WalRecord record;
    std::vector<char> chunk(kReplayReadBytes);
    uint64_t fed = 0;                         // record bytes read so far
    uint64_t good_offset = kSegmentHeaderBytes;  // end of the last record
    std::string bad_record_reason;  // set: the rest of the segment goes
    bool eof = false;
    while (bad_record_reason.empty()) {
      const WalRecordParser::Result r = parser.Next(&record);
      if (r == WalRecordParser::Result::kError) {
        bad_record_reason = parser.error();
      } else if (r == WalRecordParser::Result::kRecord) {
        if (!ApplyRecord(record, store, rules, &pending)) {
          bad_record_reason = "unparsable record";
          continue;
        }
        const uint64_t end = kSegmentHeaderBytes + fed - parser.buffered();
        ++s.records_replayed;
        s.bytes_replayed += end - good_offset;
        good_offset = end;
      } else if (!eof) {
        const size_t n = std::fread(chunk.data(), 1, chunk.size(), f.get());
        parser.Feed(std::string_view(chunk.data(), n));
        fed += n;
        eof = n < chunk.size();  // end of file, or a failed read
      } else {
        if (parser.buffered() != 0) bad_record_reason = "torn record";
        break;
      }
    }
    if (!bad_record_reason.empty()) {
      // Salvage the valid prefix: truncate the damage away so the next
      // append continues from a clean boundary.
      const uint64_t file_end = FileSizeOrZero(seg.path);
      f.reset();
      if (::truncate(seg.path.c_str(), static_cast<off_t>(good_offset)) !=
          0) {
        return Status::IoError("cannot truncate damaged WAL segment " +
                               seg.path);
      }
      s.bytes_dropped += file_end - good_offset;
      s.tail_truncated = true;
      damaged = true;
      if (s.detail.empty()) {
        s.detail = bad_record_reason + " at offset " +
                   std::to_string(good_offset) + " of " + seg.path;
      }
    }
  }
  FlushFacts(store, &pending);
  return Status::OK();
}

}  // namespace lsd
