#include "replication/replication_client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <vector>

#include "replication/wire.h"
#include "server/protocol.h"
#include "util/failpoint.h"

namespace lsd {

ReplicationClient::ReplicationClient(SharedStore* store,
                                     ReplicationMonitor* monitor,
                                     const ReplicationClientOptions& options)
    : store_(store), monitor_(monitor), options_(options) {
  if (options_.backoff_base_ms == 0) options_.backoff_base_ms = 100;
  if (options_.backoff_max_ms < options_.backoff_base_ms) {
    options_.backoff_max_ms = options_.backoff_base_ms;
  }
}

ReplicationClient::~ReplicationClient() { Stop(); }

Status ReplicationClient::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("replication client already running");
  }
  if (options_.port == 0) {
    return Status::InvalidArgument("replication client needs a primary port");
  }
  if (options_.scratch_prefix.empty()) {
    return Status::InvalidArgument(
        "replication client needs a scratch prefix for snapshots");
  }
  running_.store(true);
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void ReplicationClient::Stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
  }
  stop_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
}

Status ReplicationClient::last_error() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return last_error_;
}

bool ReplicationClient::SleepMs(uint64_t ms) {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                    [this] { return !running_.load(); });
  return running_.load();
}

namespace {

int ConnectTo(const std::string& host, uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  if (::getaddrinfo(host.c_str(), service.c_str(), &hints, &res) != 0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                  ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace

void ReplicationClient::Run() {
  uint64_t backoff = options_.backoff_base_ms;
  while (running_.load()) {
    int fd = ConnectTo(options_.host, options_.port);
    if (fd >= 0) {
      {
        std::lock_guard<std::mutex> lock(fd_mu_);
        fd_ = fd;
      }
      Status served = Serve(fd);
      {
        std::lock_guard<std::mutex> lock(fd_mu_);
        fd_ = -1;
      }
      ::close(fd);
      monitor_->SetConnected(false);
      if (!served.ok()) {
        std::lock_guard<std::mutex> lock(error_mu_);
        last_error_ = served;
      }
      if (running_.load()) monitor_->AddReconnect();
      backoff = options_.backoff_base_ms;
    }
    if (!running_.load()) break;
    if (!SleepMs(backoff)) break;
    backoff = std::min(backoff * 2, options_.backoff_max_ms);
  }
  FinishSnapshotFile();
}

void ReplicationClient::FinishSnapshotFile() {
  if (snap_file_ != nullptr) {
    std::fclose(snap_file_);
    snap_file_ = nullptr;
  }
  snap_received_ = snap_total_ = 0;
}

Status ReplicationClient::Serve(int fd) {
  // A new connection restarts the stream at resume_pos_: the primary
  // re-sends everything past that record boundary, so partial-record
  // bytes buffered from the previous connection must be dropped and
  // the continuity check re-anchored at the position actually being
  // resubscribed from (stale fed_pos_ would reject the re-sent
  // boundary bytes as a gap, forever). A half-assembled snapshot is
  // equally dead — the primary either resumes the log or restarts the
  // snapshot from chunk offset zero.
  record_parser_ = WalRecordParser();
  fed_pos_ = resume_pos_;
  have_stream_ = !resume_pos_.IsZero();
  FinishSnapshotFile();

  BinaryFrameParser parser;
  SubscribeRequest req;
  req.pos = resume_pos_;
  LSD_FAILPOINT_RETURN_IF_SET(repl.client.send);
  LSD_RETURN_IF_ERROR(WriteAll(
      fd, EncodeFrame(FrameType::kSubscribe, 1, EncodeSubscribe(req))));
  LSD_ASSIGN_OR_RETURN(BinaryFrame reply, ReadFrame(fd, &parser));
  if (reply.type == FrameType::kErr) {
    return Status::FailedPrecondition("subscribe rejected: " +
                                      reply.payload);
  }
  if (reply.type != FrameType::kOk) {
    return Status::DataLoss("unexpected reply to subscribe (frame type " +
                            std::to_string(static_cast<int>(reply.type)) +
                            ")");
  }
  monitor_->SetConnected(true);

  while (running_.load()) {
    LSD_FAILPOINT_RETURN_IF_SET(repl.client.recv);
    LSD_ASSIGN_OR_RETURN(BinaryFrame frame, ReadFrame(fd, &parser));
    switch (frame.type) {
      case FrameType::kLogChunk:
        LSD_RETURN_IF_ERROR(HandleLogChunk(frame.payload));
        break;
      case FrameType::kSnapshot:
        LSD_RETURN_IF_ERROR(HandleSnapshotChunk(frame.payload));
        break;
      case FrameType::kHeartbeat:
        LSD_RETURN_IF_ERROR(HandleHeartbeat(frame.payload));
        break;
      case FrameType::kErr:
        return Status::FailedPrecondition("primary said: " + frame.payload);
      default:
        return Status::DataLoss(
            "unexpected frame type " +
            std::to_string(static_cast<int>(frame.type)) +
            " on a replication stream");
    }
  }
  return Status::OK();
}

Status ReplicationClient::HandleHeartbeat(const std::string& payload) {
  Heartbeat hb;
  LSD_RETURN_IF_ERROR(DecodeHeartbeat(payload, &hb));
  monitor_->RecordFrame(hb.primary_epoch, hb.primary_epoch_ms,
                        hb.behind_bytes);
  if (hb.behind_bytes == 0 && record_parser_.buffered() == 0 &&
      snap_file_ == nullptr) {
    // Nothing shipped, nothing buffered: the replica IS the tip.
    monitor_->RecordApplied(hb.primary_epoch, hb.primary_epoch_ms);
  }
  return Status::OK();
}

Status ReplicationClient::HandleLogChunk(const std::string& payload) {
  LogChunk chunk;
  LSD_RETURN_IF_ERROR(DecodeLogChunk(payload, &chunk));
  monitor_->RecordFrame(chunk.primary_epoch, chunk.primary_epoch_ms,
                        chunk.behind_bytes);
  LSD_FAILPOINT_RETURN_IF_SET(repl.client.apply);
  if (snap_file_ != nullptr) {
    return Status::DataLoss("log chunk interleaved with a snapshot");
  }

  // Continuity: each chunk must start exactly where the last one ended
  // (or at the first record byte of the next segment, with no record
  // spanning the boundary — the log never splits records across
  // segments). A gap means frames were lost; resubscribe.
  if (have_stream_) {
    if (chunk.pos.segment_seq == fed_pos_.segment_seq) {
      if (chunk.pos.generation != fed_pos_.generation ||
          chunk.pos.offset != fed_pos_.offset) {
        return Status::DataLoss("log stream gap: expected " +
                                fed_pos_.ToString() + ", got " +
                                chunk.pos.ToString());
      }
    } else {
      if (record_parser_.buffered() != 0) {
        return Status::DataLoss(
            "segment boundary arrived mid-record at " +
            fed_pos_.ToString());
      }
      // Seqs are consecutive across rotations (and a rotated middle
      // segment is never empty), so the only contiguous successor is
      // seq + 1; generations only ever grow.
      if (chunk.pos.segment_seq != fed_pos_.segment_seq + 1 ||
          chunk.pos.generation < fed_pos_.generation) {
        return Status::DataLoss("log stream skipped segments: expected seq " +
                                std::to_string(fed_pos_.segment_seq + 1) +
                                " after " + fed_pos_.ToString() + ", got " +
                                chunk.pos.ToString());
      }
      if (chunk.pos.offset != Wal::kSegmentHeaderSize) {
        return Status::DataLoss(
            "new segment does not start at its first record byte: " +
            chunk.pos.ToString());
      }
    }
  }
  have_stream_ = true;

  record_parser_.Feed(chunk.records);
  std::vector<WalRecord> records;
  for (;;) {
    WalRecord record;
    const WalRecordParser::Result r = record_parser_.Next(&record);
    if (r == WalRecordParser::Result::kRecord) {
      records.push_back(std::move(record));
      continue;
    }
    if (r == WalRecordParser::Result::kError) {
      return Status::DataLoss("corrupt shipped record: " +
                              record_parser_.error());
    }
    break;  // kNeedMore: the rest arrives in the next chunk
  }
  if (!records.empty()) {
    // One commit per chunk: the whole parsed batch lands as one epoch,
    // through the same group-commit path and the same applier a
    // primary's writers use. LooseDb::Apply tolerates records already
    // reflected in the base state (a retract of a missing fact, a rule
    // that already exists), so an overlap after a resubscribe cannot
    // wedge the stream.
    auto committed = store_->Commit(
        [&records](LooseDb& db) { return db.Apply(records).status(); });
    LSD_RETURN_IF_ERROR(committed.status());
  }

  fed_pos_ = WalPosition{chunk.pos.generation, chunk.pos.segment_seq,
                         chunk.pos.offset + chunk.records.size()};
  resume_pos_ =
      WalPosition{fed_pos_.generation, fed_pos_.segment_seq,
                  fed_pos_.offset - record_parser_.buffered()};
  monitor_->RecordPosition(resume_pos_);
  monitor_->AddChunk(records.size());
  if (chunk.behind_bytes == 0 && record_parser_.buffered() == 0) {
    // This chunk ended flush with the primary's published tip: the
    // replica now equals that epoch exactly.
    monitor_->RecordApplied(chunk.primary_epoch, chunk.primary_epoch_ms);
  }
  return Status::OK();
}

Status ReplicationClient::HandleSnapshotChunk(const std::string& payload) {
  SnapshotChunk chunk;
  LSD_RETURN_IF_ERROR(DecodeSnapshotChunk(payload, &chunk));
  monitor_->RecordFrame(chunk.primary_epoch, chunk.primary_epoch_ms,
                        chunk.total_bytes -
                            std::min(chunk.total_bytes,
                                     chunk.chunk_offset +
                                         chunk.data.size()));
  LSD_FAILPOINT_RETURN_IF_SET(repl.client.apply);

  const std::string snap_path = options_.scratch_prefix + ".snap";
  if (chunk.chunk_offset == 0) {
    // A (re)starting snapshot supersedes any stream or half-assembled
    // snapshot state.
    FinishSnapshotFile();
    record_parser_ = WalRecordParser();
    have_stream_ = false;
    snap_file_ = std::fopen(snap_path.c_str(), "wb");
    if (snap_file_ == nullptr) {
      return Status::IoError("cannot write snapshot scratch " + snap_path);
    }
    snap_total_ = chunk.total_bytes;
  } else if (snap_file_ == nullptr || chunk.chunk_offset != snap_received_ ||
             chunk.total_bytes != snap_total_) {
    return Status::DataLoss("snapshot stream gap at offset " +
                            std::to_string(chunk.chunk_offset));
  }
  if (!chunk.data.empty() &&
      std::fwrite(chunk.data.data(), 1, chunk.data.size(), snap_file_) !=
          chunk.data.size()) {
    return Status::IoError("short write to snapshot scratch " + snap_path);
  }
  snap_received_ += chunk.data.size();
  if (snap_received_ < snap_total_) return Status::OK();

  // Complete: recover the snapshot into a fresh database and swap it
  // in as the new tip, stamped with the snapshot's WAL position.
  if (std::fclose(snap_file_) != 0) {
    snap_file_ = nullptr;
    return Status::IoError("cannot finish snapshot scratch " + snap_path);
  }
  snap_file_ = nullptr;
  // Recover() replays <scratch>.wal segments over the snapshot; a
  // stale scratch log from an earlier life of this follower would
  // corrupt the resync, so drop any such segments first.
  for (const WalSegmentInfo& seg :
       Wal::Inventory(options_.scratch_prefix + ".wal")) {
    std::remove(seg.path.c_str());
  }
  auto db = std::make_unique<LooseDb>(store_->options());
  LSD_RETURN_IF_ERROR(db->Recover(options_.scratch_prefix));
  LSD_ASSIGN_OR_RETURN(EpochPtr replaced,
                       store_->ReplaceTip(std::move(db), chunk.pos));
  (void)replaced;
  std::remove(snap_path.c_str());

  record_parser_ = WalRecordParser();
  fed_pos_ = chunk.pos;
  resume_pos_ = chunk.pos;
  have_stream_ = true;
  monitor_->RecordPosition(chunk.pos);
  monitor_->RecordApplied(chunk.primary_epoch, chunk.primary_epoch_ms);
  monitor_->AddSnapshot();
  return Status::OK();
}

}  // namespace lsd
