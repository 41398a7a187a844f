// The follower's replication driver: one background thread that keeps
// a read-only SharedStore converged with a primary's log.
//
// Lifecycle per connection: connect -> kSubscribe{applied position} ->
// apply what arrives. kSnapshot chunks are reassembled into a scratch
// file, Recover()ed into a fresh LooseDb, and swapped in wholesale via
// SharedStore::ReplaceTip. kLogChunk bytes feed a WalRecordParser;
// every complete record is applied by LooseDb::Apply through the
// store's ordinary group-commit path (one Commit per chunk), so
// followers publish epochs exactly the way primaries do and browse
// sessions pin them unchanged. Any error — connection loss, a primary
// restart, an injected fault — tears the connection down and reconnects
// with exponential backoff, resubscribing from the last record-boundary
// position (chunk start + bytes fed - bytes still buffered in the
// record parser, which is exact because chunks never span segments and
// records never span rotations).
//
// Committed-prefix discipline: the shipper only sends bytes at or
// below the primary's published (acked) watermark, and the client only
// advances its resume position past bytes it has fully applied. The
// replica therefore only ever holds a prefix of the primary's acked
// history — never an unacked suffix, never a gap.
//
// Staleness bookkeeping goes to a ReplicationMonitor: primary stamps
// from every frame, applied stamps whenever the replica provably
// equals the primary tip (chunk with behind_bytes == 0 fully applied,
// idle heartbeat, completed snapshot load). Sessions gate reads on it.
//
// Failpoints: repl.client.send (subscribe), repl.client.recv (frame
// read), repl.client.apply (before applying a chunk).
#ifndef LSD_REPLICATION_REPLICATION_CLIENT_H_
#define LSD_REPLICATION_REPLICATION_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "replication/monitor.h"
#include "server/shared_store.h"
#include "util/status.h"

namespace lsd {

struct ReplicationClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Landing area for streamed snapshots (<scratch_prefix>.snap); must
  // be writable. Required.
  std::string scratch_prefix;
  uint64_t backoff_base_ms = 100;
  uint64_t backoff_max_ms = 2000;
};

class ReplicationClient {
 public:
  // `store` is the follower's (non-durable) SharedStore; `monitor`
  // receives staleness updates. Both must outlive the client.
  ReplicationClient(SharedStore* store, ReplicationMonitor* monitor,
                    const ReplicationClientOptions& options);
  ~ReplicationClient();

  ReplicationClient(const ReplicationClient&) = delete;
  ReplicationClient& operator=(const ReplicationClient&) = delete;

  Status Start();
  // Disconnects and joins the driver thread. Safe to call twice.
  void Stop();

  // The last error that ended a connection (observability; the client
  // keeps reconnecting regardless).
  Status last_error() const;

 private:
  void Run();
  // One connection lifetime: subscribe, then apply frames until error.
  Status Serve(int fd);
  Status HandleLogChunk(const std::string& payload);
  Status HandleSnapshotChunk(const std::string& payload);
  Status HandleHeartbeat(const std::string& payload);
  void FinishSnapshotFile();
  // Interruptible sleep; false when Stop() was requested.
  bool SleepMs(uint64_t ms);

  SharedStore* store_;
  ReplicationMonitor* monitor_;
  ReplicationClientOptions options_;

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;

  std::mutex fd_mu_;
  int fd_ = -1;  // live socket, for Stop() to shut down

  mutable std::mutex error_mu_;
  Status last_error_;

  // Driver-thread-only stream state.
  WalRecordParser record_parser_;
  WalPosition fed_pos_;      // coordinate of the next byte the parser
                             // expects (chunk continuity check)
  WalPosition resume_pos_;   // last record-boundary position applied
  bool have_stream_ = false;  // fed_pos_ is meaningful
  std::FILE* snap_file_ = nullptr;  // in-flight snapshot reassembly
  uint64_t snap_received_ = 0;
  uint64_t snap_total_ = 0;
};

}  // namespace lsd

#endif  // LSD_REPLICATION_REPLICATION_CLIENT_H_
