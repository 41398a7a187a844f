// The serving layer's versioned shared store (Sec 5.2 made multi-user).
//
// The paper's browsing modes are per-user and hypothetical, but the
// database they browse is shared. SharedStore gives many concurrent
// browsers one base: writers funnel through a group-commit path that
// publishes immutable *epochs*; readers pin the current epoch with
// one shared_ptr copy under a briefly-held shared lock and then run the
// whole request lock-free on the pinned epoch — a commit publishing
// epoch N+1 never disturbs a reader still working on epoch N.
//
// (The pin could be a single std::atomic<shared_ptr> load, but
// libstdc++'s _Sp_atomic releases its embedded lock bit with a relaxed
// RMW on the reader path, which both TSan and the letter of the memory
// model reject; a shared_mutex-guarded pointer copy is just as cheap
// here and verifiably race-free.)
//
// An epoch is a fully warmed LooseDb that is never mutated again:
// closure, generalization lattice, planner keying and entity universe
// are fixed before publication (LooseDb::Warm), the entity table is
// internally synchronized (query parsing interns on the fly), and the
// plan cache is mutex-guarded — so the epoch is safe for any number of
// reader threads. Epochs share their
// storage structurally: the asserted facts (one generational index,
// which is also the closure's base tier), the derived tier and the
// entity table travel from epoch to epoch by shared_ptr, and a commit
// copies only what it writes (LooseDb::CloneInto). The closure and plan
// caches are keyed by the (store, rules) version pair (the lattice,
// shared with the parent epoch while the ISA facts hold, by the
// generalization clock); the commit path reuses that pair to detect and
// skip no-op commits.
//
// Commit = GROUP commit (the rocksdb WriteBatch leader/follower shape).
// Every epoch costs a clone of the tip (O(1) plus the overlay a first
// write copies), a closure maintenance run, a warm and — when the store
// is durable — a WAL append and possibly an fsync; paying the fsync per
// writer caps throughput at 1/fsync. Instead, concurrent Commit callers
// enqueue their mutation closures as *slots*; the first arrival leads a
// group of its own slot. A group's leader applies every slot of the
// group to ONE clone, logs all of their WAL records under ONE
// fflush+fsync (Wal::AppendBatch), warms ONCE, and publishes ONE epoch;
// then it hands the lead to the slots that queued meanwhile (the next
// group, led by its oldest slot) and returns. Followers block until
// their slot is done. Handing off instead of draining until the queue
// is empty bounds a leader's wait by one group: otherwise writers that
// keep re-enqueueing could hold the leader's own caller indefinitely.
// N concurrent writers cost ~1 writer's fsync, and acked-writes/sec
// scales with the group size (bench_server --write-pct measures exactly
// this).
//
// Slot independence: a slot whose closure fails must not sink its
// group. The leader drops the failed slot and replays the remaining
// slots on a fresh clone, so every surviving slot still gets
// all-or-nothing semantics and a failing writer only fails itself.
// Because of replay, mutation closures may be invoked more than once —
// they must be idempotent in their side effects on captured state
// (write-only output strings, as commands.cc does, are fine).
//
// Ack rule: a follower is released (Commit returns) only after its
// group's WAL batch has returned from fsync AND the epoch is published.
// A crash before the group's fsync may lose the whole group — but no
// client was ever told those writes existed, so the acked-floor
// invariant the torture harness checks still holds.
#ifndef LSD_SERVER_SHARED_STORE_H_
#define LSD_SERVER_SHARED_STORE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/loose_db.h"
#include "store/compactor.h"
#include "util/status.h"

namespace lsd {

// One published, immutable database state. Readers hold it by
// shared_ptr; it stays alive until the last pinned request finishes,
// however many epochs have been published since.
class Epoch {
 public:
  Epoch(std::unique_ptr<LooseDb> db, uint64_t sequence,
        uint64_t publish_ms = 0, WalPosition wal_pos = WalPosition{})
      : db_(std::move(db)),
        sequence_(sequence),
        publish_ms_(publish_ms),
        wal_pos_(wal_pos) {}

  Epoch(const Epoch&) = delete;
  Epoch& operator=(const Epoch&) = delete;

  // Monotonic publish counter (0 = the bootstrap epoch).
  uint64_t sequence() const { return sequence_; }

  // Wall-clock publish stamp (ms since the Unix epoch; 0 when the
  // epoch predates stamping, e.g. the constructor's bootstrap epoch).
  // Replication ships this stamp with every chunk so a follower can
  // compute lag_ms entirely in the primary's clock domain.
  uint64_t publish_ms() const { return publish_ms_; }

  // The durable WAL position this epoch reflects: every record at or
  // below it is fsynced AND folded into db(). Zero when the store is
  // not durable. The log shipper treats the tip epoch's position as
  // its watermark — bytes past it are fsynced but unacked, and must
  // never reach a follower.
  const WalPosition& wal_pos() const { return wal_pos_; }

  // The epoch's own (store, rules) version key pair — the same keys its
  // internal caches are validated against.
  uint64_t store_version() const { return db_->store_version(); }
  uint64_t rules_version() const { return db_->rules_version(); }

  // The warmed database. Logically const: the only remaining mutations
  // on read paths are entity interning (synchronized) and plan caching
  // (synchronized); facts and rules never change after publication.
  LooseDb& db() const { return *db_; }

 private:
  std::unique_ptr<LooseDb> db_;
  uint64_t sequence_;
  uint64_t publish_ms_;
  WalPosition wal_pos_;
};

using EpochPtr = std::shared_ptr<const Epoch>;

// Durability knobs for SharedStore::OpenDurable.
struct SharedStoreDurability {
  WalSync sync = WalSync::kFsync;
  // WAL segment rotation threshold (0 disables rotation).
  uint64_t segment_bytes = 4ull << 20;
  // Leader-side auto-checkpoint: once this many bytes of WAL records
  // accumulate since the last checkpoint, the leader runs the
  // Checkpoint() sequence after its group. 0 disables.
  uint64_t checkpoint_bytes = 0;
};

// A point-in-time sample of the group-commit machinery (the `stats`
// verb's group-commit block).
struct GroupCommitStats {
  uint64_t groups = 0;          // commit groups processed
  uint64_t slots_acked = 0;     // mutation slots acked OK
  uint64_t slots_rejected = 0;  // slots failed by their own closure
                                // or checkpoint
  uint64_t max_group = 0;       // largest group of slots
  uint64_t queue_depth = 0;     // slots waiting right now
  uint64_t wal_records = 0;     // records batch-appended to the WAL
  uint64_t wal_batches = 0;     // AppendBatch calls (fsync opportunities)
  uint64_t fsyncs = 0;          // fsyncs actually issued
  double mean_group() const {
    return groups == 0 ? 0.0
                       : static_cast<double>(slots_acked + slots_rejected) /
                             static_cast<double>(groups);
  }
};

class SharedStore {
 public:
  // Publishes an empty (or standard-rules) epoch 0 immediately. Options
  // apply to every epoch (closure threads, composition limit, ...).
  explicit SharedStore(const LooseDbOptions& options = LooseDbOptions());
  ~SharedStore();  // stops the background compactor, if any

  SharedStore(const SharedStore&) = delete;
  SharedStore& operator=(const SharedStore&) = delete;

  // Attaches durability: recovers <prefix>.snap + <prefix>.wal.NNNNNN
  // into a fresh bootstrap epoch (replacing the constructor's), then
  // opens the store-owned WAL at the recovered generation. Every
  // subsequent commit group is batch-appended to that log before its
  // epoch publishes. Call once, before any concurrent use. Operator
  // definitions are not persisted (see LooseDb::Recover).
  Status OpenDurable(const std::string& path_prefix,
                     const SharedStoreDurability& durability = {});

  // The checkpoint sequence: publishes the tip's snapshot stamped with
  // the next generation G+1 (atomic rename), then swaps the log to a
  // fresh G+1 segment and drops the older ones, bounding the replay
  // work of the next recovery. Each step is individually crash-safe.
  // Runs under the commit leader, as a slot of its own commit group,
  // so no group can append between the snapshot and the swap (the swap
  // would drop its records). The leader also runs it on its own once
  // checkpoint_bytes of log accumulate. FailedPrecondition when the
  // store is not durable.
  Status Checkpoint();

  // Pins the current epoch: one shared_ptr copy under a shared lock
  // held for nanoseconds — never across any query work. Hold the
  // returned pointer for the duration of the request.
  EpochPtr snapshot() const {
    std::shared_lock<std::shared_mutex> lock(tip_mu_);
    return published_;
  }

  // The group-commit path. Applies `mutate` — possibly together with
  // other callers' mutations — to a private clone of the newest epoch,
  // warms it, publishes it, and returns the new epoch. Safe to call
  // from any thread. If `mutate` fails, its changes are discarded (the
  // rest of its group survives) and nothing of it is published. If the
  // whole group changes nothing (the (store, rules) version key pair is
  // unchanged), publication is skipped and the current epoch returned.
  // `mutate` may run more than once (group replay after another slot
  // fails); it must tolerate re-invocation.
  StatusOr<EpochPtr> Commit(
      const std::function<Status(LooseDb&)>& mutate);

  // Swaps in a whole replacement database as the new tip — the
  // follower-resync path (src/replication/): a snapshot streamed from
  // the primary is Recover()ed into `db`, then published here as one
  // epoch stamped with the snapshot's WAL position. Warms before
  // publishing. NOT for use concurrently with Commit writers: a commit
  // group racing this call could publish a clone of the pre-replace
  // tip afterwards, silently undoing the replacement. Followers are
  // single-writer (only the replication client mutates), which is the
  // one place this is called.
  StatusOr<EpochPtr> ReplaceTip(std::unique_ptr<LooseDb> db,
                                const WalPosition& wal_pos);

  // Wall-clock now, ms since the Unix epoch — the clock every epoch's
  // publish_ms is stamped with.
  static uint64_t NowMs();

  // The store-owned WAL, for replication's read-side APIs (segment
  // inventory, durable_position, WaitAppend — all thread-safe). Appends
  // remain leader-only. Check durable() first; the object exists but is
  // closed on a non-durable store.
  const Wal& wal() const { return wal_; }

  // The durability path prefix ("" when not durable). The log shipper
  // derives scratch snapshot paths from it.
  const std::string& save_prefix() const { return save_prefix_; }

  // Total commit groups that published a new epoch.
  uint64_t commits() const { return commits_.load(); }

  // Group-commit observability. Cheap; callable from any thread.
  GroupCommitStats group_stats() const;

  // Durability observability: whether a WAL is attached, what recovery
  // found, and the first append/checkpoint failure since (if any).
  // durable() reads the prefix, fixed before any concurrent use, not
  // the log's file handle, which a checkpoint swaps under the leader.
  bool durable() const { return !save_prefix_.empty(); }
  const RecoveryStats& last_recovery() const { return last_recovery_; }
  Status wal_status() const;

  // The options every epoch (and session overlay clone) is built with.
  const LooseDbOptions& options() const { return options_; }

  // ---- Background compaction ---------------------------------------------
  // Starts the merge thread: it watches the tip's tier shape and, when
  // the trigger policy fires, folds the accumulated closure segments +
  // overlays into one CSR generation per tier, publishing the swap as an
  // ordinary (record-free) commit. Works on primaries and followers
  // alike — compaction writes no WAL records, so shipped bytes are
  // unchanged and each side compacts independently. FailedPrecondition
  // if compaction is already enabled.
  Status EnableCompaction(const CompactionOptions& options = {});
  // Stops and joins the merge thread (idempotent; also run by ~SharedStore).
  void StopCompaction();
  bool compaction_enabled() const { return compactor_ != nullptr; }
  // Zeroed stats when compaction was never enabled.
  CompactionStats compaction_stats() const;

  // One synchronous pin → build → swap cycle with bounded retries
  // against the publish race; what the merge thread runs per trigger,
  // public so tests and torture harnesses can drive compaction
  // deterministically. Accumulates the merged generations' sizes into
  // the out-params (which may be null). Returns OK when the tip was
  // already compact.
  Status CompactOnce(uint64_t* bytes_merged = nullptr,
                     uint64_t* facts_merged = nullptr);

  // The tip's tier geometry (the compaction trigger's input).
  CompactionShape SampleShape() const;

 private:
  // One waiting Commit call. Lives on its caller's stack; the leader
  // fills result/epoch, then marks it done under queue_mu_.
  struct CommitSlot {
    const std::function<Status(LooseDb&)>* mutate = nullptr;
    bool checkpoint = false;  // Checkpoint() after the group publishes
    Status result;
    EpochPtr epoch;
    bool done = false;
    bool lead = false;  // handed the lead: process the next group
  };

  // Commit minus the writer backpressure — the compactor's own publishes
  // must never be throttled by the backlog they are draining.
  StatusOr<EpochPtr> CommitInternal(
      const std::function<Status(LooseDb&)>& mutate,
      bool checkpoint = false);

  // Moves every queued slot into the next group and gives its oldest
  // slot the lead. Called with queue_mu_ held.
  void HandOffLead();
  // Leader duties: clone the tip once, apply every slot, batch-log,
  // warm, publish. Fills every slot's result/epoch. Called without
  // queue_mu_ held; only one leader runs at a time.
  void ProcessGroup(std::vector<CommitSlot*> group);
  // Applies `slots` in order to a fresh clone of the tip. On a slot
  // failure, fills that slot's result, swaps it out of `slots`, and
  // returns false (caller re-clones and replays). On success, returns
  // true with the clone and its captured WAL records in the out-params.
  bool ApplySlots(std::vector<CommitSlot*>* slots,
                  std::unique_ptr<LooseDb>* out_db,
                  std::vector<WalRecord>* out_records, EpochPtr* out_tip);
  // Leader-only: acks every slot of a group whose effects the tip
  // `epoch` holds, after running the checkpoint sequence when a slot
  // asks for it or checkpoint_bytes of log have accumulated.
  void AckGroup(const std::vector<CommitSlot*>& group,
                const EpochPtr& epoch);
  // Leader-only: the checkpoint sequence against `tip`, which must hold
  // every record the log has appended. A failure is latched in
  // wal_error_ and delays the next attempt; durability is intact.
  Status WriteCheckpoint(const EpochPtr& tip);

  LooseDbOptions options_;
  mutable std::shared_mutex tip_mu_;  // guards the published_ pointer only
  EpochPtr published_;
  std::atomic<uint64_t> commits_{0};

  // The commit queue. queue_mu_ guards queue_, next_group_,
  // leader_active_, and every slot's done and lead flags; the leader
  // works outside the lock. A group is the slots queued when the lead
  // passes (next_group_, whose oldest slot holds the lead until its
  // caller wakes to process it); slots arriving later wait in queue_ for
  // the next group.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<CommitSlot*> queue_;
  std::vector<CommitSlot*> next_group_;
  bool leader_active_ = false;

  // Durability (leader-only once attached; see OpenDurable).
  Wal wal_;
  std::string save_prefix_;
  uint64_t checkpoint_bytes_ = 0;
  RecoveryStats last_recovery_;
  mutable std::mutex wal_error_mu_;
  Status wal_error_;  // first batch-append/checkpoint failure

  // Group-commit counters (leader writes, stats readers sample).
  std::atomic<uint64_t> groups_{0};
  std::atomic<uint64_t> slots_acked_{0};
  std::atomic<uint64_t> slots_rejected_{0};
  std::atomic<uint64_t> max_group_{0};

  // Background compaction (EnableCompaction). Created once, then only
  // read concurrently; destroyed by ~SharedStore after Stop().
  std::unique_ptr<Compactor> compactor_;
};

}  // namespace lsd

#endif  // LSD_SERVER_SHARED_STORE_H_
