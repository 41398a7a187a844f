#include "server/shared_store.h"

#include <algorithm>
#include <chrono>

#include "util/failpoint.h"

namespace lsd {

SharedStore::SharedStore(const LooseDbOptions& options)
    : options_(options) {
  auto db = std::make_unique<LooseDb>(options_);
  // An empty closure always computes; ignore the (impossible) failure
  // rather than throw from a constructor.
  (void)db->Warm();
  published_ = std::make_shared<const Epoch>(std::move(db), 0);
}

SharedStore::~SharedStore() { StopCompaction(); }

Status SharedStore::OpenDurable(const std::string& path_prefix,
                                const SharedStoreDurability& durability) {
  if (wal_.is_open()) {
    return Status::FailedPrecondition("store is already durable");
  }
  // Recover into a fresh bootstrap epoch. Epochs are immutable and
  // short-lived while the store outlives them all, so the store owns
  // the log and opens it itself at the recovered generation.
  auto db = std::make_unique<LooseDb>(options_);
  LSD_RETURN_IF_ERROR(db->Recover(path_prefix));
  last_recovery_ = db->last_recovery();
  LSD_RETURN_IF_ERROR(db->Warm());
  checkpoint_bytes_ = durability.checkpoint_bytes;
  WalOptions wal_options{durability.sync, durability.segment_bytes};
  // Open the log BEFORE publishing, so the bootstrap epoch carries the
  // recovered durable position (replication's shipping watermark).
  LSD_RETURN_IF_ERROR(wal_.Open(path_prefix + ".wal", wal_options,
                                last_recovery_.generation));
  save_prefix_ = path_prefix;
  {
    std::unique_lock<std::shared_mutex> tip_lock(tip_mu_);
    published_ = std::make_shared<const Epoch>(std::move(db), 0, NowMs(),
                                               wal_.durable_position());
  }
  return Status::OK();
}

uint64_t SharedStore::NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

StatusOr<EpochPtr> SharedStore::ReplaceTip(std::unique_ptr<LooseDb> db,
                                           const WalPosition& wal_pos) {
  LSD_RETURN_IF_ERROR(db->Warm());
  std::unique_lock<std::shared_mutex> tip_lock(tip_mu_);
  auto epoch = std::make_shared<const Epoch>(
      std::move(db), published_->sequence() + 1, NowMs(), wal_pos);
  published_ = epoch;
  return EpochPtr(epoch);
}

StatusOr<EpochPtr> SharedStore::Commit(
    const std::function<Status(LooseDb&)>& mutate) {
  // Writer backpressure: when the tip's segment backlog runs far ahead
  // of the merger, slow this writer down before it enqueues — never a
  // reader, which pins whatever epoch is already published.
  if (compactor_ != nullptr) {
    compactor_->MaybeBackpressure(SampleShape());
  }
  return CommitInternal(mutate);
}

Status SharedStore::Checkpoint() {
  if (!durable()) {
    return Status::FailedPrecondition(
        "checkpoint needs a durable store (OpenDurable)");
  }
  static const std::function<Status(LooseDb&)> kNoMutation =
      [](LooseDb&) { return Status::OK(); };
  return CommitInternal(kNoMutation, /*checkpoint=*/true).status();
}

StatusOr<EpochPtr> SharedStore::CommitInternal(
    const std::function<Status(LooseDb&)>& mutate, bool checkpoint) {
  // A failure here models the commit dying before any work: readers
  // keep the old tip, nothing is half-published, no slot is enqueued.
  LSD_FAILPOINT_RETURN_IF_SET(store.commit.begin);

  CommitSlot slot;
  slot.mutate = &mutate;
  slot.checkpoint = checkpoint;
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_.push_back(&slot);
  if (!leader_active_) {
    // No leader at work: this caller leads a group of its own slot.
    leader_active_ = true;
    HandOffLead();
  }
  // A follower waits for its verdict or for the lead. The leader writes
  // result/epoch before setting done under queue_mu_, so the reads below
  // are ordered.
  queue_cv_.wait(lock, [&slot] { return slot.done || slot.lead; });
  if (!slot.done) {
    // Leader: process the group that holds this caller's slot, then
    // pass the lead to the slots that queued meanwhile and return.
    // Draining until the queue is empty instead would let followers that
    // keep re-enqueueing hold this caller (and its acked write) for as
    // long as they keep writing.
    std::vector<CommitSlot*> group;
    group.swap(next_group_);
    lock.unlock();
    ProcessGroup(group);
    lock.lock();
    for (CommitSlot* s : group) s->done = true;
    if (queue_.empty()) {
      leader_active_ = false;
    } else {
      HandOffLead();
    }
    queue_cv_.notify_all();
  }
  lock.unlock();

  if (!slot.result.ok()) return slot.result;
  return slot.epoch;
}

void SharedStore::HandOffLead() {
  next_group_.assign(queue_.begin(), queue_.end());
  queue_.clear();
  next_group_.front()->lead = true;
}

bool SharedStore::ApplySlots(std::vector<CommitSlot*>* slots,
                             std::unique_ptr<LooseDb>* out_db,
                             std::vector<WalRecord>* out_records,
                             EpochPtr* out_tip) {
  EpochPtr tip = snapshot();

  // Clone the tip into a private working copy — ONCE for the whole
  // group. The clone must start with clean containers; the tip's facts
  // already include any standard seed facts, so the copy skips
  // re-seeding.
  LooseDbOptions clone_options = options_;
  clone_options.standard_rules = false;
  auto next = std::make_unique<LooseDb>(clone_options);
  Status cloned = tip->db().CloneInto(next.get());
  if (!cloned.ok()) {
    // Environmental, not a slot's fault: the whole group fails.
    for (CommitSlot* s : *slots) s->result = cloned;
    slots->clear();
    return false;
  }

  out_records->clear();
  if (wal_.is_open()) next->set_mutation_capture(out_records);
  for (size_t i = 0; i < slots->size(); ++i) {
    Status applied = (*(*slots)[i]->mutate)(*next);
    if (!applied.ok()) {
      // The clone may hold this slot's partial mutations (and its WAL
      // records); poison only the slot, then replay the survivors on a
      // fresh clone so each still gets all-or-nothing semantics.
      (*slots)[i]->result = applied;
      slots->erase(slots->begin() + i);
      next->set_mutation_capture(nullptr);
      return false;
    }
  }
  next->set_mutation_capture(nullptr);

  *out_db = std::move(next);
  *out_tip = std::move(tip);
  return true;
}

void SharedStore::ProcessGroup(std::vector<CommitSlot*> group) {
  const uint64_t group_size = group.size();
  groups_.fetch_add(1, std::memory_order_relaxed);
  if (group_size > max_group_.load(std::memory_order_relaxed)) {
    max_group_.store(group_size, std::memory_order_relaxed);
  }

  // A group of Checkpoint() slots alone mutates nothing: checkpoint
  // the tip as it stands, without a clone to learn that.
  if (std::all_of(group.begin(), group.end(),
                  [](const CommitSlot* s) { return s->checkpoint; })) {
    AckGroup(group, snapshot());
    return;
  }

  // `group` shrinks as slots fail; each shrink replays the remainder
  // on a fresh clone (failures are rare — the common path clones once).
  std::unique_ptr<LooseDb> next;
  std::vector<WalRecord> records;
  EpochPtr tip;
  while (!group.empty()) {
    if (ApplySlots(&group, &next, &records, &tip)) break;
  }
  slots_rejected_.fetch_add(group_size - group.size(),
                            std::memory_order_relaxed);
  if (group.empty()) return;  // every slot failed; results already set

  // No-op group: nothing to log, warm, or publish. A compaction-only
  // group changes no logical content but DOES bump the storage
  // generation — it must still publish, or the merged tiers would be
  // lost with the clone.
  const bool logical_noop =
      next->store_version() == tip->db().store_version() &&
      next->rules_version() == tip->db().rules_version() &&
      next->definitions().all().size() ==
          tip->db().definitions().all().size();
  if (logical_noop &&
      next->storage_generation() == tip->db().storage_generation()) {
    AckGroup(group, tip);
    return;
  }

  // Publish barrier: materialize every cache before readers can see the
  // epoch, so their const reads never write. A crash or failure
  // injected here proves the mutated clone is invisible until the
  // published_ swap below.
  LSD_FAILPOINT_HIT(store.commit.publish, fp_publish);
  Status publish = fp_publish.action == failpoint::Action::kError
                       ? Status::IoError("injected commit-publish failure")
                       : next->Warm();

  // Durability barrier: the whole group's records under one
  // fflush+fsync. Only after AppendBatch returns may any follower be
  // acked; a failure (or crash) here fails the group wholesale and
  // publishes nothing — no client ever saw these writes.
  if (publish.ok() && wal_.is_open()) {
    publish = wal_.AppendBatch(records);
    if (!publish.ok()) {
      std::lock_guard<std::mutex> error_lock(wal_error_mu_);
      if (wal_error_.ok()) wal_error_ = publish;
    }
  }
  if (!publish.ok()) {
    for (CommitSlot* s : group) s->result = publish;
    return;
  }

  // Stamp the epoch with NOW and with the log's durable position: the
  // AppendBatch above has returned, so every byte at or below this
  // position is both fsynced and folded into `next`. The shipper reads
  // these stamps off the tip.
  const WalPosition wal_pos =
      wal_.is_open() ? wal_.durable_position() : WalPosition{};
  auto epoch = std::make_shared<const Epoch>(
      std::move(next), tip->sequence() + 1, NowMs(), wal_pos);
  {
    std::unique_lock<std::shared_mutex> tip_lock(tip_mu_);
    // A logical no-op (compaction-only) publish must not clobber a tip
    // that changed under it: on a follower, ReplaceTip (snapshot resync)
    // bypasses the commit queue, and publishing a clone of the
    // pre-replace tip would silently undo the replacement. Logical
    // groups cannot race this way (followers are single-writer), so
    // only the storage-only publish pays the check; the compactor
    // simply retries against the new tip.
    if (logical_noop && published_ != tip) {
      tip_lock.unlock();
      for (CommitSlot* s : group) {
        s->result = Status::Aborted(
            "tip replaced during a storage-only publish");
      }
      slots_rejected_.fetch_add(group.size(), std::memory_order_relaxed);
      return;
    }
    published_ = epoch;
  }
  commits_.fetch_add(1);
  if (compactor_ != nullptr) compactor_->Notify();
  AckGroup(group, epoch);
}

void SharedStore::AckGroup(const std::vector<CommitSlot*>& group,
                           const EpochPtr& epoch) {
  // One checkpoint sequence for both triggers: a Checkpoint() slot in
  // the group, or checkpoint_bytes of log since the last checkpoint.
  bool requested = false;
  for (const CommitSlot* s : group) requested = requested || s->checkpoint;
  Status checkpointed;
  if (requested || (checkpoint_bytes_ != 0 && wal_.is_open() &&
                    wal_.generation_bytes() >= checkpoint_bytes_)) {
    checkpointed = WriteCheckpoint(epoch);
  }
  uint64_t acked = 0;
  for (CommitSlot* s : group) {
    s->result = s->checkpoint ? checkpointed : Status::OK();
    s->epoch = epoch;
    if (s->result.ok()) ++acked;
  }
  slots_acked_.fetch_add(acked, std::memory_order_relaxed);
  slots_rejected_.fetch_add(group.size() - acked,
                            std::memory_order_relaxed);
}

Status SharedStore::WriteCheckpoint(const EpochPtr& tip) {
  const uint64_t next_generation = wal_.generation() + 1;
  Status s = SaveSnapshotAtomic(save_prefix_ + ".snap", tip->db().store(),
                                tip->db().rules(), next_generation);
  if (s.ok()) {
    LSD_FAILPOINT(checkpoint.swap);
    s = wal_.BeginGeneration(next_generation);
  }
  if (!s.ok()) {
    std::lock_guard<std::mutex> error_lock(wal_error_mu_);
    if (wal_error_.ok()) wal_error_ = s;
  }
  return s;
}

Status SharedStore::EnableCompaction(const CompactionOptions& options) {
  if (compactor_ != nullptr) {
    return Status::FailedPrecondition("compaction is already enabled");
  }
  compactor_ = std::make_unique<Compactor>(
      options, [this] { return SampleShape(); },
      [this](uint64_t* bytes, uint64_t* facts) {
        return CompactOnce(bytes, facts);
      });
  compactor_->Start();
  return Status::OK();
}

void SharedStore::StopCompaction() {
  if (compactor_ == nullptr) return;
  compactor_->Stop();
  compactor_.reset();  // EnableCompaction may be called again
}

CompactionStats SharedStore::compaction_stats() const {
  return compactor_ == nullptr ? CompactionStats{} : compactor_->Sample();
}

CompactionShape SharedStore::SampleShape() const {
  EpochPtr tip = snapshot();
  auto mem = tip->db().MemoryUsage();
  CompactionShape shape;
  if (!mem.ok()) return shape;  // cold/failed closure: nothing to fold
  shape.runs = std::max(mem->base.runs, mem->derived.runs);
  shape.frozen_bytes = mem->base.frozen.total() + mem->derived.frozen.total();
  shape.overlay_bytes = mem->base.overlay_bytes + mem->derived.overlay_bytes;
  return shape;
}

Status SharedStore::CompactOnce(uint64_t* bytes_merged,
                                uint64_t* facts_merged) {
  // The pin → build → swap cycle. Building the merged generations is
  // the expensive part and runs entirely against the pinned, immutable
  // epoch — no lock held, readers and writers undisturbed. The swap
  // goes through the ordinary commit path, whose clone shares the tip's
  // tiers by pointer; if commits that landed meanwhile
  // tail-merged one of the pinned segments away, the install aborts and
  // the cycle retries from the fresh tip (bounded: under sustained
  // hostile interleaving the backlog keeps growing and the NEXT cycle
  // picks it up — compaction is an optimization, never load-bearing).
  static constexpr int kMaxAttempts = 4;
  Status last = Status::OK();
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    EpochPtr pin = snapshot();
    // Crash window while merging off-thread: nothing of the merge is
    // visible anywhere — recovery must find every acked write and no
    // trace of the half-built generation.
    LSD_FAILPOINT(compact.merge);
    auto plan_or = pin->db().BuildCompactionPlan();
    if (!plan_or.ok()) return plan_or.status();
    if (plan_or->empty()) return Status::OK();
    const LooseDb::CompactionPlan& plan = *plan_or;
    uint64_t bytes = 0;
    uint64_t facts = 0;
    for (const LooseDb::TierPlan* tp : {&plan.base, &plan.derived}) {
      if (tp->merged != nullptr) {
        bytes += tp->merged->MemoryUsage().total();
        facts += tp->merged->size();
      }
    }
    auto published = CommitInternal(
        [&plan](LooseDb& db) { return db.InstallCompactedTiers(plan); });
    if (published.ok()) {
      if (bytes_merged != nullptr) *bytes_merged += bytes;
      if (facts_merged != nullptr) *facts_merged += facts;
      return Status::OK();
    }
    last = published.status();
    if (!last.IsAborted()) return last;
  }
  return last;
}

GroupCommitStats SharedStore::group_stats() const {
  GroupCommitStats stats;
  stats.groups = groups_.load(std::memory_order_relaxed);
  stats.slots_acked = slots_acked_.load(std::memory_order_relaxed);
  stats.slots_rejected = slots_rejected_.load(std::memory_order_relaxed);
  stats.max_group = max_group_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.queue_depth = queue_.size();
  }
  stats.wal_records = wal_.appended_records();
  stats.wal_batches = wal_.append_batches();
  stats.fsyncs = wal_.fsyncs();
  return stats;
}

Status SharedStore::wal_status() const {
  std::lock_guard<std::mutex> lock(wal_error_mu_);
  return wal_error_;
}

}  // namespace lsd
