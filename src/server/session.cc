#include "server/session.h"

#include <chrono>
#include <utility>

namespace lsd {

StatusOr<std::string> ServerSession::ExecuteRequest(
    std::string_view request, bool mutation, const QueryBudget* budget) {
  set_request_budget(budget);
  const auto start = std::chrono::steady_clock::now();
  StatusOr<std::string> result =
      mutation ? ExecuteBatchMutation(request) : Execute(request);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  set_request_budget(nullptr);
  if (budget != nullptr) AccumulateSteps(budget->steps());
  if (governance_ == nullptr) return result;
  governance_->RecordElapsedMs(static_cast<uint64_t>(elapsed.count()));
  // A budget-typed failure counts under its cancel reason; any other
  // failure of a request whose budget happened to trip does not.
  if (!result.ok() && budget != nullptr && budget->cancelled() &&
      (result.status().IsDeadlineExceeded() ||
       result.status().IsCancelled() ||
       result.status().IsResourceExhausted())) {
    governance_->CountCancel(budget->cancel_reason());
  }
  return result;
}

StatusOr<ServerSession::PinnedDb> ServerSession::Pin() {
  EpochPtr epoch = store_->snapshot();
  last_epoch_sequence_ = epoch->sequence();
  PinnedDb pinned;
  pinned.epoch = epoch;
  if (hypo_retracts_.empty() && hypo_asserts_.empty()) {
    overlay_db_ = nullptr;  // drop a stale materialization eagerly
    pinned.db = &epoch->db();
    return pinned;
  }
  if (overlay_db_ == nullptr ||
      overlay_epoch_sequence_ != epoch->sequence() ||
      overlay_built_version_ != overlay_version_) {
    LooseDbOptions options = store_->options();
    options.standard_rules = false;
    auto clone = std::make_unique<LooseDb>(options);
    LSD_RETURN_IF_ERROR(epoch->db().CloneInto(clone.get()));
    // The retracts, then the asserts, each side one run. A fact
    // retracted globally since the hypothesis was posed is already
    // absent (or names an unknown entity) — the hypothesis holds
    // vacuously. The clone keeps the epoch's universe, extended only by
    // the names its asserts use.
    std::vector<WalRecord> what_if = hypo_retracts_;
    what_if.insert(what_if.end(), hypo_asserts_.begin(), hypo_asserts_.end());
    LSD_RETURN_IF_ERROR(clone->Apply(what_if).status());
    overlay_db_ = std::move(clone);
    overlay_epoch_sequence_ = epoch->sequence();
    overlay_built_version_ = overlay_version_;
  }
  // No Warm(): the overlay db is private to this session's thread, so
  // its caches may fill lazily like any single-user LooseDb. That lazy
  // fill (delete and re-derive for the hypothetical retracts, then an
  // extension by the asserts, over the epoch's shared tiers) is the read
  // the request budget must govern — safe here precisely because the clone
  // is single-thread-owned (a tripped run leaves the stale cache
  // untouched; the next request's View() simply retries).
  overlay_db_->set_read_budget(budget_);
  pinned.db = overlay_db_.get();
  pinned.overlaid = true;
  return pinned;
}

std::string ServerSession::Breadcrumbs() const {
  std::string out;
  for (size_t i = 0; i < trail_.size(); ++i) {
    if (i > 0) out += " > ";
    if (i == trail_pos_) {
      out += "[" + trail_[i] + "]";
    } else {
      out += trail_[i];
    }
  }
  return out;
}

std::shared_ptr<ServerSession> SessionRegistry::Create(size_t max_sessions) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.size() >= max_sessions) return nullptr;
  uint64_t id = next_id_++;
  auto session = std::make_shared<ServerSession>(id, store_);
  session->set_registry(this);
  session->set_replication(replication_);
  session->set_governance(governance_);
  sessions_.emplace(id, session);
  return session;
}

void SessionRegistry::Remove(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(id);
}

size_t SessionRegistry::live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

uint64_t SessionRegistry::total_created() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_ - 1;
}

}  // namespace lsd
