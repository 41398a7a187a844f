// A server-side browsing session: one connected client's private state
// over the shared store. Everything the paper makes interactive and
// per-user lives here — the navigation trail (Sec 4.1) and hypothetical
// retractions (Sec 5.2's "browsing by probing" without touching the
// database) — while asserts, retracts and rule changes go through the
// SharedStore commit path and become visible to every session.
//
// Hypothetical mutations form the session-local *overlay*: a list of
// retractions/assertions that exist only for this session. While the
// overlay is non-empty, the session reads through a private
// materialization — a clone of the pinned epoch (sharing its facts,
// closure tiers and entity table) with the overlay applied as erases
// and inserts on its own copy of the fact index, its closure maintained
// by delete and re-derive plus extension — so the hypothesis propagates
// through inference exactly as a real mutation would, yet no other
// session can observe it. An empty overlay reads the shared epoch
// directly (the fast path: shared closure, lattice, and plan cache).
//
// Thread model: a session is owned by one connection and accessed by
// one thread at a time; different sessions run fully in parallel.
#ifndef LSD_SERVER_SESSION_H_
#define LSD_SERVER_SESSION_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "server/governance.h"
#include "server/shared_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace lsd {

class SessionRegistry;
class ReplicationMonitor;

class ServerSession {
 public:
  ServerSession(uint64_t id, SharedStore* store)
      : id_(id), store_(store) {}

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  uint64_t id() const { return id_; }

  // Lets STATS report the session census; set by SessionRegistry.
  void set_registry(const SessionRegistry* registry) {
    registry_ = registry;
  }

  // Marks this session as serving on a read-only follower: mutations
  // are rejected ("read-only follower"), reads gate on the monitor's
  // staleness bound ("ERR stale" past it), and stats grows a
  // replication block. Null (the default) means primary semantics.
  void set_replication(const ReplicationMonitor* replication) {
    replication_ = replication;
  }

  // Shared governance state (overload flag, shed threshold, counters);
  // set by SessionRegistry like the registry pointer. Null means
  // ungoverned (library/test use).
  void set_governance(GovernanceState* governance) {
    governance_ = governance;
  }

  // The budget of the request currently executing, set around
  // Execute()/ExecuteBatchMutation() (ExecuteRequest does it) and
  // cleared after. Threaded into every read verb's eval options and
  // checked before any commit slot enqueues; also governs the
  // session-private overlay's lazy closure rebuild (see Pin()).
  void set_request_budget(const QueryBudget* budget) {
    budget_ = budget;
    if (overlay_db_ != nullptr) overlay_db_->set_read_budget(budget);
  }

  // Folds one finished request's charged steps into the session's
  // cumulative tally (per-session budgets; see
  // ServerOptions::session_step_budget).
  void AccumulateSteps(uint64_t steps) { steps_used_ += steps; }
  uint64_t steps_used() const { return steps_used_; }

  // Executes one command line (the grammar every front end shares; see
  // commands.cc) and returns the rendered output. An error Status
  // carries the message the protocol layer reports as ERR and the shell
  // prints after "! ".
  StatusOr<std::string> Execute(std::string_view line);

  // Executes the payload of a binary kMutation frame, a run of framed
  // WAL records: decodes and validates the whole batch, then lands every
  // record in ONE group-commit slot (one clone, one WAL fsync, one epoch
  // shared with the rest of the group). Returns the
  // added/present/removed/missing tally, or InvalidArgument for a
  // malformed payload (nothing mutates).
  StatusOr<std::string> ExecuteBatchMutation(std::string_view payload);

  // One governed request, as every front end runs it: arms `budget`
  // (null = ungoverned) around Execute — or, when `mutation`, around
  // ExecuteBatchMutation of a kMutation frame's payload — then charges
  // the budget's steps to this session, and the elapsed time and any
  // budget-typed failure (under its cancel reason) to the governance
  // state.
  StatusOr<std::string> ExecuteRequest(std::string_view request,
                                       bool mutation,
                                       const QueryBudget* budget);

  uint64_t requests() const { return requests_; }
  size_t overlay_size() const {
    return hypo_retracts_.size() + hypo_asserts_.size();
  }

  // The epoch serving this session's current request (after the overlay
  // is applied this is the overlay's base). Exposed for tests.
  uint64_t last_epoch_sequence() const { return last_epoch_sequence_; }

  // The database a read verb reads: the pinned shared epoch, or the
  // session's private overlay materialization (rebuilt when the tip or
  // the overlay moved). `epoch` keeps the base alive either way; an
  // overlay `db` stays valid until the session's next Pin. Every read
  // verb starts here; public so tests can inspect what a session reads.
  struct PinnedDb {
    EpochPtr epoch;
    LooseDb* db = nullptr;
    bool overlaid = false;
  };
  StatusOr<PinnedDb> Pin();

 private:
  // Last budget check before a mutation enqueues its commit slot (the
  // point of no return — after enqueue, a cancel waits for the ack).
  Status CheckBudget() const {
    return budget_ == nullptr ? Status::OK() : budget_->Check();
  }
  // Planner-style cost estimate (candidate enumerations) for the shed
  // decision; computed against the shared snapshot, never the overlay.
  uint64_t EstimateCost(const std::string& cmd, const std::string& rest);

  // Command handlers (commands.cc).
  // Lands fact records in ONE commit slot through LooseDb::Apply.
  StatusOr<LooseDb::Tally> CommitRecords(
      const std::vector<WalRecord>& records);
  StatusOr<std::string> ExecuteHypo(std::string_view rest);
  StatusOr<std::string> ExecuteVisit(const std::string& entity);
  StatusOr<std::string> ExecuteBackForward(bool back);
  StatusOr<std::string> RenderStats();
  std::string Breadcrumbs() const;

  uint64_t id_;
  SharedStore* store_;
  const SessionRegistry* registry_ = nullptr;
  const ReplicationMonitor* replication_ = nullptr;
  GovernanceState* governance_ = nullptr;
  const QueryBudget* budget_ = nullptr;  // current request's, or null
  uint64_t steps_used_ = 0;  // cumulative charged steps, all requests
  uint64_t requests_ = 0;
  uint64_t last_epoch_sequence_ = 0;

  // Session-local hypothetical overlay, as fact records of names (ids
  // are only stable within one epoch's entity table), resolved against
  // an epoch on use.
  std::vector<WalRecord> hypo_retracts_;
  std::vector<WalRecord> hypo_asserts_;
  uint64_t overlay_version_ = 0;  // bumped on any hypo change

  // Materialized overlay cache, keyed by (epoch sequence, overlay
  // version); rebuilt when either moves.
  std::unique_ptr<LooseDb> overlay_db_;
  uint64_t overlay_epoch_sequence_ = 0;
  uint64_t overlay_built_version_ = 0;

  // Navigation trail (Sec 4.1), as entity names.
  std::vector<std::string> trail_;
  size_t trail_pos_ = 0;

  // Session-local limit(n): one browser's composition bound must not
  // change another's.
  int composition_limit_ = -1;  // -1 = inherit the epoch's
};

// The registry of live sessions — the server's admission bookkeeping
// and the STATS verb's census. Thread-safe.
class SessionRegistry {
 public:
  explicit SessionRegistry(SharedStore* store) : store_(store) {}

  // Follower mode: every session created from here on carries the
  // monitor (see ServerSession::set_replication). Set before Start().
  void set_replication(const ReplicationMonitor* replication) {
    replication_ = replication;
  }

  // Governance plumbing: every session created from here on shares the
  // server's overload/cancellation state. Set before Start().
  void set_governance(GovernanceState* governance) {
    governance_ = governance;
  }

  // Creates a session or returns null if `max_sessions` are live
  // (admission control; the caller reports backpressure to the client).
  std::shared_ptr<ServerSession> Create(size_t max_sessions);
  void Remove(uint64_t id);

  size_t live() const;
  uint64_t total_created() const;

 private:
  SharedStore* store_;
  const ReplicationMonitor* replication_ = nullptr;
  GovernanceState* governance_ = nullptr;
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<ServerSession>> sessions_;
  uint64_t next_id_ = 1;
};

}  // namespace lsd

#endif  // LSD_SERVER_SESSION_H_
