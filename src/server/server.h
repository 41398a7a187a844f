// The TCP front end: an epoll reactor plus a small worker pool serving
// the lsd wire protocols over a SharedStore.
//
// One reactor thread owns every socket: it accepts nonblockingly,
// reads request bytes, parses them (text lines or binary frames — the
// first byte a connection sends picks its mode), and queues parsed
// requests onto a bounded MPMC run queue drained by `worker_threads`
// workers. Workers execute requests against the connection's session —
// one connection is owned by at most one worker at a time, so session
// state needs no locking — and append responses to the connection's
// outbound buffer; the reactor flushes those buffers, re-arming
// EPOLLOUT while a partial write is pending. Total threads are
// O(workers), independent of the session count, which is what lets one
// process hold thousands of mostly-idle browsing sessions.
//
// Backpressure is flow control, not errors: when a connection exceeds
// its in-flight request cap, or the global pending queue is full, the
// reactor simply stops reading from the offending sockets (EPOLLIN
// de-armed) until requests drain — the kernel's TCP window then pushes
// back on the client. Admission (`max_sessions`) still bounds live
// sessions: surplus connections are greeted with "ERR server busy" and
// closed, which is what lsd_client's backoff-and-retry keys on.
#ifndef LSD_SERVER_SERVER_H_
#define LSD_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "server/governance.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace lsd {

struct ServerOptions {
  // 0 picks an ephemeral port; read it back with port() after Start().
  uint16_t port = 0;
  // Admission bound: concurrent sessions beyond this are rejected with
  // "ERR server busy" at connect time. The reactor makes sessions cost
  // a few kilobytes instead of an OS thread, so the default is sized
  // for thousands of browsers, not dozens.
  size_t max_sessions = 4096;
  int listen_backlog = 1024;
  // Hard per-request execution deadline; 0 disables. Enforced
  // cooperatively via a QueryBudget threaded through every long eval
  // loop: the worker unwinds with a typed "DeadlineExceeded" error,
  // session state (trail, overlay) is untouched, and — unlike the old
  // soft deadline — the connection stays open, so cheap pipelined
  // requests behind a poisoned one still get served.
  std::chrono::milliseconds request_timeout{10'000};
  // Per-request step cap charged through the same budget (0 =
  // unlimited): total facts enumerated/joined across all eval loops.
  uint64_t max_steps_per_request = 0;
  // Cumulative step allowance for one session's whole lifetime (0 =
  // unlimited). Spent sessions get typed budget errors on reads/writes.
  uint64_t session_step_budget = 0;
  // While DEGRADED (pending queue >= 1/2 max_queued_requests, with
  // hysteresis), requests whose planner cost estimate exceeds this are
  // shed with a typed error; cheap probes keep flowing.
  uint64_t shed_cost_threshold = 1 << 16;
  // Idle receive budget: a connection that sends no bytes for
  // idle_timeout while nothing of its is queued or executing is declared
  // dead and closed. 0 disables. Non-zero by default because an
  // idle-connection flood would otherwise hold all max_sessions
  // admission slots forever; a quiet interactive browser is disconnected
  // after 75 silent seconds and must reconnect (lsd_client retries
  // transparently but loses session-local state: trail, hypotheticals,
  // limit). Deploy with 0 only behind a front end that polices idleness.
  std::chrono::milliseconds idle_timeout{75'000};
  // Worker pool size; 0 means hardware_concurrency (min 1).
  size_t worker_threads = 0;
  // Bounded global pending-request queue: requests parsed but not yet
  // executed. When full, the reactor pauses reading instead of
  // erroring established sessions.
  size_t max_queued_requests = 1024;
  // Per-connection in-flight cap: parsed-but-unanswered requests one
  // connection may have (its effective pipeline window server-side).
  size_t max_inflight_per_connection = 64;
  // A text request line longer than this is a protocol error.
  size_t max_text_line_bytes = 1 << 20;
  // How long Stop() lets in-flight requests drain and responses flush
  // before closing connections that are still busy.
  std::chrono::milliseconds shutdown_drain{5'000};
  // Non-null turns this into a read-only follower front end: sessions
  // reject mutations and gate reads on the monitor's staleness bound
  // (lsd_serve --follow). Must outlive the server.
  const ReplicationMonitor* replication = nullptr;
};

class LsdServer {
 public:
  LsdServer(SharedStore* store, const ServerOptions& options);
  ~LsdServer();

  LsdServer(const LsdServer&) = delete;
  LsdServer& operator=(const LsdServer&) = delete;

  // Binds, listens, and starts the reactor and worker threads.
  Status Start();
  // Stops accepting, drains in-flight requests (bounded by
  // shutdown_drain), closes every connection, and joins all threads.
  // Safe to call twice; the destructor calls it.
  void Stop();

  // The bound port (after Start()).
  uint16_t port() const { return port_; }

  const SessionRegistry& registry() const { return registry_; }
  // Overload / cancellation observability (also folded into STATS).
  const GovernanceState& governance() const { return governance_; }
  uint64_t requests_served() const { return requests_served_.load(); }
  uint64_t rejected_connections() const { return rejected_.load(); }
  size_t worker_count() const { return workers_.size(); }
  // Connections currently paused for backpressure (observability).
  uint64_t reads_paused() const { return reads_paused_.load(); }

 private:
  // One parsed request waiting for (or undergoing) execution.
  struct PendingRequest {
    uint64_t id = 0;  // binary request id; unused in text mode
    bool binary = false;
    bool mutation = false;  // kMutation frame: command is a batch payload
    std::string command;
  };

  // All state of one client connection. The reactor owns the fd and
  // the parse-side fields; `mu` guards everything workers touch.
  struct Connection {
    int fd = -1;
    std::shared_ptr<ServerSession> session;  // null: busy-rejected

    enum class Mode { kUnknown, kText, kBinary };
    Mode mode = Mode::kUnknown;
    std::string in_buf;         // text-mode partial line buffer
    BinaryFrameParser parser;   // binary-mode incremental decoder
    std::chrono::steady_clock::time_point last_read;
    uint32_t interest = 0;      // currently registered epoll events
    bool paused = false;        // EPOLLIN de-armed for backpressure

    std::mutex mu;
    std::deque<PendingRequest> pending;
    bool scheduled = false;     // queued for / owned by a worker
    size_t inflight = 0;        // pending + currently executing
    // The budget of the request this connection is executing right now;
    // CloseConnection cancels it (kDisconnect) so a dead peer's query
    // stops burning a worker.
    std::shared_ptr<QueryBudget> active_budget;
    std::string out;            // response bytes awaiting write
    size_t out_pos = 0;
    bool close_after_out = false;  // hang up once `out` drains
    bool dead = false;          // fd closed; workers discard results
  };
  using ConnPtr = std::shared_ptr<Connection>;

  void ReactorLoop();
  void WorkerLoop();

  // Reactor-side helpers (reactor thread only unless noted).
  void AcceptNew();
  void HandleReadable(const ConnPtr& conn);
  void ParseRequests(const ConnPtr& conn);
  bool EnqueueRequest(const ConnPtr& conn, PendingRequest request);
  void FlushOut(const ConnPtr& conn);
  void FlushFromWorker(const ConnPtr& conn);
  void UpdateInterest(const ConnPtr& conn, bool readable, bool writable);
  void CloseConnection(const ConnPtr& conn);
  void DrainWakeList();
  void ResumePaused();
  void IdleSweep();
  void UpdateDegraded();
  bool Drained();

  // Worker-side helpers.
  void ExecuteOne(const ConnPtr& conn, PendingRequest request);
  void QueueResponse(const ConnPtr& conn, const PendingRequest& request,
                     const Status& status, std::string_view payload,
                     bool hangup);
  void NotifyReactor(const ConnPtr& conn);

  SharedStore* store_;
  ServerOptions options_;
  SessionRegistry registry_;
  GovernanceState governance_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers and Stop() wake the reactor
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutting_down_{false};

  std::thread reactor_;
  std::vector<std::thread> workers_;

  // Reactor-owned connection table, keyed by fd.
  std::unordered_map<int, ConnPtr> conns_;
  std::unordered_set<int> paused_fds_;

  // The bounded MPMC run queue: connections with pending requests,
  // each present at most once (Connection::scheduled).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<ConnPtr> ready_;
  bool stop_workers_ = false;

  // Connections whose output/accounting changed on a worker thread and
  // need reactor attention (flush, close, un-pause).
  std::mutex wake_mu_;
  std::vector<ConnPtr> wake_list_;

  // Requests admitted (parsed into a pending queue) but not yet popped
  // by a worker — the global backpressure gauge.
  std::atomic<size_t> queued_requests_{0};

  // Mirror of paused_fds_.size() (reactor-owned set), readable from
  // workers: a batch-end flush must wake the reactor whenever any
  // connection sits paused, since finishing requests frees the budget
  // that lets ResumePaused re-arm those reads.
  std::atomic<size_t> paused_count_{0};

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> reads_paused_{0};
};

}  // namespace lsd

#endif  // LSD_SERVER_SERVER_H_
