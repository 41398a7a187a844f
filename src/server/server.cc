#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "util/failpoint.h"

namespace lsd {

namespace {

using Clock = std::chrono::steady_clock;

// The one-line error text both protocols carry (newlines would break
// the text framing's status line).
std::string ErrorLine(const Status& status) {
  std::string s = status.ToString();
  size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

}  // namespace

LsdServer::LsdServer(SharedStore* store, const ServerOptions& options)
    : store_(store), options_(options), registry_(store) {
  registry_.set_replication(options_.replication);
  governance_.shed_cost_threshold = options_.shed_cost_threshold;
  governance_.session_step_budget = options_.session_step_budget;
  registry_.set_governance(&governance_);
  if (options_.worker_threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    options_.worker_threads = hw == 0 ? 1 : hw;
  }
  if (options_.max_inflight_per_connection == 0) {
    options_.max_inflight_per_connection = 1;
  }
  if (options_.max_queued_requests == 0) options_.max_queued_requests = 1;
}

LsdServer::~LsdServer() { Stop(); }

Status LsdServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("server running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  auto fail = [this](const char* what) {
    Status s = Status::IoError(std::string(what) + ": " +
                               std::strerror(errno));
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return s;
  };
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    return fail("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail("eventfd");

  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail("epoll_ctl(listen)");
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return fail("epoll_ctl(wake)");
  }

  shutting_down_.store(false);
  stop_workers_ = false;
  running_.store(true);
  reactor_ = std::thread([this] { ReactorLoop(); });
  workers_.reserve(options_.worker_threads);
  for (size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void LsdServer::Stop() {
  if (!running_.exchange(false)) return;
  shutting_down_.store(true);
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
  if (reactor_.joinable()) reactor_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_workers_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
}

// ---- Reactor -------------------------------------------------------------

void LsdServer::ReactorLoop() {
  std::vector<struct epoll_event> events(256);
  std::optional<Clock::time_point> shutdown_started;
  for (;;) {
    int timeout_ms = -1;
    if (shutdown_started.has_value()) {
      timeout_ms = 10;
    } else if (options_.io_timeout.count() > 0) {
      timeout_ms = static_cast<int>(std::min<int64_t>(
          50, std::max<int64_t>(1, options_.io_timeout.count())));
    }
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t what = events[i].events;
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      ConnPtr conn = it->second;
      if ((what & EPOLLERR) != 0 ||
          ((what & EPOLLHUP) != 0 && (what & EPOLLIN) == 0)) {
        CloseConnection(conn);
        continue;
      }
      if ((what & EPOLLIN) != 0) HandleReadable(conn);
      if ((what & EPOLLOUT) != 0 && conn->fd >= 0) FlushOut(conn);
    }
    DrainWakeList();
    ResumePaused();
    IdleSweep();
    UpdateDegraded();

    if (shutting_down_.load() && !shutdown_started.has_value()) {
      // Graceful drain: stop accepting, stop reading, keep executing
      // and flushing what is already in flight.
      shutdown_started = Clock::now();
      if (listen_fd_ >= 0) {
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      for (auto& [cfd, conn] : conns_) {
        bool writable;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          writable = conn->out_pos < conn->out.size();
        }
        UpdateInterest(conn, false, writable);
      }
    }
    if (shutdown_started.has_value() &&
        (Drained() ||
         Clock::now() - *shutdown_started > options_.shutdown_drain)) {
      break;
    }
  }
  // Close whatever is left (drained connections, or busy ones past the
  // drain deadline).
  std::vector<ConnPtr> leftover;
  leftover.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) leftover.push_back(conn);
  for (const ConnPtr& conn : leftover) CloseConnection(conn);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void LsdServer::AcceptNew() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or the listen socket went away
    }
    if (shutting_down_.load()) {
      ::close(fd);
      return;
    }
    LSD_FAILPOINT(server.accept);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_read = Clock::now();
    conn->session = registry_.Create(options_.max_sessions);
    if (conn->session == nullptr) {
      // Bounded admission: greet with busy and hang up once the
      // greeting flushes. Established sessions are never load-shed
      // this way — over-capacity *requests* pause reads instead.
      rejected_.fetch_add(1);
      conn->out =
          FrameResponse(Status::FailedPrecondition("server busy"), "");
      conn->close_after_out = true;
    } else {
      conn->out = FrameResponse(
          Status::OK(),
          "lsd server ready, session " +
              std::to_string(conn->session->id()) + ", epoch " +
              std::to_string(store_->snapshot()->sequence()));
    }

    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = conn->session != nullptr ? static_cast<uint32_t>(EPOLLIN) : 0u;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      if (conn->session != nullptr) registry_.Remove(conn->session->id());
      ::close(fd);
      continue;
    }
    conn->interest = ev.events;
    conns_[fd] = conn;
    FlushOut(conn);  // the greeting usually fits in the send buffer
  }
}

void LsdServer::HandleReadable(const ConnPtr& conn) {
  if (conn->fd < 0 || conn->paused || shutting_down_.load()) return;
  char chunk[16384];
  ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
  if (n == 0) {
    CloseConnection(conn);  // EOF
    return;
  }
  if (n < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return;
    CloseConnection(conn);
    return;
  }
  conn->last_read = Clock::now();
  if (conn->mode == Connection::Mode::kBinary) {
    conn->parser.Feed(std::string_view(chunk, static_cast<size_t>(n)));
  } else {
    conn->in_buf.append(chunk, static_cast<size_t>(n));
  }
  ParseRequests(conn);
}

void LsdServer::ParseRequests(const ConnPtr& conn) {
  if (conn->fd < 0 || shutting_down_.load()) return;
  for (;;) {
    bool draining;
    bool conn_full;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      draining = conn->close_after_out;
      conn_full = conn->inflight >= options_.max_inflight_per_connection;
    }
    if (draining) return;  // quitting: ignore anything else buffered
    const bool queue_full =
        queued_requests_.load(std::memory_order_relaxed) >=
        options_.max_queued_requests;
    if (conn_full || queue_full) {
      // Backpressure: stop reading; leftover bytes stay buffered and
      // are re-parsed when requests drain.
      if (!conn->paused) {
        conn->paused = true;
        paused_fds_.insert(conn->fd);
        paused_count_.store(paused_fds_.size(), std::memory_order_relaxed);
        reads_paused_.fetch_add(1);
        bool writable;
        {
          std::lock_guard<std::mutex> lock(conn->mu);
          writable = conn->out_pos < conn->out.size();
        }
        UpdateInterest(conn, false, writable);
      }
      return;
    }

    // Sniff the protocol from the first byte the connection sends.
    if (conn->mode == Connection::Mode::kUnknown) {
      if (conn->in_buf.empty()) break;
      if (static_cast<uint8_t>(conn->in_buf[0]) == kBinaryMagic0) {
        conn->mode = Connection::Mode::kBinary;
        conn->parser.Feed(conn->in_buf);
        conn->in_buf.clear();
        conn->in_buf.shrink_to_fit();
      } else {
        conn->mode = Connection::Mode::kText;
      }
    }

    PendingRequest request;
    if (conn->mode == Connection::Mode::kText) {
      size_t nl = conn->in_buf.find('\n');
      if (nl == std::string::npos) {
        if (conn->in_buf.size() > options_.max_text_line_bytes) {
          CloseConnection(conn);  // unterminated-line flood
          return;
        }
        break;
      }
      std::string line = conn->in_buf.substr(0, nl);
      conn->in_buf.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;  // blank lines draw no response
      request.binary = false;
      request.command = std::move(line);
    } else {
      BinaryFrame frame;
      switch (conn->parser.Next(&frame)) {
        case BinaryFrameParser::Result::kNeedMore:
          goto done;
        case BinaryFrameParser::Result::kError:
          CloseConnection(conn);  // framing is lost; nothing to salvage
          return;
        case BinaryFrameParser::Result::kFrame:
          break;
      }
      if (frame.type != FrameType::kRequest &&
          frame.type != FrameType::kMutation) {
        CloseConnection(conn);
        return;
      }
      request.binary = true;
      request.mutation = (frame.type == FrameType::kMutation);
      request.id = frame.request_id;
      request.command = std::move(frame.payload);
    }

    // An injected read failure models the kernel dropping the
    // connection under us mid-request.
    LSD_FAILPOINT_HIT(server.read, read_fault);
    if (read_fault.action == failpoint::Action::kError) {
      CloseConnection(conn);
      return;
    }
    EnqueueRequest(conn, std::move(request));
  }
done:
  if (conn->paused) {
    conn->paused = false;
    paused_fds_.erase(conn->fd);
    paused_count_.store(paused_fds_.size(), std::memory_order_relaxed);
  }
  bool writable;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    writable = conn->out_pos < conn->out.size();
  }
  UpdateInterest(conn, true, writable);
}

bool LsdServer::EnqueueRequest(const ConnPtr& conn,
                               PendingRequest request) {
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead || conn->close_after_out) return false;
    conn->pending.push_back(std::move(request));
    ++conn->inflight;
    if (!conn->scheduled) {
      conn->scheduled = true;
      schedule = true;
    }
  }
  queued_requests_.fetch_add(1);
  if (schedule) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      ready_.push_back(conn);
    }
    queue_cv_.notify_one();
  }
  return true;
}

void LsdServer::FlushOut(const ConnPtr& conn) {
  if (conn->fd < 0) return;
  bool close_now = false;
  bool want_write = false;
  bool draining;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    while (conn->out_pos < conn->out.size()) {
      // An outbound buffer flush is the reactor's write(2) site; the
      // blocking front end's failpoint semantics (drop the response,
      // hang up) live in the worker instead — see ExecuteOne.
      ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_pos,
                          conn->out.size() - conn->out_pos);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        want_write = true;
        break;
      }
      close_now = true;  // peer reset
      break;
    }
    if (conn->out_pos >= conn->out.size()) {
      conn->out.clear();
      conn->out_pos = 0;
      if (conn->close_after_out && conn->inflight == 0 &&
          conn->pending.empty()) {
        close_now = true;
      }
    }
    draining = conn->close_after_out;
  }
  if (close_now) {
    CloseConnection(conn);
    return;
  }
  const bool readable = conn->session != nullptr && !conn->paused &&
                        !draining && !shutting_down_.load();
  UpdateInterest(conn, readable, want_write);
}

void LsdServer::UpdateInterest(const ConnPtr& conn, bool readable,
                               bool writable) {
  if (conn->fd < 0) return;
  uint32_t mask =
      (readable ? EPOLLIN : 0u) | (writable ? EPOLLOUT : 0u);
  if (mask == conn->interest) return;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = mask;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->interest = mask;
  }
}

void LsdServer::CloseConnection(const ConnPtr& conn) {
  if (conn->fd < 0) return;
  const int fd = conn->fd;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->dead = true;
    // Nobody is waiting for the answers anymore: cancel the request a
    // worker is executing right now (it unwinds at its next budget
    // check) and drop everything still queued, counting both as
    // disconnect cancellations.
    if (conn->active_budget != nullptr) {
      conn->active_budget->Cancel(CancelReason::kDisconnect);
    }
    if (!conn->pending.empty()) {
      governance_.CountCancel(CancelReason::kDisconnect,
                              conn->pending.size());
      queued_requests_.fetch_sub(conn->pending.size());
      conn->inflight -= conn->pending.size();
      conn->pending.clear();
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conn->fd = -1;
  conns_.erase(fd);
  paused_fds_.erase(fd);
  paused_count_.store(paused_fds_.size(), std::memory_order_relaxed);
  if (conn->session != nullptr) registry_.Remove(conn->session->id());
}

void LsdServer::DrainWakeList() {
  std::vector<ConnPtr> list;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    list.swap(wake_list_);
  }
  for (const ConnPtr& conn : list) {
    if (conn->fd < 0) continue;
    FlushOut(conn);
  }
}

void LsdServer::ResumePaused() {
  if (paused_fds_.empty() || shutting_down_.load()) return;
  if (queued_requests_.load(std::memory_order_relaxed) >=
      options_.max_queued_requests) {
    return;
  }
  std::vector<int> fds(paused_fds_.begin(), paused_fds_.end());
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) {
      paused_fds_.erase(fd);
      paused_count_.store(paused_fds_.size(), std::memory_order_relaxed);
      continue;
    }
    ConnPtr conn = it->second;
    bool conn_full;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn_full = conn->inflight >= options_.max_inflight_per_connection;
    }
    if (conn_full) continue;
    conn->paused = false;
    paused_fds_.erase(fd);
    paused_count_.store(paused_fds_.size(), std::memory_order_relaxed);
    // Re-parse what is already buffered before re-arming the socket;
    // ParseRequests re-pauses if the caps fill again.
    ParseRequests(conn);
  }
}

void LsdServer::IdleSweep() {
  if (options_.io_timeout.count() <= 0 || shutting_down_.load()) return;
  const auto budget = options_.io_timeout * (options_.io_retries + 1);
  const auto now = Clock::now();
  std::vector<ConnPtr> idle;
  for (auto& [fd, conn] : conns_) {
    if (now - conn->last_read <= budget) continue;
    bool busy;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      busy = conn->inflight > 0 || !conn->pending.empty() ||
             conn->out_pos < conn->out.size() || conn->close_after_out;
    }
    if (!busy) idle.push_back(conn);
  }
  for (const ConnPtr& conn : idle) CloseConnection(conn);
}

// Overload monitor (reactor thread): flips the DEGRADED flag on the
// pending-queue depth with hysteresis — enter at >= 1/2
// max_queued_requests, leave at <= 1/4 — so the flag cannot flap at a
// single boundary. While DEGRADED, sessions shed requests whose planner
// cost estimate exceeds the shed threshold (see commands.cc); cheap
// requests keep flowing, which is what drains the queue.
void LsdServer::UpdateDegraded() {
  const size_t depth = queued_requests_.load(std::memory_order_relaxed);
  governance_.queue_depth.store(depth, std::memory_order_relaxed);
  const size_t enter = options_.max_queued_requests / 2;
  const size_t leave = options_.max_queued_requests / 4;
  if (!governance_.degraded.load(std::memory_order_relaxed)) {
    if (enter > 0 && depth >= enter) {
      governance_.degraded.store(true, std::memory_order_relaxed);
      governance_.degrade_entries.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (depth <= leave) {
    governance_.degraded.store(false, std::memory_order_relaxed);
  }
}

bool LsdServer::Drained() {
  if (queued_requests_.load() != 0) return false;
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->inflight > 0 || !conn->pending.empty() ||
        conn->out_pos < conn->out.size()) {
      return false;
    }
  }
  return true;
}

// ---- Workers -------------------------------------------------------------

void LsdServer::WorkerLoop() {
  for (;;) {
    ConnPtr conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stop_workers_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stop_workers_ and nothing left
      conn = std::move(ready_.front());
      ready_.pop_front();
    }
    // This worker owns the connection until its pending queue is
    // empty: per-session execution is serialized by construction.
    for (;;) {
      PendingRequest request;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (conn->dead || conn->pending.empty()) {
          conn->scheduled = false;
          break;
        }
        request = std::move(conn->pending.front());
        conn->pending.pop_front();
      }
      queued_requests_.fetch_sub(1);
      ExecuteOne(conn, std::move(request));
    }
    FlushFromWorker(conn);
  }
}

// Batch-end flush from the worker that just drained a connection's
// pending queue: one send() for the whole window of responses, skipping
// the reactor round trip entirely when the socket accepts the bytes.
// Safe because all out-buffer access and every send/write on the fd
// happens under conn->mu, and CloseConnection marks the connection dead
// under that lock before closing the fd. Anything the fast path cannot
// finish is handed back to the reactor: EAGAIN (EPOLLOUT arming), a
// write error or pending hangup (closes are reactor-owned), or any
// paused connection fleet-wide — finished requests may have freed
// queue/inflight budget, and only a reactor pass can re-arm those
// reads.
void LsdServer::FlushFromWorker(const ConnPtr& conn) {
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) return;
    while (conn->out_pos < conn->out.size()) {
      ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_pos,
                         conn->out.size() - conn->out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_pos += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      notify = true;
      break;
    }
    if (!notify) {
      conn->out.clear();
      conn->out_pos = 0;
      if (conn->close_after_out) notify = true;
    }
  }
  if (notify || paused_count_.load(std::memory_order_relaxed) > 0) {
    NotifyReactor(conn);
  }
}

void LsdServer::ExecuteOne(const ConnPtr& conn, PendingRequest request) {
  if (!request.mutation &&
      (request.command == "quit" || request.command == "exit")) {
    // Trailing newline so binary clients (which get the payload raw,
    // not line-framed) print it like every Execute result.
    QueueResponse(conn, request, Status::OK(), "bye\n", /*hangup=*/true);
    return;
  }
  std::shared_ptr<ServerSession> session = conn->session;
  if (session == nullptr) {
    QueueResponse(conn, request,
                  Status::FailedPrecondition("server busy"), "",
                  /*hangup=*/true);
    return;
  }
  // Hard per-request deadline + step cap, enforced cooperatively: the
  // budget is threaded through every eval loop and the worker unwinds
  // with a typed error at the next check. Published under conn->mu so
  // CloseConnection can cancel it (kDisconnect) from the reactor.
  std::shared_ptr<QueryBudget> budget;
  if (options_.request_timeout.count() > 0 ||
      options_.max_steps_per_request > 0) {
    const auto deadline =
        options_.request_timeout.count() > 0
            ? QueryBudget::Clock::now() + options_.request_timeout
            : QueryBudget::Clock::time_point::max();
    budget = std::make_shared<QueryBudget>(deadline,
                                           options_.max_steps_per_request);
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->dead) {
      // The peer is already gone; let the request die at its first
      // budget check instead of running to completion for nobody.
      budget->Cancel(CancelReason::kDisconnect);
    } else {
      conn->active_budget = budget;
    }
  }
  // The session charges the budget and counts a budget-typed failure
  // into governance_. A failure never hangs up: the worker unwound
  // cleanly, session state is intact, and cheap pipelined requests
  // behind the poisoned one still deserve their answers.
  StatusOr<std::string> result = session->ExecuteRequest(
      request.command, request.mutation, budget.get());
  if (budget != nullptr) {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->active_budget.reset();
  }
  requests_served_.fetch_add(1);
  // An injected write failure drops the response on the floor and
  // hangs up, exactly like a send-buffer error would: the client sees
  // a dead connection and must retry.
  LSD_FAILPOINT_HIT(server.write, write_fault);
  if (write_fault.action == failpoint::Action::kError) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      --conn->inflight;
      conn->close_after_out = true;
      if (!conn->pending.empty()) {
        queued_requests_.fetch_sub(conn->pending.size());
        conn->inflight -= conn->pending.size();
        conn->pending.clear();
      }
    }
    NotifyReactor(conn);
    return;
  }
  if (result.ok()) {
    QueueResponse(conn, request, Status::OK(), result.value(), false);
  } else {
    QueueResponse(conn, request, result.status(), "", false);
  }
}

void LsdServer::QueueResponse(const ConnPtr& conn,
                              const PendingRequest& request,
                              const Status& status,
                              std::string_view payload, bool hangup) {
  std::string frame;
  if (request.binary) {
    frame = EncodeFrame(status.ok() ? FrameType::kOk : FrameType::kErr,
                        request.id,
                        status.ok() ? payload
                                    : std::string_view(ErrorLine(status)));
  } else {
    frame = FrameResponse(status, payload);
  }
  // Queuing a response does not wake the reactor: the worker that owns
  // this connection flushes the whole batch itself when the pending
  // queue drains (FlushFromWorker), which batches a pipelined window's
  // responses into a single send(). Only the dead-connection
  // bookkeeping path notifies, so shutdown drain accounting never
  // waits on a flush that will not happen.
  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    --conn->inflight;
    if (!conn->dead) {
      conn->out += frame;
      if (hangup) {
        conn->close_after_out = true;
        if (!conn->pending.empty()) {
          queued_requests_.fetch_sub(conn->pending.size());
          conn->inflight -= conn->pending.size();
          conn->pending.clear();
        }
      }
    } else {
      notify = true;
    }
  }
  if (notify) NotifyReactor(conn);
}

void LsdServer::NotifyReactor(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_list_.push_back(conn);
  }
  uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof(one));
}

}  // namespace lsd
