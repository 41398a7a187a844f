// bench_server — multiplexed load generator for the browsing server.
//
// Starts an in-process LsdServer over loopback TCP, seeds the campus
// domain, then sweeps concurrent-session counts in both wire protocols:
// the line-oriented text protocol (one request, one response) and the
// length-prefixed binary protocol with request pipelining (up to
// --window frames in flight per connection). Every session runs the
// same read-mostly browsing mix (queries, navigation, probing — the
// paper's interactive loop) over its own connection, and we report
// aggregate throughput and client-observed latency percentiles.
//
// The client side is itself event-driven: a handful of driver threads
// each multiplex their slice of connections with poll(), so a 10k
// session sweep needs ~8 client threads, not 10k. Session counts are
// clamped to what RLIMIT_NOFILE allows (2 fds per session: client end
// plus server end in this same process); the soft limit is raised to
// the hard limit at startup.
//
// Not a google-benchmark suite: the unit of interest is end-to-end
// requests per second against the shared store as sessions scale, which
// needs real sockets and a latency histogram.
//
// Write mix: --write-pct P replaces P% of each session's mix with
// unique `assert` commands (every fact is fresh, so no commit is a
// no-op). With --sync fsync the store runs durable against a scratch
// directory and every commit group costs one real WAL fsync — the
// sweep then measures how group commit amortizes that fsync across
// concurrent writer sessions (acked-writes/sec, group-size stats).
// Writer concurrency is bounded by the server worker pool, so write
// sweeps raise worker_threads to the largest session count instead of
// defaulting to hardware_concurrency.
//
// Hostile mix: --hostile-pct P replaces P% of each session's mix with
// a poison query — a three-atom chain join over a layered bipartite
// graph seeded for the purpose, engineered so the planner has no cheap
// atom to start from and the merge join never engages (every order
// enumerates ~layer³ candidates) yet the result set is empty (no
// three-edge path exists in a three-layer DAG), so the burn is pure
// CPU with O(depth) memory. The server's request deadline
// (--timeout-ms, default 150 when hostile) kills each poison with a
// typed ERR; the client counts those as `cancelled`, not errors, and
// reports the surviving cheap requests' tail (p99.9) so the sweep
// shows what hostile load does to well-behaved sessions.
//
//   bench_server [--sessions 1,4,16,64,256,1024] [--requests N]
//                [--protocols text,binary] [--window N] [--json FILE]
//                [--write-pct P] [--sync fsync|none]
//                [--hostile-pct P] [--timeout-ms N]
//                [--fail-writes P] [--check]

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "server/server.h"
#include "server/shared_store.h"
#include "util/failpoint.h"
#include "workload/university_domain.h"

namespace {

using Clock = std::chrono::steady_clock;

// The request mix one browsing session cycles through: mostly cheap
// point queries and navigation, with a probing wave (the expensive,
// internally parallel operation) every 8th request.
const char* kMix[] = {
    "query (TOM, ENROLLED-IN, ?C)",
    "nav TOM",
    "query (?S, ENROLLED-IN, MATH101)",
    "nav CS100",
    "query (FRESHMAN, LOVE, ?Z)",
    "dist TOM SUE",
    "query (BOB, ATTENDED, ?U)",
    "probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)",
};
constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

// The poison request (--hostile-pct): a chain join whose every atom
// matches the whole FEEDS edge set (2·kPoisonLayer² facts, equal
// estimates, so the planner cannot pick a selective start) and whose
// middle expansion fans out kPoisonLayer ways before the third atom
// kills each candidate — ~kPoisonLayer³ enumerations, zero rows. The
// deadline is expected to fire long before it finishes.
const char* kPoisonQuery =
    "query (?A, FEEDS, ?B) and (?B, FEEDS, ?C) and (?C, FEEDS, ?D)";
constexpr int kPoisonLayer = 256;

// Does this error text carry one of the governance codes? Those are
// expected kills under a hostile mix (deadline, shed, step budget),
// not benchmark failures. Works on both wire shapes: the text status
// line ("ERR DeadlineExceeded: ...") and the binary kErr payload
// ("DeadlineExceeded: ...").
bool IsCancelText(std::string_view text) {
  return text.find("DeadlineExceeded") != std::string_view::npos ||
         text.find("ResourceExhausted") != std::string_view::npos ||
         text.find("Cancelled") != std::string_view::npos;
}

enum class Protocol { kText, kBinary };

const char* ProtocolName(Protocol p) {
  return p == Protocol::kText ? "text" : "binary";
}

int Connect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SleepMs(long ms) {
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1000000L;
  ::nanosleep(&ts, nullptr);
}

struct SweepSpec {
  Protocol protocol = Protocol::kText;
  int window = 1;  // in-flight requests per connection (binary only)
  int sessions = 1;
  int requests_per_session = 200;
  int write_pct = 0;    // % of the mix replaced by unique asserts
  int hostile_pct = 0;  // % of the mix replaced by poison queries
  int tag = 0;          // uniquifies write facts across sweeps
};

struct SweepResult {
  Protocol protocol = Protocol::kText;
  int window = 1;
  int sessions = 0;
  size_t requests = 0;
  size_t errors = 0;   // requests that failed even after a retry
  size_t retries = 0;  // reconnect-and-resend recoveries
  double seconds = 0;
  double throughput_rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  // Hostile-mix extras (zero when --hostile-pct 0). Percentiles above
  // exclude hostile requests either way: `cancelled` counts requests
  // the server killed with a governance-typed error (expected under a
  // hostile mix), and p999_us is the cheap requests' p99.9 — the tail
  // the poison load inflates.
  size_t hostile = 0;    // poison requests resolved (killed or finished)
  size_t cancelled = 0;  // governance-typed ERR replies
  double p999_us = 0;
  // Write-mix extras (zero when --write-pct 0).
  size_t writes = 0;  // asserts acked OK
  double writes_per_sec = 0;
  double wp50_us = 0;          // p50 latency of acked writes
  uint64_t groups = 0;         // commit groups this sweep
  double mean_group = 0;       // acked+rejected slots per group
  uint64_t max_group = 0;      // largest group so far (cumulative)
  uint64_t fsyncs = 0;         // WAL fsyncs this sweep
};

double PercentileUs(std::vector<int64_t>& ns, double p) {
  if (ns.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + idx, ns.end());
  return static_cast<double>(ns[idx]) / 1000.0;
}

// A request handed to the socket but not yet answered. `ordinal` is
// both the position in the session's mix and (in binary mode) the
// request id the response must echo. A request is resent at most once
// across reconnects, mirroring the text clients' retry discipline.
struct PendingRequest {
  uint64_t ordinal = 0;
  Clock::time_point sent_at;
  bool resent = false;
  bool write = false;
  bool hostile = false;
};

// One benchmark session: a connection plus its protocol state machine.
// Driven entirely from its owning driver thread, so no locking.
struct Conn {
  int index = 0;  // session number, offsets the mix phase
  int total = 0;
  int fd = -1;
  int sent = 0;  // requests appended to the outbound buffer so far
  int done = 0;  // requests resolved (response seen, or given up)

  std::string out;  // unflushed outbound bytes
  size_t out_pos = 0;
  std::deque<PendingRequest> pending;

  // Binary receive state.
  lsd::BinaryFrameParser parser;
  // Text receive state: raw lines straight off the socket. Dot-stuffing
  // guarantees no payload line is ever exactly ".", so the terminator
  // scan needs no unstuffing.
  std::string in;
  size_t scan_pos = 0;
  bool at_status_line = true;
  bool cur_err = false;
  bool cur_cancel = false;

  size_t errors = 0;
  size_t retries = 0;
  size_t cancelled = 0;
  size_t hostile_done = 0;
  std::vector<int64_t> latencies;
  std::vector<int64_t> write_latencies;
  bool gave_up = false;

  bool finished() const { return gave_up || done >= total; }
};

// Drives one thread's slice of the sweep's connections through poll().
class Driver {
 public:
  Driver(uint16_t port, const SweepSpec& spec, Conn* conns, size_t count)
      : port_(port), spec_(spec), conns_(conns), count_(count) {}

  void Run() {
    for (size_t i = 0; i < count_; ++i) {
      Conn& c = conns_[i];
      if (!Establish(c)) {
        GiveUp(c);
        continue;
      }
      TopUp(c);
      if (!Flush(c)) Reconnect(c);
    }
    std::vector<struct pollfd> fds;
    std::vector<Conn*> polled;
    for (;;) {
      fds.clear();
      polled.clear();
      for (size_t i = 0; i < count_; ++i) {
        Conn& c = conns_[i];
        if (c.finished()) {
          if (c.fd >= 0) {
            ::close(c.fd);
            c.fd = -1;
          }
          continue;
        }
        struct pollfd p;
        p.fd = c.fd;
        p.events = POLLIN;
        if (c.out_pos < c.out.size()) p.events |= POLLOUT;
        p.revents = 0;
        fds.push_back(p);
        polled.push_back(&c);
      }
      if (fds.empty()) return;
      int ready = ::poll(fds.data(), fds.size(), 1000);
      if (ready < 0) {
        if (errno == EINTR) continue;
        for (Conn* c : polled) GiveUp(*c);
        return;
      }
      for (size_t i = 0; i < fds.size(); ++i) {
        Conn& c = *polled[i];
        short ev = fds[i].revents;
        if (ev == 0) continue;
        bool alive = true;
        if ((ev & (POLLIN | POLLHUP | POLLERR)) != 0) {
          alive = ReadAndConsume(c);
        }
        if (alive) {
          TopUp(c);
          alive = Flush(c);
        }
        if (!alive && !c.finished()) Reconnect(c);
      }
    }
  }

 private:
  int EffectiveWindow() const {
    return spec_.protocol == Protocol::kBinary ? spec_.window : 1;
  }

  // Connect + blocking text greeting, then switch nonblocking. The
  // server sends nothing after the greeting until we ask, so a plain
  // LineReader cannot over-read into request/response traffic.
  bool Establish(Conn& c) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      if (attempt > 0) SleepMs(10L << attempt);
      int fd = Connect(port_);
      if (fd < 0) continue;
      lsd::LineReader reader(fd);
      auto greeting = lsd::ReadResponse(&reader);
      if (!greeting.ok() || !greeting->ok) {
        ::close(fd);
        continue;
      }
      int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      c.fd = fd;
      c.out.clear();
      c.out_pos = 0;
      c.parser = lsd::BinaryFrameParser();
      c.in.clear();
      c.scan_pos = 0;
      c.at_status_line = true;
      c.cur_err = false;
      c.cur_cancel = false;
      return true;
    }
    return false;
  }

  void GiveUp(Conn& c) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
    c.errors += static_cast<size_t>(c.total - c.done);
    c.done = c.total;
    c.pending.clear();
    c.gave_up = true;
  }

  // Bresenham interleave: spreads write_pct writes evenly through each
  // session's ordinal sequence, deterministically, so a resend after a
  // reconnect regenerates the identical request.
  bool IsWrite(uint64_t ordinal) const {
    const uint64_t p = static_cast<uint64_t>(spec_.write_pct);
    return (ordinal + 1) * p / 100 > ordinal * p / 100;
  }

  // Same deterministic interleave for the poison queries, phase-shifted
  // by the session index so concurrent sessions don't fire their poison
  // in lockstep. Hostile wins over write on an ordinal both claim.
  bool IsHostile(uint64_t ordinal, int session_index) const {
    const uint64_t p = static_cast<uint64_t>(spec_.hostile_pct);
    const uint64_t o = ordinal + static_cast<uint64_t>(session_index);
    return (o + 1) * p / 100 > o * p / 100;
  }

  void AppendRequest(Conn& c, PendingRequest req) {
    std::string line;
    if (spec_.hostile_pct > 0 && IsHostile(req.ordinal, c.index)) {
      req.hostile = true;
      line = kPoisonQuery;
    } else if (spec_.write_pct > 0 && IsWrite(req.ordinal)) {
      // Unique per (sweep, session, ordinal): never a no-op commit, so
      // every acked write really paid for clone + WAL append (+fsync).
      req.write = true;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "assert (W%d-%d-%llu, TOUCHES, HUB)",
                    spec_.tag, c.index,
                    static_cast<unsigned long long>(req.ordinal));
      line = buf;
    } else {
      line = kMix[(req.ordinal + static_cast<uint64_t>(c.index)) % kMixSize];
    }
    if (spec_.protocol == Protocol::kBinary) {
      c.out += lsd::EncodeFrame(lsd::FrameType::kRequest, req.ordinal, line);
    } else {
      c.out += line;
      c.out += '\n';
    }
    c.pending.push_back(req);
  }

  void TopUp(Conn& c) {
    while (!c.finished() && c.sent < c.total &&
           c.pending.size() < static_cast<size_t>(EffectiveWindow())) {
      PendingRequest req;
      req.ordinal = static_cast<uint64_t>(c.sent++);
      req.sent_at = Clock::now();
      AppendRequest(c, req);
    }
  }

  bool Flush(Conn& c) {
    while (c.out_pos < c.out.size()) {
      ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                         c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    c.out.clear();
    c.out_pos = 0;
    return true;
  }

  void Complete(Conn& c, bool is_error, bool is_cancel) {
    const PendingRequest req = c.pending.front();
    c.pending.pop_front();
    ++c.done;
    if (req.hostile) ++c.hostile_done;
    if (is_error && is_cancel) {
      // A governance kill (deadline / shed / budget) is the expected
      // fate of a poison query, not a benchmark failure.
      ++c.cancelled;
    } else if (is_error) {
      ++c.errors;
    } else if (!req.hostile) {
      // A hostile request that beats the deadline is dropped from the
      // percentiles either way: the cheap requests' latency is the
      // figure of merit under a hostile mix.
      int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - req.sent_at)
                       .count();
      c.latencies.push_back(ns);
      if (req.write) c.write_latencies.push_back(ns);
    }
  }

  bool ConsumeBinary(Conn& c, const char* data, size_t n) {
    c.parser.Feed(std::string_view(data, n));
    for (;;) {
      lsd::BinaryFrame frame;
      switch (c.parser.Next(&frame)) {
        case lsd::BinaryFrameParser::Result::kNeedMore:
          return true;
        case lsd::BinaryFrameParser::Result::kError:
          return false;
        case lsd::BinaryFrameParser::Result::kFrame:
          break;
      }
      // FIFO execution: responses must come back in request order.
      if (c.pending.empty() ||
          frame.request_id != c.pending.front().ordinal) {
        return false;
      }
      Complete(c, frame.type != lsd::FrameType::kOk,
               frame.type == lsd::FrameType::kErr && IsCancelText(frame.payload));
    }
  }

  bool ConsumeText(Conn& c, const char* data, size_t n) {
    c.in.append(data, n);
    size_t nl;
    while ((nl = c.in.find('\n', c.scan_pos)) != std::string::npos) {
      size_t len = nl - c.scan_pos;
      if (len > 0 && c.in[c.scan_pos + len - 1] == '\r') --len;
      std::string_view line(c.in.data() + c.scan_pos, len);
      c.scan_pos = nl + 1;
      if (c.at_status_line) {
        c.cur_err = line.rfind("ERR", 0) == 0;
        c.cur_cancel = c.cur_err && IsCancelText(line);
        c.at_status_line = false;
      } else if (line == ".") {
        if (c.pending.empty()) return false;
        Complete(c, c.cur_err, c.cur_cancel);
        c.at_status_line = true;
      }
    }
    if (c.scan_pos >= c.in.size()) {
      c.in.clear();
      c.scan_pos = 0;
    }
    return true;
  }

  bool ReadAndConsume(Conn& c) {
    char buf[65536];
    for (;;) {
      ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        bool consumed = spec_.protocol == Protocol::kBinary
                            ? ConsumeBinary(c, buf, static_cast<size_t>(n))
                            : ConsumeText(c, buf, static_cast<size_t>(n));
        if (!consumed) return false;
        continue;
      }
      if (n == 0) return false;  // EOF
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
  }

  // A dropped connection (e.g. injected write fault) takes the whole
  // in-flight window with it. Reconnect and resend each outstanding
  // request once; a request that dies twice is charged as an error,
  // matching the synchronous clients' retry-once discipline.
  void Reconnect(Conn& c) {
    ::close(c.fd);
    c.fd = -1;
    std::deque<PendingRequest> resend;
    for (PendingRequest& req : c.pending) {
      if (req.resent) {
        ++c.errors;
        ++c.done;
      } else {
        resend.push_back(req);
      }
    }
    c.pending.clear();
    if (c.finished()) return;
    if (!Establish(c)) {
      GiveUp(c);
      return;
    }
    c.retries += resend.size();
    for (PendingRequest& req : resend) {
      req.resent = true;
      AppendRequest(c, req);
    }
    TopUp(c);
    if (!Flush(c)) Reconnect(c);
  }

  const uint16_t port_;
  const SweepSpec spec_;
  Conn* const conns_;
  const size_t count_;
};

SweepResult RunSweep(uint16_t port, const SweepSpec& spec,
                     lsd::SharedStore* store) {
  const lsd::GroupCommitStats before = store->group_stats();
  std::vector<Conn> conns(static_cast<size_t>(spec.sessions));
  for (int s = 0; s < spec.sessions; ++s) {
    conns[static_cast<size_t>(s)].index = s;
    conns[static_cast<size_t>(s)].total = spec.requests_per_session;
    conns[static_cast<size_t>(s)].latencies.reserve(
        static_cast<size_t>(spec.requests_per_session));
  }

  unsigned hw = std::thread::hardware_concurrency();
  size_t drivers = std::min<size_t>(std::max(1u, hw), 8);
  drivers = std::min(drivers, conns.size());

  auto start = Clock::now();
  std::vector<std::thread> threads;
  size_t begin = 0;
  for (size_t d = 0; d < drivers; ++d) {
    size_t share = conns.size() / drivers + (d < conns.size() % drivers);
    threads.emplace_back([port, &spec, &conns, begin, share] {
      Driver(port, spec, conns.data() + begin, share).Run();
    });
    begin += share;
  }
  for (auto& t : threads) t.join();
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();

  SweepResult result;
  result.protocol = spec.protocol;
  result.window = spec.protocol == Protocol::kBinary ? spec.window : 1;
  result.sessions = spec.sessions;
  result.seconds = seconds;
  std::vector<int64_t> all;
  std::vector<int64_t> writes;
  for (Conn& c : conns) {
    all.insert(all.end(), c.latencies.begin(), c.latencies.end());
    writes.insert(writes.end(), c.write_latencies.begin(),
                  c.write_latencies.end());
    result.errors += c.errors;
    result.retries += c.retries;
    result.cancelled += c.cancelled;
    result.hostile += c.hostile_done;
  }
  result.requests = all.size();
  result.throughput_rps =
      seconds > 0 ? static_cast<double>(all.size()) / seconds : 0;
  result.p50_us = PercentileUs(all, 0.50);
  result.p99_us = PercentileUs(all, 0.99);
  result.p999_us = PercentileUs(all, 0.999);
  result.writes = writes.size();
  result.writes_per_sec =
      seconds > 0 ? static_cast<double>(writes.size()) / seconds : 0;
  result.wp50_us = PercentileUs(writes, 0.50);

  const lsd::GroupCommitStats after = store->group_stats();
  result.groups = after.groups - before.groups;
  const uint64_t slots = (after.slots_acked + after.slots_rejected) -
                         (before.slots_acked + before.slots_rejected);
  result.mean_group =
      result.groups > 0
          ? static_cast<double>(slots) / static_cast<double>(result.groups)
          : 0.0;
  result.max_group = after.max_group;  // cumulative high-water mark
  result.fsyncs = after.fsyncs - before.fsyncs;
  return result;
}

// Raise the fd soft limit to the hard limit and report how many
// sessions fit: each needs a client fd and a server fd in this process,
// plus slack for the store, epoll, listener, and stdio.
size_t MaxSessionsForFdLimit() {
  struct rlimit rl;
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 256;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &rl);
    (void)::getrlimit(RLIMIT_NOFILE, &rl);
  }
  if (rl.rlim_cur <= 64) return 1;
  return static_cast<size_t>((rl.rlim_cur - 64) / 2);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> session_counts = {1, 4, 16, 64, 256, 1024};
  std::vector<Protocol> protocols = {Protocol::kText, Protocol::kBinary};
  int requests_per_session = 200;
  int window = 16;
  std::string json_path;
  double fail_writes = 0.0;
  int write_pct = 0;
  int hostile_pct = 0;
  int timeout_ms = -1;  // -1: server default, or 150 when hostile
  bool sync_fsync = false;
  int preload = -1;  // -1: pick a default once write_pct is known
  bool check = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--fail-writes" && i + 1 < argc) {
      fail_writes = std::atof(argv[++i]);
    } else if (arg == "--write-pct" && i + 1 < argc) {
      write_pct = std::clamp(std::atoi(argv[++i]), 0, 100);
    } else if (arg == "--hostile-pct" && i + 1 < argc) {
      hostile_pct = std::clamp(std::atoi(argv[++i]), 0, 100);
    } else if (arg == "--timeout-ms" && i + 1 < argc) {
      timeout_ms = std::max(0, std::atoi(argv[++i]));
    } else if (arg == "--preload" && i + 1 < argc) {
      preload = std::max(0, std::atoi(argv[++i]));
    } else if (arg == "--sync" && i + 1 < argc) {
      std::string mode = argv[++i];
      if (mode == "fsync") {
        sync_fsync = true;
      } else if (mode == "none") {
        sync_fsync = false;
      } else {
        std::fprintf(stderr, "unknown sync mode: %s\n", mode.c_str());
        return 2;
      }
    } else if (arg == "--sessions" && i + 1 < argc) {
      session_counts.clear();
      std::string list = argv[++i];
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        session_counts.push_back(
            std::atoi(list.substr(pos, comma - pos).c_str()));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--protocols" && i + 1 < argc) {
      protocols.clear();
      std::string list = argv[++i];
      size_t pos = 0;
      while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        std::string name = list.substr(pos, comma - pos);
        if (name == "text") {
          protocols.push_back(Protocol::kText);
        } else if (name == "binary") {
          protocols.push_back(Protocol::kBinary);
        } else {
          std::fprintf(stderr, "unknown protocol: %s\n", name.c_str());
          return 2;
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--requests" && i + 1 < argc) {
      requests_per_session = std::atoi(argv[++i]);
    } else if (arg == "--window" && i + 1 < argc) {
      window = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sessions 1,4,16,64,256,1024] "
                   "[--requests N] [--protocols text,binary] [--window N] "
                   "[--json FILE] [--write-pct P] [--sync fsync|none] "
                   "[--hostile-pct P] [--timeout-ms N] "
                   "[--preload N] [--fail-writes P] [--check]\n",
                   argv[0]);
      return 2;
    }
  }
  std::signal(SIGPIPE, SIG_IGN);

  const size_t fd_budget = MaxSessionsForFdLimit();
  std::vector<int> skipped;
  session_counts.erase(
      std::remove_if(session_counts.begin(), session_counts.end(),
                     [&](int s) {
                       if (static_cast<size_t>(s) > fd_budget) {
                         skipped.push_back(s);
                         return true;
                       }
                       return false;
                     }),
      session_counts.end());
  if (session_counts.empty()) {
    std::fprintf(stderr, "fd limit (%zu sessions) rules out every count\n",
                 fd_budget);
    return 1;
  }

  lsd::SharedStore store;
  std::string scratch_dir;
  if (write_pct > 0 && sync_fsync) {
    // Durable write mix: every commit group pays a real fsync against a
    // scratch database, so the sweep measures group-commit amortization
    // rather than in-memory publish cost.
    char tmpl[] = "/tmp/bench_wal.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::perror("mkdtemp");
      return 1;
    }
    scratch_dir = tmpl;
    lsd::SharedStoreDurability durability;
    durability.sync = lsd::WalSync::kFsync;
    lsd::Status opened = store.OpenDurable(scratch_dir + "/bench", durability);
    if (!opened.ok()) {
      std::fprintf(stderr, "open durable failed: %s\n",
                   opened.ToString().c_str());
      return 1;
    }
  }
  auto seeded = store.Commit([](lsd::LooseDb& db) {
    lsd::workload::BuildCampusDomain(&db);
    return lsd::Status::OK();
  });
  if (!seeded.ok()) {
    std::fprintf(stderr, "seed failed: %s\n",
                 seeded.status().ToString().c_str());
    return 1;
  }

  // Hostile mix: seed the poison graph — a three-layer DAG with
  // complete bipartite FEEDS edges between consecutive layers. Every
  // atom of kPoisonQuery estimates the full edge set, the chain fans
  // out kPoisonLayer ways in the middle, and no three-edge path exists,
  // so the query burns ~kPoisonLayer³ enumerations and returns nothing.
  // Disconnected from the campus domain: the cheap mix never touches it.
  if (hostile_pct > 0) {
    auto poisoned = store.Commit([](lsd::LooseDb& db) {
      const char* layers[] = {"HX", "HY", "HZ"};
      for (int l = 0; l < 2; ++l) {
        for (int i = 0; i < kPoisonLayer; ++i) {
          for (int j = 0; j < kPoisonLayer; ++j) {
            char a[32], b[32];
            std::snprintf(a, sizeof(a), "%s%d", layers[l], i);
            std::snprintf(b, sizeof(b), "%s%d", layers[l + 1], j);
            (void)db.Assert(a, "FEEDS", b);
          }
        }
      }
      return lsd::Status::OK();
    });
    if (!poisoned.ok()) {
      std::fprintf(stderr, "poison seed failed: %s\n",
                   poisoned.status().ToString().c_str());
      return 1;
    }
  }

  // Pre-grow the store before write sweeps, so every row commits against
  // a store of a known size: `--preload` sweeps measure how the commit
  // path scales with it (a commit shares the tip's storage, so it should
  // not). Each commit lands its chunk as one bulk run.
  if (preload < 0) preload = write_pct > 0 ? 8000 : 0;
  for (int base = 0; base < preload; base += 1000) {
    const int limit = std::min(base + 1000, preload);
    auto grown = store.Commit([base, limit](lsd::LooseDb& db) {
      std::vector<lsd::Fact> chunk;
      for (int i = base; i < limit; ++i) {
        char name[32];
        std::snprintf(name, sizeof(name), "P%d", i);
        chunk.push_back(db.entities().InternFact(name, "TOUCHES", "HUB"));
      }
      db.AssertAll(chunk);
      return lsd::Status::OK();
    });
    if (!grown.ok()) {
      std::fprintf(stderr, "preload failed: %s\n",
                   grown.status().ToString().c_str());
      return 1;
    }
  }

  const int max_sessions_requested =
      *std::max_element(session_counts.begin(), session_counts.end());
  lsd::ServerOptions options;
  options.port = 0;
  options.max_sessions = static_cast<size_t>(max_sessions_requested) + 4;
  // A hostile sweep needs a deadline far below the poison's natural
  // runtime or every poison request occupies a worker for seconds.
  if (timeout_ms < 0 && hostile_pct > 0) timeout_ms = 150;
  if (timeout_ms >= 0) {
    options.request_timeout = std::chrono::milliseconds(timeout_ms);
  }
  if (write_pct > 0) {
    // A commit group can only be as large as the number of workers
    // concurrently blocked in Commit; the default pool (one thread per
    // core) would cap group size at the core count no matter how many
    // writer sessions the sweep opens.
    options.worker_threads = static_cast<size_t>(
        std::min(max_sessions_requested, 128));
  }
  if (hostile_pct > 0) {
    // Poison queries occupy a worker until the deadline fires. On a
    // small default pool (one per core) a handful of them serializes
    // every cheap request behind a 150 ms burn; real deployments run
    // more workers than cores precisely because requests block. Give
    // the cheap mix a fighting chance so the tail columns measure
    // governance, not a starved pool.
    options.worker_threads =
        std::max(options.worker_threads,
                 static_cast<size_t>(std::min(max_sessions_requested, 32)));
  }
  lsd::LsdServer server(&store, options);
  lsd::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }

  std::printf("# bench_server: %d requests/session, read-mostly mix "
              "(1 probe per %zu requests), %zu workers\n",
              requests_per_session, kMixSize, server.worker_count());
  if (write_pct > 0) {
    std::printf("# write mix: %d%% unique asserts, sync=%s, %zu facts "
                "preloaded%s\n",
                write_pct, sync_fsync ? "fsync" : "none",
                store.snapshot()->db().store().size(),
                scratch_dir.empty() ? ""
                                    : (" (scratch " + scratch_dir + ")")
                                          .c_str());
  }
  if (!skipped.empty()) {
    std::printf("# skipped session counts over the fd budget (%zu):",
                fd_budget);
    for (int s : skipped) std::printf(" %d", s);
    std::printf("\n");
  }
  if (fail_writes > 0) {
    std::printf("# degraded mode: server.write fails with p=%.4f "
                "(clients reconnect and resend)\n",
                fail_writes);
  }
  if (hostile_pct > 0) {
    std::printf("# hostile mix: %d%% poison queries (~%d^3 enumerations "
                "each), request deadline %d ms; percentiles cover cheap "
                "requests only\n",
                hostile_pct, kPoisonLayer, timeout_ms);
  }
  std::printf("%8s %7s %9s %10s %12s %10s %10s %8s %8s", "protocol",
              "window", "sessions", "requests", "thruput_rps", "p50_us",
              "p99_us", "errors", "retries");
  if (write_pct > 0) {
    std::printf(" %8s %9s %9s %8s %8s %7s", "writes", "w_rps", "wp50_us",
                "groups", "grp_mean", "fsyncs");
  }
  if (hostile_pct > 0) {
    std::printf(" %8s %9s %10s", "hostile", "cancelled", "p999_us");
  }
  std::printf("\n");

  std::vector<SweepResult> results;
  // Warm-up: populate the shared plan cache and lattice so the sweep
  // measures steady-state serving, not first-touch materialization.
  {
    SweepSpec warm;
    warm.sessions = 1;
    warm.requests_per_session = static_cast<int>(kMixSize);
    (void)RunSweep(server.port(), warm, &store);
  }
  if (fail_writes > 0) {
    // Armed after warm-up so cache population is never disrupted.
    char spec[64];
    std::snprintf(spec, sizeof(spec), "server.write=error%%%.6f",
                  fail_writes);
    lsd::Status armed = lsd::failpoint::Configure(spec);
    if (!armed.ok()) {
      std::fprintf(stderr, "cannot arm failpoint: %s\n",
                   armed.ToString().c_str());
      return 1;
    }
#if !LSD_FAILPOINTS_ENABLED
    std::fprintf(stderr,
                 "warning: built without LSD_FAILPOINTS; --fail-writes "
                 "injects nothing\n");
#endif
  }
  int sweep_tag = 0;
  for (Protocol protocol : protocols) {
    for (int sessions : session_counts) {
      SweepSpec spec;
      spec.protocol = protocol;
      spec.window = window;
      spec.sessions = sessions;
      spec.requests_per_session = requests_per_session;
      spec.write_pct = write_pct;
      spec.hostile_pct = hostile_pct;
      spec.tag = ++sweep_tag;
      SweepResult r = RunSweep(server.port(), spec, &store);
      results.push_back(r);
      std::printf("%8s %7d %9d %10zu %12.0f %10.1f %10.1f %8zu %8zu",
                  ProtocolName(r.protocol), r.window, r.sessions, r.requests,
                  r.throughput_rps, r.p50_us, r.p99_us, r.errors, r.retries);
      if (write_pct > 0) {
        std::printf(" %8zu %9.0f %9.1f %8llu %8.2f %7llu", r.writes,
                    r.writes_per_sec, r.wp50_us,
                    static_cast<unsigned long long>(r.groups), r.mean_group,
                    static_cast<unsigned long long>(r.fsyncs));
      }
      if (hostile_pct > 0) {
        std::printf(" %8zu %9zu %10.1f", r.hostile, r.cancelled, r.p999_us);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    const char* comment =
        hostile_pct > 0
            ? "bench_server hostile mix: hostile_pct of each session's "
              "requests are poison queries (a chain join with no "
              "selective atom over a seeded layered graph; empty result, "
              "~256^3 enumerations) that the request deadline kills with "
              "a typed error. `cancelled` counts those governance kills "
              "(expected; not errors), `hostile` the poison requests "
              "resolved, and p50/p99/p999 cover only the surviving cheap "
              "requests — the tail shows what hostile load does to "
              "well-behaved sessions. Regenerate with tools/bench_json.sh."
        : write_pct > 0
            ? "bench_server write mix: every counted request is a unique "
              "assert, committed through the group-commit queue "
              "(sync=fsync means one real WAL fsync per commit group "
              "against a scratch durable store; the store is preloaded "
              "so every row commits against a comparable tip). The "
              "ratio of writes_per_sec to the sessions=1 row is the "
              "group-commit amortization; mean_group/max_group say how "
              "large the groups actually got, and groups == fsyncs at "
              "sync=fsync. Regenerate with tools/bench_json.sh."
            : "bench_server read-mostly browsing mix over loopback TCP "
              "in both wire protocols; regenerate with "
              "tools/bench_json.sh. Binary rows pipeline up to `window` "
              "requests per connection, so their p50 measures queued "
              "time in the window, not a single round trip. Aggregate "
              "throughput scales with sessions only up to the host's "
              "core count; on a single-core host expect flat throughput "
              "with proportionally growing p50.";
    out << "{\n  \"comment\": \"" << comment << "\",\n"
           "  \"hardware_concurrency\": "
        << std::thread::hardware_concurrency()
        << ",\n  \"requests_per_session\": " << requests_per_session
        << ",\n  \"window\": " << window
        << ",\n  \"write_pct\": " << write_pct << ",\n  \"sync\": \""
        << (sync_fsync ? "fsync" : "none") << "\""
        << ",\n  \"preload\": " << preload
        << ",\n  \"hostile_pct\": " << hostile_pct
        << ",\n  \"timeout_ms\": " << options.request_timeout.count()
        << ",\n  \"fail_writes\": " << fail_writes << ",\n  \"sweeps\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      const SweepResult& r = results[i];
      char buf[640];
      std::snprintf(buf, sizeof(buf),
                    "    {\"protocol\": \"%s\", \"window\": %d, "
                    "\"sessions\": %d, \"requests\": %zu, "
                    "\"throughput_rps\": %.0f, \"p50_us\": %.1f, "
                    "\"p99_us\": %.1f, \"errors\": %zu, "
                    "\"retries\": %zu, \"writes\": %zu, "
                    "\"writes_per_sec\": %.0f, \"wp50_us\": %.1f, "
                    "\"groups\": %llu, \"mean_group\": %.2f, "
                    "\"max_group\": %llu, \"fsyncs\": %llu, "
                    "\"hostile\": %zu, \"cancelled\": %zu, "
                    "\"p999_us\": %.1f}%s\n",
                    ProtocolName(r.protocol), r.window, r.sessions,
                    r.requests, r.throughput_rps, r.p50_us, r.p99_us,
                    r.errors, r.retries, r.writes, r.writes_per_sec,
                    r.wp50_us, static_cast<unsigned long long>(r.groups),
                    r.mean_group, static_cast<unsigned long long>(r.max_group),
                    static_cast<unsigned long long>(r.fsyncs),
                    r.hostile, r.cancelled, r.p999_us,
                    i + 1 < results.size() ? "," : "");
      out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  server.Stop();

  if (!scratch_dir.empty()) {
    if (DIR* d = ::opendir(scratch_dir.c_str())) {
      struct dirent* e;
      while ((e = ::readdir(d)) != nullptr) {
        if (std::strcmp(e->d_name, ".") == 0 ||
            std::strcmp(e->d_name, "..") == 0) {
          continue;
        }
        (void)::unlink((scratch_dir + "/" + e->d_name).c_str());
      }
      ::closedir(d);
    }
    (void)::rmdir(scratch_dir.c_str());
  }

  if (check) {
    size_t errors = 0, retries = 0, cancelled = 0, hostile = 0;
    for (const SweepResult& r : results) {
      errors += r.errors;
      retries += r.retries;
      cancelled += r.cancelled;
      hostile += r.hostile;
    }
    if (errors > 0 || (fail_writes == 0 && retries > 0)) {
      std::fprintf(stderr,
                   "--check failed: %zu errors, %zu retries across the "
                   "sweep\n",
                   errors, retries);
      return 1;
    }
    // Hostile mode must actually exercise the governance path: poison
    // queries that all finish under the deadline mean the mix is not
    // hostile at all (mis-sized graph or deadline), and cancellations
    // without a hostile mix mean healthy requests are being killed.
    if (hostile_pct > 0 && cancelled == 0) {
      std::fprintf(stderr,
                   "--check failed: hostile mix (%zu poison requests) "
                   "produced no cancellations\n",
                   hostile);
      return 1;
    }
    if (hostile_pct == 0 && cancelled > 0) {
      std::fprintf(stderr,
                   "--check failed: %zu requests cancelled without a "
                   "hostile mix\n",
                   cancelled);
      return 1;
    }
  }
  return 0;
}
