// lsd_client — interactive (or piped) client for lsd_serve.
//
//   lsd_client [--port N] [--host A.B.C.D] [--max-attempts N]
//              [--binary] [--window N] [--retry-writes]
//              [--follower A.B.C.D:PORT]
//
// --follower splits the session across a primary/follower pair: read
// verbs go to the follower (a read-only replica), everything else —
// mutations, but also session-local verbs like hypo/limit/save whose
// state should live in one place — goes to the primary at
// --host:--port. A follower past its staleness bound answers reads
// with "error: FailedPrecondition: stale: ..."; that is the contract,
// not a client-side retry condition. Text mode only (the two
// connections are separate sessions, so pipelined request ids cannot
// interleave): --binary/--window are rejected with --follower.
//
// Reads command lines from stdin, sends each to the server, and prints
// the response payload (or "error: ..." on ERR). The same grammar as
// lsd_shell: both front ends run ServerSession::Execute.
//
// --binary switches to the length-prefixed binary framing after the
// text greeting; --window N (implies --binary) pipelines up to N
// requests before waiting for replies, so piped scripts amortize
// round trips. Responses print in request order — the server executes
// one connection's requests FIFO and tags each reply with its request
// id, which the client checks. Interactive (tty) use keeps window 1 so
// the prompt stays in step.
//
// Connection setup is retried with exponential backoff plus jitter:
// both a refused/failed connect and an "ERR server busy" admission
// rejection are transient (the server sheds load instead of queueing),
// so the client backs off and tries again up to --max-attempts times.
//
// Mid-stream failures (the connection dies with requests un-answered)
// are retried — reconnect, resend — ONLY when every unanswered request
// is a read verb. A write (assert/retract/rule/...) that dies after
// being sent is AMBIGUOUS: the server may have committed it before the
// connection broke, and blindly resending would apply it twice
// (re-asserting is harmless, but a retract or a rule definition is
// not). By default the client refuses to guess and exits with an error
// naming the verb; --retry-writes opts back into resending everything.
// Note a retry lands on a fresh session: shared-store state is intact,
// but session-local state (trail, hypo overlay, limit) starts over.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iostream>
#include <memory>
#include <random>
#include <string>

#include "server/protocol.h"

namespace {

void SleepMs(long ms) {
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = (ms % 1000) * 1000000L;
  ::nanosleep(&ts, nullptr);
}

// Does `line` only read? Writes — anything that commits through the
// shared store, plus session-local mutations whose duplication would be
// visible (hypo) — are not safe to resend after an ambiguous failure.
bool IsReadVerb(const std::string& line) {
  std::string verb;
  for (char c : line) {
    if (c == ' ' || c == '\t') break;
    verb.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  static const char* kWrites[] = {
      "assert", "retract", "assert*", "retract*", "rule",
      "integrity", "define", "include", "exclude", "load",
      "save", "hypo",
  };
  for (const char* w : kWrites) {
    if (verb == w) return false;
  }
  return true;
}

// One connect + greeting exchange. Returns the connected fd, or -1
// with `transient` set when the failure is worth retrying (connect
// refused, greeting cut short, or admission rejection).
int TryConnect(const struct sockaddr_in& addr, bool* transient,
               std::string* error) {
  *transient = false;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    *transient = true;  // server not up yet, or backlog full
    ::close(fd);
    return -1;
  }
  lsd::LineReader reader(fd);
  auto greeting = lsd::ReadResponse(&reader);
  if (!greeting.ok()) {
    *error = "greeting: " + greeting.status().ToString();
    *transient = true;  // connection died mid-greeting
    ::close(fd);
    return -1;
  }
  if (!greeting->ok) {
    *error = "rejected: " + greeting->error;
    // Admission backpressure is the canonical transient rejection.
    *transient = greeting->error.find("busy") != std::string::npos;
    ::close(fd);
    return -1;
  }
  if (::isatty(STDIN_FILENO) != 0) {
    std::printf("%s", greeting->payload.c_str());
  }
  return fd;
}

// Full backoff-jitter connect loop; -1 after max_attempts.
int ConnectWithBackoff(const struct sockaddr_in& addr, int max_attempts,
                       std::mt19937_64* rng) {
  std::string error;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    bool transient = false;
    int fd = TryConnect(addr, &transient, &error);
    if (fd >= 0) return fd;
    if (!transient || attempt == max_attempts) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return -1;
    }
    long cap_ms = 100L << (attempt - 1 < 5 ? attempt - 1 : 5);
    long wait_ms = static_cast<long>(
        std::uniform_int_distribution<long>(0, cap_ms - 1)(*rng));
    std::fprintf(stderr, "%s; retrying in %ldms (attempt %d/%d)\n",
                 error.c_str(), wait_ms, attempt, max_attempts);
    SleepMs(wait_ms);
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const char* host = "127.0.0.1";
  uint16_t port = 7420;
  int max_attempts = 5;
  bool binary = false;
  bool retry_writes = false;
  size_t window = 1;
  std::string follower_spec;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--port" && i + 1 < argc) {
      port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--host" && i + 1 < argc) {
      host = argv[++i];
    } else if (arg == "--max-attempts" && i + 1 < argc) {
      max_attempts = std::atoi(argv[++i]);
      if (max_attempts < 1) max_attempts = 1;
    } else if (arg == "--binary") {
      binary = true;
    } else if (arg == "--retry-writes") {
      retry_writes = true;
    } else if (arg == "--window" && i + 1 < argc) {
      long w = std::atol(argv[++i]);
      window = w < 1 ? 1 : static_cast<size_t>(w);
      binary = true;  // pipelining needs request ids
    } else if (arg == "--follower" && i + 1 < argc) {
      follower_spec = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--host A.B.C.D] [--port N] "
                   "[--max-attempts N] [--binary] [--window N] "
                   "[--retry-writes] [--follower A.B.C.D:PORT]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!follower_spec.empty() && binary) {
    std::fprintf(stderr,
                 "--follower routes per line over two text sessions; it "
                 "excludes --binary/--window\n");
    return 2;
  }

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    std::fprintf(stderr, "bad host: %s\n", host);
    return 1;
  }
  struct sockaddr_in follower_addr;
  std::memset(&follower_addr, 0, sizeof(follower_addr));
  if (!follower_spec.empty()) {
    size_t colon = follower_spec.rfind(':');
    long fport = colon == std::string::npos
                     ? 0
                     : std::atol(follower_spec.c_str() + colon + 1);
    std::string fhost =
        colon == std::string::npos ? "" : follower_spec.substr(0, colon);
    follower_addr.sin_family = AF_INET;
    follower_addr.sin_port = htons(static_cast<uint16_t>(fport));
    if (fhost.empty() || fport <= 0 || fport > 65535 ||
        ::inet_pton(AF_INET, fhost.c_str(), &follower_addr.sin_addr) != 1) {
      std::fprintf(stderr, "bad --follower spec: %s\n",
                   follower_spec.c_str());
      return 1;
    }
  }

  // Exponential backoff with full jitter: 100ms base doubling to a 3.2s
  // cap, each wait drawn uniformly from [0, cap) so a burst of clients
  // stampeding a recovering server spreads out.
  std::mt19937_64 rng(
      static_cast<uint64_t>(::getpid()) * 2654435761u ^
      static_cast<uint64_t>(time(nullptr)));
  int fd = ConnectWithBackoff(addr, max_attempts, &rng);
  if (fd < 0) return 1;

  bool tty = ::isatty(STDIN_FILENO) != 0;
  if (tty) window = 1;  // keep the prompt in step with replies

  // Are all of `unanswered` safe to resend on a fresh connection?
  // Returns the offending line when not (and retry-writes is off).
  auto refusal = [&](const std::deque<std::string>& unanswered)
      -> const std::string* {
    if (retry_writes) return nullptr;
    for (const std::string& l : unanswered) {
      if (!IsReadVerb(l)) return &l;
    }
    return nullptr;
  };

  if (binary) {
    // Pipelined binary mode: keep up to `window` requests in flight,
    // print replies in request order (the server answers FIFO).
    lsd::BinaryFrameParser parser;
    uint64_t next_id = 1;
    std::deque<uint64_t> inflight;
    std::deque<std::string> inflight_lines;  // parallel to inflight

    // Reconnect and resend every unanswered request, oldest first.
    // Only called once refusal() cleared them.
    auto recover = [&]() -> bool {
      ::close(fd);
      fd = ConnectWithBackoff(addr, max_attempts, &rng);
      if (fd < 0) return false;
      parser = lsd::BinaryFrameParser();
      inflight.clear();
      for (const std::string& l : inflight_lines) {
        lsd::Status sent = lsd::WriteAll(
            fd, lsd::EncodeFrame(lsd::FrameType::kRequest, next_id, l));
        if (!sent.ok()) {
          std::fprintf(stderr, "resend: %s\n", sent.ToString().c_str());
          return false;
        }
        inflight.push_back(next_id++);
      }
      return true;
    };
    auto drain_one = [&]() -> bool {
      for (;;) {
        auto reply = lsd::ReadFrame(fd, &parser);
        if (!reply.ok()) {
          const std::string* blocked = refusal(inflight_lines);
          if (blocked != nullptr) {
            std::fprintf(stderr,
                         "recv: %s\nerror: connection lost with '%s' "
                         "unanswered — a write may or may not have "
                         "committed; not resending (pass --retry-writes "
                         "to resend anyway)\n",
                         reply.status().ToString().c_str(),
                         blocked->c_str());
            return false;
          }
          std::fprintf(stderr, "recv: %s; reconnecting\n",
                       reply.status().ToString().c_str());
          if (!recover()) return false;
          continue;
        }
        if (inflight.empty() || reply->request_id != inflight.front()) {
          std::fprintf(stderr, "recv: response id %llu out of order\n",
                       static_cast<unsigned long long>(reply->request_id));
          return false;
        }
        inflight.pop_front();
        inflight_lines.pop_front();
        if (reply->type == lsd::FrameType::kOk) {
          std::printf("%s", reply->payload.c_str());
        } else {
          // ERR payloads carry the one-line error message.
          std::string msg = reply->payload;
          while (!msg.empty() && msg.back() == '\n') msg.pop_back();
          std::printf("error: %s\n", msg.c_str());
        }
        std::fflush(stdout);
        return true;
      }
    };
    std::string line;
    bool quitting = false;
    while ((tty && (std::printf("lsd> "), std::fflush(stdout), true),
            true) &&
           std::getline(std::cin, line)) {
      if (line.empty()) continue;
      lsd::Status sent = lsd::WriteAll(
          fd, lsd::EncodeFrame(lsd::FrameType::kRequest, next_id, line));
      if (!sent.ok()) {
        // A send failure is ambiguous too: earlier pipelined writes may
        // still be unanswered. Same policy as recv.
        const std::string* blocked = refusal(inflight_lines);
        if (blocked != nullptr) {
          std::fprintf(stderr,
                       "send: %s\nerror: connection lost with '%s' "
                       "unanswered — not resending writes (pass "
                       "--retry-writes to override)\n",
                       sent.ToString().c_str(), blocked->c_str());
          return 1;
        }
        inflight_lines.push_back(line);
        std::fprintf(stderr, "send: %s; reconnecting\n",
                     sent.ToString().c_str());
        if (!recover()) return 1;
      } else {
        inflight.push_back(next_id++);
        inflight_lines.push_back(line);
      }
      quitting = line == "quit" || line == "exit";
      while (inflight.size() >= (quitting ? 1 : window)) {
        if (!drain_one()) return 1;
      }
      if (quitting) break;
    }
    while (!inflight.empty()) {
      if (!drain_one()) return 1;
    }
    ::close(fd);
    return 0;
  }

  // Text mode runs over one or two endpoints: the primary, plus (with
  // --follower) a replica that read verbs route to. Each endpoint is
  // its own connection/session and reconnects independently.
  struct Endpoint {
    const struct sockaddr_in* addr = nullptr;
    int fd = -1;
    std::unique_ptr<lsd::LineReader> reader;
  };
  Endpoint primary;
  primary.addr = &addr;
  primary.fd = fd;
  primary.reader = std::make_unique<lsd::LineReader>(fd);
  Endpoint follower;
  follower.addr = &follower_addr;
  if (!follower_spec.empty()) {
    follower.fd = ConnectWithBackoff(follower_addr, max_attempts, &rng);
    if (follower.fd < 0) return 1;
    follower.reader = std::make_unique<lsd::LineReader>(follower.fd);
  }

  std::string line;
  while ((tty && (std::printf("lsd> "), std::fflush(stdout), true), true) &&
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    // Reads go to the follower when one is configured; writes — and
    // the session-local verbs IsReadVerb treats as writes — go to the
    // primary, preserving the read-verb-only auto-resend discipline on
    // both connections.
    Endpoint& ep =
        (!follower_spec.empty() && IsReadVerb(line)) ? follower : primary;
    for (int attempt = 1;; ++attempt) {
      lsd::Status sent = lsd::WriteAll(ep.fd, line + "\n");
      lsd::StatusOr<lsd::WireResponse> response =
          sent.ok() ? lsd::ReadResponse(ep.reader.get())
                    : lsd::StatusOr<lsd::WireResponse>(sent);
      if (response.ok()) {
        if (response->ok) {
          std::printf("%s", response->payload.c_str());
        } else {
          std::printf("error: %s\n", response->error.c_str());
        }
        std::fflush(stdout);
        break;
      }
      // The connection died with `line` unanswered. Reads are safe to
      // replay on a fresh connection; a write may already have
      // committed, so resending it needs explicit consent.
      if (!retry_writes && !IsReadVerb(line)) {
        std::fprintf(stderr,
                     "recv: %s\nerror: '%s' was sent but not answered — "
                     "the write may or may not have committed; not "
                     "resending (pass --retry-writes to resend anyway)\n",
                     response.status().ToString().c_str(), line.c_str());
        return 1;
      }
      if (attempt >= max_attempts) {
        std::fprintf(stderr, "recv: %s (gave up after %d attempts)\n",
                     response.status().ToString().c_str(), attempt);
        return 1;
      }
      std::fprintf(stderr, "recv: %s; reconnecting\n",
                   response.status().ToString().c_str());
      ::close(ep.fd);
      ep.fd = ConnectWithBackoff(*ep.addr, max_attempts, &rng);
      if (ep.fd < 0) return 1;
      ep.reader = std::make_unique<lsd::LineReader>(ep.fd);
    }
    if (line == "quit" || line == "exit") break;
  }
  ::close(primary.fd);
  if (follower.fd >= 0) ::close(follower.fd);
  return 0;
}
