// The lsd wire protocols. Two request framings share one connection
// port; the server sniffs the first byte a client sends after the
// greeting and locks the connection into that mode.
//
// TEXT (default, human-debuggable with nc):
//
// Request:  one line, the lsd_shell command grammar (see commands.cc).
// Response: a status line, payload lines, and a terminator line:
//
//   OK                          |   ERR <message>
//   <payload line 1>            |   .
//   <payload line 2>
//   .
//
// Payload lines that start with '.' are dot-stuffed ("." -> "..", SMTP
// style) so the terminator stays unambiguous; ReadResponse unstuffs.
// The server sends one greeting frame on connect (OK + banner, or
// ERR server busy when admission control rejects the connection). The
// greeting is always a text frame — binary clients read it with the
// text reader before sending their first binary frame.
//
// BINARY (length-prefixed, pipelined):
//
//   offset  size  field
//   0       1     magic0 = 0xB5   (non-ASCII: never begins a text line)
//   1       1     magic1 = 'L'
//   2       1     magic2 = 'S'
//   3       1     version = 2
//   4       1     type: 0 request, 1 OK response, 2 ERR response,
//                 3 batch-mutation request, 4 subscribe, 5 log chunk,
//                 6 heartbeat, 7 snapshot chunk (4-7: replication
//                 port only; see src/replication/wire.h)
//   5       3     reserved, must be 0
//   8       8     request id (little-endian u64, chosen by the client)
//   16      4     payload length (little-endian u32, <= 16 MiB)
//   20      n     payload (request: command line; response: output or
//                 error message — raw bytes, no dot-stuffing)
//
// A type-3 (batch mutation) frame carries many asserts/retracts in one
// request; the server lands the whole batch in ONE group-commit slot
// (one clone + one WAL fsync + one epoch with the rest of its group).
// Its payload is a run of WAL records, framed exactly as the log frames
// them (EncodeWalRecord, src/store/persistence.h; its integers are in
// the log's byte order, which is the host's):
//
//   per record:
//     u32 len, u32 crc32c   over len and the len bytes that follow
//     u8  op                1 = assert, 2 = retract
//     u8  nfields           3
//     u32 len, bytes        source entity name
//     u32 len, bytes        relationship name
//     u32 len, bytes        target name
//
// The server decodes it with the WAL's record parser and applies it with
// LooseDb::Apply, as the replication follower applies shipped records.
// The response is an ordinary type-1/2 frame; on OK the payload is the
// "added A, present B, removed C, missing D" tally (see commands.cc).
// The whole payload is validated before the slot enqueues: a truncated
// record, a bad checksum, a record that is not an assert or retract of
// three names, or trailing bytes reject the frame and mutate nothing. A
// retract of an absent fact or unknown entity is NOT an error — it just
// counts toward the "missing" tally while the rest of the batch applies.
// Version 1 carried a different type-3 layout; its frames are rejected.
//
// Clients may pipeline: any number of request frames can be in flight
// on one connection, and each response carries the request id it
// answers, so responses correlate even if they complete out of order.
// (The server currently executes one connection's requests in FIFO
// order — per-session state demands serialization — but clients must
// match by id, not position.) A malformed frame (bad magic, unknown
// version, nonzero reserved bytes, oversized length) is a protocol
// error: the server closes the connection.
#ifndef LSD_SERVER_PROTOCOL_H_
#define LSD_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace lsd {

// Renders a full response frame from a command outcome.
std::string FrameResponse(const Status& status, std::string_view payload);

// Writes all of `data` to `fd`, retrying short writes. IoError on
// failure (including a send timeout).
Status WriteAll(int fd, std::string_view data);

// Buffered \n-line reader over a socket (or pipe) fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  // Tolerate up to `n` consecutive receive timeouts (EAGAIN /
  // EWOULDBLOCK under SO_RCVTIMEO) before ReadLine gives up; every
  // received byte resets the count, so a slow writer that keeps
  // trickling data never trips it. 0 (the default) fails on the first
  // timeout.
  void set_max_idle_timeouts(int n) { max_idle_timeouts_ = n; }

  // Reads one line, stripping the trailing \n (and \r\n). Returns false
  // on EOF or error with nothing buffered. EINTR is always retried;
  // timeouts are retried per set_max_idle_timeouts.
  bool ReadLine(std::string* line);

 private:
  int fd_;
  int max_idle_timeouts_ = 0;
  std::string buf_;
};

// A parsed response frame (client side).
struct WireResponse {
  bool ok = false;
  std::string error;    // ERR message when !ok
  std::string payload;  // unstuffed payload lines, '\n'-joined
};

// Reads one complete frame. IoError if the connection dies mid-frame.
StatusOr<WireResponse> ReadResponse(LineReader* reader);

// ---- Binary framing ------------------------------------------------------

inline constexpr uint8_t kBinaryMagic0 = 0xB5;  // the mode-sniff byte
inline constexpr uint8_t kBinaryMagic1 = 'L';
inline constexpr uint8_t kBinaryMagic2 = 'S';
inline constexpr uint8_t kBinaryVersion = 2;
inline constexpr size_t kBinaryHeaderSize = 20;
// Oversized-length frames are protocol errors, not allocation requests.
inline constexpr uint32_t kMaxBinaryPayload = 16u << 20;

enum class FrameType : uint8_t {
  kRequest = 0,
  kOk = 1,
  kErr = 2,
  kMutation = 3,  // batch-mutation request (see payload layout above)

  // Replication frames (src/replication/): the same header framing on
  // the primary's replication port. The browse port never accepts them
  // (the server closes the connection), and the parser accepts them
  // everywhere so one framer serves both endpoints. Payload layouts
  // live in src/replication/wire.h.
  kSubscribe = 4,  // follower -> primary: resume from {gen, seg, offset}
  kLogChunk = 5,   // primary -> follower: raw WAL record bytes + position
  kHeartbeat = 6,  // primary -> follower: liveness + staleness metadata
  kSnapshot = 7,   // primary -> follower: snapshot chunk (cold catch-up)
};
inline constexpr uint8_t kMaxFrameType =
    static_cast<uint8_t>(FrameType::kSnapshot);

struct BinaryFrame {
  FrameType type = FrameType::kRequest;
  uint64_t request_id = 0;
  std::string payload;
};

// Renders one wire-ready frame (header + payload).
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        std::string_view payload);

// Incremental decoder: feed arbitrary byte chunks (dribbled, coalesced,
// many frames at once), pull complete frames out. Once an error is
// reported the parser stays poisoned — the connection is unrecoverable
// because framing has been lost.
class BinaryFrameParser {
 public:
  enum class Result {
    kFrame,     // *out filled with the next complete frame
    kNeedMore,  // no complete frame buffered yet
    kError,     // protocol violation; see error()
  };

  // Appends raw bytes to the internal buffer.
  void Feed(std::string_view data);

  Result Next(BinaryFrame* out);

  const std::string& error() const { return error_; }

  // Bytes buffered but not yet consumed by complete frames.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
  std::string error_;
};

// Blocking convenience for clients and tests: reads exactly one frame
// from `fd` (EINTR-retrying). IoError on EOF or a malformed frame.
StatusOr<BinaryFrame> ReadFrame(int fd, BinaryFrameParser* parser);

}  // namespace lsd

#endif  // LSD_SERVER_PROTOCOL_H_
