#include "server/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace lsd {

namespace {

// First line of a (possibly multi-line) error message; newlines inside
// the status line would break the framing.
std::string FirstLine(const std::string& s) {
  size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

}  // namespace

std::string FrameResponse(const Status& status, std::string_view payload) {
  std::string out;
  if (status.ok()) {
    out = "OK\n";
    size_t start = 0;
    while (start < payload.size()) {
      size_t nl = payload.find('\n', start);
      std::string_view line = nl == std::string_view::npos
                                  ? payload.substr(start)
                                  : payload.substr(start, nl - start);
      if (!line.empty() && line.front() == '.') out += '.';
      out.append(line);
      out += '\n';
      if (nl == std::string_view::npos) break;
      start = nl + 1;
    }
  } else {
    out = "ERR " + FirstLine(status.ToString()) + "\n";
  }
  out += ".\n";
  return out;
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    // MSG_NOSIGNAL: a peer hanging up mid-stream must surface as EPIPE
    // to the caller, not kill the process (the replication client and
    // shipper both live in-process with their tests and servers).
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data.data(), data.size());
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("write failed: ") +
                             std::strerror(errno));
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

bool LineReader::ReadLine(std::string* line) {
  for (;;) {
    size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      *line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return true;
    }
    char chunk[4096];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;  // signal, not a peer problem
      return false;
    }
    if (n == 0) return false;  // EOF
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

namespace {

inline void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

inline void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline uint32_t GetU32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t GetU64(const unsigned char* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(GetU32(p + 4)) << 32);
}

}  // namespace

std::string EncodeFrame(FrameType type, uint64_t request_id,
                        std::string_view payload) {
  std::string out;
  out.reserve(kBinaryHeaderSize + payload.size());
  out.push_back(static_cast<char>(kBinaryMagic0));
  out.push_back(static_cast<char>(kBinaryMagic1));
  out.push_back(static_cast<char>(kBinaryMagic2));
  out.push_back(static_cast<char>(kBinaryVersion));
  out.push_back(static_cast<char>(type));
  out.append(3, '\0');  // reserved
  PutU64(&out, request_id);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

void BinaryFrameParser::Feed(std::string_view data) {
  if (!error_.empty()) return;  // poisoned: framing is lost
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data);
}

BinaryFrameParser::Result BinaryFrameParser::Next(BinaryFrame* out) {
  if (!error_.empty()) return Result::kError;
  if (buf_.size() - pos_ < kBinaryHeaderSize) return Result::kNeedMore;
  const unsigned char* h =
      reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;
  if (h[0] != kBinaryMagic0 || h[1] != kBinaryMagic1 ||
      h[2] != kBinaryMagic2) {
    error_ = "bad frame magic";
    return Result::kError;
  }
  if (h[3] != kBinaryVersion) {
    error_ = "unsupported frame version " + std::to_string(h[3]);
    return Result::kError;
  }
  if (h[4] > kMaxFrameType) {
    error_ = "unknown frame type " + std::to_string(h[4]);
    return Result::kError;
  }
  if (h[5] != 0 || h[6] != 0 || h[7] != 0) {
    error_ = "nonzero reserved header bytes";
    return Result::kError;
  }
  const uint32_t len = GetU32(h + 16);
  if (len > kMaxBinaryPayload) {
    error_ = "frame payload of " + std::to_string(len) +
             " bytes exceeds the " + std::to_string(kMaxBinaryPayload) +
             "-byte limit";
    return Result::kError;
  }
  if (buf_.size() - pos_ < kBinaryHeaderSize + len) return Result::kNeedMore;
  out->type = static_cast<FrameType>(h[4]);
  out->request_id = GetU64(h + 8);
  out->payload.assign(buf_, pos_ + kBinaryHeaderSize, len);
  pos_ += kBinaryHeaderSize + len;
  return Result::kFrame;
}

StatusOr<BinaryFrame> ReadFrame(int fd, BinaryFrameParser* parser) {
  for (;;) {
    BinaryFrame frame;
    switch (parser->Next(&frame)) {
      case BinaryFrameParser::Result::kFrame:
        return frame;
      case BinaryFrameParser::Result::kError:
        return Status::IoError("malformed frame: " + parser->error());
      case BinaryFrameParser::Result::kNeedMore:
        break;
    }
    char chunk[4096];
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("read failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) return Status::IoError("connection closed mid-frame");
    parser->Feed(std::string_view(chunk, static_cast<size_t>(n)));
  }
}

StatusOr<WireResponse> ReadResponse(LineReader* reader) {
  WireResponse response;
  std::string line;
  if (!reader->ReadLine(&line)) {
    return Status::IoError("connection closed before response");
  }
  if (line == "OK") {
    response.ok = true;
  } else if (line.rfind("ERR ", 0) == 0) {
    response.ok = false;
    response.error = line.substr(4);
  } else {
    return Status::IoError("malformed response status line: " + line);
  }
  for (;;) {
    if (!reader->ReadLine(&line)) {
      return Status::IoError("connection closed mid-response");
    }
    if (line == ".") break;
    if (!line.empty() && line.front() == '.') line.erase(0, 1);
    response.payload += line;
    response.payload += '\n';
  }
  return response;
}

}  // namespace lsd
