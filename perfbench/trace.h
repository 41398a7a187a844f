// In-memory spans for the traced run. The benchmark wraps each call it
// makes into a layer in a span; nesting arises only where library code
// calls back into the benchmark (the mutation closure inside
// SharedStore::Commit). Spans stay in memory while the run measures and
// are written out when it ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  uint64_t request = 0;  // the timed operation this span belongs to
  int64_t start_ns = 0;  // since the tracer's origin
  int64_t end_ns = 0;
  int32_t parent = -1;   // enclosing span of the same tracer, or -1

  int64_t duration_ns() const { return end_ns - start_ns; }
};

// One thread's spans. Not thread-safe: each thread records into its own.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of unfinished spans
};

// Times a scope; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// Each span's duration minus the part of its interval that its child
// spans cover (overlapping children count once).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Writes the spans as tab-separated lines: tracer, index, parent,
// request, name, start_ns, end_ns. False if the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const Tracer*>& tracers);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
