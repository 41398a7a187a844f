// Background compaction driver for the generational closure tiers.
//
// A serving tip accumulates frozen segments and overlay facts as it
// maintains its closure across epochs (LooseDb::View's maintenance path);
// left alone, reads pay one probe per segment and the overlay's
// node-based trees grow without bound. The Compactor runs a dedicated
// merge thread that watches the tip's tier *shape* (segment count,
// overlay bytes vs frozen bytes) and, when a trigger fires, runs one
// pin → build → swap cycle supplied by the serving layer
// (SharedStore::CompactOnce): pin the tip, merge its segments + overlay
// into one CSR generation per tier off the commit path, and publish the
// swap through the ordinary group-commit machinery. Pinned readers are
// never stalled — the merge works on an immutable epoch and the swap is
// an identity-checked prefix CAS that retries against whatever epochs
// committed meanwhile (Status::Aborted).
//
// The class itself is mechanism only — thread, trigger policy, stats,
// backpressure accounting — wired to the store through two callbacks, so
// it has no dependency on the serving layer and is unit-testable with
// stub functions.
#ifndef LSD_STORE_COMPACTOR_H_
#define LSD_STORE_COMPACTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "util/status.h"

namespace lsd {

struct CompactionOptions {
  // Trigger policy: a merge is scheduled when EITHER
  //   - any tier holds at least `min_runs` frozen segments, or
  //   - the overlays hold at least `min_overlay_bytes` AND at least
  //     `overlay_ratio` of the frozen bytes.
  // The ratio keeps small stores from churning; the floor keeps an
  // empty store's bucket arrays from looking like 100% overlay.
  size_t min_runs = 4;
  double overlay_ratio = 0.10;
  size_t min_overlay_bytes = 64 * 1024;

  // Merge-thread poll cadence. The thread is also notified after every
  // publish, so this is only the fallback heartbeat.
  uint64_t poll_ms = 50;

  // Writer backpressure: when a tier's segment count runs this far
  // ahead of the merger, each Commit caller sleeps briefly before
  // enqueueing. Writes slow down; reads are NEVER blocked (they pin
  // whatever epoch is published). 0 disables.
  size_t backpressure_runs = 32;
  uint64_t backpressure_sleep_ms = 2;
};

// The shape the trigger policy evaluates: the tip's tier geometry,
// summed (bytes) / maxed (runs) over the base and derived tiers.
struct CompactionShape {
  size_t runs = 0;           // max segment count of any tier
  size_t frozen_bytes = 0;   // total frozen segment bytes
  size_t overlay_bytes = 0;  // total overlay bytes
};

// Point-in-time sample for the `stats` verb.
struct CompactionStats {
  bool running = false;            // merge thread alive
  bool merging = false;            // a merge cycle in flight right now
  uint64_t merges = 0;             // swaps published
  uint64_t aborted = 0;            // cycles lost to the publish race
  uint64_t failures = 0;           // cycles failed with a real error
  uint64_t bytes_merged = 0;       // frozen bytes written by all merges
  uint64_t facts_merged = 0;       // facts folded into merged generations
  uint64_t last_merge_ms = 0;      // duration of the last published merge
  uint64_t backpressure_hits = 0;  // Commit calls that slept
  CompactionShape shape;           // latest sampled tip shape
};

class Compactor {
 public:
  // `sample` reads the current tip's shape; `compact` runs one full
  // pin → build → swap cycle, filling bytes/facts with what the merge
  // folded, and returns OK (published or nothing to do), Aborted (lost
  // the race; the thread just retries on its next tick) or a real
  // error. Both are invoked from the merge thread only.
  using SampleFn = std::function<CompactionShape()>;
  using CompactFn =
      std::function<Status(uint64_t* bytes_merged, uint64_t* facts_merged)>;

  Compactor(const CompactionOptions& options, SampleFn sample,
            CompactFn compact);
  ~Compactor();  // Stop()s

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  // Starts the merge thread (idempotent).
  void Start();
  // Stops and joins the merge thread (idempotent); any in-flight merge
  // cycle completes first.
  void Stop();
  // Wakes the merge thread ahead of its poll tick (publish hook).
  void Notify();

  // The trigger policy, exposed for tests and for the serving layer's
  // own decisions.
  static bool ShouldCompact(const CompactionOptions& options,
                            const CompactionShape& shape);

  // Commit-path hook: sleeps backpressure_sleep_ms when `shape` is at
  // least backpressure_runs segments deep, and tallies the hit. Returns
  // true if it slept.
  bool MaybeBackpressure(const CompactionShape& shape);

  CompactionStats Sample() const;
  const CompactionOptions& options() const { return options_; }

 private:
  void Run();

  const CompactionOptions options_;
  const SampleFn sample_;
  const CompactFn compact_;

  std::mutex mu_;  // guards cv_ wakeups, stop_/notified_, thread_
  std::condition_variable cv_;
  bool stop_ = false;
  bool notified_ = false;
  std::thread thread_;

  std::atomic<bool> running_{false};
  std::atomic<bool> merging_{false};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> aborted_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> bytes_merged_{0};
  std::atomic<uint64_t> facts_merged_{0};
  std::atomic<uint64_t> last_merge_ms_{0};
  std::atomic<uint64_t> backpressure_hits_{0};
  std::atomic<size_t> shape_runs_{0};
  std::atomic<size_t> shape_frozen_{0};
  std::atomic<size_t> shape_overlay_{0};
};

}  // namespace lsd

#endif  // LSD_STORE_COMPACTOR_H_
