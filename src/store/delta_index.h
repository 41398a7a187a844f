// Generational triple index: a small list of immutable FrozenIndex
// *segments* (sorted CSR runs, binary-search ranges) plus a small mutable
// TripleIndex overlay, in the spirit of an LSM tree's levels. Inserts go
// to the overlay; bulk runs become new L0 segments; reads fan out to
// every tier. All tiers are kept disjoint at insert time, so
// concatenating their streams is duplicate-free.
//
// This is both the rule engine's "all derived facts" container and (since
// the generational rewrite) its asserted-base snapshot: a closure
// fixpoint is read-mostly, and a long-lived serving tip extends the same
// tiers across epochs, so probes should hit cache-friendly sorted arrays
// instead of a large node-based std::set.
//
// Lifecycle (LSM-style):
//  - InsertRun appends a new frozen segment per bulk round, then applies
//    a geometric tail-merge (merge the newest two segments while the
//    newest is at least half the previous one). Foreground cost is
//    therefore proportional to the run being folded, never to the whole
//    index — the old "overlay >= frozen/4 => rebuild everything" stall is
//    gone (ISSUE 10 satellite 1); the merge-everything step now belongs
//    to the background compactor.
//  - Segments are held by shared_ptr, so Clone() shares them across
//    epochs for free and a background compactor can pin them, build one
//    merged CSR generation off-thread, and SwapMergedPrefix it in with an
//    identity-checked CAS (see store/compactor.h).
//  - Erase (the closure's delete-and-rederive path) removes overlay facts
//    in place and replaces each segment holding an erased fact with a
//    filtered copy; untouched segments stay shared. Reads pay nothing for
//    it: there are no tombstones to filter.
#ifndef LSD_STORE_DELTA_INDEX_H_
#define LSD_STORE_DELTA_INDEX_H_

#include <cstddef>
#include <memory>
#include <unordered_set>
#include <vector>

#include "store/fact.h"
#include "store/fact_store.h"
#include "store/frozen_index.h"
#include "store/triple_index.h"

namespace lsd {

class DeltaIndex final : public FactSource {
 public:
  // Resident bytes per tier, for the `stats` surfaces and E9/E16.
  struct Memory {
    FrozenIndex::Memory frozen;  // summed over all segments
    size_t overlay_bytes = 0;    // overlay trees + the shadow hash set
    size_t runs = 0;             // number of frozen segments (generations)
    size_t total() const { return frozen.total() + overlay_bytes; }
  };

  // Starts with all tiers empty.
  DeltaIndex() = default;

  // Starts from an existing frozen run (one segment).
  explicit DeltaIndex(FrozenIndex base) {
    if (base.size() != 0) {
      frozen_count_ = base.size();
      segments_.push_back(
          std::make_shared<const FrozenIndex>(std::move(base)));
    }
  }

  DeltaIndex(DeltaIndex&&) = default;
  DeltaIndex& operator=(DeltaIndex&&) = default;

  // Explicit copy: segments are immutable and shared by pointer (O(1)
  // per segment); the overlay trees and shadow hash are deep-copied.
  // This is how a shared index is copied before it is written (the
  // store's fact index on a clone's first fact change, the derived tier
  // before closure maintenance, either tier before a compaction swap).
  DeltaIndex Clone() const;

  // Inserts into the overlay. Returns true if the fact was in no tier.
  bool Insert(const Fact& f);

  // Bulk-inserts an SRT-sorted, duplicate-free run (facts already present
  // are skipped). Small runs go to the overlay like Insert; runs of at
  // least kL0MinRun new facts become a new frozen segment, followed by a
  // geometric tail-merge (newest two segments merge while the newest is
  // at least half the previous), so the segment list stays logarithmic in
  // the total size while no single insert rebuilds old generations.
  // Returns the number of facts actually added.
  size_t InsertRun(const std::vector<Fact>& run);

  // Removes the facts of an SRT-sorted, duplicate-free run (facts in no
  // tier are skipped). Overlay facts are erased in place; a segment
  // holding any of them is replaced by a filtered copy
  // (FrozenIndex::Merged with an erase run, linear in that segment), and
  // a segment left empty is dropped. Segments holding none keep their
  // pointer, so clones go on sharing them. Returns the number of facts
  // removed and adds it to erase_count().
  size_t Erase(const std::vector<Fact>& run);

  // O(segments * log deg) + O(1): overlay membership is answered by a
  // hash set shadowing the overlay; each segment is one packed binary
  // search over the source's row slice. The background compactor exists
  // precisely to keep the segment count small on this hot path.
  bool Contains(const Fact& f) const override {
    for (const auto& seg : segments_) {
      if (seg->Contains(f)) return true;
    }
    return overlay_hash_.count(f) != 0;
  }

  // Streams every segment (oldest first), then the overlay. Within each
  // tier the permutation order applies, and there is no global order
  // across tiers — except for the full scan (no position bound), which
  // merges the tiers' streams into SRT order, so a store's fact stream
  // (snapshots, text export, samplers that pick facts by position) does
  // not depend on how its facts are split across tiers.
  bool ForEach(const Pattern& p, const FactVisitor& visit) const override;

  // Exact: the tiers are disjoint, so counts add.
  size_t CountMatches(const Pattern& p) const;
  size_t EstimateMatches(const Pattern& p) const override {
    return CountMatches(p);
  }

  // Planner estimate: disjoint tiers, so each tier's uniformity-scaled
  // estimate (against its own distinct-value statistics) adds.
  double EstimateMatchesBound(const Pattern& p,
                              uint8_t bound_mask) const override;

  // Sorted free-position values of a two-bound pattern: the segments'
  // runs (zero copy when a single segment answers alone, the common
  // post-compaction state) merged with the overlay's.
  bool SortedFreeValues(const Pattern& p, std::vector<EntityId>* scratch,
                        SortedIdSpan* out) const override;
  bool CanSortFreeValues(const Pattern& p) const override {
    return p.BoundCount() == 2;
  }

  Memory MemoryUsage() const;

  // All facts across every tier, in SRT order.
  std::vector<Fact> Materialize() const;

  // Builds the single-segment merge of every tier WITHOUT mutating this
  // index: the background compactor runs this on a pinned (immutable)
  // epoch's tiers, off the commit path.
  FrozenIndex BuildMerged() const;

  // The compactor's publish step. If this index's segment list still
  // starts with exactly `old_segments` (shared_ptr identity — the
  // generations the merge was built from), replaces that prefix with
  // `merged`, drops overlay facts now covered by `merged`, and returns
  // true. Returns false (index untouched) when the prefix diverged —
  // i.e. a foreground tail-merge consumed one of the pinned generations
  // since the plan was made — in which case the caller retries against
  // the current tiers. Segments appended after the pin survive as the
  // suffix; overlay facts inserted after the pin survive the rebuild
  // (they are not in `merged`).
  bool SwapMergedPrefix(
      const std::vector<std::shared_ptr<const FrozenIndex>>& old_segments,
      std::shared_ptr<const FrozenIndex> merged);

  size_t size() const { return frozen_count_ + overlay_.size(); }
  bool empty() const { return size() == 0; }
  size_t frozen_size() const { return frozen_count_; }
  size_t overlay_size() const { return overlay_.size(); }
  size_t segment_count() const { return segments_.size(); }
  // Facts removed by Erase over this index's life (Clone copies it). A
  // compaction plan pinned at an older count may hold an erased overlay
  // fact under an unchanged segment prefix, so the install aborts it.
  uint64_t erase_count() const { return erase_count_; }

  const std::vector<std::shared_ptr<const FrozenIndex>>& segments() const {
    return segments_;
  }
  const TripleIndex& overlay() const { return overlay_; }

  // Runs below this many new facts go to the overlay; larger runs become
  // L0 segments.
  static constexpr size_t kL0MinRun = 256;

 private:
  // Appends the facts of `run` (SRT-sorted, duplicate-free) present in
  // no tier onto `out`, preserving order: AppendMissing chained across
  // the segments, then the overlay's hash probe.
  void AppendMissingAll(const std::vector<Fact>& run,
                        std::vector<Fact>* out) const;
  // The full scan in SRT order: a k-way merge of the tiers' SRT streams.
  bool ForEachSrt(const FactVisitor& visit) const;

  std::vector<std::shared_ptr<const FrozenIndex>> segments_;
  size_t frozen_count_ = 0;  // sum of segment sizes
  uint64_t erase_count_ = 0;
  TripleIndex overlay_;
  // Mirrors the overlay's contents for O(1) membership probes.
  std::unordered_set<Fact, FactHash> overlay_hash_;
};

}  // namespace lsd

#endif  // LSD_STORE_DELTA_INDEX_H_
