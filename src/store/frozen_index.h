// Read-only columnar triple index: the "frozen" storage strategy of
// experiment E9 (DESIGN.md). Built once from a fact set; answers the same
// 8 binding patterns as TripleIndex, but instead of three full sorted
// Fact arrays it keeps one canonical SRT-sorted store in CSR
// (compressed sparse row) form:
//
//   rel_[i], tgt_[i]   relationship/target columns of row i (SRT order);
//   src_offsets_[s]    rows of source s are [src_offsets_[s],
//                      src_offsets_[s+1]) — the source column is implicit,
//                      which is what buys the memory reduction;
//   rts_perm_          row ids in (relationship, target, source) order,
//                      fronted by rel_offsets_ (relationship id -> range);
//   tsr_perm_          row ids in (target, source, relationship) order,
//                      fronted by tgt_offsets_ (target id -> range).
//
// Entity ids are dense (interned), so the offset tables are plain arrays
// indexed by id: every bound-first-position lookup is an O(1) slice, not
// an O(log n) binary search, and iteration over a slice is branch-free
// pointer arithmetic. Per fact this costs 8 bytes of columns + 8 bytes of
// permutations (vs 36 bytes for three Fact copies); the offset tables add
// O(max entity id) once per index, not per fact.
//
// FrozenIndex is a FactSource, so frozen runs can be spliced directly
// into match pipelines (the rule engine snapshots the asserted facts
// into a frozen run for the duration of a closure fixpoint, and the
// two-tier DeltaIndex keeps its base tier frozen). CountMatches is exact:
// O(1) for single-bound patterns (an offset subtraction) and O(log) for
// the rest — this is what makes the matcher's kEstimatedCost join order
// affordable over this tier.
#ifndef LSD_STORE_FROZEN_INDEX_H_
#define LSD_STORE_FROZEN_INDEX_H_

#include <cstdint>
#include <vector>

#include "store/fact.h"
#include "store/fact_store.h"

namespace lsd {

class TripleIndex;

class FrozenIndex : public FactSource {
 public:
  // Resident bytes per tier component, for the `stats` surfaces and the
  // E9 memory accounting.
  struct Memory {
    size_t run_bytes = 0;      // canonical rel/tgt columns
    size_t perm_bytes = 0;     // RTS + TSR permutation arrays
    size_t offset_bytes = 0;   // three CSR offset tables
    size_t total() const { return run_bytes + perm_bytes + offset_bytes; }
  };

  // An empty run.
  FrozenIndex() = default;

  // Builds from an arbitrary fact list; duplicates are removed.
  explicit FrozenIndex(std::vector<Fact> facts);

  // Convenience: freezes the contents of a dynamic index.
  static FrozenIndex FromTripleIndex(const TripleIndex& index);

  // Builds (base − erase) ∪ run in linear time (plus sorting the run):
  // the canonical columns are a two-way merge that skips the erased
  // rows, and the permutations are rebuilt by merging the base's
  // permutation streams (erased rows dropped) with the sorted run
  // through an old-row -> new-row mapping. `run` must be SRT-sorted,
  // duplicate-free, and disjoint from `base`; `erase` must be SRT-sorted
  // (facts not in `base` are ignored). DeltaIndex rewrites segments
  // with it: the insert path's tail merge, and Erase.
  static FrozenIndex Merged(const FrozenIndex& base, std::vector<Fact> run,
                            const std::vector<Fact>& erase = {});

  // Inline: Contains is the engine's per-candidate dedup probe and runs
  // millions of times per closure. The source offset narrows the search
  // to one row range; the (relationship, target) pair packs into one
  // 64-bit key, so the binary search is over deg(source), not n.
  bool Contains(const Fact& f) const override {
    const size_t s = f.source;
    if (s + 1 >= src_offsets_.size()) return false;
    uint32_t lo = src_offsets_[s];
    uint32_t hi = src_offsets_[s + 1];
    const uint64_t key = PackRt(f.relationship, f.target);
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      const uint64_t k = PackRt(rel_[mid], tgt_[mid]);
      if (k < key) {
        lo = mid + 1;
      } else if (k > key) {
        hi = mid;
      } else {
        return true;
      }
    }
    return false;
  }

  bool ForEach(const Pattern& p, const FactVisitor& visit) const override;

  // Exact match count: an offset subtraction for single-bound patterns,
  // two binary searches within one slice otherwise.
  size_t CountMatches(const Pattern& p) const;
  size_t EstimateMatches(const Pattern& p) const override {
    return CountMatches(p);
  }

  // Planner estimate: the exact wildcard count scaled down by the
  // distinct-value statistics gathered at build time (uniformity
  // assumption per masked position).
  double EstimateMatchesBound(const Pattern& p,
                              uint8_t bound_mask) const override;

  // Sorted distinct values of the single free position of a two-bound
  // pattern. (s, r, ?) is a zero-copy slice of the target column; the
  // other shapes decode one permutation slice into `scratch`.
  bool SortedFreeValues(const Pattern& p, std::vector<EntityId>* scratch,
                        SortedIdSpan* out) const override;
  bool CanSortFreeValues(const Pattern& p) const override {
    return p.BoundCount() == 2;
  }

  // Appends the facts of `run` (SRT-sorted, duplicate-free) that are NOT
  // in this index onto `out`, preserving order: a batched set difference
  // that walks each source's row slice once instead of binary-searching
  // per fact. This is the closure engine's round dedup.
  void AppendMissing(const std::vector<Fact>& run,
                     std::vector<Fact>* out) const;

  // Distinct values per position, counted once at build time.
  size_t DistinctSources() const { return distinct_sources_; }
  size_t DistinctRelationships() const { return distinct_rels_; }
  size_t DistinctTargets() const { return distinct_targets_; }

  // All facts in SRT order, reconstructed from the columns.
  std::vector<Fact> Materialize() const;

  // Strategy for whole-relationship scans, (?, r, ?). kAuto picks per
  // query: dense relationships stream the canonical columns directly
  // (sequential reads, sources decoded for free from the CSR walk),
  // sparse ones gather through the RTS permutation slice. The forced
  // modes exist for benchmarks and tests; note the two paths emit in
  // different (both valid) orders — direct is (source, target) within
  // the relationship, gather is (target, source).
  enum class RelScanMode { kAuto, kDirect, kGather };
  void set_rel_scan_mode(RelScanMode mode) { rel_scan_mode_ = mode; }

  Memory MemoryUsage() const;

  size_t size() const { return rel_.size(); }

  // Forward cursor over the rows in SRT order (the canonical columns),
  // for merging this segment's full scan with other SRT-ordered streams
  // (DeltaIndex's ordered scan).
  class SrtCursor {
   public:
    explicit SrtCursor(const FrozenIndex* index) : index_(index) { Settle(); }
    bool done() const { return row_ >= index_->rel_.size(); }
    Fact fact() const {
      return Fact(source_, index_->rel_[row_], index_->tgt_[row_]);
    }
    void Next() {
      ++row_;
      Settle();
    }

   private:
    // Advances the source past the sources whose rows end at or before
    // the current row.
    void Settle() {
      while (!done() && index_->src_offsets_[source_ + 1] <= row_) {
        ++source_;
      }
    }

    const FrozenIndex* index_;
    uint32_t row_ = 0;
    EntityId source_ = 0;
  };

 private:
  static uint64_t PackRt(EntityId r, EntityId t) {
    return (static_cast<uint64_t>(r) << 32) | t;
  }

  void BuildFromSorted(std::vector<Fact> facts);
  void RecomputeDistinct();

  // Canonical SRT-sorted store (CSR over the source).
  std::vector<EntityId> rel_;
  std::vector<EntityId> tgt_;
  std::vector<uint32_t> src_offsets_;

  // (r, t, s)-ordered row ids, with a CSR table over the relationship.
  std::vector<uint32_t> rts_perm_;
  std::vector<uint32_t> rel_offsets_;

  // (t, s, r)-ordered row ids, with a CSR table over the target.
  std::vector<uint32_t> tsr_perm_;
  std::vector<uint32_t> tgt_offsets_;

  size_t distinct_sources_ = 0;
  size_t distinct_rels_ = 0;
  size_t distinct_targets_ = 0;

  RelScanMode rel_scan_mode_ = RelScanMode::kAuto;
};

}  // namespace lsd

#endif  // LSD_STORE_FROZEN_INDEX_H_
