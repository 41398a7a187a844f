// Dynamic triple index over facts.
//
// Keeps three ordered permutations (SRT, RTS, TSR) so that every one of
// the 8 binding patterns of a (source, relationship, target) pattern is
// answered by a contiguous range scan of one permutation:
//
//   bound positions        index   prefix
//   s r t (containment)    SRT     exact
//   s r                    SRT     (s, r)
//   s                      SRT     (s)
//   r t                    RTS     (r, t)
//   r                      RTS     (r)
//   t                      TSR     (t)
//   s t                    TSR     (t, s)
//   (none)                 SRT     full scan
#ifndef LSD_STORE_TRIPLE_INDEX_H_
#define LSD_STORE_TRIPLE_INDEX_H_

#include <cstddef>
#include <set>
#include <vector>

#include "store/fact.h"

namespace lsd {

class TripleIndex {
 public:
  TripleIndex() = default;

  TripleIndex(const TripleIndex&) = delete;
  TripleIndex& operator=(const TripleIndex&) = delete;
  TripleIndex(TripleIndex&&) = default;
  TripleIndex& operator=(TripleIndex&&) = default;

  // Explicit deep copy (copy construction stays deleted so accidental
  // copies cannot sneak into hot paths). DeltaIndex::Clone uses this to
  // duplicate its overlay.
  void CopyFrom(const TripleIndex& other) {
    srt_ = other.srt_;
    rts_ = other.rts_;
    tsr_ = other.tsr_;
    distinct_sources_ = other.distinct_sources_;
    distinct_rels_ = other.distinct_rels_;
    distinct_targets_ = other.distinct_targets_;
  }

  // Inserts a fact. Returns true if it was new.
  bool Insert(const Fact& f);

  // Removes a fact. Returns true if it was present.
  bool Erase(const Fact& f);

  bool Contains(const Fact& f) const;

  // Streams all facts matching `p` in the order of the chosen permutation.
  // Stops early (and returns false) if the visitor returns false.
  bool ForEach(const Pattern& p, const FactVisitor& visit) const;

  // Convenience: collects matches into a vector.
  std::vector<Fact> Match(const Pattern& p) const;

  // Number of facts matching `p`. Fully-bound and prefix-bound patterns
  // are answered from range bounds (a walk over the matching range only,
  // with no per-fact pattern test). Used by the evaluator's selectivity
  // heuristic.
  size_t CountMatches(const Pattern& p) const;

  // Number of distinct values in each position, maintained incrementally
  // (an O(log n) neighbor probe per Insert/Erase). These feed the query
  // planner's uniformity-scaled cardinality estimates.
  size_t DistinctSources() const { return distinct_sources_; }
  size_t DistinctRelationships() const { return distinct_rels_; }
  size_t DistinctTargets() const { return distinct_targets_; }

  // Sorted distinct values of the single free position of a two-bound
  // pattern, collected into `scratch` from the permutation whose range
  // walk yields that position in ascending order. Same contract as
  // FactSource::SortedFreeValues (DeltaIndex's overlay answers here).
  bool SortedFreeValues(const Pattern& p, std::vector<EntityId>* scratch,
                        SortedIdSpan* out) const;

  // Estimated resident bytes: each std::set node holds a Fact plus the
  // red-black tree overhead (three pointers and a color word on the
  // usual implementations).
  size_t MemoryUsage() const {
    constexpr size_t kNodeBytes = sizeof(Fact) + 4 * sizeof(void*);
    return 3 * srt_.size() * kNodeBytes;
  }

  size_t size() const { return srt_.size(); }
  bool empty() const { return srt_.empty(); }
  void Clear();

  // The facts in SRT order, for callers that merge this index's full
  // scan with other SRT-ordered streams (DeltaIndex's ordered scan).
  const std::set<Fact, OrderSrt>& srt() const { return srt_; }

 private:
  std::set<Fact, OrderSrt> srt_;
  std::set<Fact, OrderRts> rts_;
  std::set<Fact, OrderTsr> tsr_;
  size_t distinct_sources_ = 0;
  size_t distinct_rels_ = 0;
  size_t distinct_targets_ = 0;
};

}  // namespace lsd

#endif  // LSD_STORE_TRIPLE_INDEX_H_
