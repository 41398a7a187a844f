// FactStore: the explicitly asserted fact set (the paper's P, Sec 2.6)
// plus the entity table. Derived facts (closure) and virtual facts (math,
// ISA axioms) are layered on top via the FactSource interface, so query
// evaluation is uniform over "P ∪ derived ∪ virtual".
#ifndef LSD_STORE_FACT_STORE_H_
#define LSD_STORE_FACT_STORE_H_

#include <string_view>
#include <vector>

#include "store/entity_table.h"
#include "store/fact.h"
#include "store/triple_index.h"
#include "util/status.h"

namespace lsd {

// Bit set naming which wildcard positions of a Pattern will hold a
// single, as-yet-unknown value by the time the pattern is matched. The
// query planner estimates an atom's cardinality before the join
// variables feeding it are bound: the pattern carries the constants it
// knows, the mask marks the positions earlier join steps will have
// pinned by then.
enum BoundMask : uint8_t {
  kBindNone = 0,
  kBindSource = 1,
  kBindRelationship = 2,
  kBindTarget = 4,
};

// Uniformity assumption: a position pinned to one (unknown) value keeps
// 1/distinct of the matches seen with that position wildcarded.
inline double ScaleByDistinct(double count, uint8_t bound_mask,
                              size_t distinct_source, size_t distinct_rel,
                              size_t distinct_target) {
  if (bound_mask & kBindSource) {
    count /= static_cast<double>(distinct_source ? distinct_source : 1);
  }
  if (bound_mask & kBindRelationship) {
    count /= static_cast<double>(distinct_rel ? distinct_rel : 1);
  }
  if (bound_mask & kBindTarget) {
    count /= static_cast<double>(distinct_target ? distinct_target : 1);
  }
  return count;
}

// Merges two strictly-ascending runs into one strictly-ascending run in
// `out` (values present in both appear once).
void MergeSortedIds(SortedIdSpan a, SortedIdSpan b,
                    std::vector<EntityId>* out);

// Read-only stream of facts matching a pattern. Implementations:
// IndexSource (a TripleIndex), UnionSource (layering), the rule engine's
// ClosureView, MathProvider, IsaAxiomSource.
class FactSource {
 public:
  virtual ~FactSource() = default;

  // Streams matches; stops early (returning false) if `visit` returns
  // false. Matches may be produced in any order but without duplicates.
  virtual bool ForEach(const Pattern& p, const FactVisitor& visit) const = 0;

  virtual bool Contains(const Fact& f) const = 0;

  // Whether ForEach can produce a finite, meaningful stream for this
  // pattern. Virtual relations (Sec 3.6 mathematical facts) are not
  // enumerable with unbound operands; everything stored is always
  // enumerable.
  virtual bool Enumerable(const Pattern& p) const {
    (void)p;
    return true;
  }

  // Upper-bound estimate of matches, used for join ordering. Defaults to
  // full enumeration.
  virtual size_t EstimateMatches(const Pattern& p) const;

  // Binding-pattern-aware estimate for the planner: positions in
  // `bound_mask` are wildcards in `p` that will hold one unknown value at
  // match time. The default ignores the mask (a safe upper bound);
  // sources with statistics scale the wildcard count down by the number
  // of distinct values in the masked positions.
  virtual double EstimateMatchesBound(const Pattern& p,
                                      uint8_t bound_mask) const {
    (void)bound_mask;
    return static_cast<double>(EstimateMatches(p));
  }

  // Order hook for the merge-join kernel: if `p` has exactly one free
  // position and this source can produce the distinct values of that
  // position in strictly ascending order, fills `out` — borrowing
  // `scratch` for storage unless the values are already contiguous in the
  // source — and returns true. The span stays valid only until `scratch`
  // is next touched (or, for borrowed spans, as long as the source).
  // Because the other two positions are bound, each value corresponds to
  // exactly one fact of the source, so intersecting two such runs visits
  // exactly the bindings nested-loop enumeration would. The default
  // declines, which simply keeps callers on the nested-loop path.
  virtual bool SortedFreeValues(const Pattern& p,
                                std::vector<EntityId>* scratch,
                                SortedIdSpan* out) const {
    (void)p;
    (void)scratch;
    (void)out;
    return false;
  }

  // Capability probe for SortedFreeValues: true iff a SortedFreeValues
  // call with `p` would succeed, decided without materializing anything.
  // The matcher asks this at every recursion node before committing to
  // the merge-join rewrite, so it must stay allocation-free and cheap —
  // a pathological plan revisits the question once per cross-product
  // row. Must never return true when SortedFreeValues would decline.
  virtual bool CanSortFreeValues(const Pattern& p) const {
    (void)p;
    return false;
  }

  std::vector<Fact> Match(const Pattern& p) const;
};

// FactSource over a TripleIndex it does not own.
class IndexSource final : public FactSource {
 public:
  explicit IndexSource(const TripleIndex* index) : index_(index) {}

  bool ForEach(const Pattern& p, const FactVisitor& visit) const override {
    return index_->ForEach(p, visit);
  }
  bool Contains(const Fact& f) const override {
    return index_->Contains(f);
  }
  size_t EstimateMatches(const Pattern& p) const override {
    return index_->CountMatches(p);
  }
  double EstimateMatchesBound(const Pattern& p,
                              uint8_t bound_mask) const override;
  bool SortedFreeValues(const Pattern& p, std::vector<EntityId>* scratch,
                        SortedIdSpan* out) const override {
    return index_->SortedFreeValues(p, scratch, out);
  }
  bool CanSortFreeValues(const Pattern& p) const override {
    return p.BoundCount() == 2;
  }

 private:
  const TripleIndex* index_;
};

// Union of sources. Later sources are deduplicated against earlier ones
// via Contains, so the stream stays duplicate-free even when layers
// overlap.
class UnionSource final : public FactSource {
 public:
  explicit UnionSource(std::vector<const FactSource*> sources)
      : sources_(std::move(sources)) {}

  bool ForEach(const Pattern& p, const FactVisitor& visit) const override;
  bool Contains(const Fact& f) const override;
  bool Enumerable(const Pattern& p) const override;
  size_t EstimateMatches(const Pattern& p) const override;
  double EstimateMatchesBound(const Pattern& p,
                              uint8_t bound_mask) const override;
  bool SortedFreeValues(const Pattern& p, std::vector<EntityId>* scratch,
                        SortedIdSpan* out) const override;
  bool CanSortFreeValues(const Pattern& p) const override;

 private:
  std::vector<const FactSource*> sources_;
};

class FactStore {
 public:
  FactStore() = default;

  FactStore(const FactStore&) = delete;
  FactStore& operator=(const FactStore&) = delete;

  EntityTable& entities() { return entities_; }
  const EntityTable& entities() const { return entities_; }

  // Asserts a fact by ids. Returns true if new.
  bool Assert(const Fact& f);
  // Asserts by names, interning as needed.
  Fact Assert(std::string_view source, std::string_view relationship,
              std::string_view target);

  // Retracts an asserted fact. Returns true if it was present.
  bool Retract(const Fact& f);

  bool Contains(const Fact& f) const { return base_.Contains(f); }

  const TripleIndex& base() const { return base_; }
  size_t size() const { return base_.size(); }

  // A FactSource over the asserted facts only.
  const FactSource& base_source() const { return base_source_; }

  // Relationship classes (Sec 2.2). A relationship is a class
  // relationship iff (r, IN, CLASS-REL) is asserted; membership IN itself
  // is a class relationship by definition (Sec 2.3) and generalization
  // ISA is individual.
  bool IsClassRelationship(EntityId r) const;
  void MarkClassRelationship(EntityId r);
  // IsClassRelationship (1 or 0) for every id below entities().size(),
  // from one scan of the marks instead of an index lookup per id: the
  // rule engine snapshots it for each fixpoint run.
  std::vector<uint8_t> ClassRelationshipMask() const;

  // Monotonically increasing counter bumped on every Assert/Retract;
  // closures cache against it.
  uint64_t version() const { return version_; }
  // Adopts another store's mutation clock. Only for cloning: a clone
  // built by replaying facts has counted the inserts but not the
  // retracts, so two logically different states can share a count
  // (assert-after-retract lands back on the source's number). Adopting
  // the source clock keeps version comparisons meaningful across
  // clones.
  void set_version(uint64_t version) { version_ = version; }

 private:
  EntityTable entities_;
  TripleIndex base_;
  IndexSource base_source_{&base_};
  uint64_t version_ = 0;
};

}  // namespace lsd

#endif  // LSD_STORE_FACT_STORE_H_
