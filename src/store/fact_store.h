// FactStore: the explicitly asserted fact set (the paper's P, Sec 2.6)
// plus the entity table. Derived facts (closure) and virtual facts (math,
// ISA axioms) are layered on top via the FactSource interface, so query
// evaluation is uniform over "P ∪ derived ∪ virtual".
#ifndef LSD_STORE_FACT_STORE_H_
#define LSD_STORE_FACT_STORE_H_

#include <atomic>
#include <memory>
#include <string_view>
#include <vector>

#include "store/entity_table.h"
#include "store/fact.h"
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
// FrozenIndex and DeltaIndex (stored facts), UnionSource (layering), the
// rule engine's ClosureView, MathProvider.
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

class DeltaIndex;

// The asserted facts P and the entity table they are written in. P is
// held once, in a generational DeltaIndex (frozen CSR segments plus a
// small overlay) that the closure's base tier reads directly: a closure
// computed over this store, a clone of the store (ShareFrom) and every
// serving epoch hold the same index by pointer, and a mutation copies
// it first (its segment pointers and its overlay) if anyone else holds
// it. The entity table is shared the same way; it is append-only and
// internally synchronized, so ids mean the same thing in every store
// that shares it.
class FactStore {
 public:
  FactStore();
  ~FactStore();

  FactStore(const FactStore&) = delete;
  FactStore& operator=(const FactStore&) = delete;

  EntityTable& entities() { return *entities_; }
  const EntityTable& entities() const { return *entities_; }

  // Asserts a fact by ids. Returns true if new.
  bool Assert(const Fact& f);
  // Asserts by names, interning as needed.
  Fact Assert(std::string_view source, std::string_view relationship,
              std::string_view target);
  // Asserts the facts of `run` (any order, duplicates allowed) that are
  // not yet asserted: a run of DeltaIndex::kL0MinRun new facts or more
  // lands as one frozen segment, so a bulk load never grows the overlay.
  // Returns the number of facts added.
  size_t AssertRun(std::vector<Fact> run);

  // Retracts an asserted fact. Returns true if it was present.
  bool Retract(const Fact& f);
  // Retracts the asserted facts of `run` (any order, duplicates allowed)
  // in one pass: a frozen segment holding some of them is rewritten
  // once, however many it holds. Returns the number of facts removed.
  size_t RetractRun(std::vector<Fact> run);

  bool Contains(const Fact& f) const;

  // The asserted facts. A full scan streams them in SRT order.
  const DeltaIndex& base() const { return *facts_; }
  size_t size() const;

  // The index itself, for holders that must keep this state of P after
  // the store moves on (a closure's base tier). Marks it shared: the
  // store's next mutation copies it.
  std::shared_ptr<const DeltaIndex> shared_base() const {
    facts_shared_.store(true);
    return facts_;
  }
  // Installs a rewritten layout of the same facts (a compaction of
  // base(); the caller guarantees equal contents). The version is kept.
  void ReplaceBase(std::shared_ptr<const DeltaIndex> facts);
  // Rewrites the fact index as one frozen segment when it has more than
  // one tier (segments or an overlay): the layout a full closure
  // recompute probes fastest. The version is kept.
  void Compact();

  // Makes this store a copy of `other` that shares its entity table and
  // its fact index (copied on this store's first mutation), adopting its
  // mutation clock and universe. O(1).
  void ShareFrom(const FactStore& other);

  // Relationship classes (Sec 2.2). A relationship is a class
  // relationship iff (r, IN, CLASS-REL) is asserted; membership IN itself
  // is a class relationship by definition (Sec 2.3) and generalization
  // ISA is individual.
  bool IsClassRelationship(EntityId r) const;
  void MarkClassRelationship(EntityId r);
  // IsClassRelationship (1 or 0) for every id below entities().size(),
  // from one scan of the marks instead of a lookup per id: the rule
  // engine snapshots it for each fixpoint run.
  std::vector<uint8_t> ClassRelationshipMask() const;

  // The entity universe reads range over (the paper's E, Sec 2): the
  // ids below universe(). While fixed (FixUniverse, the serving layer's
  // publish barrier) it is the table size at that moment, so names that
  // a shared table gains later — interned by a later commit, by another
  // session's query, or by a failed commit — stay outside this state's
  // universal quantification, ISA-axiom and comparator sweeps. A copy
  // (ShareFrom) adopts it; an assert extends it to cover the asserted
  // fact's names, and a retract, which brings in no names, keeps it.
  size_t universe() const {
    return universe_ != 0 ? universe_ : entities_->size();
  }
  void FixUniverse() { universe_ = entities_->size(); }
  void ReleaseUniverse() { universe_ = 0; }

  // Monotonically increasing counter bumped on every fact added or
  // removed; closures cache against it. Copies (ShareFrom) adopt it, so
  // version comparisons stay meaningful across them.
  uint64_t version() const { return version_; }

 private:
  // The fact index, copied first if anyone else holds it.
  DeltaIndex* MutableBase();
  // Extends a fixed universe to cover the ids of `f`.
  void Cover(const Fact& f);

  std::shared_ptr<EntityTable> entities_;
  std::shared_ptr<const DeltaIndex> facts_;
  // Set once facts_ has been handed out (shared_base, ShareFrom); the
  // next mutation then copies instead of writing in place. Every index
  // facts_ points at was created non-const, so an unshared one may be
  // written through. Atomic because readers of a published state may
  // hand its index out concurrently (a what-if per session).
  mutable std::atomic<bool> facts_shared_{false};
  uint64_t version_ = 0;
  size_t universe_ = 0;  // 0: the live table size
};

}  // namespace lsd

#endif  // LSD_STORE_FACT_STORE_H_
