// ClosureView: the queryable database closure (Sec 2.6) as a FactSource.
//
// Layers, deduplicated:
//   1. asserted facts (the store's base tier);
//   2. derived facts (rule engine output);
//   3. virtual mathematical relations (MathProvider, Sec 3.6);
//   4. generalization axioms (Sec 2.3): (E, ISA, E) reflexivity,
//      (E, ISA, ANY) and (NONE, ISA, E) for the top/bottom entities;
//   5. Δ-generalization semantics: a pattern position holding the
//      constant ANY matches "related somehow". E.g. (?Z, ANY, FREE)
//      holds iff some fact (z, r, FREE) exists — exactly what rule (1)
//      implies, since every relationship r satisfies (r, ISA, ANY).
//      Matches are emitted with ANY in that position so unification with
//      the ANY constant succeeds.
//
// Virtual layers (3)-(4) only respond when the pattern's relationship is
// bound (to a comparator resp. ISA): browsing with an unbound
// relationship shows stored information only, matching the paper's
// treatment of mathematical facts as non-ordinary.
#ifndef LSD_RULES_CLOSURE_VIEW_H_
#define LSD_RULES_CLOSURE_VIEW_H_

#include "rules/math_provider.h"
#include "store/delta_index.h"
#include "store/fact_store.h"

namespace lsd {

class ClosureView final : public FactSource {
 public:
  // All pointers are borrowed and must outlive the view. `base` holds
  // exactly the store's asserted facts (a Closure passes its base tier,
  // which it shares with the store). `derived` is any FactSource
  // holding the rule engine's output (a Closure's derived DeltaIndex, or
  // any index in tests); it may be null (no rules applied). The store
  // answers class-relationship marks and bounds the entity universe.
  ClosureView(const FactStore* store, const DeltaIndex* base,
              const FactSource* derived, const MathProvider* math);

  bool Contains(const Fact& f) const override;
  bool ForEach(const Pattern& p, const FactVisitor& visit) const override;
  bool Enumerable(const Pattern& p) const override;
  size_t EstimateMatches(const Pattern& p) const override;

  // Planner estimate mirroring ForEach's dispatch: ISA axioms and
  // comparator sweeps are priced in, and a pattern holding a literal
  // ANY/NONE is estimated as the wildcarded rewrite scan it triggers
  // (EstimateMatches prices the literal range, which is usually empty —
  // exactly wrong for probing waves that generalize toward ANY).
  double EstimateMatchesBound(const Pattern& p,
                              uint8_t bound_mask) const override;

  // Sorted free-position values of a two-bound pattern, merged across the
  // stored tiers. Declines when a virtual layer (ISA axioms, comparator
  // sweeps, ANY/NONE rewrites) would add values the stored tiers do not
  // stream.
  bool SortedFreeValues(const Pattern& p, std::vector<EntityId>* scratch,
                        SortedIdSpan* out) const override;
  bool CanSortFreeValues(const Pattern& p) const override;

  const FactStore& store() const { return *store_; }

  // Enumerates stored (base ∪ derived) matches only: no virtual layer
  // and no ANY/NONE rewrite. The generalization lattice reads the ISA
  // slice this way.
  bool ForEachStored(const Pattern& p, const FactVisitor& visit) const;

  // True if some stored fact names `e` in any position; probing reports
  // entities that no fact names as "no such database entities" (Sec 5).
  // One existence check per position.
  bool Mentions(EntityId e) const;

 private:
  bool StoredContains(const Fact& f) const;

  // ISA axiom handling (layer 4).
  bool IsaAxiomHolds(const Fact& f) const;
  bool ForEachIsaAxiom(const Pattern& p, const FactVisitor& visit) const;

  // ANY-rewrite handling (layer 5).
  bool AnyRewriteForEach(const Pattern& p, const FactVisitor& visit) const;

  const FactStore* store_;
  const DeltaIndex* base_;
  const FactSource* derived_;
  const MathProvider* math_;
};

}  // namespace lsd

#endif  // LSD_RULES_CLOSURE_VIEW_H_
