// Virtual mathematical relations (Sec 3.6).
//
// The paper assumes the database "includes all relevant mathematical
// relationships" — (25000, >, 20000), (E1, =, E2) / (E1, /=, E2) for all
// entity pairs — while noting they need not be stored. MathProvider is a
// FactSource that answers these facts on demand:
//
//   =   true iff same entity, or both numeric with equal value
//       (so $25000 = 25000);
//   /=  the complement of =;
//   <,> defined for numeric entities, exactly one holds for each
//       distinct numeric pair;
//   <=, >= derived (the paper: "defined through simple inference rules").
//
// Patterns with an unbound relationship produce nothing: mathematical
// facts are not browsable, matching the paper's remark that they are not
// "ordinary facts". Patterns whose operands are too unbound to enumerate
// finitely report Enumerable() == false and the matcher defers or rejects
// them.
#ifndef LSD_RULES_MATH_PROVIDER_H_
#define LSD_RULES_MATH_PROVIDER_H_

#include "store/entity_table.h"
#include "store/fact_store.h"

namespace lsd {

class MathProvider final : public FactSource {
 public:
  // Reads `store`'s entity table, and sweeps range over its universe
  // (FactStore::universe), so a shared table's later names stay outside
  // a published state's comparator sweeps.
  explicit MathProvider(const FactStore* store) : store_(store) {}

  // True for the six comparator relationship ids.
  static bool IsComparator(EntityId r);

  // Truth of a fully ground comparison; false if r is not a comparator.
  bool Holds(const Fact& f) const;

  bool Contains(const Fact& f) const override { return Holds(f); }
  bool ForEach(const Pattern& p, const FactVisitor& visit) const override;
  bool Enumerable(const Pattern& p) const override;
  size_t EstimateMatches(const Pattern& p) const override;
  double EstimateMatchesBound(const Pattern& p,
                              uint8_t bound_mask) const override;

  // Merge-join hook: a comparator's value set is numeric-ordered, not
  // id-ordered, so it cannot feed an id-sorted intersection; every other
  // pattern produces no mathematical facts at all, hence an empty run.
  bool SortedFreeValues(const Pattern& p, std::vector<EntityId>* scratch,
                        SortedIdSpan* out) const override {
    (void)scratch;
    if (p.RelationshipBound() && IsComparator(p.relationship)) return false;
    *out = SortedIdSpan{};
    return true;
  }
  bool CanSortFreeValues(const Pattern& p) const override {
    return !(p.RelationshipBound() && IsComparator(p.relationship));
  }

  // True when facts (a, r1, b) and (a, r2, b) can never both hold — the
  // built-in contradiction pairs among comparators (Sec 3.5: "(<, ⊥, >)").
  static bool Contradictory(EntityId r1, EntityId r2);

 private:
  const FactStore* store_;
};

}  // namespace lsd

#endif  // LSD_RULES_MATH_PROVIDER_H_
