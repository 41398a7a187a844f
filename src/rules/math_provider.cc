#include "rules/math_provider.h"

namespace lsd {

bool MathProvider::IsComparator(EntityId r) {
  return r >= kEntLess && r <= kEntGreaterEq;
}

bool MathProvider::Holds(const Fact& f) const {
  if (!IsComparator(f.relationship)) return false;
  const EntityId a = f.source;
  const EntityId b = f.target;
  auto va = store_->entities().NumericValue(a);
  auto vb = store_->entities().NumericValue(b);
  const bool numeric = va.has_value() && vb.has_value();
  const bool equal = (a == b) || (numeric && *va == *vb);
  switch (f.relationship) {
    case kEntEq:
      return equal;
    case kEntNeq:
      return !equal;
    case kEntLess:
      return numeric && *va < *vb;
    case kEntGreater:
      return numeric && *va > *vb;
    case kEntLessEq:
      return equal || (numeric && *va < *vb);
    case kEntGreaterEq:
      return equal || (numeric && *va > *vb);
    default:
      return false;
  }
}

bool MathProvider::Enumerable(const Pattern& p) const {
  if (!p.RelationshipBound()) return true;  // responds with nothing
  if (!IsComparator(p.relationship)) return true;
  if (p.SourceBound() && p.TargetBound()) return true;
  if (!p.SourceBound() && !p.TargetBound()) return false;
  // One operand bound. Equality enumerates the small twin set; the other
  // comparators sweep the entity table, which is finite — enumerable, but
  // expensive (EstimateMatches steers the join order away from it).
  return true;
}

bool MathProvider::ForEach(const Pattern& p, const FactVisitor& visit) const {
  if (!p.RelationshipBound() || !IsComparator(p.relationship)) {
    return true;  // virtual facts are not browsable
  }
  const EntityId r = p.relationship;
  if (p.SourceBound() && p.TargetBound()) {
    Fact f(p.source, r, p.target);
    if (Holds(f)) return visit(f);
    return true;
  }
  if (!p.SourceBound() && !p.TargetBound()) {
    return true;  // not enumerable; matcher never asks (Enumerable=false)
  }
  // One operand bound: sweep the interned universe. For '=' this yields
  // the entity itself plus numeric twins; for inequalities, every entity
  // standing in the relation.
  const size_t n = store_->universe();
  for (EntityId e = 0; e < n; ++e) {
    Fact f = p.SourceBound() ? Fact(p.source, r, e) : Fact(e, r, p.target);
    if (Holds(f)) {
      if (!visit(f)) return false;
    }
  }
  return true;
}

size_t MathProvider::EstimateMatches(const Pattern& p) const {
  if (!p.RelationshipBound() || !IsComparator(p.relationship)) return 0;
  if (p.SourceBound() && p.TargetBound()) return 1;
  if (p.relationship == kEntEq && (p.SourceBound() || p.TargetBound())) {
    return 2;
  }
  return store_->universe();
}

double MathProvider::EstimateMatchesBound(const Pattern& p,
                                          uint8_t bound_mask) const {
  // Masked positions will hold one (unknown) value at match time, so they
  // count as bound. An unknown relationship might be any comparator, so
  // the comparator-shaped estimates apply as an upper bound.
  const bool rel_known = p.RelationshipBound();
  if (!rel_known && !(bound_mask & kBindRelationship)) return 0.0;
  if (rel_known && !IsComparator(p.relationship)) return 0.0;
  const bool s = p.SourceBound() || (bound_mask & kBindSource);
  const bool t = p.TargetBound() || (bound_mask & kBindTarget);
  if (s && t) return 1.0;
  if (rel_known && p.relationship == kEntEq && (s || t)) return 2.0;
  return static_cast<double>(store_->universe());
}

bool MathProvider::Contradictory(EntityId r1, EntityId r2) {
  if (r1 > r2) std::swap(r1, r2);
  return (r1 == kEntLess && r2 == kEntGreater) ||
         (r1 == kEntLess && r2 == kEntEq) ||
         (r1 == kEntGreater && r2 == kEntEq) ||
         (r1 == kEntEq && r2 == kEntNeq);
}

}  // namespace lsd
