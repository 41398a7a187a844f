#include "rules/closure_view.h"

#include <unordered_set>

namespace lsd {

ClosureView::ClosureView(const FactStore* store, const DeltaIndex* base,
                         const FactSource* derived, const MathProvider* math)
    : store_(store), base_(base), derived_(derived), math_(math) {}

bool ClosureView::StoredContains(const Fact& f) const {
  if (base_->Contains(f)) return true;
  return derived_ != nullptr && derived_->Contains(f);
}

bool ClosureView::ForEachStored(const Pattern& p,
                                const FactVisitor& visit) const {
  // Base and derived are disjoint by construction (the rule engine never
  // re-derives an asserted fact), so plain concatenation is duplicate
  // free.
  if (!base_->ForEach(p, visit)) return false;
  if (derived_ != nullptr && !derived_->ForEach(p, visit)) return false;
  return true;
}

bool ClosureView::Mentions(EntityId e) const {
  bool found = false;
  auto stop = [&found](const Fact&) {
    found = true;
    return false;
  };
  for (const Pattern& p : {Pattern(e, kAnyEntity, kAnyEntity),
                           Pattern(kAnyEntity, e, kAnyEntity),
                           Pattern(kAnyEntity, kAnyEntity, e)}) {
    ForEachStored(p, stop);
    if (found) return true;
  }
  return false;
}

bool ClosureView::IsaAxiomHolds(const Fact& f) const {
  if (f.relationship != kEntIsa) return false;
  if (f.source == f.target) return true;       // reflexivity
  if (f.target == kEntTop) return true;        // (E, ISA, ANY)
  if (f.source == kEntBottom) return true;     // (NONE, ISA, E)
  return false;
}

bool ClosureView::ForEachIsaAxiom(const Pattern& p,
                                  const FactVisitor& visit) const {
  // Only called with relationship bound to ISA. Emits axiom facts not
  // already stored. The unbounded families ((E,ISA,E) etc.) are swept
  // over the store's entity universe, which is finite.
  auto emit = [&](const Fact& f) {
    if (StoredContains(f)) return true;  // dedup against layer 1-2
    return visit(f);
  };
  const size_t n = store_->universe();
  if (p.SourceBound() && p.TargetBound()) {
    Fact f(p.source, kEntIsa, p.target);
    if (IsaAxiomHolds(f)) return emit(f);
    return true;
  }
  if (p.SourceBound()) {
    if (!emit(Fact(p.source, kEntIsa, p.source))) return false;
    if (p.source != kEntTop) {
      if (!emit(Fact(p.source, kEntIsa, kEntTop))) return false;
    }
    if (p.source == kEntBottom) {
      for (EntityId e = 0; e < n; ++e) {
        if (e == kEntBottom || e == kEntTop) continue;
        if (!emit(Fact(kEntBottom, kEntIsa, e))) return false;
      }
    }
    return true;
  }
  if (p.TargetBound()) {
    if (!emit(Fact(p.target, kEntIsa, p.target))) return false;
    if (p.target != kEntBottom) {
      if (!emit(Fact(kEntBottom, kEntIsa, p.target))) return false;
    }
    if (p.target == kEntTop) {
      for (EntityId e = 0; e < n; ++e) {
        if (e == kEntBottom || e == kEntTop) continue;
        if (!emit(Fact(e, kEntIsa, kEntTop))) return false;
      }
    }
    return true;
  }
  // Fully unbounded (?, ISA, ?): reflexivity plus top/bottom families.
  for (EntityId e = 0; e < n; ++e) {
    if (!emit(Fact(e, kEntIsa, e))) return false;
    if (e != kEntTop) {
      if (!emit(Fact(e, kEntIsa, kEntTop))) return false;
    }
    if (e != kEntBottom) {
      if (!emit(Fact(kEntBottom, kEntIsa, e))) return false;
    }
  }
  return true;
}

bool ClosureView::AnyRewriteForEach(const Pattern& p,
                                    const FactVisitor& visit) const {
  // Positions holding the constant ANY (or NONE in the source) are
  // "generalized away": they match any stored value there, and matches
  // are re-projected onto the constant. Which positions may generalize
  // follows the direction of the inference rules (Sec 3.1): rules 1b/1c
  // generalize the relationship/target upward (to ANY), rule 1a
  // specializes the source downward (to NONE). All three rules carry the
  // "r ∈ R_i" side condition, so facts with class relationships do not
  // participate.
  const bool mask_source = (p.source == kEntBottom);
  const bool mask_rel = (p.relationship == kEntTop);
  const bool mask_target = (p.target == kEntTop);
  Pattern scan = p;
  if (mask_source) scan.source = kAnyEntity;
  if (mask_rel) scan.relationship = kAnyEntity;
  if (mask_target) scan.target = kAnyEntity;

  std::unordered_set<Fact, FactHash> emitted;
  return ForEachStored(scan, [&](const Fact& f) {
    // All three rewrite rules carry the r ∈ R_i side condition.
    if (store_->IsClassRelationship(f.relationship)) return true;
    Fact projected = f;
    if (mask_source) projected.source = p.source;
    if (mask_rel) projected.relationship = kEntTop;
    if (mask_target) projected.target = kEntTop;
    if (!emitted.insert(projected).second) return true;
    if (StoredContains(projected) && projected != f) return true;
    return visit(projected);
  });
}

bool ClosureView::ForEach(const Pattern& p, const FactVisitor& visit) const {
  const bool any_in_position = (p.source == kEntBottom) ||
                               (p.relationship == kEntTop) ||
                               (p.target == kEntTop);
  if (p.RelationshipBound()) {
    if (p.relationship == kEntIsa) {
      if (!ForEachStored(p, visit)) return false;
      return ForEachIsaAxiom(p, visit);
    }
    if (MathProvider::IsComparator(p.relationship)) {
      if (!ForEachStored(p, visit)) return false;
      // Dedup virtual math facts against stored ones.
      return math_->ForEach(p, [&](const Fact& f) {
        if (StoredContains(f)) return true;
        return visit(f);
      });
    }
    if (any_in_position) return AnyRewriteForEach(p, visit);
    return ForEachStored(p, visit);
  }
  // Relationship unbound: virtual layers stay silent; ANY constants in
  // source/target still rewrite.
  if (any_in_position) return AnyRewriteForEach(p, visit);
  return ForEachStored(p, visit);
}

bool ClosureView::Contains(const Fact& f) const {
  Pattern p(f.source, f.relationship, f.target);
  // Found iff enumeration is stopped by an equal fact.
  bool found = false;
  ForEach(p, [&](const Fact& g) {
    if (g == f) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

bool ClosureView::SortedFreeValues(const Pattern& p,
                                   std::vector<EntityId>* scratch,
                                   SortedIdSpan* out) const {
  if (p.BoundCount() != 2) return false;
  // Virtual layers inject values the stored tiers do not stream: ISA
  // axioms and comparator sweeps (when the relationship is bound to one)
  // and the ANY/NONE rewrites (when a literal ANY or NONE sits in a
  // pattern position). Decline those; the matcher falls back to
  // nested-loop enumeration, which handles them.
  if (p.RelationshipBound() &&
      (p.relationship == kEntIsa ||
       MathProvider::IsComparator(p.relationship))) {
    return false;
  }
  if (p.source == kEntBottom || p.relationship == kEntTop ||
      p.target == kEntTop) {
    return false;
  }
  if (derived_ == nullptr) return base_->SortedFreeValues(p, scratch, out);
  // The base run goes into the caller's scratch so that when the derived
  // tier contributes nothing to this pattern — most patterns, since
  // derivation concentrates on a few relationships — the base span
  // (possibly a zero-copy frozen column slice) passes through without
  // another copy.
  SortedIdSpan base_vals;
  if (!base_->SortedFreeValues(p, scratch, &base_vals)) return false;
  std::vector<EntityId> derived_scratch;
  SortedIdSpan derived_vals;
  if (!derived_->SortedFreeValues(p, &derived_scratch, &derived_vals)) {
    return false;
  }
  if (derived_vals.size == 0) {
    *out = base_vals;
    return true;
  }
  if (base_vals.size == 0) {
    scratch->assign(derived_vals.data, derived_vals.data + derived_vals.size);
    out->data = scratch->data();
    out->size = scratch->size();
    return true;
  }
  std::vector<EntityId> merged;
  MergeSortedIds(base_vals, derived_vals, &merged);
  scratch->swap(merged);
  out->data = scratch->data();
  out->size = scratch->size();
  return true;
}

bool ClosureView::CanSortFreeValues(const Pattern& p) const {
  // Mirrors SortedFreeValues' decline conditions exactly, without
  // touching the tiers: the stored layers can always stream a two-bound
  // pattern, so only the virtual-layer conditions can decline.
  if (p.BoundCount() != 2) return false;
  if (p.RelationshipBound() &&
      (p.relationship == kEntIsa ||
       MathProvider::IsComparator(p.relationship))) {
    return false;
  }
  if (p.source == kEntBottom || p.relationship == kEntTop ||
      p.target == kEntTop) {
    return false;
  }
  return true;
}

bool ClosureView::Enumerable(const Pattern& p) const {
  if (p.RelationshipBound() && MathProvider::IsComparator(p.relationship)) {
    return math_->Enumerable(p);
  }
  return true;
}

double ClosureView::EstimateMatchesBound(const Pattern& p,
                                         uint8_t bound_mask) const {
  auto stored = [&](const Pattern& q) {
    double n = base_->EstimateMatchesBound(q, bound_mask);
    if (derived_ != nullptr) {
      n += derived_->EstimateMatchesBound(q, bound_mask);
    }
    return n;
  };
  auto rewrite_scan = [&]() {
    // A literal ANY/NONE position matches every stored value there, so
    // the real work is the wildcarded scan (see AnyRewriteForEach).
    Pattern scan = p;
    if (p.source == kEntBottom) scan.source = kAnyEntity;
    if (p.relationship == kEntTop) scan.relationship = kAnyEntity;
    if (p.target == kEntTop) scan.target = kAnyEntity;
    return stored(scan);
  };
  if (p.RelationshipBound()) {
    if (p.relationship == kEntIsa) {
      const bool s = p.SourceBound() || (bound_mask & kBindSource);
      const bool t = p.TargetBound() || (bound_mask & kBindTarget);
      // Reflexivity plus top/bottom axioms: a handful once an operand is
      // pinned, an entity-table sweep otherwise.
      const double axioms =
          (s || t) ? 2.0 : 2.0 * static_cast<double>(store_->universe());
      return stored(p) + axioms;
    }
    if (MathProvider::IsComparator(p.relationship)) {
      return stored(p) + math_->EstimateMatchesBound(p, bound_mask);
    }
    if (p.relationship == kEntTop || p.source == kEntBottom ||
        p.target == kEntTop) {
      return rewrite_scan();
    }
    return stored(p);
  }
  if (p.source == kEntBottom || p.target == kEntTop) return rewrite_scan();
  if (bound_mask & kBindRelationship) {
    // The relationship will hold some unknown value, which may land on
    // the virtual math layer; price that possibility in as an upper
    // bound.
    return stored(p) + math_->EstimateMatchesBound(p, bound_mask);
  }
  return stored(p);
}

size_t ClosureView::EstimateMatches(const Pattern& p) const {
  size_t n = base_->CountMatches(p);
  if (derived_ != nullptr) n += derived_->EstimateMatches(p);
  if (p.RelationshipBound() && MathProvider::IsComparator(p.relationship)) {
    n += math_->EstimateMatches(p);
  } else if (p.RelationshipBound() && p.relationship == kEntIsa) {
    n += 2;  // reflexive + top axiom, order-of-magnitude only
  }
  return n;
}

}  // namespace lsd
