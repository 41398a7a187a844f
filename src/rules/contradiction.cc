#include "rules/contradiction.h"

#include <map>
#include <set>
#include <vector>

#include "rules/math_provider.h"
#include "store/entity_table.h"

namespace lsd {

namespace {

// A stored comparator fact is decidable when the virtual layer knows its
// truth value: equality/inequality always, order comparisons only for
// numeric operands.
bool Decidable(const EntityTable& entities, const Fact& f) {
  switch (f.relationship) {
    case kEntEq:
    case kEntNeq:
      return true;
    case kEntLess:
    case kEntGreater:
    case kEntLessEq:
    case kEntGreaterEq:
      return entities.NumericValue(f.source).has_value() &&
             entities.NumericValue(f.target).has_value();
    default:
      return false;
  }
}

}  // namespace

std::vector<IntegrityViolation> FindViolations(const ClosureView& view) {
  std::vector<IntegrityViolation> out;
  const EntityTable& entities = view.store().entities();
  MathProvider math(&view.store());

  // Contradictory relationship pairs declared in the closure.
  std::multimap<EntityId, EntityId> contra;
  view.ForEach(Pattern(kAnyEntity, kEntContra, kAnyEntity),
               [&](const Fact& f) {
                 contra.emplace(f.source, f.target);
                 return true;
               });

  std::set<std::pair<Fact, Fact>, bool (*)(const std::pair<Fact, Fact>&,
                                           const std::pair<Fact, Fact>&)>
      reported([](const std::pair<Fact, Fact>& a,
                  const std::pair<Fact, Fact>& b) {
        OrderSrt less;
        if (a.first != b.first) return less(a.first, b.first);
        return less(a.second, b.second);
      });

  view.ForEach(Pattern(), [&](const Fact& f) {
    // Declared contradictions: (f.s, r', f.t) present for a declared
    // contradictory r'.
    auto range = contra.equal_range(f.relationship);
    for (auto it = range.first; it != range.second; ++it) {
      Fact g(f.source, it->second, f.target);
      if (g == f) continue;
      if (!view.Contains(g)) continue;
      Fact lo = f, hi = g;
      if (OrderSrt()(hi, lo)) std::swap(lo, hi);
      if (!reported.emplace(lo, hi).second) continue;
      out.push_back(IntegrityViolation{
          lo, hi,
          "facts " + lo.DebugString(entities) + " and " +
              hi.DebugString(entities) +
              " hold contradictory relationships"});
    }
    // Built-in arithmetic: a stored, decidable, false comparison.
    if (MathProvider::IsComparator(f.relationship) &&
        Decidable(entities, f) && !math.Holds(f)) {
      // Name the virtual fact it collides with.
      EntityId actual = kEntEq;
      if (!math.Holds(Fact(f.source, kEntEq, f.target))) {
        auto va = entities.NumericValue(f.source);
        auto vb = entities.NumericValue(f.target);
        if (va && vb) {
          actual = (*va < *vb) ? kEntLess : kEntGreater;
        } else {
          actual = kEntNeq;
        }
      }
      Fact g(f.source, actual, f.target);
      out.push_back(IntegrityViolation{
          f, g,
          "fact " + f.DebugString(entities) +
              " contradicts built-in arithmetic (" +
              g.DebugString(entities) + " holds)"});
    }
    return true;
  });
  return out;
}

Status CheckIntegrity(const ClosureView& view) {
  std::vector<IntegrityViolation> violations = FindViolations(view);
  if (violations.empty()) return Status::OK();
  std::string msg = std::to_string(violations.size()) +
                    " integrity violation(s); first: " +
                    violations.front().description;
  return Status::IntegrityViolation(std::move(msg));
}

}  // namespace lsd
