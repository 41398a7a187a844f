// Fixpoint computation of the database closure (Sec 2.6): "the set of
// facts that may be obtained by repeated application of the rules".
//
// The default strategy is semi-naive evaluation: each round only matches
// rule bodies against derivations that are new since the previous round,
// which avoids re-deriving the same facts quadratically. The naive
// strategy (re-match everything each round) is kept as the experiment E1
// baseline.
//
// The semi-naive round is seed-first and parallel: the round's delta
// facts are partitioned across worker threads, each worker unifies every
// delta fact with every pinnable body atom and joins the remaining atoms
// against a read-only snapshot (the store's base index + the derived
// index), accumulating candidates in a thread-local buffer; a
// single-threaded merge then deduplicates and installs the new facts.
// The derived set is identical for every thread count, including 1.
//
// Facts whose relationship is a virtual comparator are special-cased on
// derivation: if the comparison already holds virtually it is not stored;
// otherwise it is stored so the integrity checker can flag it (e.g. an
// integrity rule deriving (-5, >, 0)).
#ifndef LSD_RULES_RULE_ENGINE_H_
#define LSD_RULES_RULE_ENGINE_H_

#include <memory>
#include <vector>

#include "rules/closure_view.h"
#include "rules/math_provider.h"
#include "rules/rule.h"
#include "store/delta_index.h"
#include "store/fact_store.h"
#include "util/budget.h"
#include "util/status.h"

namespace lsd {

struct ClosureOptions {
  enum class Strategy { kSemiNaive, kNaive };
  Strategy strategy = Strategy::kSemiNaive;

  // Safety valves: computing a closure never runs away silently.
  size_t max_derived_facts = 10'000'000;
  size_t max_rounds = 100'000;

  // Worker threads for the semi-naive delta match; 0 means
  // hardware_concurrency. The result is the same for any value; small
  // rounds stay on the calling thread regardless.
  unsigned num_threads = 0;

  // Optional cooperative cancellation / deadline token. Borrowed; must
  // outlive the ComputeClosure call. Checked at every round boundary and
  // (stride-amortized) per delta fact inside each worker; a tripped
  // budget aborts the fixpoint with its typed error. Each worker thread
  // gets its own ticker over the shared token.
  const QueryBudget* budget = nullptr;
};

struct ClosureStats {
  size_t rounds = 0;
  size_t derived_facts = 0;
  // Number of head instantiations attempted (including duplicates).
  size_t candidate_facts = 0;
};

// The materialized closure: two generational tiers — the asserted facts
// the fixpoint ran against (base) and the derived fact index — and the
// queryable view over them (base ∪ derived ∪ virtual layers). A Closure
// is immutable and holds its tiers by shared pointer: the base tier is
// the store's own fact index at the closure's version (FactStore::
// shared_base), and a clone of the database (LooseDb::CloneInto) shares
// both tiers with a Closure of its own. A store mutation yields a new
// Closure over the store's new index and a maintained copy of the
// derived tier (LooseDb::View: RuleEngine::RetractFromClosure for
// retracts, RuleEngine::ExtendClosure for asserts); a compaction yields
// one over merged copies (LooseDb::InstallCompactedTiers).
class Closure {
 public:
  Closure(const FactStore* store, const MathProvider* math,
          std::shared_ptr<const DeltaIndex> base,
          std::shared_ptr<const DeltaIndex> derived, ClosureStats stats)
      : base_(std::move(base)),
        derived_(std::move(derived)),
        stats_(stats),
        view_(store, base_.get(), derived_.get(), math) {}

  Closure(const Closure&) = delete;
  Closure& operator=(const Closure&) = delete;

  const DeltaIndex& base() const { return *base_; }
  const DeltaIndex& derived() const { return *derived_; }
  const std::shared_ptr<const DeltaIndex>& shared_base() const {
    return base_;
  }
  const std::shared_ptr<const DeltaIndex>& shared_derived() const {
    return derived_;
  }
  const ClosureView& view() const { return view_; }
  const ClosureStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const DeltaIndex> base_;
  std::shared_ptr<const DeltaIndex> derived_;
  ClosureStats stats_;
  ClosureView view_;
};

class RuleEngine {
 public:
  // Both pointers are borrowed and must outlive the engine.
  RuleEngine(const FactStore* store, const MathProvider* math)
      : store_(store), math_(math) {}

  // Computes the closure of the store's facts under the enabled rules.
  // Disabled rules (rule.enabled == false) are skipped — this implements
  // the include()/exclude() operators of Sec 6.1. The base tier is the
  // store's fact index itself, shared, not a copy.
  StatusOr<std::unique_ptr<Closure>> ComputeClosure(
      const std::vector<Rule>& rules,
      const ClosureOptions& options = ClosureOptions()) const;

  // Extends a previously computed closure with `new_facts` — the facts
  // asserted since `derived` was fixed, already in `base` (the store's
  // current index) — by running semi-naive rounds whose first delta is
  // the new facts. Because the closure is monotone in the asserted facts
  // (the caller guarantees no rule change and no class-relationship
  // re-marking happened since), every derivation involving at least one
  // new fact is found and everything else is already present, so the
  // result equals ComputeClosure from scratch. A new fact the closure
  // already derived only changes tier: it leaves `derived` and seeds
  // nothing, as its consequences are present. Preconditions
  // (caller-checked): `new_facts` is SRT-sorted and duplicate-free, and
  // the strategy is kSemiNaive. `stats` is the seed closure's stats,
  // accumulated into. Virtual-only rules are skipped (they fired when
  // the seed was computed).
  StatusOr<std::unique_ptr<Closure>> ExtendClosure(
      const std::vector<Rule>& rules, std::shared_ptr<const DeltaIndex> base,
      DeltaIndex derived, ClosureStats stats, std::vector<Fact> new_facts,
      const ClosureOptions& options = ClosureOptions()) const;

  // Removes `retracted` — asserted facts of `old_base` that `base` (the
  // store's current index) no longer holds — from the derived tier, in
  // place, by delete and re-derive (DRed; Gupta, Mumick &
  // Subrahmanian, SIGMOD 1993):
  //   1. over-delete: semi-naive rounds seeded with `retracted` read
  //      `old_base` and the unmodified `derived` and collect every head
  //      found in `derived` (whatever used a deleted fact, transitively);
  //   2. erase the over-deleted facts from `derived`;
  //   3. re-derive: every retracted or over-deleted fact with a one-step
  //      proof over `base` and the surviving `derived` rejoins
  //      `derived` and seeds ordinary extension rounds, which put back
  //      everything else still derivable.
  // The result equals ComputeClosure over `base`'s facts, at a cost
  // proportional to the consequences of `retracted`. Same preconditions
  // as ExtendClosure; `retracted` is SRT-sorted and duplicate-free.
  // Appends every fact removed from the closure's tiers in steps 1-2 to
  // `erased` (re-derived or not): the caller learns which ISA facts may
  // have changed. On error `derived` is left partially updated; callers
  // run this on a copy.
  Status RetractFromClosure(const std::vector<Rule>& rules,
                            const std::vector<Fact>& retracted,
                            const DeltaIndex& old_base,
                            const DeltaIndex& base, DeltaIndex* derived,
                            ClosureStats* stats, std::vector<Fact>* erased,
                            const ClosureOptions& options =
                                ClosureOptions()) const;

 private:
  // What a round does with the heads it instantiates.
  enum class RoundMode {
    kDerive,      // heads in neither tier join `derived`
    kOverDelete,  // heads found in `derived` go to `over_deleted`
  };

  // Shared fixpoint driver: seeds the first round with `delta_facts`
  // and loops until a round keeps no new head. `fire_virtual_only`
  // controls whether rules with no pinnable atom fire in round 1 (fresh
  // closures yes, extensions no). kOverDelete rounds leave both tiers
  // untouched and append each head once to `over_deleted`.
  Status RunFixpoint(const std::vector<Rule>& rules,
                     const ClosureOptions& options, RoundMode mode,
                     const DeltaIndex* base, DeltaIndex* derived,
                     ClosureStats* stats, std::vector<Fact> delta_facts,
                     bool fire_virtual_only,
                     std::vector<Fact>* over_deleted = nullptr) const;

  // Wraps the tiers of a finished fixpoint.
  std::unique_ptr<Closure> MakeClosure(std::shared_ptr<const DeltaIndex> base,
                                       DeltaIndex derived,
                                       ClosureStats stats) const;

  const FactStore* store_;
  const MathProvider* math_;
};

}  // namespace lsd

#endif  // LSD_RULES_RULE_ENGINE_H_
