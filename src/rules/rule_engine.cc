#include "rules/rule_engine.h"

#include <algorithm>
#include <iterator>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rules/matcher.h"

namespace lsd {

namespace {

// True if this body atom addresses a virtual relation: such atoms are
// never new between rounds, so semi-naive evaluation must not pin them
// to the delta.
bool IsVirtualAtom(const Template& t) {
  return t.relationship.is_entity() &&
         MathProvider::IsComparator(t.relationship.entity());
}

// Below this many delta facts per worker a round stays on the calling
// thread: spawning would cost more than the match work it distributes.
constexpr size_t kMinFactsPerWorker = 64;

// One rule prepared for seed-first matching: for every non-virtual
// ("pinnable") body atom, the prebuilt specs of the remaining atoms,
// each joined against the full snapshot once a delta fact has been
// unified into the pinned atom.
struct PinnedRule {
  const Rule* rule = nullptr;
  std::vector<size_t> pins;
  std::vector<std::vector<AtomSpec>> rest;
  // rest_enumerable[k]: the k-th rest conjunction is enumerable under any
  // binding (single atom with a concrete, non-comparator relationship),
  // so the per-seed Enumerable probe can be skipped.
  std::vector<uint8_t> rest_enumerable;
};

// Everything a round's match reads. All pointees are immutable while
// workers run; mutation (installing the merged round output) happens
// single-threaded between rounds.
struct RoundContext {
  const std::vector<PinnedRule>* prules;
  const FactStore* store;
  const MathProvider* math;
  const DeltaIndex* base;
  const DeltaIndex* derived;
  // class_rel[e] caches store->IsClassRelationship(e) for every interned
  // entity: the var filter probes it per candidate binding, and a flat
  // array beats a tree lookup into the store's node-based index. No new
  // entities are interned during a fixpoint, so the snapshot stays valid.
  const std::vector<uint8_t>* class_rel;
  // Shared cancellation token (may be null). Each worker amortizes it
  // through its own BudgetTicker; the step counter is atomic, so the cap
  // holds across threads.
  const QueryBudget* budget = nullptr;
  // Over-delete rounds keep the heads found in `derived` instead of the
  // heads in neither tier.
  bool over_delete = false;
};

// Output buffer of one worker (or of the sequential path). Candidates
// may repeat within and across workers; the round merge deduplicates.
struct WorkerResult {
  std::vector<Fact> candidates;
  size_t candidate_facts = 0;
  Status status;
};

// Per-variable admissibility check against the rule's VarConstraints.
// A concrete functor (not std::function) so the hot loops inline it;
// `active` is false for the common unconstrained rule, letting callers
// skip the check entirely.
struct FilterFn {
  const std::vector<uint8_t>* class_rel = nullptr;
  const Rule* rule = nullptr;
  bool active = false;

  bool operator()(VarId v, EntityId e) const {
    const bool is_class = e < class_rel->size() && (*class_rel)[e] != 0;
    switch (rule->var_constraints[v]) {
      case VarConstraint::kIndividualRelationship:
        return !is_class;
      case VarConstraint::kClassRelationship:
        return is_class;
      case VarConstraint::kNone:
        return true;
    }
    return true;
  }
};

FilterFn MakeFilterFn(const RoundContext& ctx, const Rule& rule) {
  FilterFn f{ctx.class_rel, &rule, false};
  for (VarConstraint c : rule.var_constraints) {
    if (c != VarConstraint::kNone) {
      f.active = true;
      break;
    }
  }
  return f;
}

// Instantiates the rule heads for one admissible body binding. Concrete
// for the same reason as FilterFn: this runs once per candidate binding,
// and the Substitute/Contains chain inlines into the join loops.
struct DeriveFn {
  const MathProvider* math;
  const DeltaIndex* base;
  const DeltaIndex* derived;
  const Rule* rule;
  WorkerResult* out;
  bool over_delete;

  bool operator()(const Binding& binding) const {
    for (const Template& head : rule->head) {
      ++out->candidate_facts;
      Fact f = head.Substitute(binding);
      // A derived comparison that already holds virtually adds nothing;
      // one that does not hold is stored so the integrity checker can
      // report the contradiction.
      if (MathProvider::IsComparator(f.relationship) && math->Holds(f)) {
        continue;
      }
      if (over_delete) {
        // This instantiation used a deleted fact, so a stored derived
        // head may have lost its only proof.
        if (derived->Contains(f)) out->candidates.push_back(f);
        continue;
      }
      if (base->Contains(f) || derived->Contains(f)) continue;
      out->candidates.push_back(f);
    }
    return true;
  }
};

DeriveFn MakeDerive(const RoundContext& ctx, const Rule& rule,
                    WorkerResult* out) {
  return DeriveFn{ctx.math, ctx.base, ctx.derived, &rule, out,
                  ctx.over_delete};
}

// Matches every body atom of `rule` against the full snapshot. Used by
// the naive strategy and, in round 1 of semi-naive, by rules whose body
// is purely virtual (they fire at most once).
Status MatchFullRule(const RoundContext& ctx, const Rule& rule,
                     const FactSource& full, WorkerResult* out) {
  FilterFn filter = MakeFilterFn(ctx, rule);
  VarFilter vf = filter.active ? VarFilter(filter) : VarFilter();
  BindingVisitor derive = MakeDerive(ctx, rule, out);
  Binding binding(rule.num_vars());
  // Closure bodies are 1-2 atoms matched once per round: the dynamic
  // bound-count pick is already optimal there and skips the planner's
  // estimation step.
  return MatchConjunction(full, rule.body, binding, vf, derive,
                          JoinOrder::kBoundCount, /*planner=*/nullptr,
                          /*merge_join=*/true, ctx.budget);
}

// Joins the single remaining body atom against its source under the
// seed binding, calling `derive` for every admissible extension. This is
// the dominant shape (every standard rule has a body of one or two
// atoms), so it bypasses MatchRec's atom-selection scan and runs
// allocation-free per seed.
Status MatchSingleRest(const AtomSpec& atom, bool always_enumerable,
                       Binding& binding, const FilterFn& filter,
                       const DeriveFn& derive, BudgetTicker& ticker) {
  const Pattern p = atom.tmpl.Bind(binding);
  if (!always_enumerable && p.BoundCount() < 3 &&
      !atom.source->Enumerable(p)) {
    return Status::InvalidArgument(
        "unsafe conjunction: remaining atoms have unbound operands of a "
        "non-enumerable (virtual) relation");
  }
  VarId atom_vars[3];
  const size_t num_atom_vars = atom.tmpl.CollectVars(atom_vars);
  Status budget_status = Status::OK();
  atom.source->ForEach(p, [&](const Fact& g) {
    if (!ticker.TickOk()) {
      budget_status = ticker.trip();
      return false;
    }
    VarId newly_bound[3];
    size_t num_newly_bound = 0;
    for (size_t i = 0; i < num_atom_vars; ++i) {
      if (!binding.IsBound(atom_vars[i])) {
        newly_bound[num_newly_bound++] = atom_vars[i];
      }
    }
    if (!atom.tmpl.Unify(g, binding)) return true;  // shared-var clash
    bool admissible = true;
    if (filter.active) {
      for (size_t i = 0; i < num_newly_bound; ++i) {
        const VarId v = newly_bound[i];
        if (!filter(v, binding.Get(v))) {
          admissible = false;
          break;
        }
      }
    }
    if (admissible) derive(binding);
    for (size_t i = 0; i < num_newly_bound; ++i) {
      binding.Unset(newly_bound[i]);
    }
    return true;
  });
  return budget_status;
}

// Seed-first semi-naive match of one contiguous slice of the round's
// delta: each delta fact is unified into each pinnable atom, then the
// remaining atoms join against the snapshot. Reads only the RoundContext
// snapshot; writes only into `out`, so slices run concurrently.
void MatchDeltaSlice(const RoundContext& ctx, const Fact* facts, size_t n,
                     WorkerResult* out) {
  BudgetTicker ticker(ctx.budget);
  for (const PinnedRule& pr : *ctx.prules) {
    const Rule& rule = *pr.rule;
    FilterFn filter = MakeFilterFn(ctx, rule);
    DeriveFn derive = MakeDerive(ctx, rule, out);
    // Type-erased wrappers, needed only by the general (>= 2 rest atoms)
    // path; built lazily since no standard rule takes it.
    VarFilter vf;
    BindingVisitor bv;
    for (size_t k = 0; k < pr.pins.size(); ++k) {
      const Template& pin = rule.body[pr.pins[k]];
      const std::vector<AtomSpec>& rest = pr.rest[k];
      VarId pin_vars[3];
      const size_t num_pin_vars = pin.CollectVars(pin_vars);
      Binding binding(rule.num_vars());
      for (size_t fi = 0; fi < n; ++fi) {
        if (!ticker.TickOk()) {
          out->status = ticker.trip();
          return;
        }
        if (!pin.Unify(facts[fi], binding)) continue;
        bool admissible = true;
        if (filter.active) {
          for (size_t i = 0; i < num_pin_vars; ++i) {
            const VarId v = pin_vars[i];
            if (!filter(v, binding.Get(v))) {
              admissible = false;
              break;
            }
          }
        }
        if (admissible) {
          Status s;
          if (rest.empty()) {
            derive(binding);
          } else if (rest.size() == 1) {
            s = MatchSingleRest(rest[0], pr.rest_enumerable[k] != 0,
                                binding, filter, derive, ticker);
          } else {
            if (!bv) {
              bv = BindingVisitor(derive);
              if (filter.active) vf = VarFilter(filter);
            }
            // Per-delta-fact residual joins: planning each one would
            // cost more than the dynamic bound-count pick saves.
            s = MatchConjunction(rest, binding, vf, bv,
                                 JoinOrder::kBoundCount, /*planner=*/nullptr,
                                 /*merge_join=*/true, ctx.budget);
          }
          if (!s.ok()) {
            out->status = s;
            return;
          }
        }
        for (size_t i = 0; i < num_pin_vars; ++i) {
          binding.Unset(pin_vars[i]);
        }
      }
    }
  }
}

// True if some enabled rule derives `f` in one step from what `full`
// serves: unifying a head with `f` binds the head's variables (each
// checked against the rule's VarConstraints), and the matcher then runs
// the body under that binding, stopping at the first proof.
StatusOr<bool> HasOneStepProof(const RoundContext& ctx,
                               const std::vector<Rule>& rules,
                               const FactSource& full, const Fact& f) {
  for (const Rule& rule : rules) {
    if (!rule.enabled) continue;
    FilterFn filter = MakeFilterFn(ctx, rule);
    VarFilter vf = filter.active ? VarFilter(filter) : VarFilter();
    for (const Template& head : rule.head) {
      Binding binding(rule.num_vars());
      if (!head.Unify(f, binding)) continue;
      VarId head_vars[3];
      const size_t num_head_vars = head.CollectVars(head_vars);
      bool admissible = true;
      for (size_t i = 0; filter.active && i < num_head_vars; ++i) {
        admissible = admissible &&
                     filter(head_vars[i], binding.Get(head_vars[i]));
      }
      if (!admissible) continue;
      bool proved = false;
      LSD_RETURN_IF_ERROR(MatchConjunction(
          full, rule.body, binding, vf,
          [&proved](const Binding&) {
            proved = true;
            return false;
          },
          JoinOrder::kBoundCount, /*planner=*/nullptr,
          /*merge_join=*/true, ctx.budget));
      if (proved) return true;
    }
  }
  return false;
}

// Preconditions shared by the two maintenance entry points.
Status CheckMaintainable(const std::vector<Rule>& rules,
                         const ClosureOptions& options) {
  if (options.strategy != ClosureOptions::Strategy::kSemiNaive) {
    return Status::InvalidArgument(
        "closure maintenance requires the semi-naive strategy");
  }
  for (const Rule& rule : rules) {
    if (!rule.enabled) continue;
    LSD_RETURN_IF_ERROR(rule.Validate());
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<Closure>> RuleEngine::ComputeClosure(
    const std::vector<Rule>& rules, const ClosureOptions& options) const {
  for (const Rule& rule : rules) {
    if (!rule.enabled) continue;
    LSD_RETURN_IF_ERROR(rule.Validate());
  }
  // The store cannot change during the fixpoint, so its own index is the
  // read-only base tier.
  std::shared_ptr<const DeltaIndex> base = store_->shared_base();
  DeltaIndex derived;
  ClosureStats stats;
  std::vector<Fact> delta_facts;
  if (options.strategy == ClosureOptions::Strategy::kSemiNaive) {
    // Round 1 treats every asserted fact as new.
    delta_facts = base->Materialize();
  }
  LSD_RETURN_IF_ERROR(RunFixpoint(rules, options, RoundMode::kDerive,
                                  base.get(), &derived, &stats,
                                  std::move(delta_facts),
                                  /*fire_virtual_only=*/true));
  return MakeClosure(std::move(base), std::move(derived), stats);
}

StatusOr<std::unique_ptr<Closure>> RuleEngine::ExtendClosure(
    const std::vector<Rule>& rules, std::shared_ptr<const DeltaIndex> base,
    DeltaIndex derived, ClosureStats stats, std::vector<Fact> new_facts,
    const ClosureOptions& options) const {
  LSD_RETURN_IF_ERROR(CheckMaintainable(rules, options));
  // The new facts are in the base tier already; those the closure had
  // not derived seed the first semi-naive round. Virtual-only rules are
  // skipped: they fired when the seed closure was computed, and nothing
  // they read has changed.
  std::vector<Fact> moved;
  for (const Fact& f : new_facts) {
    if (derived.Contains(f)) moved.push_back(f);
  }
  if (!moved.empty()) {
    derived.Erase(moved);
    new_facts.erase(std::remove_if(new_facts.begin(), new_facts.end(),
                                   [&moved](const Fact& f) {
                                     return std::binary_search(
                                         moved.begin(), moved.end(), f,
                                         OrderSrt());
                                   }),
                    new_facts.end());
  }
  LSD_RETURN_IF_ERROR(RunFixpoint(rules, options, RoundMode::kDerive,
                                  base.get(), &derived, &stats,
                                  std::move(new_facts),
                                  /*fire_virtual_only=*/false));
  return MakeClosure(std::move(base), std::move(derived), stats);
}

Status RuleEngine::RetractFromClosure(const std::vector<Rule>& rules,
                                      const std::vector<Fact>& retracted,
                                      const DeltaIndex& old_base,
                                      const DeltaIndex& base,
                                      DeltaIndex* derived,
                                      ClosureStats* stats,
                                      std::vector<Fact>* erased,
                                      const ClosureOptions& options) const {
  LSD_RETURN_IF_ERROR(CheckMaintainable(rules, options));
  std::vector<Fact> over_deleted;
  LSD_RETURN_IF_ERROR(RunFixpoint(rules, options, RoundMode::kOverDelete,
                                  &old_base, derived, stats, retracted,
                                  /*fire_virtual_only=*/false,
                                  &over_deleted));
  std::sort(over_deleted.begin(), over_deleted.end(), OrderSrt());
  derived->Erase(over_deleted);

  // Both runs are sorted and disjoint (retracted facts were in the base
  // tier, over-deleted ones in the derived tier).
  std::vector<Fact> gone;
  gone.reserve(retracted.size() + over_deleted.size());
  std::merge(retracted.begin(), retracted.end(), over_deleted.begin(),
             over_deleted.end(), std::back_inserter(gone), OrderSrt());
  const std::vector<uint8_t> class_rel = store_->ClassRelationshipMask();
  RoundContext ctx{nullptr, store_,     math_,         &base,
                   derived, &class_rel, options.budget};
  UnionSource survivors({&base, derived, math_});
  std::vector<Fact> seeds;
  for (const Fact& f : gone) {
    // A fact the current base holds (an over-deleted one that the same
    // batch asserts) stays out of the derived tier; the extension by
    // the batch's asserts seeds it.
    if (base.Contains(f)) continue;
    LSD_ASSIGN_OR_RETURN(bool proved,
                         HasOneStepProof(ctx, rules, survivors, f));
    if (proved) seeds.push_back(f);
  }
  erased->insert(erased->end(), gone.begin(), gone.end());
  derived->InsertRun(seeds);
  return RunFixpoint(rules, options, RoundMode::kDerive, &base, derived,
                     stats, std::move(seeds), /*fire_virtual_only=*/false);
}

std::unique_ptr<Closure> RuleEngine::MakeClosure(
    std::shared_ptr<const DeltaIndex> base, DeltaIndex derived,
    ClosureStats stats) const {
  stats.derived_facts = derived.size();
  return std::make_unique<Closure>(
      store_, math_, std::move(base),
      std::make_shared<const DeltaIndex>(std::move(derived)), stats);
}

Status RuleEngine::RunFixpoint(const std::vector<Rule>& rules,
                               const ClosureOptions& options, RoundMode mode,
                               const DeltaIndex* base, DeltaIndex* derived,
                               ClosureStats* stats,
                               std::vector<Fact> delta_facts,
                               bool fire_virtual_only,
                               std::vector<Fact>* over_deleted) const {
  const bool semi_naive =
      options.strategy == ClosureOptions::Strategy::kSemiNaive;
  // A maintenance run with nothing to seed derives (or deletes) nothing.
  if (semi_naive && !fire_virtual_only && delta_facts.empty()) {
    return Status::OK();
  }
  size_t num_threads = options.num_threads;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }

  UnionSource full({base, derived, math_});
  const std::vector<uint8_t> class_rel = store_->ClassRelationshipMask();
  RoundContext ctx{nullptr, store_,     math_,          base,
                   derived, &class_rel, options.budget,
                   mode == RoundMode::kOverDelete};
  // Over-delete: every head kept so far, so each is kept once.
  std::unordered_set<Fact, FactHash> deleted;

  // Prepare the seed-first plans; rules with no pinnable atom fire (at
  // most) once, in round 1.
  std::vector<PinnedRule> prules;
  std::vector<const Rule*> virtual_only;
  if (semi_naive) {
    for (const Rule& rule : rules) {
      if (!rule.enabled) continue;
      PinnedRule pr;
      pr.rule = &rule;
      for (size_t i = 0; i < rule.body.size(); ++i) {
        if (IsVirtualAtom(rule.body[i])) continue;
        pr.pins.push_back(i);
        std::vector<AtomSpec> rest;
        rest.reserve(rule.body.size() - 1);
        for (size_t j = 0; j < rule.body.size(); ++j) {
          if (j != i) rest.push_back(AtomSpec{rule.body[j], &full});
        }
        const bool enumerable =
            rest.size() == 1 && !IsVirtualAtom(rest[0].tmpl) &&
            rest[0].tmpl.relationship.is_entity();
        pr.rest_enumerable.push_back(enumerable ? 1 : 0);
        pr.rest.push_back(std::move(rest));
      }
      if (pr.pins.empty()) {
        virtual_only.push_back(&rule);
      } else {
        prules.push_back(std::move(pr));
      }
    }
  }
  ctx.prules = &prules;

  bool first_round = true;
  // `stats->rounds` accumulates across a seed closure and its
  // maintenance runs; the convergence valve bounds only this run.
  size_t rounds_this_run = 0;
  for (;;) {
    ++stats->rounds;
    if (++rounds_this_run > options.max_rounds) {
      return Status::FailedPrecondition(
          "closure did not converge within max_rounds");
    }
    // Round boundary: re-check the shared token even when the round's
    // delta is too small for the per-fact tickers to settle a stride.
    if (options.budget != nullptr) {
      LSD_RETURN_IF_ERROR(options.budget->Check());
    }

    WorkerResult seq;
    std::vector<Fact> merged;
    if (!semi_naive) {
      for (const Rule& rule : rules) {
        if (!rule.enabled) continue;
        LSD_RETURN_IF_ERROR(MatchFullRule(ctx, rule, full, &seq));
      }
      stats->candidate_facts += seq.candidate_facts;
      merged = std::move(seq.candidates);
    } else {
      if (first_round && fire_virtual_only) {
        for (const Rule* rule : virtual_only) {
          LSD_RETURN_IF_ERROR(MatchFullRule(ctx, *rule, full, &seq));
        }
      }
      const size_t n = delta_facts.size();
      const size_t workers = std::max<size_t>(
          1, std::min(num_threads, n / kMinFactsPerWorker));
      if (workers == 1) {
        MatchDeltaSlice(ctx, delta_facts.data(), n, &seq);
        LSD_RETURN_IF_ERROR(seq.status);
        stats->candidate_facts += seq.candidate_facts;
        merged = std::move(seq.candidates);
      } else {
        std::vector<WorkerResult> results(workers);
        std::vector<std::thread> threads;
        threads.reserve(workers - 1);
        const size_t chunk = (n + workers - 1) / workers;
        const Fact* facts = delta_facts.data();
        for (size_t w = 1; w < workers; ++w) {
          const size_t begin = std::min(n, w * chunk);
          const size_t count = std::min(n - begin, chunk);
          threads.emplace_back([&ctx, &results, facts, begin, count, w] {
            MatchDeltaSlice(ctx, facts + begin, count, &results[w]);
          });
        }
        MatchDeltaSlice(ctx, facts, std::min(n, chunk), &results[0]);
        for (std::thread& t : threads) t.join();

        // Deterministic single-threaded merge, in worker order.
        stats->candidate_facts += seq.candidate_facts;
        merged = std::move(seq.candidates);
        for (WorkerResult& r : results) {
          LSD_RETURN_IF_ERROR(r.status);
          stats->candidate_facts += r.candidate_facts;
          merged.insert(merged.end(), r.candidates.begin(),
                        r.candidates.end());
        }
      }
    }

    // Dedup candidates (the same fact may be derived along several
    // paths, possibly in different workers) and install the round.
    std::sort(merged.begin(), merged.end(), OrderSrt());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    if (mode == RoundMode::kOverDelete) {
      merged.erase(std::remove_if(merged.begin(), merged.end(),
                                  [&deleted](const Fact& f) {
                                    return !deleted.insert(f).second;
                                  }),
                   merged.end());
      if (merged.empty()) break;
      over_deleted->insert(over_deleted->end(), merged.begin(),
                           merged.end());
    } else {
      if (merged.empty()) break;
      // InsertRun appends an L0 segment (or overlay facts) plus a bounded
      // geometric tail-merge — never a full rebuild, so the commit path
      // does not stall when the derived set crosses a size threshold;
      // merging generations down is the background compactor's job.
      derived->InsertRun(merged);
      if (derived->size() > options.max_derived_facts) {
        return Status::OutOfRange(
            "closure exceeded max_derived_facts (" +
            std::to_string(options.max_derived_facts) +
            "); consider excluding rules or raising the limit");
      }
    }
    delta_facts = std::move(merged);
    first_round = false;
  }
  return Status::OK();
}

}  // namespace lsd
