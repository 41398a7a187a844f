// Query evaluation over a closure view (Sec 2.7).
//
// Semantics: the value of a query Q(x1..xn) is the set of entity tuples
// that satisfy it; a closed formula is a proposition with a truth value.
// Per the paper, a template predicate is satisfied when it matches a
// non-empty set of facts in the database closure.
//
// Safety restrictions (reported as InvalidArgument):
//   - every disjunct of an 'or' must have the same free variables;
//   - a 'forall' may only be checked once its other free variables are
//     bound (place it after the atoms that bind them);
//   - comparison atoms need at least one bound operand.
// Universal quantification ranges over the active domain: all regular
// (non-builtin, non-composed) interned entities.
#ifndef LSD_QUERY_EVALUATOR_H_
#define LSD_QUERY_EVALUATOR_H_

#include <string>
#include <vector>

#include "query/ast.h"
#include "rules/matcher.h"
#include "store/entity_table.h"
#include "store/fact_store.h"
#include "util/status.h"

namespace lsd {

struct EvalOptions {
  // Stops enumeration after this many result rows; the result is marked
  // truncated rather than failing.
  size_t max_rows = 1'000'000;

  // Probing only needs to know whether a query succeeds; stop at the
  // first satisfying row. Pushed down into the join: the matcher's
  // enumeration short-circuits at the first complete binding instead of
  // materializing rows that are then discarded.
  bool first_row_only = false;

  // Conjunct ordering policy (ablation E11). The default is the static
  // cost-based, connectivity-aware planner; kBoundCount (the former
  // default) and kFixed remain as ablations.
  JoinOrder join_order = JoinOrder::kEstimatedCost;

  // Order-exploiting merge-join execution path (galloping intersection
  // of sorted frozen-tier runs when two conjuncts share their only free
  // variable). Off is an ablation: results are identical either way.
  bool merge_join = true;

  // Optional shared plan cache for kEstimatedCost. Borrowed; may be
  // null (each conjunction is then planned on the spot). Callers
  // evaluating many same-shaped queries against one closure snapshot
  // (e.g. a probing wave) should share one cache.
  PlannerCache* planner = nullptr;

  // Optional cooperative cancellation / deadline token. Borrowed; must
  // outlive the Evaluate call. Ticked per enumerated fact inside the
  // matcher and per candidate entity in universal quantification; a
  // tripped budget aborts evaluation with its typed error
  // (DeadlineExceeded / ResourceExhausted / Cancelled).
  const QueryBudget* budget = nullptr;
};

struct ResultSet {
  std::vector<std::string> columns;   // free variable names, query order
  std::vector<VarId> column_vars;
  std::vector<std::vector<EntityId>> rows;  // sorted, duplicate-free
  bool is_proposition = false;
  bool truth = false;  // propositions only
  bool truncated = false;

  // The paper's success criterion (Sec 5): non-empty answer / true
  // proposition.
  bool Success() const { return is_proposition ? truth : !rows.empty(); }
};

class Evaluator {
 public:
  // Both borrowed; must outlive the evaluator. Universal quantification
  // ranges over the regular entities with ids below `universe`, the
  // store's FactStore::universe (a published state's is fixed, so names
  // a shared table gains later do not change its answers).
  Evaluator(const FactSource* view, const EntityTable* entities,
            size_t universe)
      : view_(view), entities_(entities), universe_(universe) {}

  StatusOr<ResultSet> Evaluate(const Query& query,
                               const EvalOptions& options = {}) const;

 private:
  const FactSource* view_;
  const EntityTable* entities_;
  size_t universe_;
};

}  // namespace lsd

#endif  // LSD_QUERY_EVALUATOR_H_
