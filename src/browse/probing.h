// Browsing by probing (Sec 5): every failure of a query is interpreted
// as overqualification, and a set of minimally broader "retraction"
// queries is attempted automatically.
//
// Broadness follows the inference rules (1) of Sec 3.1:
//   - an entity in a *source* position is replaced by a minimal
//     specialization (facts about a class hold of its subclasses, so the
//     narrower class makes a weaker claim: "all freshmen love z" is
//     broader than "all students love z");
//   - an entity in a *relationship* or *target* position is replaced by
//     a minimal generalization ("likes" is broader than "loves").
// Terminal substitutions reach NONE resp. ANY; a template whose every
// position is a variable, ANY or NONE is deleted outright (Sec 5.2).
//
// Retraction proceeds in waves: wave k holds the queries k substitutions
// away from the original. The first wave containing a successful query
// stops the search, and the successes are presented as the paper's menu.
#ifndef LSD_BROWSE_PROBING_H_
#define LSD_BROWSE_PROBING_H_

#include <string>
#include <vector>

#include "query/ast.h"
#include "query/evaluator.h"
#include "rules/closure_view.h"
#include "util/status.h"

namespace lsd {

// The covering relation ("minimal generalization", Sec 5.1) of the
// closure's generalization order, restricted to regular entities.
// Hierarchy roots cover to ANY; leaves specialize to NONE.
//
// Build reads nothing but the stored ISA facts of the closure's two
// tiers (the ISA axioms are reflexive or involve ANY or NONE, none of
// which the lattice keeps), so a lattice stays exact for every closure
// with the same ISA facts: LooseDb shares one across epochs until the
// generalization clock moves (core/loose_db.h). Immutable once built.
class GeneralizationLattice {
 public:
  static GeneralizationLattice Build(const ClosureView& view);

  // Minimal generalizations of e, ascending. Never empty for a regular
  // entity (falls back to {ANY}); empty for ANY itself and for builtins.
  std::vector<EntityId> MinimalGeneralizations(EntityId e) const;

  // Minimal specializations of e, ascending. Falls back to {NONE}; empty
  // for NONE itself and for builtins other than ANY.
  std::vector<EntityId> MinimalSpecializations(EntityId e) const;

 private:
  // Covers as CSR rows indexed by EntityId: the covers above e are
  // up_[up_offsets_[e] .. up_offsets_[e + 1]), the covers below it the
  // same slice of down_. Ids past the tables take part in no strict ISA
  // fact between regular entities.
  std::vector<uint32_t> up_offsets_;
  std::vector<EntityId> up_;
  std::vector<uint32_t> down_offsets_;
  std::vector<EntityId> down_;
};

// One substitution step on the way from the original query to a
// retraction query.
struct Substitution {
  enum class Kind : uint8_t {
    kGeneralize,      // relationship/target: entity -> broader entity
    kSpecialize,      // source: entity -> narrower entity
    kDeleteTemplate,  // a fully weakened template was dropped
  };
  Kind kind = Kind::kGeneralize;
  EntityId from = 0;
  EntityId to = 0;           // unused for kDeleteTemplate
  std::string deleted_text;  // rendered template, kDeleteTemplate only

  // "FRESHMAN instead of STUDENT" / "without (?Z, ANY, FREE)".
  std::string Describe(const EntityTable& entities) const;
};

struct ProbeOptions {
  int max_waves = 4;
  size_t max_queries = 20'000;  // total retraction queries attempted
  size_t max_rows_per_result = 1'000;

  // Conjunct ordering for the probe evaluations (ablation E11).
  JoinOrder join_order = JoinOrder::kEstimatedCost;

  // Optional cooperative cancellation / deadline token. Borrowed; must
  // outlive the Probe call. Threaded into every candidate evaluation and
  // checked between candidates and at wave boundaries; a tripped budget
  // aborts the probe with its typed error.
  const QueryBudget* budget = nullptr;
};

struct ProbeSuccess {
  Query query;
  std::vector<Substitution> substitutions;
  ResultSet result;
};

struct ProbeResult {
  bool original_succeeded = false;
  ResultSet original_result;

  int waves = 0;                 // waves explored (0 if original succeeded)
  size_t queries_attempted = 0;  // retraction queries evaluated
  std::vector<ProbeSuccess> successes;  // of the first successful wave
  bool exhausted = false;  // search space emptied with no success

  // Entities of the original query that appear in no stored fact — the
  // paper's "no such database entities" diagnosis (ClosureView::Mentions).
  std::vector<EntityId> unknown_entities;

  // Renders the paper's menu:
  //   Query failed. Retrying...
  //   1. Success with FRESHMAN instead of STUDENT
  //   ...
  std::string Menu(const EntityTable& entities) const;
};

class Prober {
 public:
  // All borrowed; the lattice must be built from a closure with the
  // view's ISA facts. `planner` (optional) is a shared plan cache valid
  // for the view's snapshot — a wave's sibling queries differ only in
  // constants, so they all hit one cached plan.
  Prober(const ClosureView* view, const GeneralizationLattice* lattice,
         const EntityTable* entities, PlannerCache* planner = nullptr)
      : view_(view),
        lattice_(lattice),
        entities_(entities),
        planner_(planner) {}

  // The retraction set of `query`: all minimally broader queries, each
  // tagged with the substitution that produced it.
  std::vector<std::pair<Query, Substitution>> RetractionSet(
      const Query& query) const;

  // Full automatic retraction (Sec 5.2).
  StatusOr<ProbeResult> Probe(const Query& query,
                              const ProbeOptions& options = {}) const;

 private:
  const ClosureView* view_;
  const GeneralizationLattice* lattice_;
  const EntityTable* entities_;
  PlannerCache* planner_;
};

}  // namespace lsd

#endif  // LSD_BROWSE_PROBING_H_
