// Browsing by navigation (Sec 4.1): iteratively examine the neighborhood
// of an entity, pick an entity from it, examine its neighborhood, and so
// on. Navigation queries are template queries (a restricted form of the
// standard language), so navigation and querying interleave freely.
//
// The (source, *, target) form additionally surfaces composed
// relationships — "all the different associations between them" — via
// the composition engine (Sec 3.7).
#ifndef LSD_BROWSE_NAVIGATION_H_
#define LSD_BROWSE_NAVIGATION_H_

#include <string>
#include <vector>

#include "rules/closure_view.h"
#include "rules/composition.h"
#include "util/status.h"

namespace lsd {

// The neighborhood of one entity, grouped the way the paper's example
// tables present it: the entity's classes/generalizations first, then
// one group per relationship.
struct NeighborhoodView {
  EntityId entity = 0;

  // Closure targets of (entity, IN, x) — "JOHN**: PERSON, EMPLOYEE, ...".
  std::vector<EntityId> classes;
  // Closure targets of (entity, ISA, x), excluding the reflexive fact
  // and ANY.
  std::vector<EntityId> generalizations;

  struct RelationGroup {
    EntityId relationship;
    std::vector<EntityId> entities;  // targets (outgoing) / sources (in)
  };
  std::vector<RelationGroup> outgoing;  // (entity, r, x), r not IN/ISA
  std::vector<RelationGroup> incoming;  // (x, r, entity), r not IN/ISA

  // Renders the paper-style table: one header row, one (multi-line) data
  // row; first column "<ENTITY> **" holds classes and generalizations.
  std::string Render(const EntityTable& entities) const;
};

// One association between a source and a target entity: either a direct
// fact or a composed path. Its relationship is spelled by
// ComposedName(entities, chain): the fact's own relationship for a
// direct fact, "R1.X.R2..." for a composition.
struct Association {
  FactChain chain;  // size 1 for direct facts
};

class Navigator {
 public:
  // `view` is the closure to browse; `entities` names what it shows and
  // is only read.
  Navigator(const ClosureView* view, const EntityTable* entities)
      : view_(view), entities_(entities), composer_(entities) {}

  // `budget` (optional) is ticked per scanned fact; a tripped budget
  // aborts the scan with its typed error.
  StatusOr<NeighborhoodView> Neighborhood(
      EntityId entity, const QueryBudget* budget = nullptr) const;

  // All associations between two entities: direct facts (s, r, t) plus
  // simple-path compositions within `options.limit`.
  StatusOr<std::vector<Association>> Associations(
      EntityId source, EntityId target,
      const CompositionOptions& options) const;

  // Paper-style one-row table "SOURCE * TARGET" listing associations,
  // each composed relationship spelled from its chain.
  std::string RenderAssociations(EntityId source, EntityId target,
                                 const std::vector<Association>& assocs) const;

 private:
  const ClosureView* view_;
  const EntityTable* entities_;
  CompositionEngine composer_;
};

}  // namespace lsd

#endif  // LSD_BROWSE_NAVIGATION_H_
