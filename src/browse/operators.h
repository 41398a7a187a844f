// The Sec 6.1 retrieval operators that do not live on LooseDb itself:
//
//   try(e)                    all facts that mention an entity, the
//                             start-up aid for navigation;
//   relation(s, r1 t1, ...)   a structured (relational) view over the
//                             loose store, possibly non-first-normal-form.
//
// limit(n) and include/exclude(rule) are settings on LooseDb.
#ifndef LSD_BROWSE_OPERATORS_H_
#define LSD_BROWSE_OPERATORS_H_

#include <string>
#include <vector>

#include "rules/closure_view.h"
#include "util/status.h"

namespace lsd {

// try(e): every stored closure fact in which `entity` appears, without
// duplicates, source-position facts first. Implemented as the union of
// the three template queries (e,*,*), (*,e,*), (*,*,e), each group in
// fact-id (SRT) order.
std::vector<Fact> TryEntity(const ClosureView& view, EntityId entity);

// Renders the try() result, one fact per line.
std::string RenderTry(const ClosureView& view, EntityId entity);

// relation(class, {r1, t1}, ..., {rn, tn}): one row per instance y of
// `klass`; column i holds every z with (y, ri, z) and (z, IN, ti).
// Columns other than the first may hold any number of entities (the
// paper: "such relations are not necessarily in first normal form").
struct RelationColumnSpec {
  EntityId relationship;
  EntityId target_class;
};

struct RelationTable {
  EntityId source_class;
  std::vector<RelationColumnSpec> columns;
  // rows[i][0] is the instance; rows[i][j] (j>=1) the value set for
  // column j-1.
  std::vector<std::vector<std::vector<EntityId>>> rows;

  std::string Render(const EntityTable& entities) const;
};

RelationTable RelationOp(const ClosureView& view, EntityId klass,
                         std::vector<RelationColumnSpec> columns);

}  // namespace lsd

#endif  // LSD_BROWSE_OPERATORS_H_
