#include "browse/navigation.h"

#include <algorithm>
#include <map>

#include "query/table_formatter.h"
#include "util/string_util.h"

namespace lsd {

namespace {

std::string JoinNames(const EntityTable& entities,
                      const std::vector<EntityId>& ids) {
  std::vector<std::string> names;
  names.reserve(ids.size());
  for (EntityId e : ids) names.push_back(entities.Name(e));
  return Join(names, "\n");
}

}  // namespace

StatusOr<NeighborhoodView> Navigator::Neighborhood(
    EntityId entity, const QueryBudget* budget) const {
  NeighborhoodView out;
  out.entity = entity;
  BudgetTicker ticker(budget);
  Status budget_status = Status::OK();

  std::map<EntityId, std::vector<EntityId>> outgoing;
  view_->ForEach(Pattern(entity, kAnyEntity, kAnyEntity),
                 [&](const Fact& f) {
                   if (!ticker.TickOk()) {
                     budget_status = ticker.trip();
                     return false;
                   }
                   if (f.relationship == kEntIn) {
                     out.classes.push_back(f.target);
                   } else if (f.relationship == kEntIsa) {
                     if (f.target != entity && f.target != kEntTop) {
                       out.generalizations.push_back(f.target);
                     }
                   } else {
                     outgoing[f.relationship].push_back(f.target);
                   }
                   return true;
                 });
  LSD_RETURN_IF_ERROR(budget_status);
  std::map<EntityId, std::vector<EntityId>> incoming;
  view_->ForEach(Pattern(kAnyEntity, kAnyEntity, entity),
                 [&](const Fact& f) {
                   if (!ticker.TickOk()) {
                     budget_status = ticker.trip();
                     return false;
                   }
                   if (f.relationship == kEntIn || f.relationship == kEntIsa) {
                     return true;  // shown from the member's side
                   }
                   incoming[f.relationship].push_back(f.source);
                   return true;
                 });
  LSD_RETURN_IF_ERROR(budget_status);

  std::sort(out.classes.begin(), out.classes.end());
  std::sort(out.generalizations.begin(), out.generalizations.end());
  for (auto& [rel, targets] : outgoing) {
    std::sort(targets.begin(), targets.end());
    out.outgoing.push_back(
        NeighborhoodView::RelationGroup{rel, std::move(targets)});
  }
  for (auto& [rel, sources] : incoming) {
    std::sort(sources.begin(), sources.end());
    out.incoming.push_back(
        NeighborhoodView::RelationGroup{rel, std::move(sources)});
  }
  return out;
}

std::string NeighborhoodView::Render(const EntityTable& table) const {
  std::vector<std::string> headers;
  std::vector<std::string> cells;
  headers.push_back(table.Name(entity) + " **");
  std::vector<EntityId> first;
  first.insert(first.end(), classes.begin(), classes.end());
  for (EntityId g : generalizations) {
    if (std::find(first.begin(), first.end(), g) == first.end()) {
      first.push_back(g);
    }
  }
  cells.push_back(JoinNames(table, first));
  for (const RelationGroup& g : outgoing) {
    headers.push_back(table.Name(g.relationship));
    cells.push_back(JoinNames(table, g.entities));
  }
  for (const RelationGroup& g : incoming) {
    headers.push_back("<- " + table.Name(g.relationship));
    cells.push_back(JoinNames(table, g.entities));
  }
  TableFormatter formatter(std::move(headers));
  formatter.AddRow(std::move(cells));
  return formatter.Render();
}

StatusOr<std::vector<Association>> Navigator::Associations(
    EntityId source, EntityId target,
    const CompositionOptions& options) const {
  std::vector<Association> out;
  BudgetTicker ticker(options.budget);
  Status budget_status = Status::OK();
  view_->ForEach(Pattern(source, kAnyEntity, target), [&](const Fact& f) {
    if (!ticker.TickOk()) {
      budget_status = ticker.trip();
      return false;
    }
    out.push_back(Association{{f}});
    return true;
  });
  LSD_RETURN_IF_ERROR(budget_status);
  LSD_ASSIGN_OR_RETURN(
      std::vector<FactChain> composed,
      composer_.PathsBetween(*view_, source, target, options));
  for (FactChain& chain : composed) {
    out.push_back(Association{std::move(chain)});
  }
  return out;
}

std::string Navigator::RenderAssociations(
    EntityId source, EntityId target,
    const std::vector<Association>& assocs) const {
  TableFormatter formatter({entities_->Name(source) + " * " +
                            entities_->Name(target)});
  std::vector<std::string> names;
  names.reserve(assocs.size());
  for (const Association& a : assocs) {
    names.push_back(ComposedName(*entities_, a.chain));
  }
  formatter.AddRow({Join(names, "\n")});
  return formatter.Render();
}

}  // namespace lsd
