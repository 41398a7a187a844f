#include "browse/operators.h"

#include <algorithm>
#include <unordered_set>

#include "query/table_formatter.h"
#include "util/string_util.h"

namespace lsd {

std::vector<Fact> TryEntity(const ClosureView& view, EntityId entity) {
  std::vector<Fact> out;
  std::unordered_set<Fact, FactHash> seen;
  auto collect = [&](const Fact& f) {
    if (seen.insert(f).second) out.push_back(f);
    return true;
  };
  // Each group (the entity as source, as relationship, as target) is
  // listed in fact-id order, not storage order, so a change of layout
  // with no logical content (a compaction, a retract and re-assert)
  // leaves the listing as it was.
  for (const Pattern& p : {Pattern(entity, kAnyEntity, kAnyEntity),
                           Pattern(kAnyEntity, entity, kAnyEntity),
                           Pattern(kAnyEntity, kAnyEntity, entity)}) {
    const size_t group = out.size();
    view.ForEach(p, collect);
    std::sort(out.begin() + group, out.end(), OrderSrt());
  }
  return out;
}

std::string RenderTry(const ClosureView& view, EntityId entity) {
  const EntityTable& entities = view.store().entities();
  std::string out = "try(" + entities.Name(entity) + "):\n";
  for (const Fact& f : TryEntity(view, entity)) {
    out += "  " + f.DebugString(entities) + "\n";
  }
  return out;
}

RelationTable RelationOp(const ClosureView& view, EntityId klass,
                         std::vector<RelationColumnSpec> columns) {
  RelationTable table;
  table.source_class = klass;
  table.columns = std::move(columns);

  std::vector<EntityId> instances;
  view.ForEach(Pattern(kAnyEntity, kEntIn, klass), [&](const Fact& f) {
    instances.push_back(f.source);
    return true;
  });
  std::sort(instances.begin(), instances.end());
  instances.erase(std::unique(instances.begin(), instances.end()),
                  instances.end());

  for (EntityId y : instances) {
    std::vector<std::vector<EntityId>> row;
    row.push_back({y});
    for (const RelationColumnSpec& col : table.columns) {
      std::vector<EntityId> values;
      view.ForEach(Pattern(y, col.relationship, kAnyEntity),
                   [&](const Fact& f) {
                     if (view.Contains(
                             Fact(f.target, kEntIn, col.target_class))) {
                       values.push_back(f.target);
                     }
                     return true;
                   });
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      row.push_back(std::move(values));
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

std::string RelationTable::Render(const EntityTable& entities) const {
  std::vector<std::string> headers;
  headers.push_back(entities.Name(source_class));
  for (const RelationColumnSpec& col : columns) {
    headers.push_back(entities.Name(col.relationship) + " " +
                      entities.Name(col.target_class));
  }
  TableFormatter formatter(std::move(headers));
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    for (const auto& values : row) {
      std::vector<std::string> names;
      names.reserve(values.size());
      for (EntityId e : values) names.push_back(entities.Name(e));
      cells.push_back(Join(names, "\n"));
    }
    formatter.AddRow(std::move(cells));
  }
  return formatter.Render();
}

}  // namespace lsd
