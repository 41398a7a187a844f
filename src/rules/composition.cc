#include "rules/composition.h"

#include <functional>
#include <unordered_set>

#include "rules/math_provider.h"

namespace lsd {

namespace {

bool IsMetaRelationship(EntityId r) {
  return r == kEntIsa || r == kEntIn || r == kEntSyn || r == kEntInv ||
         r == kEntContra || r == kEntClassRel;
}

}  // namespace

bool CompositionEngine::LinkAllowed(const Fact& f,
                                    const CompositionOptions& options) const {
  if (MathProvider::IsComparator(f.relationship)) return false;
  if (!options.include_meta_relationships &&
      IsMetaRelationship(f.relationship)) {
    return false;
  }
  // Never compose through previously minted composition entities: chains
  // are built from elementary facts, and limit(n) already controls depth.
  if (entities_->Kind(f.relationship) == EntityKind::kComposed) return false;
  return f.source != f.target;  // self-loops never extend a simple path
}

std::string ComposedName(const EntityTable& entities, const FactChain& chain) {
  std::string name;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i > 0) {
      name += ".";
      name += entities.Name(chain[i].source);
      name += ".";
    }
    name += entities.Name(chain[i].relationship);
  }
  return name;
}

StatusOr<std::vector<FactChain>> CompositionEngine::PathsBetween(
    const FactSource& view, EntityId source, EntityId target,
    const CompositionOptions& options) const {
  std::vector<FactChain> out;
  if (options.limit < 2 || source == target) return out;

  FactChain chain;
  std::unordered_set<EntityId> visited{source};
  BudgetTicker ticker(options.budget);
  Status status = Status::OK();
  const size_t limit = static_cast<size_t>(options.limit);

  // Depth-first enumeration of simple paths source -> target. The dfs
  // returns false (and unwinds) once the budget trips or the cap is
  // reached. On the last hop only links into the target can complete a
  // path, so it asks the view for (at, ?, target) alone: every tier
  // streams that range in the order its (at, ?, ?) scan lists those
  // facts. A bound ANY target or NONE source would make the closure view
  // rewrite the pattern into a wildcard scan (ClosureView, layer 5), so
  // there the full scan stays and the answer stays the stored links.
  std::function<bool(EntityId)> dfs = [&](EntityId at) -> bool {
    const bool last_hop = chain.size() + 1 == limit && at != kEntBottom &&
                          target != kEntTop;
    const Pattern hop(at, kAnyEntity, last_hop ? target : kAnyEntity);
    return view.ForEach(hop, [&](const Fact& f) {
      if (!ticker.TickOk()) {
        status = ticker.trip();
        return false;
      }
      if (!LinkAllowed(f, options)) return true;
      if (f.target == target) {
        if (chain.empty()) return true;  // a direct fact, not a composition
        if (out.size() >= options.max_results) {
          status = Status::OutOfRange("composition exceeded max_results (" +
                                      std::to_string(options.max_results) +
                                      ")");
          return false;
        }
        out.push_back(chain);
        out.back().push_back(f);
        return true;
      }
      if (chain.size() + 1 >= limit || visited.count(f.target)) return true;
      chain.push_back(f);
      visited.insert(f.target);
      const bool keep_going = dfs(f.target);
      visited.erase(f.target);
      chain.pop_back();
      return keep_going;
    });
  };
  dfs(source);
  LSD_RETURN_IF_ERROR(status);
  return out;
}

StatusOr<std::vector<FactChain>> CompositionEngine::MaterializeAll(
    const FactSource& view, const CompositionOptions& options) const {
  std::vector<FactChain> out;
  if (options.limit < 2) return out;

  // Collect the distinct sources present in the view, then run a simple-
  // path DFS from each, emitting every prefix of length >= 2.
  std::unordered_set<EntityId> sources;
  view.ForEach(Pattern(), [&](const Fact& f) {
    sources.insert(f.source);
    return true;
  });

  Status overflow = Status::OK();
  BudgetTicker ticker(options.budget);
  for (EntityId start : sources) {
    FactChain chain;
    std::unordered_set<EntityId> visited{start};
    std::function<bool(EntityId)> dfs = [&](EntityId at) -> bool {
      if (static_cast<int>(chain.size()) >= options.limit) return true;
      return view.ForEach(
          Pattern(at, kAnyEntity, kAnyEntity), [&](const Fact& f) {
            if (!ticker.TickOk()) {
              overflow = ticker.trip();
              return false;
            }
            if (!LinkAllowed(f, options)) return true;
            if (visited.count(f.target)) return true;
            chain.push_back(f);
            visited.insert(f.target);
            bool keep_going = true;
            if (chain.size() >= 2) {
              if (out.size() >= options.max_results) {
                overflow = Status::OutOfRange(
                    "composition exceeded max_results (" +
                    std::to_string(options.max_results) + ")");
                keep_going = false;
              } else {
                out.push_back(chain);
              }
            }
            if (keep_going) keep_going = dfs(f.target);
            visited.erase(f.target);
            chain.pop_back();
            return keep_going;
          });
    };
    if (!dfs(start)) break;
  }
  if (!overflow.ok()) return overflow;
  return out;
}

}  // namespace lsd
