// Differential test of the composition walk. PathsBetween asks the view
// for (at, ?, target) on its last hop and spells composed names from
// their chains; the reference below is the walk it replaced, which
// scanned (at, ?, ?) on every hop, kept the links that end at the target
// and minted each path into the entity table. On seeded graphs with
// cycles, self-loops, meta and comparator relationships and a stored
// composed relationship, spread over frozen segments, the overlay and a
// derived tier, both must find the same chains in the same order and
// render the same `assoc` table, and the new walk must leave the entity
// table as it was.
#include <algorithm>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "browse/navigation.h"
#include "query/table_formatter.h"
#include "rules/closure_view.h"
#include "rules/composition.h"
#include "util/random.h"
#include "util/string_util.h"

namespace lsd {
namespace {

bool ReferenceIsMeta(EntityId r) {
  return r == kEntIsa || r == kEntIn || r == kEntSyn || r == kEntInv ||
         r == kEntContra || r == kEntClassRel;
}

std::string ReferenceName(const EntityTable& entities,
                          const std::vector<Fact>& chain) {
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

struct MintedPath {
  EntityId relationship;  // minted as a composed entity
  std::vector<Fact> chain;
};

// The full-scan walk: a depth-first enumeration of simple paths that
// scans every out-fact of every node, keeps the links that end at the
// target, and interns each path's name as a composed entity.
std::vector<MintedPath> ReferencePaths(const FactSource& view,
                                       EntityTable* entities,
                                       EntityId source, EntityId target,
                                       const CompositionOptions& options) {
  std::vector<MintedPath> out;
  if (options.limit < 2 || source == target) return out;
  auto allowed = [&](const Fact& f) {
    if (MathProvider::IsComparator(f.relationship)) return false;
    if (!options.include_meta_relationships &&
        ReferenceIsMeta(f.relationship)) {
      return false;
    }
    if (entities->Kind(f.relationship) == EntityKind::kComposed) return false;
    return f.source != f.target;
  };
  std::vector<Fact> chain;
  std::unordered_set<EntityId> visited{source};
  std::function<void(EntityId)> dfs = [&](EntityId at) {
    if (static_cast<int>(chain.size()) >= options.limit) return;
    view.ForEach(Pattern(at, kAnyEntity, kAnyEntity), [&](const Fact& f) {
      if (!allowed(f)) return true;
      if (f.target == target) {
        if (!chain.empty()) {
          chain.push_back(f);
          out.push_back(MintedPath{
              entities->InternComposed(ReferenceName(*entities, chain)),
              chain});
          chain.pop_back();
        }
        return true;
      }
      if (visited.count(f.target)) return true;
      chain.push_back(f);
      visited.insert(f.target);
      dfs(f.target);
      visited.erase(f.target);
      chain.pop_back();
      return true;
    });
  };
  dfs(source);
  return out;
}

// The `assoc` table as it was rendered from minted relationship ids.
std::string ReferenceTable(const ClosureView& view, const EntityTable& entities,
                           EntityId source, EntityId target,
                           const std::vector<MintedPath>& composed) {
  std::vector<std::string> names;
  view.ForEach(Pattern(source, kAnyEntity, target), [&](const Fact& f) {
    names.push_back(entities.Name(f.relationship));
    return true;
  });
  for (const MintedPath& p : composed) {
    names.push_back(entities.Name(p.relationship));
  }
  TableFormatter formatter(
      {entities.Name(source) + " * " + entities.Name(target)});
  formatter.AddRow({Join(names, "\n")});
  return formatter.Render();
}

class CompositionPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr int kEntities = 64;

  // Graph endpoints: ordinary entities, with ANY and NONE now and then.
  EntityId RandomEnd(Rng& rng) {
    const uint64_t roll = rng.Uniform(40);
    if (roll == 0) return kEntTop;
    if (roll == 1) return kEntBottom;
    return nodes_[rng.Uniform(nodes_.size())];
  }

  Fact RandomFact(Rng& rng) {
    const EntityId s = RandomEnd(rng);
    const EntityId t = rng.Uniform(25) == 0 ? s : RandomEnd(rng);  // loops
    return Fact(s, relationships_[rng.Uniform(relationships_.size())], t);
  }

  // Asserts two frozen runs and a trickle of overlay facts, and fills a
  // derived tier (one frozen run plus overlay facts) disjoint from them.
  void BuildGraph(Rng& rng) {
    EntityTable& entities = store_.entities();
    for (int i = 0; i < kEntities; ++i) {
      nodes_.push_back(entities.Intern("N" + std::to_string(i)));
    }
    for (int i = 0; i < 8; ++i) {
      relationships_.push_back(entities.Intern("R" + std::to_string(i)));
    }
    // Meta and comparator relationships, and one stored composition
    // (as an older snapshot may hold) that must never act as a link.
    for (EntityId r : {kEntIsa, kEntIn, kEntSyn, kEntLess, kEntGreater}) {
      relationships_.push_back(r);
    }
    relationships_.push_back(entities.InternComposed("R0.N1.R1"));

    auto random_run = [&](size_t n) {
      std::vector<Fact> run;
      for (size_t i = 0; i < n; ++i) run.push_back(RandomFact(rng));
      return run;
    };
    store_.AssertRun(random_run(600));
    store_.AssertRun(random_run(280));
    for (int i = 0; i < 40; ++i) store_.Assert(RandomFact(rng));
    ASSERT_GE(store_.base().segment_count(), 2u);
    ASSERT_GT(store_.base().overlay_size(), 0u);

    std::vector<Fact> derived_run;
    for (const Fact& f : random_run(400)) {
      if (!store_.base().Contains(f)) derived_run.push_back(f);
    }
    std::sort(derived_run.begin(), derived_run.end(), OrderSrt());
    derived_run.erase(std::unique(derived_run.begin(), derived_run.end()),
                      derived_run.end());
    derived_.InsertRun(derived_run);
    for (int i = 0; i < 30; ++i) {
      const Fact f = RandomFact(rng);
      if (!store_.base().Contains(f)) derived_.Insert(f);
    }
    ASSERT_GE(derived_.segment_count(), 1u);
    ASSERT_GT(derived_.overlay_size(), 0u);
  }

  FactStore store_;
  DeltaIndex derived_;
  std::vector<EntityId> nodes_;
  std::vector<EntityId> relationships_;
};

TEST_P(CompositionPropertyTest, BoundedLastHopMatchesFullScanWalk) {
  Rng rng(GetParam() * 7919 + 11);
  ASSERT_NO_FATAL_FAILURE(BuildGraph(rng));
  MathProvider math(&store_);
  ClosureView view(&store_, &store_.base(), &derived_, &math);
  CompositionEngine composer(&store_.entities());
  Navigator navigator(&view, &store_.entities());

  std::vector<std::pair<EntityId, EntityId>> pairs = {
      {kEntBottom, nodes_[0]}, {nodes_[1], kEntTop}, {kEntTop, nodes_[2]},
      {nodes_[3], kEntBottom}, {kEntTop, kEntBottom}, {kEntBottom, kEntTop},
      {nodes_[4], nodes_[4]}};
  for (int i = 0; i < 10; ++i) {
    pairs.emplace_back(nodes_[rng.Uniform(nodes_.size())],
                       nodes_[rng.Uniform(nodes_.size())]);
  }
  size_t compared = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [source, target] = pairs[i];
    for (int limit = 1; limit <= 4; ++limit) {
      // A walk from NONE fans out over every fact; keep it short.
      if (source == kEntBottom && limit > 3) continue;
      SCOPED_TRACE("pair " + std::to_string(i) + " limit " +
                   std::to_string(limit));
      CompositionOptions options;
      options.limit = limit;
      options.include_meta_relationships = (i % 2 == 1);

      const size_t names = store_.entities().size();
      auto chains = composer.PathsBetween(view, source, target, options);
      ASSERT_TRUE(chains.ok()) << chains.status().ToString();
      auto assocs = navigator.Associations(source, target, options);
      ASSERT_TRUE(assocs.ok()) << assocs.status().ToString();
      const std::string table =
          navigator.RenderAssociations(source, target, *assocs);
      EXPECT_EQ(store_.entities().size(), names) << "the walk minted names";

      // The reference mints, so it runs after the size check.
      const std::vector<MintedPath> expected = ReferencePaths(
          view, &store_.entities(), source, target, options);
      ASSERT_EQ(chains->size(), expected.size());
      for (size_t k = 0; k < expected.size(); ++k) {
        ASSERT_EQ((*chains)[k], expected[k].chain) << "chain " << k;
        EXPECT_EQ(ComposedName(store_.entities(), (*chains)[k]),
                  store_.entities().Name(expected[k].relationship));
      }
      EXPECT_EQ(table, ReferenceTable(view, store_.entities(), source,
                                      target, expected));
      compared += expected.size();
    }
  }
  // The seeds must exercise compositions, not only empty answers.
  EXPECT_GT(compared, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompositionPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{5}));

}  // namespace
}  // namespace lsd
