// Property test: the columnar CSR FrozenIndex is observationally
// equivalent to the dynamic TripleIndex. For many random fact sets it
// checks all 8 binding patterns (Match and exact CountMatches), the
// Contains probe, the SortedFreeValues contract on every two-bound
// shape, and that Merged(base, run) equals a from-scratch build of the
// union. This is the safety net under the storage rewrite: any drift in
// the offset tables or the permutation merge shows up here first.
#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "store/frozen_index.h"
#include "store/triple_index.h"
#include "util/random.h"

namespace lsd {
namespace {

struct Shape {
  uint64_t seed;
  size_t facts;
  EntityId sources;
  EntityId rels;
  EntityId targets;
};

std::vector<Fact> RandomFacts(Rng& rng, const Shape& s) {
  std::vector<Fact> facts;
  facts.reserve(s.facts);
  for (size_t i = 0; i < s.facts; ++i) {
    facts.emplace_back(static_cast<EntityId>(rng.Uniform(s.sources)),
                       static_cast<EntityId>(rng.Uniform(s.rels)),
                       static_cast<EntityId>(rng.Uniform(s.targets)));
  }
  return facts;
}

std::vector<Fact> Sorted(std::vector<Fact> facts) {
  std::sort(facts.begin(), facts.end(), [](const Fact& a, const Fact& b) {
    return std::tuple(a.source, a.relationship, a.target) <
           std::tuple(b.source, b.relationship, b.target);
  });
  return facts;
}

Pattern MakePattern(int mask, Rng& rng, const Shape& s) {
  Pattern p;
  if (mask & 1) p.source = static_cast<EntityId>(rng.Uniform(s.sources));
  if (mask & 2) p.relationship = static_cast<EntityId>(rng.Uniform(s.rels));
  if (mask & 4) p.target = static_cast<EntityId>(rng.Uniform(s.targets));
  return p;
}

class FrozenIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrozenIndexPropertyTest, EquivalentToTripleIndex) {
  Rng rng(GetParam());
  const Shape shape{GetParam(),
                    50 + rng.Uniform(400),
                    static_cast<EntityId>(2 + rng.Uniform(20)),
                    static_cast<EntityId>(1 + rng.Uniform(8)),
                    static_cast<EntityId>(2 + rng.Uniform(20))};

  TripleIndex dynamic;
  for (const Fact& f : RandomFacts(rng, shape)) dynamic.Insert(f);
  const FrozenIndex frozen = FrozenIndex::FromTripleIndex(dynamic);
  ASSERT_EQ(frozen.size(), dynamic.size());

  // Contains agrees on present and absent facts.
  for (const Fact& f : frozen.Materialize()) {
    EXPECT_TRUE(dynamic.Contains(f));
    EXPECT_TRUE(frozen.Contains(f));
  }
  for (int i = 0; i < 50; ++i) {
    Fact probe(static_cast<EntityId>(rng.Uniform(shape.sources + 3)),
               static_cast<EntityId>(rng.Uniform(shape.rels + 3)),
               static_cast<EntityId>(rng.Uniform(shape.targets + 3)));
    EXPECT_EQ(frozen.Contains(probe), dynamic.Contains(probe));
  }

  for (int mask = 0; mask < 8; ++mask) {
    for (int trial = 0; trial < 10; ++trial) {
      const Pattern p = MakePattern(mask, rng, shape);
      const std::vector<Fact> want = Sorted(dynamic.Match(p));
      const std::vector<Fact> got = Sorted(frozen.Match(p));
      ASSERT_EQ(got, want) << "mask=" << mask;
      EXPECT_EQ(frozen.CountMatches(p), want.size()) << "mask=" << mask;

      if (p.BoundCount() != 2) continue;
      // SortedFreeValues: strictly ascending distinct values of the one
      // free position, agreeing between the two index kinds.
      std::vector<EntityId> frozen_scratch, dynamic_scratch;
      SortedIdSpan frozen_span, dynamic_span;
      ASSERT_TRUE(frozen.SortedFreeValues(p, &frozen_scratch, &frozen_span));
      ASSERT_TRUE(
          dynamic.SortedFreeValues(p, &dynamic_scratch, &dynamic_span));
      std::set<EntityId> expect;
      const int free_pos = !p.SourceBound() ? 0 : (!p.RelationshipBound() ? 1 : 2);
      for (const Fact& f : want) {
        expect.insert(free_pos == 0   ? f.source
                      : free_pos == 1 ? f.relationship
                                      : f.target);
      }
      ASSERT_EQ(frozen_span.size, expect.size()) << "mask=" << mask;
      ASSERT_EQ(dynamic_span.size, expect.size()) << "mask=" << mask;
      size_t i = 0;
      for (EntityId e : expect) {
        EXPECT_EQ(frozen_span.data[i], e);
        EXPECT_EQ(dynamic_span.data[i], e);
        ++i;
      }
    }
  }
}

TEST_P(FrozenIndexPropertyTest, MergedEqualsFromScratchBuild) {
  Rng rng(GetParam() * 2654435761u + 17);
  const Shape shape{GetParam(),
                    30 + rng.Uniform(300),
                    static_cast<EntityId>(2 + rng.Uniform(15)),
                    static_cast<EntityId>(1 + rng.Uniform(6)),
                    static_cast<EntityId>(2 + rng.Uniform(15))};

  // Split a duplicate-free universe into a base set and a disjoint run.
  std::vector<Fact> all = Sorted(RandomFacts(rng, shape));
  all.erase(std::unique(all.begin(), all.end(),
                        [](const Fact& a, const Fact& b) {
                          return a.source == b.source &&
                                 a.relationship == b.relationship &&
                                 a.target == b.target;
                        }),
            all.end());
  std::vector<Fact> base_facts, run;
  for (const Fact& f : all) {
    (rng.Uniform(3) == 0 ? run : base_facts).push_back(f);
  }

  const FrozenIndex base(base_facts);
  const FrozenIndex merged = FrozenIndex::Merged(base, run);
  const FrozenIndex scratch(all);

  ASSERT_EQ(merged.size(), scratch.size());
  EXPECT_EQ(merged.Materialize(), scratch.Materialize());
  EXPECT_EQ(merged.DistinctSources(), scratch.DistinctSources());
  EXPECT_EQ(merged.DistinctRelationships(), scratch.DistinctRelationships());
  EXPECT_EQ(merged.DistinctTargets(), scratch.DistinctTargets());

  for (int mask = 0; mask < 8; ++mask) {
    for (int trial = 0; trial < 6; ++trial) {
      const Pattern p = MakePattern(mask, rng, shape);
      EXPECT_EQ(Sorted(merged.Match(p)), Sorted(scratch.Match(p)))
          << "mask=" << mask;
      EXPECT_EQ(merged.CountMatches(p), scratch.CountMatches(p));
    }
  }

  // AppendMissing against the merged index filters exactly the union.
  std::vector<Fact> missing;
  merged.AppendMissing(all, &missing);
  EXPECT_TRUE(missing.empty());
  std::vector<Fact> fresh;
  base.AppendMissing(all, &fresh);
  EXPECT_EQ(fresh, Sorted(run));

  // With an erase run: a random subset of the base plus facts the base
  // does not hold (ignored), against a from-scratch build of the rest.
  std::vector<Fact> erase;
  std::vector<Fact> kept;
  for (const Fact& f : base_facts) {
    (rng.Uniform(4) == 0 ? erase : kept).push_back(f);
  }
  erase.insert(erase.end(), run.begin(), run.begin() + run.size() / 2);
  erase = Sorted(erase);
  kept.insert(kept.end(), run.begin(), run.end());
  const FrozenIndex pruned = FrozenIndex::Merged(base, run, erase);
  const FrozenIndex pruned_scratch(kept);
  ASSERT_EQ(pruned.size(), pruned_scratch.size());
  EXPECT_EQ(pruned.Materialize(), pruned_scratch.Materialize());
  EXPECT_EQ(pruned.DistinctSources(), pruned_scratch.DistinctSources());
  EXPECT_EQ(pruned.DistinctRelationships(),
            pruned_scratch.DistinctRelationships());
  EXPECT_EQ(pruned.DistinctTargets(), pruned_scratch.DistinctTargets());
  for (int mask = 0; mask < 8; ++mask) {
    for (int trial = 0; trial < 6; ++trial) {
      const Pattern p = MakePattern(mask, rng, shape);
      EXPECT_EQ(Sorted(pruned.Match(p)), Sorted(pruned_scratch.Match(p)))
          << "erase, mask=" << mask;
      EXPECT_EQ(pruned.CountMatches(p), pruned_scratch.CountMatches(p));
    }
  }
  for (const Fact& f : erase) {
    if (!pruned_scratch.Contains(f)) {
      EXPECT_FALSE(pruned.Contains(f));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrozenIndexPropertyTest,
                         ::testing::Range<uint64_t>(1, 25));

// The columnar layout must beat the old three-sorted-arrays layout
// (3 Fact copies = 36 bytes/fact) by at least 2x at the E9 storage
// benchmark's shape: 100k facts over 10k entities.
TEST(FrozenIndexMemoryTest, HalvesTripleArrayFootprintAtE9Scale) {
  Rng rng(42);
  std::vector<Fact> facts;
  facts.reserve(100'000);
  for (int i = 0; i < 100'000; ++i) {
    facts.emplace_back(static_cast<EntityId>(rng.Uniform(10'000)),
                       static_cast<EntityId>(rng.Uniform(8)),
                       static_cast<EntityId>(rng.Uniform(10'000)));
  }
  const FrozenIndex frozen(facts);
  const FrozenIndex::Memory mem = frozen.MemoryUsage();
  EXPECT_GT(mem.run_bytes, 0u);
  EXPECT_GT(mem.perm_bytes, 0u);
  EXPECT_GT(mem.offset_bytes, 0u);
  const size_t old_layout = 3 * sizeof(Fact) * frozen.size();
  EXPECT_LE(2 * mem.total(), old_layout)
      << "columnar tier uses " << mem.total() << " bytes vs " << old_layout
      << " for three sorted Fact arrays";
}

}  // namespace
}  // namespace lsd
