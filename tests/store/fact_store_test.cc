#include "store/fact_store.h"

#include <gtest/gtest.h>

#include "store/delta_index.h"

namespace lsd {
namespace {

TEST(FactStoreTest, AssertByNamesInterns) {
  FactStore store;
  Fact f = store.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  EXPECT_TRUE(store.Contains(f));
  EXPECT_EQ(store.entities().Name(f.source), "JOHN");
  EXPECT_EQ(store.entities().Name(f.relationship), "WORKS-FOR");
  EXPECT_EQ(store.entities().Name(f.target), "SHIPPING");
  EXPECT_EQ(store.size(), 1u);
}

TEST(FactStoreTest, VersionBumpsOnMutation) {
  FactStore store;
  uint64_t v0 = store.version();
  Fact f = store.Assert("A", "R", "B");
  EXPECT_GT(store.version(), v0);
  uint64_t v1 = store.version();
  store.Assert(f);  // duplicate: no change
  EXPECT_EQ(store.version(), v1);
  store.Retract(f);
  EXPECT_GT(store.version(), v1);
}

TEST(FactStoreTest, RelationshipClasses) {
  FactStore store;
  EntityId earns = store.entities().Intern("EARNS");
  EXPECT_FALSE(store.IsClassRelationship(earns));  // default individual
  store.MarkClassRelationship(earns);
  EXPECT_TRUE(store.IsClassRelationship(earns));
  // Built-in classifications (Sec 2.2-2.3).
  EXPECT_TRUE(store.IsClassRelationship(kEntIn));
  EXPECT_TRUE(store.IsClassRelationship(kEntSyn));
  EXPECT_TRUE(store.IsClassRelationship(kEntInv));
  EXPECT_TRUE(store.IsClassRelationship(kEntContra));
  EXPECT_FALSE(store.IsClassRelationship(kEntIsa));
  // A mark on ISA does not make it a class relationship; the mask the
  // rule engine snapshots agrees with IsClassRelationship on every id.
  store.MarkClassRelationship(kEntIsa);
  store.entities().Intern("HAS");
  std::vector<uint8_t> mask = store.ClassRelationshipMask();
  ASSERT_EQ(mask.size(), store.entities().size());
  for (EntityId e = 0; e < mask.size(); ++e) {
    EXPECT_EQ(mask[e] != 0, store.IsClassRelationship(e)) << e;
  }
}

TEST(FactStoreTest, BaseSourceStreamsAssertedFacts) {
  FactStore store;
  store.Assert("A", "R", "B");
  store.Assert("A", "R", "C");
  EXPECT_EQ(store.base().Match(Pattern()).size(), 2u);
  EXPECT_EQ(store.base().EstimateMatches(Pattern()), 2u);
  EXPECT_TRUE(store.base().Enumerable(Pattern()));
}

TEST(UnionSourceTest, DeduplicatesOverlappingLayers) {
  DeltaIndex a, b;
  a.Insert(Fact(1, 2, 3));
  a.Insert(Fact(1, 2, 4));
  b.Insert(Fact(1, 2, 3));  // overlaps a
  b.Insert(Fact(1, 2, 5));
  UnionSource u({&a, &b});
  EXPECT_EQ(u.Match(Pattern()).size(), 3u);
  EXPECT_TRUE(u.Contains(Fact(1, 2, 5)));
  EXPECT_FALSE(u.Contains(Fact(9, 9, 9)));
}

TEST(UnionSourceTest, EarlyStopPropagates) {
  DeltaIndex a;
  for (EntityId i = 0; i < 10; ++i) a.Insert(Fact(1, 2, i));
  UnionSource u({&a});
  int seen = 0;
  bool completed = u.ForEach(Pattern(), [&](const Fact&) {
    return ++seen < 2;
  });
  EXPECT_FALSE(completed);
  EXPECT_EQ(seen, 2);
}

}  // namespace
}  // namespace lsd
