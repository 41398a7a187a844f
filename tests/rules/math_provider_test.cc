#include "rules/math_provider.h"

#include <gtest/gtest.h>

namespace lsd {
namespace {

class MathProviderTest : public ::testing::Test {
 protected:
  MathProviderTest() : math_(&store_) {}

  EntityId E(const char* name) { return store_.entities().Intern(name); }

  FactStore store_;
  MathProvider math_;
};

TEST_F(MathProviderTest, NumericOrdering) {
  EntityId a = E("25000"), b = E("20000");
  EXPECT_TRUE(math_.Holds(Fact(a, kEntGreater, b)));
  EXPECT_FALSE(math_.Holds(Fact(a, kEntLess, b)));
  EXPECT_TRUE(math_.Holds(Fact(b, kEntLess, a)));
  EXPECT_TRUE(math_.Holds(Fact(a, kEntGreaterEq, b)));
  EXPECT_FALSE(math_.Holds(Fact(a, kEntLessEq, b)));
}

TEST_F(MathProviderTest, ExactlyOneOfLessGreaterForDistinctNumbers) {
  EntityId a = E("2"), b = E("2.6");
  EXPECT_NE(math_.Holds(Fact(a, kEntLess, b)),
            math_.Holds(Fact(a, kEntGreater, b)));
}

TEST_F(MathProviderTest, EqualityOnIdentityAndNumericTwins) {
  EntityId john = E("JOHN"), mary = E("MARY");
  EXPECT_TRUE(math_.Holds(Fact(john, kEntEq, john)));
  EXPECT_FALSE(math_.Holds(Fact(john, kEntEq, mary)));
  EXPECT_TRUE(math_.Holds(Fact(john, kEntNeq, mary)));
  // The paper writes salaries as $25000; they compare equal to 25000.
  EXPECT_TRUE(math_.Holds(Fact(E("$25000"), kEntEq, E("25000"))));
  EXPECT_TRUE(math_.Holds(Fact(E("$25000"), kEntGreaterEq, E("25000"))));
}

TEST_F(MathProviderTest, ExactlyOneOfEqNeqForEveryPair) {
  EntityId ids[] = {E("JOHN"), E("25000"), E("$25000"), E("MARY")};
  for (EntityId a : ids) {
    for (EntityId b : ids) {
      EXPECT_NE(math_.Holds(Fact(a, kEntEq, b)),
                math_.Holds(Fact(a, kEntNeq, b)));
    }
  }
}

TEST_F(MathProviderTest, OrderingUndefinedForSymbolicEntities) {
  EntityId john = E("JOHN"), n = E("5");
  EXPECT_FALSE(math_.Holds(Fact(john, kEntLess, n)));
  EXPECT_FALSE(math_.Holds(Fact(john, kEntGreater, n)));
  EXPECT_FALSE(math_.Holds(Fact(n, kEntLess, john)));
}

TEST_F(MathProviderTest, NonComparatorNeverHolds) {
  EntityId john = E("JOHN");
  EXPECT_FALSE(math_.Holds(Fact(john, kEntIsa, john)));
  EXPECT_FALSE(MathProvider::IsComparator(kEntIsa));
  EXPECT_TRUE(MathProvider::IsComparator(kEntLessEq));
}

TEST_F(MathProviderTest, EnumerationWithBothBound) {
  EntityId a = E("3"), b = E("7");
  std::vector<Fact> got;
  math_.ForEach(Pattern(a, kEntLess, b), [&](const Fact& f) {
    got.push_back(f);
    return true;
  });
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], Fact(a, kEntLess, b));
  got.clear();
  math_.ForEach(Pattern(b, kEntLess, a), [&](const Fact& f) {
    got.push_back(f);
    return true;
  });
  EXPECT_TRUE(got.empty());
}

TEST_F(MathProviderTest, EnumerationWithOneBoundSweepsNumbers) {
  E("1");
  E("5");
  E("10");
  EntityId n5 = *store_.entities().Lookup("5");
  std::vector<EntityId> smaller;
  math_.ForEach(Pattern(kAnyEntity, kEntLess, n5), [&](const Fact& f) {
    smaller.push_back(f.source);
    return true;
  });
  ASSERT_EQ(smaller.size(), 1u);
  EXPECT_EQ(smaller[0], *store_.entities().Lookup("1"));
}

TEST_F(MathProviderTest, EnumerabilityRules) {
  EntityId a = E("3");
  EXPECT_TRUE(math_.Enumerable(Pattern(a, kEntLess, a)));
  EXPECT_TRUE(math_.Enumerable(Pattern(a, kEntLess, kAnyEntity)));
  EXPECT_FALSE(
      math_.Enumerable(Pattern(kAnyEntity, kEntLess, kAnyEntity)));
  // Unbound relationship: silently empty, hence enumerable.
  EXPECT_TRUE(math_.Enumerable(Pattern(a, kAnyEntity, a)));
}

TEST_F(MathProviderTest, UnboundRelationshipProducesNothing) {
  EntityId a = E("3");
  int count = 0;
  math_.ForEach(Pattern(a, kAnyEntity, kAnyEntity), [&](const Fact&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 0);
}

TEST_F(MathProviderTest, BuiltinContradictionPairs) {
  EXPECT_TRUE(MathProvider::Contradictory(kEntLess, kEntGreater));
  EXPECT_TRUE(MathProvider::Contradictory(kEntGreater, kEntLess));
  EXPECT_TRUE(MathProvider::Contradictory(kEntEq, kEntNeq));
  EXPECT_TRUE(MathProvider::Contradictory(kEntLess, kEntEq));
  EXPECT_FALSE(MathProvider::Contradictory(kEntLessEq, kEntGreaterEq));
  EXPECT_FALSE(MathProvider::Contradictory(kEntLess, kEntLessEq));
}

}  // namespace
}  // namespace lsd
