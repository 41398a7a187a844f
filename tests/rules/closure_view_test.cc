#include "rules/closure_view.h"

#include <gtest/gtest.h>

namespace lsd {
namespace {

class ClosureViewTest : public ::testing::Test {
 protected:
  ClosureViewTest()
      : math_(&store_),
        view_(&store_, &store_.base(), &derived_, &math_) {}

  EntityId E(const char* name) { return store_.entities().Intern(name); }

  FactStore store_;
  DeltaIndex derived_;
  MathProvider math_;
  ClosureView view_;
};

TEST_F(ClosureViewTest, LayersBaseAndDerived) {
  store_.Assert("A", "R", "B");
  derived_.Insert(Fact(E("A"), E("R"), E("C")));
  EXPECT_TRUE(view_.Contains(Fact(E("A"), E("R"), E("B"))));
  EXPECT_TRUE(view_.Contains(Fact(E("A"), E("R"), E("C"))));
  EXPECT_EQ(view_.Match(Pattern(E("A"), kAnyEntity, kAnyEntity)).size(),
            2u);
}

TEST_F(ClosureViewTest, MathLayerAnswersComparisons) {
  EntityId a = E("25000"), b = E("20000");
  EXPECT_TRUE(view_.Contains(Fact(a, kEntGreater, b)));
  EXPECT_FALSE(view_.Contains(Fact(a, kEntLess, b)));
  // Enumerable with the relationship bound and one operand bound.
  EXPECT_EQ(view_.Match(Pattern(a, kEntGreater, kAnyEntity)).size(), 1u);
}

TEST_F(ClosureViewTest, IsaAxioms) {
  EntityId john = E("JOHN");
  EXPECT_TRUE(view_.Contains(Fact(john, kEntIsa, john)));
  EXPECT_TRUE(view_.Contains(Fact(john, kEntIsa, kEntTop)));
  EXPECT_TRUE(view_.Contains(Fact(kEntBottom, kEntIsa, john)));
  EXPECT_FALSE(view_.Contains(Fact(kEntTop, kEntIsa, john)));
}

TEST_F(ClosureViewTest, IsaEnumerationIncludesAxiomsWithoutDuplicates) {
  EntityId john = E("JOHN");
  store_.Assert("JOHN", "ISA", "JOHN");  // explicit reflexive fact
  store_.Assert("JOHN", "ISA", "PERSON");
  auto facts = view_.Match(Pattern(john, kEntIsa, kAnyEntity));
  // JOHN, PERSON, ANY — the stored reflexive fact must not double up.
  EXPECT_EQ(facts.size(), 3u);
}

TEST_F(ClosureViewTest, VirtualLayersSilentWithUnboundRelationship) {
  EntityId john = E("JOHN");
  store_.Assert("JOHN", "LIKES", "FELIX");
  auto facts = view_.Match(Pattern(john, kAnyEntity, kAnyEntity));
  ASSERT_EQ(facts.size(), 1u);  // no (JOHN, ISA, JOHN), no (JOHN, =, ...)
  EXPECT_EQ(facts[0].relationship, E("LIKES"));
}

// Sec 5.2: the generalized template (?Z, ANY, FREE) matches anything
// related to FREE via an individual relationship.
TEST_F(ClosureViewTest, AnyAsRelationshipRewrites) {
  store_.Assert("MOVIE-NIGHT", "COSTS", "FREE");
  store_.Assert("JOHN", "LIKES", "FREE");
  EntityId free = E("FREE");
  auto facts = view_.Match(Pattern(kAnyEntity, kEntTop, free));
  EXPECT_EQ(facts.size(), 2u);
  for (const Fact& f : facts) {
    EXPECT_EQ(f.relationship, kEntTop);
  }
  EXPECT_TRUE(view_.Contains(Fact(E("MOVIE-NIGHT"), kEntTop, free)));
  EXPECT_FALSE(view_.Contains(Fact(E("NOBODY"), kEntTop, free)));
}

TEST_F(ClosureViewTest, AnyAsTargetRewrites) {
  store_.Assert("JOHN", "GRADUATE-OF", "USC");
  EXPECT_TRUE(view_.Contains(Fact(E("JOHN"), E("GRADUATE-OF"), kEntTop)));
  EXPECT_FALSE(view_.Contains(Fact(E("MARY"), E("GRADUATE-OF"), kEntTop)));
}

// Rule (1a) runs downward: NONE (not ANY) absorbs the source position.
TEST_F(ClosureViewTest, NoneAsSourceRewrites) {
  store_.Assert("JOHN", "GRADUATE-OF", "USC");
  EXPECT_TRUE(
      view_.Contains(Fact(kEntBottom, E("GRADUATE-OF"), E("USC"))));
  EXPECT_FALSE(view_.Contains(Fact(kEntTop, E("GRADUATE-OF"), E("USC"))));
}

// The r ∈ R_i side condition: class-relationship facts do not rewrite.
TEST_F(ClosureViewTest, AnyRewriteSkipsClassRelationships) {
  store_.Assert("EMPLOYEE", "TOTAL-NUMBER", "180");
  store_.MarkClassRelationship(E("TOTAL-NUMBER"));
  store_.Assert("EMPLOYEE", "EARNS", "SALARY");
  EntityId employee = E("EMPLOYEE");
  // EARNS generalizes to ANY; TOTAL-NUMBER does not.
  auto facts = view_.Match(Pattern(employee, kEntTop, kAnyEntity));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].target, E("SALARY"));
}

TEST_F(ClosureViewTest, AnyRewriteDeduplicates) {
  store_.Assert("JOHN", "LIKES", "FELIX");
  store_.Assert("JOHN", "ADORES", "FELIX");
  // Two facts, one projected (JOHN, ANY, FELIX).
  auto facts = view_.Match(Pattern(E("JOHN"), kEntTop, E("FELIX")));
  EXPECT_EQ(facts.size(), 1u);
}

TEST_F(ClosureViewTest, EnumerabilityDelegatesToMath) {
  EXPECT_FALSE(
      view_.Enumerable(Pattern(kAnyEntity, kEntLess, kAnyEntity)));
  EXPECT_TRUE(view_.Enumerable(Pattern(E("3"), kEntLess, kAnyEntity)));
  EXPECT_TRUE(view_.Enumerable(Pattern()));
}

TEST_F(ClosureViewTest, EstimateMatchesCountsLayers) {
  store_.Assert("A", "R", "B");
  derived_.Insert(Fact(E("A"), E("R"), E("C")));
  EXPECT_GE(view_.EstimateMatches(Pattern(E("A"), kAnyEntity, kAnyEntity)),
            2u);
}

}  // namespace
}  // namespace lsd
