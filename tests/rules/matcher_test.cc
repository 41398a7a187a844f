#include "rules/matcher.h"

#include <set>

#include <gtest/gtest.h>

#include "rules/math_provider.h"
#include "store/delta_index.h"

namespace lsd {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  MatcherTest() : math_(&store_) {}

  EntityId E(const char* name) { return store_.entities().Intern(name); }

  FactStore store_;
  MathProvider math_;
};

TEST_F(MatcherTest, SingleAtomEnumerates) {
  store_.Assert("JOHN", "LIKES", "FELIX");
  store_.Assert("JOHN", "LIKES", "MARY");
  store_.Assert("TOM", "LIKES", "SUE");

  Template t(Term::Entity(E("JOHN")), Term::Entity(E("LIKES")),
             Term::Var(0));
  Binding b(1);
  std::set<EntityId> seen;
  Status s = MatchConjunction(store_.base(), {t}, b, nullptr,
                              [&](const Binding& bb) {
                                seen.insert(bb.Get(0));
                                return true;
                              });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(seen, (std::set<EntityId>{E("FELIX"), E("MARY")}));
}

TEST_F(MatcherTest, TwoAtomJoin) {
  store_.Assert("TOM", "ENROLLED-IN", "CS100");
  store_.Assert("CS100", "TAUGHT-BY", "HARRY");
  store_.Assert("TOM", "ENROLLED-IN", "MATH101");

  // (?S, ENROLLED-IN, ?C), (?C, TAUGHT-BY, ?T)
  Template a(Term::Var(0), Term::Entity(E("ENROLLED-IN")), Term::Var(1));
  Template c(Term::Var(1), Term::Entity(E("TAUGHT-BY")), Term::Var(2));
  Binding b(3);
  int count = 0;
  Status s = MatchConjunction(store_.base(), {a, c}, b, nullptr,
                              [&](const Binding& bb) {
                                EXPECT_EQ(bb.Get(0), E("TOM"));
                                EXPECT_EQ(bb.Get(1), E("CS100"));
                                EXPECT_EQ(bb.Get(2), E("HARRY"));
                                ++count;
                                return true;
                              });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(count, 1);
}

TEST_F(MatcherTest, BindingRestoredAfterMatch) {
  store_.Assert("A", "R", "B");
  Template t(Term::Var(0), Term::Var(1), Term::Var(2));
  Binding b(3);
  ASSERT_TRUE(MatchConjunction(store_.base(), {t}, b, nullptr,
                               [](const Binding&) { return true; })
                  .ok());
  EXPECT_FALSE(b.IsBound(0));
  EXPECT_FALSE(b.IsBound(1));
  EXPECT_FALSE(b.IsBound(2));
}

TEST_F(MatcherTest, VarFilterRejects) {
  store_.Assert("A", "R1", "B");
  store_.Assert("A", "R2", "B");
  EntityId r1 = E("R1");
  Template t(Term::Var(0), Term::Var(1), Term::Var(2));
  Binding b(3);
  int count = 0;
  Status s = MatchConjunction(
      store_.base(), {t}, b,
      [&](VarId v, EntityId e) { return v != 1 || e != r1; },
      [&](const Binding&) {
        ++count;
        return true;
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(count, 1);
}

TEST_F(MatcherTest, MathAtomDeferredUntilOperandsBound) {
  store_.Assert("JOHN", "EARNS", "25000");
  store_.Assert("TOM", "EARNS", "15000");
  EntityId n20000 = E("20000");

  // (?X, EARNS, ?S), (?S, >, 20000): the comparison atom must run after
  // the EARNS atom binds ?S.
  UnionSource view({&store_.base(), &math_});
  Template earns(Term::Var(0), Term::Entity(E("EARNS")), Term::Var(1));
  Template gt(Term::Var(1), Term::Entity(kEntGreater),
              Term::Entity(n20000));
  Binding b(2);
  std::set<EntityId> winners;
  Status s = MatchConjunction(view, {gt, earns}, b, nullptr,
                              [&](const Binding& bb) {
                                winners.insert(bb.Get(0));
                                return true;
                              });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(winners, (std::set<EntityId>{E("JOHN")}));
}

TEST_F(MatcherTest, UnsafeAllUnboundComparisonErrors) {
  UnionSource view({&store_.base(), &math_});
  Template gt(Term::Var(0), Term::Entity(kEntGreater), Term::Var(1));
  Binding b(2);
  Status s = MatchConjunction(view, {gt}, b, nullptr,
                              [](const Binding&) { return true; });
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(MatcherTest, EarlyStopFromVisitor) {
  for (int i = 0; i < 20; ++i) {
    store_.Assert("A", "R", ("B" + std::to_string(i)).c_str());
  }
  Template t(Term::Entity(E("A")), Term::Entity(E("R")), Term::Var(0));
  Binding b(1);
  int count = 0;
  Status s = MatchConjunction(store_.base(), {t}, b, nullptr,
                              [&](const Binding&) { return ++count < 5; });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(count, 5);
}

TEST_F(MatcherTest, GroundAtomActsAsGate) {
  store_.Assert("A", "R", "B");
  store_.Assert("X", "Q", "Y");
  Template gate(Term::Entity(E("A")), Term::Entity(E("R")),
                Term::Entity(E("B")));
  Template open(Term::Var(0), Term::Entity(E("Q")), Term::Var(1));
  Binding b(2);
  int count = 0;
  ASSERT_TRUE(MatchConjunction(store_.base(), {open, gate}, b,
                               nullptr,
                               [&](const Binding&) {
                                 ++count;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(count, 1);

  // With the gate closed, nothing matches.
  Template shut(Term::Entity(E("A")), Term::Entity(E("R")),
                Term::Entity(E("NOPE")));
  count = 0;
  ASSERT_TRUE(MatchConjunction(store_.base(), {open, shut}, b,
                               nullptr,
                               [&](const Binding&) {
                                 ++count;
                                 return true;
                               })
                  .ok());
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace lsd
