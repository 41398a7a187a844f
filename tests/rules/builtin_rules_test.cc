// Verifies every standard inference rule of Section 3 on the paper's own
// examples.
#include "rules/builtin_rules.h"

#include <gtest/gtest.h>

#include "rules/rule_engine.h"

namespace lsd {
namespace {

class BuiltinRulesTest : public ::testing::Test {
 protected:
  BuiltinRulesTest()
      : math_(&store_), engine_(&store_, &math_) {
    for (const Fact& f : StandardSeedFacts()) store_.Assert(f);
    rules_ = StandardRules();
  }

  EntityId E(const char* name) { return store_.entities().Intern(name); }

  void Assert(const char* s, const char* r, const char* t) {
    store_.Assert(s, r, t);
  }

  std::unique_ptr<Closure> Close() {
    auto c = engine_.ComputeClosure(rules_);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(*c);
  }

  bool Holds(const Closure& c, const char* s, const char* r,
             const char* t) {
    return c.view().Contains(Fact(E(s), E(r), E(t)));
  }

  FactStore store_;
  MathProvider math_;
  RuleEngine engine_;
  std::vector<Rule> rules_;
};

// Sec 3.1 rule (1a): (MANAGER ≺ EMPLOYEE) inherits WORKS-FOR.
TEST_F(BuiltinRulesTest, GeneralizationSourcePosition) {
  Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  Assert("MANAGER", "ISA", "EMPLOYEE");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "MANAGER", "WORKS-FOR", "DEPARTMENT"));
}

// Sec 3.1 rule (1b): WORKS-FOR ≺ IS-PAID-BY lifts John's fact.
TEST_F(BuiltinRulesTest, GeneralizationRelationshipPosition) {
  Assert("JOHN", "WORKS-FOR", "SHIPPING");
  Assert("WORKS-FOR", "ISA", "IS-PAID-BY");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "JOHN", "IS-PAID-BY", "SHIPPING"));
}

// Sec 3.1 rule (1c): SALARY ≺ COMPENSATION lifts the target.
TEST_F(BuiltinRulesTest, GeneralizationTargetPosition) {
  Assert("EMPLOYEE", "EARNS", "SALARY");
  Assert("SALARY", "ISA", "COMPENSATION");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "EMPLOYEE", "EARNS", "COMPENSATION"));
}

// Sec 3.1: transitivity of ≺ falls out of rule (1) with r = ≺.
TEST_F(BuiltinRulesTest, GeneralizationIsTransitive) {
  Assert("QUARTERBACK", "ISA", "FOOTBALL-PLAYER");
  Assert("FOOTBALL-PLAYER", "ISA", "ATHLETE");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "QUARTERBACK", "ISA", "ATHLETE"));
}

// Sec 2.3: reflexivity, top and bottom are axiomatic in the view.
TEST_F(BuiltinRulesTest, GeneralizationAxioms) {
  Assert("JOHN", "IN", "EMPLOYEE");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "JOHN", "ISA", "JOHN"));
  EXPECT_TRUE(Holds(*c, "JOHN", "ISA", "ANY"));
  EXPECT_TRUE(Holds(*c, "NONE", "ISA", "JOHN"));
}

// Sec 3.2 rule (2a): John inherits EMPLOYEE's individual relationships.
TEST_F(BuiltinRulesTest, MembershipSourcePosition) {
  Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  Assert("JOHN", "IN", "EMPLOYEE");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "JOHN", "WORKS-FOR", "DEPARTMENT"));
}

// Sec 3.2 rule (2b): Tom works for SHIPPING, a department.
TEST_F(BuiltinRulesTest, MembershipTargetPosition) {
  Assert("TOM", "WORKS-FOR", "SHIPPING");
  Assert("SHIPPING", "IN", "DEPARTMENT");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "TOM", "WORKS-FOR", "DEPARTMENT"));
}

// Sec 3.2 corollary: an instance of an entity is an instance of every
// more general entity.
TEST_F(BuiltinRulesTest, MembershipPropagatesUpGeneralization) {
  Assert("JOHN", "IN", "EMPLOYEE");
  Assert("EMPLOYEE", "ISA", "PERSON");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "JOHN", "IN", "PERSON"));
}

// Sec 2.2: class relationships do NOT distribute over members.
TEST_F(BuiltinRulesTest, ClassRelationshipsDoNotDistribute) {
  Assert("EMPLOYEE", "TOTAL-NUMBER", "180");
  store_.MarkClassRelationship(E("TOTAL-NUMBER"));
  Assert("JOHN", "IN", "EMPLOYEE");
  auto c = Close();
  EXPECT_FALSE(Holds(*c, "JOHN", "TOTAL-NUMBER", "180"));
}

// Sec 3.3: synonyms imply mutual generalization...
TEST_F(BuiltinRulesTest, SynonymImpliesMutualIsa) {
  Assert("SALARY", "SYN", "WAGE");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "SALARY", "ISA", "WAGE"));
  EXPECT_TRUE(Holds(*c, "WAGE", "ISA", "SALARY"));
}

// ...and mutual generalization implies synonymy (the definition), which
// gives symmetry.
TEST_F(BuiltinRulesTest, SynonymIsSymmetric) {
  Assert("JOHN", "SYN", "JOHNNY");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "JOHNNY", "SYN", "JOHN"));
}

// Sec 3.3: (WAGE ≈ PAY) inferred from (SALARY ≈ WAGE), (SALARY ≈ PAY).
TEST_F(BuiltinRulesTest, SynonymIsTransitiveThroughSharedName) {
  Assert("SALARY", "SYN", "WAGE");
  Assert("SALARY", "SYN", "PAY");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "WAGE", "SYN", "PAY"));
}

// Sec 3.3: "r may be replaced with r' in every fact".
TEST_F(BuiltinRulesTest, SynonymSubstitutesEverywhere) {
  Assert("JOHN", "EARNS", "$25000");
  Assert("JOHN", "SYN", "JOHNNY");
  Assert("EARNS", "SYN", "GETS-PAID");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "JOHNNY", "EARNS", "$25000"));
  EXPECT_TRUE(Holds(*c, "JOHN", "GETS-PAID", "$25000"));
  EXPECT_TRUE(Holds(*c, "JOHNNY", "GETS-PAID", "$25000"));
}

// A specialization of a synonym is not a synonym (SYN is a class
// relationship; see fact_store.cc).
TEST_F(BuiltinRulesTest, SynonymyIsNotInherited) {
  Assert("SALARY", "SYN", "WAGE");
  Assert("BONUS", "ISA", "SALARY");
  auto c = Close();
  EXPECT_FALSE(Holds(*c, "BONUS", "SYN", "WAGE"));
}

// Sec 3.4: inversion swaps source and target.
TEST_F(BuiltinRulesTest, InversionDerivesSwappedFact) {
  Assert("INSTRUCTOR", "TEACHES", "COURSE");
  Assert("TEACHES", "INV", "TAUGHT-BY");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "COURSE", "TAUGHT-BY", "INSTRUCTOR"));
}

// Sec 3.4: because (INV, INV, INV) is seeded, inversion facts come in
// pairs, so the inverse direction also works.
TEST_F(BuiltinRulesTest, InversionFactsComeInPairs) {
  Assert("TEACHES", "INV", "TAUGHT-BY");
  Assert("COURSE", "TAUGHT-BY", "INSTRUCTOR");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "TAUGHT-BY", "INV", "TEACHES"));
  EXPECT_TRUE(Holds(*c, "INSTRUCTOR", "TEACHES", "COURSE"));
}

// Sec 3.5: contradiction facts come in pairs too ((CONTRA, INV, CONTRA)).
TEST_F(BuiltinRulesTest, ContradictionFactsComeInPairs) {
  Assert("LOVES", "CONTRA", "HATES");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "HATES", "CONTRA", "LOVES"));
}

// Rules can be disabled (Sec 6.1 exclude()).
TEST_F(BuiltinRulesTest, DisabledRuleDoesNotFire) {
  Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  Assert("JOHN", "IN", "EMPLOYEE");
  for (Rule& r : rules_) {
    if (r.name == kRuleMemSource) r.enabled = false;
  }
  auto c = Close();
  EXPECT_FALSE(Holds(*c, "JOHN", "WORKS-FOR", "DEPARTMENT"));
}

// Documents a soundness glitch in the paper's own rule system: inverting
// a class-level fact and re-instantiating it over members derives
// relationships between every member/instance pair, losing the footnote
// semantics "every employee works for at least ONE department". The
// formal rules license this chain:
//   (EMPLOYEE, WORKS-FOR, DEPARTMENT), (WORKS-FOR, INV, EMPLOYS)
//     => (DEPARTMENT, EMPLOYS, EMPLOYEE)          [inversion]
//   (DEPT-1, IN, DEPARTMENT) => (DEPT-1, EMPLOYS, EMPLOYEE)   [2a]
//     => (EMPLOYEE, WORKS-FOR, DEPT-1)            [inversion]
//   (EMP-2, IN, EMPLOYEE) => (EMP-2, WORKS-FOR, DEPT-1)       [2a]
// even though EMP-2 was only asserted to work for DEPT-2.
TEST_F(BuiltinRulesTest, ClassLevelInversionOverspecializes) {
  Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  Assert("WORKS-FOR", "INV", "EMPLOYS");
  Assert("DEPT-1", "IN", "DEPARTMENT");
  Assert("DEPT-2", "IN", "DEPARTMENT");
  Assert("EMP-2", "IN", "EMPLOYEE");
  Assert("EMP-2", "WORKS-FOR", "DEPT-2");
  auto c = Close();
  // The paper's rules really do derive the cross pair.
  EXPECT_TRUE(Holds(*c, "EMP-2", "WORKS-FOR", "DEPT-1"));
}

// The combined Sec 3.1 narrative: John works for shipping, work implies
// pay, so John is paid by shipping.
TEST_F(BuiltinRulesTest, PaperNarrativeChain) {
  Assert("JOHN", "WORKS-FOR", "SHIPPING");
  Assert("WORKS-FOR", "ISA", "IS-PAID-BY");
  Assert("MANAGER", "ISA", "EMPLOYEE");
  Assert("EMPLOYEE", "EARNS", "SALARY");
  Assert("SALARY", "ISA", "COMPENSATION");
  auto c = Close();
  EXPECT_TRUE(Holds(*c, "JOHN", "IS-PAID-BY", "SHIPPING"));
  EXPECT_TRUE(Holds(*c, "MANAGER", "EARNS", "COMPENSATION"));
}

}  // namespace
}  // namespace lsd
