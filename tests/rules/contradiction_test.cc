#include "rules/contradiction.h"

#include <gtest/gtest.h>

#include "rules/builtin_rules.h"
#include "rules/rule_engine.h"

namespace lsd {
namespace {

class ContradictionTest : public ::testing::Test {
 protected:
  ContradictionTest()
      : math_(&store_), engine_(&store_, &math_) {
    for (const Fact& f : StandardSeedFacts()) store_.Assert(f);
  }

  EntityId E(const char* name) { return store_.entities().Intern(name); }

  std::unique_ptr<Closure> Close(std::vector<Rule> extra = {}) {
    std::vector<Rule> rules = StandardRules();
    for (Rule& r : extra) rules.push_back(std::move(r));
    auto c = engine_.ComputeClosure(rules);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(*c);
  }

  FactStore store_;
  MathProvider math_;
  RuleEngine engine_;
};

TEST_F(ContradictionTest, CleanDatabasePasses) {
  store_.Assert("JOHN", "LOVES", "MARY");
  store_.Assert("LOVES", "CONTRA", "HATES");
  auto c = Close();
  EXPECT_TRUE(CheckIntegrity(c->view()).ok());
  EXPECT_TRUE(FindViolations(c->view()).empty());
}

TEST_F(ContradictionTest, DeclaredContradictionDetected) {
  store_.Assert("JOHN", "LOVES", "MARY");
  store_.Assert("JOHN", "HATES", "MARY");
  store_.Assert("LOVES", "CONTRA", "HATES");
  auto c = Close();
  auto violations = FindViolations(c->view());
  ASSERT_EQ(violations.size(), 1u);  // the unordered pair reported once
  Status s = CheckIntegrity(c->view());
  EXPECT_TRUE(s.IsIntegrityViolation());
  EXPECT_NE(s.message().find("contradictory"), std::string::npos);
}

TEST_F(ContradictionTest, ContradictionViaInferredFact) {
  // The contradicting fact arrives by inference, not assertion: Felix
  // adores Mary, ADORES ≺ LOVES, and Felix hates Mary.
  store_.Assert("FELIX", "ADORES", "MARY");
  store_.Assert("ADORES", "ISA", "LOVES");
  store_.Assert("FELIX", "HATES", "MARY");
  store_.Assert("LOVES", "CONTRA", "HATES");
  auto c = Close();
  EXPECT_FALSE(FindViolations(c->view()).empty());
}

TEST_F(ContradictionTest, FalseAssertedComparisonDetected) {
  store_.Assert("5", ">", "8");  // arithmetic disagrees
  auto c = Close();
  auto violations = FindViolations(c->view());
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].description.find("arithmetic"),
            std::string::npos);
}

TEST_F(ContradictionTest, TrueAssertedComparisonPasses) {
  store_.Assert("8", ">", "5");
  auto c = Close();
  EXPECT_TRUE(FindViolations(c->view()).empty());
}

TEST_F(ContradictionTest, UndecidableComparisonNotFlagged) {
  // Symbolic operand: the provider cannot decide, so no violation.
  store_.Assert("JOHNS-AGE", ">", "0");
  auto c = Close();
  EXPECT_TRUE(FindViolations(c->view()).empty());
}

// Sec 2.5's integrity-as-inference: a rule head that derives a false
// comparison is caught.
TEST_F(ContradictionTest, IntegrityRuleViolationSurfacesAsContradiction) {
  store_.Assert("EMP", "MANAGER", "BOSS");
  store_.Assert("EMP", "EARNS", "50000");
  store_.Assert("BOSS", "EARNS", "40000");
  RuleBuilder b("salary-cap");
  Term x = b.Var("X"), m = b.Var("M"), u = b.Var("U"), v = b.Var("V");
  b.SetKind(RuleKind::kIntegrity)
      .Body(x, Term::Entity(E("MANAGER")), m)
      .Body(x, Term::Entity(E("EARNS")), u)
      .Body(m, Term::Entity(E("EARNS")), v)
      .Head(v, Term::Entity(kEntGreaterEq), u);
  std::vector<Rule> extra;
  extra.push_back(std::move(b).Build());
  auto c = Close(std::move(extra));
  auto violations = FindViolations(c->view());
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].description.find("arithmetic"),
            std::string::npos);
}

TEST_F(ContradictionTest, SatisfiedIntegrityRulePasses) {
  store_.Assert("EMP", "MANAGER", "BOSS");
  store_.Assert("EMP", "EARNS", "50000");
  store_.Assert("BOSS", "EARNS", "60000");
  RuleBuilder b("salary-cap");
  Term x = b.Var("X"), m = b.Var("M"), u = b.Var("U"), v = b.Var("V");
  b.SetKind(RuleKind::kIntegrity)
      .Body(x, Term::Entity(E("MANAGER")), m)
      .Body(x, Term::Entity(E("EARNS")), u)
      .Body(m, Term::Entity(E("EARNS")), v)
      .Head(v, Term::Entity(kEntGreaterEq), u);
  std::vector<Rule> extra;
  extra.push_back(std::move(b).Build());
  auto c = Close(std::move(extra));
  EXPECT_TRUE(FindViolations(c->view()).empty());
}

}  // namespace
}  // namespace lsd
