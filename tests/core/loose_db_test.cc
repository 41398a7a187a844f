#include "core/loose_db.h"

#include <gtest/gtest.h>

namespace lsd {
namespace {

TEST(LooseDbTest, AssertRetractRoundTrip) {
  LooseDb db;
  Fact f = db.Assert("A", "R", "B");
  EXPECT_TRUE(db.store().Contains(f));
  EXPECT_TRUE(db.Retract(f));
  EXPECT_FALSE(db.store().Contains(f));
  EXPECT_FALSE(db.Retract(f));
  EXPECT_TRUE(db.Retract("A", "R", "B").IsNotFound());
  EXPECT_TRUE(db.Retract("NO", "SUCH", "NAMES").IsNotFound());
}

TEST(LooseDbTest, StandardRulesInstalledByDefault) {
  LooseDb db;
  EXPECT_FALSE(db.rules().empty());
  EXPECT_TRUE(db.IsRuleEnabled("gen-source"));
  EXPECT_TRUE(db.IsRuleEnabled("inversion"));
}

TEST(LooseDbTest, BareDbHasNoRules) {
  LooseDbOptions options;
  options.standard_rules = false;
  LooseDb db(options);
  EXPECT_TRUE(db.rules().empty());
  db.Assert("JOHN", "IN", "EMPLOYEE");
  db.Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  auto r = db.Query("(JOHN, WORKS-FOR, DEPARTMENT)");
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->truth);  // no inference without rules
}

TEST(LooseDbTest, ClosureIsCachedUntilMutation) {
  LooseDb db;
  db.Assert("A", "ISA", "B");
  auto v1 = db.View();
  ASSERT_TRUE(v1.ok());
  auto v2 = db.View();
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v1, *v2);  // same cached pointer
  db.Assert("B", "ISA", "C");
  auto v3 = db.View();
  ASSERT_TRUE(v3.ok());
  EXPECT_TRUE((*v3)->Contains(
      Fact(*db.entities().Lookup("A"), kEntIsa,
           *db.entities().Lookup("C"))));
}

TEST(LooseDbTest, ClosureStatsAvailableAfterView) {
  LooseDb db;
  EXPECT_EQ(db.closure_stats(), nullptr);
  db.Assert("A", "ISA", "B");
  ASSERT_TRUE(db.View().ok());
  ASSERT_NE(db.closure_stats(), nullptr);
  EXPECT_GE(db.closure_stats()->rounds, 1u);
}

TEST(LooseDbTest, DefineRuleAndQuery) {
  LooseDb db;
  ASSERT_TRUE(
      db.DefineRule("pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)")
          .ok());
  db.Assert("JOHN", "IN", "EMPLOYEE");
  auto r = db.Query("(JOHN, EARNS, SALARY)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truth);
  // Duplicate names rejected.
  EXPECT_EQ(db.DefineRule("pay: (?X, IN, A) => (?X, IN, B)").code(),
            StatusCode::kAlreadyExists);
}

TEST(LooseDbTest, IntegrityFacade) {
  LooseDb db;
  db.Assert("JOHN", "LOVES", "MARY");
  EXPECT_TRUE(db.CheckIntegrity().ok());
  db.Assert("JOHN", "HATES", "MARY");
  db.Assert("LOVES", "CONTRA", "HATES");
  EXPECT_TRUE(db.CheckIntegrity().IsIntegrityViolation());
  auto violations = db.FindIntegrityViolations();
  ASSERT_TRUE(violations.ok());
  EXPECT_EQ(violations->size(), 1u);
}

TEST(LooseDbTest, LoadTextInstallsFactsAndRules) {
  LooseDb db;
  Status s = db.LoadText(
      "(JOHN, IN, EMPLOYEE)\n"
      "rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  auto r = db.Query("(JOHN, EARNS, SALARY)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truth);
}

TEST(LooseDbMemoryTest, ReportsPerTierBytes) {
  LooseDb db;
  db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  db.Assert("SHIPPING", "IN", "DEPARTMENT");
  db.Assert("JOHN", "IN", "EMPLOYEE");
  // A bulk load lands as a frozen segment beside those overlay facts.
  std::vector<Fact> bulk;
  for (int i = 0; i < 300; ++i) {
    bulk.push_back(db.entities().InternFact("E" + std::to_string(i), "R",
                                            "E" + std::to_string(i + 1)));
  }
  EXPECT_EQ(db.AssertAll(bulk), bulk.size());
  auto mem = db.MemoryUsage();
  ASSERT_TRUE(mem.ok());
  // The frozen base segment: columns, permutations, and offset tables
  // are all live; the single asserts sit in the overlay.
  EXPECT_GT(mem->base.frozen.run_bytes, 0u);
  EXPECT_GT(mem->base.frozen.perm_bytes, 0u);
  EXPECT_GT(mem->base.frozen.offset_bytes, 0u);
  EXPECT_GT(mem->base.overlay_bytes, 0u);
  // The standard rules derive facts, so the derived tier is non-empty.
  EXPECT_GT(mem->derived.total(), 0u);
  EXPECT_GT(mem->entity_bytes, 0u);
  EXPECT_EQ(mem->total(), mem->base.total() + mem->derived.total() +
                              mem->entity_bytes + mem->pending_bytes);
  // Columnar CSR beats three sorted Fact arrays on the same fact set.
  EXPECT_LT(mem->base.frozen.total(), 3 * sizeof(Fact) * bulk.size());
}

TEST(LooseDbMemoryTest, TotalCountsNamesAndFacts) {
  LooseDb db;
  db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  auto before = db.MemoryUsage();
  ASSERT_TRUE(before.ok());
  // Interning names grows the entity table's share.
  for (int i = 0; i < 100; ++i) {
    db.entities().Intern("A-RATHER-LONG-ENTITY-NAME-" + std::to_string(i));
  }
  auto named = db.MemoryUsage();
  ASSERT_TRUE(named.ok());
  EXPECT_GT(named->entity_bytes, before->entity_bytes);
  EXPECT_GT(named->total(), before->total());
  // Asserting facts grows the base tier's share.
  for (int i = 0; i < 100; ++i) {
    db.Assert("A-RATHER-LONG-ENTITY-NAME-" + std::to_string(i), "KNOWS",
              "JOHN");
  }
  auto asserted = db.MemoryUsage();
  ASSERT_TRUE(asserted.ok());
  EXPECT_GT(asserted->base.total(), named->base.total());
  EXPECT_GT(asserted->total(), named->total());
}

}  // namespace
}  // namespace lsd
