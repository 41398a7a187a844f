// The Sec 6.1 operators: try(e), relation(...), limit(n),
// include/exclude(rule).
#include "browse/operators.h"

#include <gtest/gtest.h>

#include <string>

#include "core/loose_db.h"
#include "server/shared_store.h"

namespace lsd {
namespace {

class OperatorsTest : public ::testing::Test {
 protected:
  EntityId E(const char* name) { return db_.entities().Intern(name); }

  LooseDb db_;
};

TEST_F(OperatorsTest, TryFindsAllPositions) {
  db_.Assert("JOHN", "LIKES", "FELIX");
  db_.Assert("MARY", "LIKES", "JOHN");
  db_.Assert("BOSS", "JOHN", "X");  // JOHN used as a relationship name
  auto view = db_.View();
  ASSERT_TRUE(view.ok());
  std::vector<Fact> facts = TryEntity(**view, E("JOHN"));
  EXPECT_EQ(facts.size(), 3u);
}

TEST_F(OperatorsTest, TryDeduplicates) {
  db_.Assert("JOHN", "LIKES", "JOHN");  // appears in two positions
  auto view = db_.View();
  ASSERT_TRUE(view.ok());
  std::vector<Fact> facts = TryEntity(**view, E("JOHN"));
  EXPECT_EQ(facts.size(), 1u);
}

TEST_F(OperatorsTest, RenderTryViaFacade) {
  db_.Assert("JOHN", "LIKES", "FELIX");
  auto out = db_.Try("JOHN");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("try(JOHN):"), std::string::npos);
  EXPECT_NE(out->find("(JOHN, LIKES, FELIX)"), std::string::npos);
  EXPECT_FALSE(db_.Try("NOBODY").ok());
}

// try lists each group in fact-id order, so a change of layout with no
// logical content — a compaction, a retract and re-assert — leaves the
// listing byte-identical.
TEST(TryOrderTest, ListingSurvivesLayoutChanges) {
  SharedStore store;
  auto loaded = store.Commit([](LooseDb& db) {
    return db.LoadTextFile(std::string(LSD_SOURCE_DIR) + "/data/music.lsd");
  });
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto try_john = [&store] {
    auto out = store.snapshot()->db().Try("JOHN");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : std::string();
  };
  const std::string listing = try_john();
  ASSERT_NE(listing.find("(JOHN, IN, EMPLOYEE)"), std::string::npos);

  ASSERT_TRUE(store.CompactOnce().ok());
  EXPECT_EQ(try_john(), listing);

  auto retracted = store.Commit([](LooseDb& db) {
    return db.Retract("JOHN", "IN", "EMPLOYEE");
  });
  ASSERT_TRUE(retracted.ok()) << retracted.status().ToString();
  EXPECT_EQ(try_john().find("(JOHN, IN, EMPLOYEE)"), std::string::npos);
  auto reasserted = store.Commit([](LooseDb& db) {
    db.Assert("JOHN", "IN", "EMPLOYEE");
    return Status::OK();
  });
  ASSERT_TRUE(reasserted.ok()) << reasserted.status().ToString();
  EXPECT_EQ(try_john(), listing);

  ASSERT_TRUE(store.CompactOnce().ok());
  EXPECT_EQ(try_john(), listing);
}

// F5: the relation(employee, works-for department, earns salary) table.
TEST_F(OperatorsTest, RelationOperatorPaperExample) {
  db_.LoadText(R"(
(JOHN, IN, EMPLOYEE)
(TOM, IN, EMPLOYEE)
(MARY, IN, EMPLOYEE)
(JOHN, WORKS-FOR, SHIPPING)
(TOM, WORKS-FOR, ACCOUNTING)
(MARY, WORKS-FOR, RECEIVING)
(SHIPPING, IN, DEPARTMENT)
(ACCOUNTING, IN, DEPARTMENT)
(RECEIVING, IN, DEPARTMENT)
(JOHN, EARNS, $26000)
(TOM, EARNS, $27000)
(MARY, EARNS, $25000)
($26000, IN, SALARY)
($27000, IN, SALARY)
($25000, IN, SALARY)
)");
  auto table = db_.Relation("EMPLOYEE", {{"WORKS-FOR", "DEPARTMENT"},
                                         {"EARNS", "SALARY"}});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->rows.size(), 3u);
  std::string rendered = table->Render(db_.entities());
  EXPECT_NE(rendered.find("EMPLOYEE"), std::string::npos);
  EXPECT_NE(rendered.find("WORKS-FOR DEPARTMENT"), std::string::npos);
  EXPECT_NE(rendered.find("EARNS SALARY"), std::string::npos);
  EXPECT_NE(rendered.find("SHIPPING"), std::string::npos);
  EXPECT_NE(rendered.find("$26000"), std::string::npos);
}

TEST_F(OperatorsTest, RelationIsNotNecessarilyFirstNormalForm) {
  db_.LoadText(R"(
(SUE, IN, EMPLOYEE)
(SUE, WORKS-FOR, SHIPPING)
(SUE, WORKS-FOR, RECEIVING)
(SHIPPING, IN, DEPARTMENT)
(RECEIVING, IN, DEPARTMENT)
)");
  auto table = db_.Relation("EMPLOYEE", {{"WORKS-FOR", "DEPARTMENT"}});
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);
  EXPECT_EQ(table->rows[0][1].size(), 2u);  // two departments in one cell
}

TEST_F(OperatorsTest, RelationSeesInferredMembership) {
  db_.Assert("MANAGER", "ISA", "EMPLOYEE");
  db_.Assert("ANN", "IN", "MANAGER");
  db_.Assert("ANN", "WORKS-FOR", "SHIPPING");
  db_.Assert("SHIPPING", "IN", "DEPARTMENT");
  auto table = db_.Relation("EMPLOYEE", {{"WORKS-FOR", "DEPARTMENT"}});
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows.size(), 1u);  // ANN ∈ EMPLOYEE by inference
  EXPECT_EQ(db_.entities().Name(table->rows[0][0][0]), "ANN");
}

TEST_F(OperatorsTest, RelationValuesFilteredByTargetClass) {
  db_.Assert("JOHN", "IN", "EMPLOYEE");
  db_.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  db_.Assert("JOHN", "WORKS-FOR", "NOT-A-DEPT");
  db_.Assert("SHIPPING", "IN", "DEPARTMENT");
  auto table = db_.Relation("EMPLOYEE", {{"WORKS-FOR", "DEPARTMENT"}});
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->rows[0][1].size(), 1u);
  EXPECT_EQ(db_.entities().Name(table->rows[0][1][0]), "SHIPPING");
}

TEST_F(OperatorsTest, IncludeExcludeToggleInference) {
  db_.Assert("JOHN", "IN", "EMPLOYEE");
  db_.Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");

  auto before = db_.Query("(JOHN, WORKS-FOR, DEPARTMENT)");
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->truth);

  ASSERT_TRUE(db_.SetRuleEnabled("mem-source", false).ok());
  EXPECT_FALSE(db_.IsRuleEnabled("mem-source"));
  auto off = db_.Query("(JOHN, WORKS-FOR, DEPARTMENT)");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off->truth);

  ASSERT_TRUE(db_.SetRuleEnabled("mem-source", true).ok());
  auto on = db_.Query("(JOHN, WORKS-FOR, DEPARTMENT)");
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(on->truth);

  EXPECT_TRUE(db_.SetRuleEnabled("no-such-rule", false).IsNotFound());
}

TEST_F(OperatorsTest, LimitOperatorControlsCompositionDistance) {
  db_.Assert("A", "R", "B");
  db_.Assert("B", "R", "C");
  db_.Assert("C", "R", "D");
  db_.SetCompositionLimit(2);
  auto assocs = db_.Associations("A", "D");
  ASSERT_TRUE(assocs.ok());
  EXPECT_TRUE(assocs->empty());
  db_.SetCompositionLimit(3);
  assocs = db_.Associations("A", "D");
  ASSERT_TRUE(assocs.ok());
  EXPECT_EQ(assocs->size(), 1u);
}

}  // namespace
}  // namespace lsd
