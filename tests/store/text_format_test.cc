#include "store/text_format.h"

#include <gtest/gtest.h>

namespace lsd {
namespace {

// Asserts the facts ParseText returns, as LooseDb's load path does.
Status ParseInto(std::string_view text, FactStore* store,
                 std::vector<Rule>* rules) {
  std::vector<Fact> facts;
  LSD_RETURN_IF_ERROR(ParseText(text, &store->entities(), &facts, rules));
  for (const Fact& f : facts) store->Assert(f);
  return Status::OK();
}

TEST(TextFormatTest, ParsesFactsAndComments) {
  EntityTable entities;
  std::vector<Fact> facts;
  Status s = ParseText(
      "# a comment\n"
      "(JOHN, WORKS-FOR, SHIPPING)\n"
      "\n"
      "(SHIPPING, IN, DEPARTMENT)\n",
      &entities, &facts, nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(facts.size(), 2u);
  auto john = entities.Lookup("JOHN");
  ASSERT_TRUE(john.has_value());
  EXPECT_EQ(facts[0].source, *john);
  EXPECT_EQ(facts[1].relationship, kEntIn);
}

TEST(TextFormatTest, ParsesRules) {
  FactStore store;
  std::vector<Rule> rules;
  Status s = ParseInto(
      "rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)\n"
      "integrity pos: (?X, IN, AGE-VALUE) => (?X, >, 0)\n",
      &store, &rules);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "pay");
  EXPECT_EQ(rules[0].kind, RuleKind::kInference);
  EXPECT_EQ(rules[0].body.size(), 1u);
  EXPECT_EQ(rules[0].head.size(), 1u);
  EXPECT_EQ(rules[1].kind, RuleKind::kIntegrity);
}

TEST(TextFormatTest, ParsesWhereConstraints) {
  FactStore store;
  std::vector<Rule> rules;
  Status s = ParseInto(
      "rule gen: (?S, ?R, ?T), (?S2, ISA, ?S) => (?S2, ?R, ?T) "
      "where ?R individual\n",
      &store, &rules);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(rules.size(), 1u);
  bool found = false;
  for (size_t i = 0; i < rules[0].var_names.size(); ++i) {
    if (rules[0].var_names[i] == "R") {
      EXPECT_EQ(rules[0].var_constraints[i],
                VarConstraint::kIndividualRelationship);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TextFormatTest, ParsesClassMark) {
  FactStore store;
  Status s = ParseInto("@class TOTAL-NUMBER\n", &store, nullptr);
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(store.IsClassRelationship(
      *store.entities().Lookup("TOTAL-NUMBER")));
}

TEST(TextFormatTest, ErrorsCarryLineNumbers) {
  FactStore store;
  Status s = ParseInto("(A, B, C)\n(broken\n", &store, nullptr);
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(TextFormatTest, VariablesForbiddenInFacts) {
  FactStore store;
  Status s = ParseInto("(?X, R, B)\n", &store, nullptr);
  EXPECT_TRUE(s.IsParseError());
}

TEST(TextFormatTest, RejectsUnsafeRule) {
  FactStore store;
  std::vector<Rule> rules;
  Status s = ParseInto("rule bad: (?X, R, ?Y) => (?X, R, ?Z)\n", &store,
                       &rules);
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("unsafe"), std::string::npos);
}

TEST(TextFormatTest, RuleRoundTrip) {
  FactStore store;
  std::vector<Rule> rules;
  ASSERT_TRUE(ParseInto(
                  "rule gen: (?S, ?R, ?T), (?S2, ISA, ?S) => (?S2, ?R, ?T) "
                  "where ?R individual\n",
                  &store, &rules)
                  .ok());
  std::string text = SerializeRule(rules[0], store.entities());
  FactStore store2;
  std::vector<Rule> rules2;
  Status s = ParseInto(text + "\n", &store2, &rules2);
  ASSERT_TRUE(s.ok()) << s.ToString() << " text: " << text;
  ASSERT_EQ(rules2.size(), 1u);
  EXPECT_EQ(rules2[0].name, rules[0].name);
  EXPECT_EQ(rules2[0].body.size(), rules[0].body.size());
  EXPECT_EQ(rules2[0].var_constraints, rules[0].var_constraints);
}

TEST(TextFormatTest, FactsRoundTripThroughSerializeFacts) {
  FactStore store;
  store.Assert("JOHN", "LIKES", "FELIX");
  store.Assert("PC#9-WAM", "COMPOSED-BY", "MOZART");
  std::string text = SerializeFacts(store);
  FactStore store2;
  ASSERT_TRUE(ParseInto(text, &store2, nullptr).ok());
  EXPECT_EQ(store2.size(), 2u);
  EXPECT_TRUE(store2.Contains(
      Fact(*store2.entities().Lookup("PC#9-WAM"),
           *store2.entities().Lookup("COMPOSED-BY"),
           *store2.entities().Lookup("MOZART"))));
}

TEST(TextFormatTest, UnicodeRelationAliases) {
  FactStore store;
  Status s = ParseInto("(EMPLOYEE, ≺, PERSON)\n(JOHN, ∈, EMPLOYEE)\n",
                       &store, nullptr);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(store.Contains(Fact(*store.entities().Lookup("EMPLOYEE"),
                                  kEntIsa,
                                  *store.entities().Lookup("PERSON"))));
  EXPECT_TRUE(store.Contains(Fact(*store.entities().Lookup("JOHN"),
                                  kEntIn,
                                  *store.entities().Lookup("EMPLOYEE"))));
}

}  // namespace
}  // namespace lsd
