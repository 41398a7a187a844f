#include "query/parser.h"

#include <gtest/gtest.h>

namespace lsd {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  Query Parse(const std::string& text) {
    auto q = ParseQuery(text, &entities_);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(*q);
  }

  EntityTable entities_;
};

TEST_F(ParserTest, SingleAtom) {
  Query q = Parse("(JOHN, LIKES, ?X)");
  ASSERT_EQ(q.root()->kind, NodeKind::kAtom);
  EXPECT_EQ(q.FreeVars().size(), 1u);
  EXPECT_EQ(q.var_names()[0], "X");
  EXPECT_EQ(q.DebugString(entities_), "(JOHN, LIKES, ?X)");
}

TEST_F(ParserTest, StarMintsAnonymousVariables) {
  Query q = Parse("(JOHN, *, *)");
  EXPECT_EQ(q.FreeVars().size(), 2u);
  // Two distinct variables: (JOHN, *, *) must NOT be (JOHN, ?x, ?x).
  const Template& t = q.root()->atom;
  EXPECT_NE(t.relationship.var(), t.target.var());
}

TEST_F(ParserTest, ConjunctionFlattens) {
  Query q = Parse("(A, R, ?X) and (?X, S, B) and (?X, T, C)");
  ASSERT_EQ(q.root()->kind, NodeKind::kAnd);
  EXPECT_EQ(q.root()->children.size(), 3u);
}

TEST_F(ParserTest, PrecedenceAndBindsTighterThanOr) {
  Query q = Parse("(A, R, ?X) and (B, S, ?X) or (C, T, ?X)");
  ASSERT_EQ(q.root()->kind, NodeKind::kOr);
  ASSERT_EQ(q.root()->children.size(), 2u);
  EXPECT_EQ(q.root()->children[0]->kind, NodeKind::kAnd);
  EXPECT_EQ(q.root()->children[1]->kind, NodeKind::kAtom);
}

TEST_F(ParserTest, ParenthesizedGrouping) {
  Query q = Parse("((A, R, ?X) or (B, S, ?X)) and (C, T, ?X)");
  ASSERT_EQ(q.root()->kind, NodeKind::kAnd);
  EXPECT_EQ(q.root()->children[0]->kind, NodeKind::kOr);
}

TEST_F(ParserTest, ExistsBindsVariable) {
  Query q = Parse("exists ?Y ((?Y, IN, BOOK) and (?Y, AUTHOR, ?X))");
  ASSERT_EQ(q.root()->kind, NodeKind::kExists);
  auto free = q.FreeVars();
  ASSERT_EQ(free.size(), 1u);
  EXPECT_EQ(q.var_names()[free[0]], "X");
}

TEST_F(ParserTest, MultiVariableQuantifier) {
  Query q = Parse("exists ?A ?B (?A, LIKES, ?B)");
  ASSERT_EQ(q.root()->kind, NodeKind::kExists);
  ASSERT_EQ(q.root()->children[0]->kind, NodeKind::kExists);
  EXPECT_TRUE(q.FreeVars().empty());
  EXPECT_TRUE(q.IsProposition());
}

TEST_F(ParserTest, ForallParses) {
  Query q = Parse("forall ?S ((?S, IN, STUDENT) and (?S, LOVES, ?Z))");
  EXPECT_EQ(q.root()->kind, NodeKind::kForall);
  EXPECT_EQ(q.FreeVars().size(), 1u);
}

TEST_F(ParserTest, PaperSelfCitationQuery) {
  // Sec 2.7: all authors who cite themselves.
  Query q = Parse(
      "exists ?X ((?X, IN, BOOK) and (?Y, IN, PERSON) and "
      "(?X, CITES, ?X) and (?X, AUTHOR, ?Y))");
  EXPECT_EQ(q.FreeVars().size(), 1u);
  EXPECT_EQ(q.var_names()[q.FreeVars()[0]], "Y");
}

TEST_F(ParserTest, CloneIsDeepAndEqualText) {
  Query q = Parse("(A, R, ?X) and exists ?Y (?X, S, ?Y)");
  Query c = q.Clone();
  EXPECT_EQ(q.DebugString(entities_), c.DebugString(entities_));
  // Mutating the clone leaves the original intact.
  c.mutable_root()->children[0]->atom.source =
      Term::Entity(entities_.Intern("Z"));
  EXPECT_NE(q.DebugString(entities_), c.DebugString(entities_));
}

TEST_F(ParserTest, ErrorsOnMalformedInput) {
  EXPECT_FALSE(ParseQuery("(A, B)", &entities_).ok());
  EXPECT_FALSE(ParseQuery("(A, B, C,)", &entities_).ok());
  EXPECT_FALSE(ParseQuery("(A, B, C) and", &entities_).ok());
  EXPECT_FALSE(ParseQuery("exists (A, B, C)", &entities_).ok());
  EXPECT_FALSE(ParseQuery("(A, B, C) (D, E, F)", &entities_).ok());
  EXPECT_FALSE(ParseQuery("", &entities_).ok());
  EXPECT_FALSE(ParseQuery("((A, B, C)", &entities_).ok());
}

TEST_F(ParserTest, VariableNamesAreCaseInsensitive) {
  Query q = Parse("(?x, R, ?X)");
  const Template& t = q.root()->atom;
  EXPECT_EQ(t.source.var(), t.target.var());
}

TEST_F(ParserTest, UnicodeRelationsInQueries) {
  Query q = Parse("(?X, ∈, BOOK)");
  EXPECT_EQ(q.root()->atom.relationship.entity(), kEntIn);
}

// A position is its whole trimmed text: inner spaces, '*', '?' and
// keywords belong to the name, as they do in .lsd files.
TEST_F(ParserTest, PositionsAreWholeNames) {
  Query q = Parse("( John Smith ,A*B,  and ) and (WHAT?, OR, exists)");
  EXPECT_EQ(q.DebugString(entities_),
            "(JOHN SMITH, A*B, AND) and (WHAT?, OR, EXISTS)");
}

TEST_F(ParserTest, TrailingTextIsAnError) {
  EXPECT_TRUE(ParseQuery("(A, B, C) junk", &entities_).status().IsParseError());
  EXPECT_TRUE(ParseQuery("(A, B, C))", &entities_).status().IsParseError());
  EXPECT_TRUE(
      ParseQuery("(A, (B), C)", &entities_).status().IsParseError());
}

// The variables a user names never merge with the anonymous ones.
TEST_F(ParserTest, AnonymousVariablesSkipTypedNames) {
  Query q = Parse("(*, ?_1, ?X)");
  const Template& t = q.root()->atom;
  EXPECT_NE(t.source.var(), t.relationship.var());
  EXPECT_EQ(q.DebugString(entities_), "(?_2, ?_1, ?X)");
}

// A malformed query interns nothing.
TEST_F(ParserTest, RejectedQueryInternsNothing) {
  const size_t before = entities_.size();
  EXPECT_FALSE(ParseQuery("(NEWNAME, R, ?X) and (", &entities_).ok());
  EXPECT_EQ(entities_.size(), before);
}

TEST(RuleParserTest, HeadMayNameNowhere) {
  EntityTable entities;
  auto rule = ParseRule("r1: (?X, IN, A) => (?X, GOES, NOWHERE)",
                        RuleKind::kInference, &entities);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->head[0].target.entity(), entities.Lookup("NOWHERE"));
}

TEST(RuleParserTest, SeparatorsCountOnlyBetweenTemplates) {
  EntityTable entities;
  auto rule = ParseRule(
      "r2: (?R, WHERE, A=>B), (AND, ?R, SOMEWHERE) => (?R, X:=Y, OR) "
      "where ?R individual",
      RuleKind::kInference, &entities);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ(rule->body.size(), 2u);
  EXPECT_EQ(rule->var_constraints[0], VarConstraint::kIndividualRelationship);
  EXPECT_EQ(rule->DebugString(entities),
            "(?R, WHERE, A=>B), (AND, ?R, SOMEWHERE) => (?R, X:=Y, OR)");
}

TEST(RuleParserTest, LoneStarIsAnAnonymousVariable) {
  EntityTable entities;
  auto rule = ParseRule("r5: (?X, *, Y1) => (?X, TOUCHES, Y1)",
                        RuleKind::kInference, &entities);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_TRUE(rule->body[0].relationship.is_variable());
  EXPECT_FALSE(entities.Lookup("*").has_value());
}

// Nothing could bind an anonymous variable in a head, so there a lone
// '*' is the entity '*', as rules stored by earlier builds read it.
TEST(RuleParserTest, LoneStarInAHeadIsTheEntityStar) {
  EntityTable entities;
  auto rule = ParseRule("r6: (?X, LINKS, ?Y) => (?X, *, ?Y)",
                        RuleKind::kInference, &entities);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ASSERT_TRUE(rule->head[0].relationship.is_entity());
  EXPECT_EQ(rule->head[0].relationship.entity(), entities.Lookup("*"));
  EXPECT_EQ(rule->var_names, (std::vector<std::string>{"X", "Y"}));
  EXPECT_EQ(rule->DebugString(entities), "(?X, LINKS, ?Y) => (?X, *, ?Y)");
}

TEST(RuleParserTest, TextBetweenTemplatesIsAnError) {
  EntityTable entities;
  EXPECT_TRUE(ParseRule("r: (?X, R, A) junk (?X, S, B) => (?X, T, C)",
                        RuleKind::kInference, &entities)
                  .status()
                  .IsParseError());
  EXPECT_TRUE(ParseRule("r: (?X, R, A) => (?X, T, C) where ?X individual x",
                        RuleKind::kInference, &entities)
                  .status()
                  .IsParseError());
}

TEST(FactParserTest, FactsHoldNoVariable) {
  auto facts = ParseFacts("(JOHN SMITH, LIKES, OPERA), (AND, ISA, A*B)");
  ASSERT_TRUE(facts.ok()) << facts.status().ToString();
  EXPECT_EQ(*facts, (std::vector<FactNames>{{"JOHN SMITH", "LIKES", "OPERA"},
                                            {"AND", "ISA", "A*B"}}));
  EXPECT_FALSE(ParseFacts("(A, *, B)").ok());
  EXPECT_FALSE(ParseFacts("(A, ?X, B)").ok());
  EXPECT_FALSE(ParseFacts("(A, B, C) junk (D, E, F)").ok());
  EXPECT_FALSE(ParseFacts("(A\nB, R, C)").ok());
}

}  // namespace
}  // namespace lsd
