// The Sec 6.1 definition facility: named retrieval operators defined in
// the standard query language.
#include "query/definitions.h"

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

class DefinitionsTest : public ::testing::Test {
 protected:
  void SetUp() override { workload::BuildBooksDomain(&db_); }

  std::set<std::string> Column(const ResultSet& r, size_t col = 0) {
    std::set<std::string> out;
    for (const auto& row : r.rows) {
      out.insert(db_.entities().Name(row[col]));
    }
    return out;
  }

  LooseDb db_;
};

TEST_F(DefinitionsTest, DefineAndCallWithEntityArg) {
  // The membership conjunct keeps the answer at instance level (rule 2b
  // also lifts authorship to the class PERSON).
  ASSERT_TRUE(db_.DefineOperator(
                    "author-of(?B, ?A) := (?B, IN, BOOK) and "
                    "(?B, AUTHOR, ?A) and (?A, IN, PERSON)")
                  .ok());
  auto r = db_.Call("author-of(B-LOGIC, ?WHO)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(Column(*r), (std::set<std::string>{"ALICE"}));
}

TEST_F(DefinitionsTest, CallWithVariableArgsGivesAllPairs) {
  ASSERT_TRUE(db_.DefineOperator(
                    "author-of(?B, ?A) := (?B, AUTHOR, ?A) and "
                    "(?A, IN, PERSON)")
                  .ok());
  auto r = db_.Call("author-of(?BOOK, ?WHO)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->columns.size(), 2u);
}

TEST_F(DefinitionsTest, StarArgMintsAnonymousVariable) {
  ASSERT_TRUE(
      db_.DefineOperator("author-of(?B, ?A) := (?B, AUTHOR, ?A)").ok());
  auto r = db_.Call("author-of(*, ?WHO)");
  ASSERT_TRUE(r.ok());
  // Two output columns (the anonymous book and the author).
  EXPECT_EQ(r->columns.size(), 2u);
}

TEST_F(DefinitionsTest, TryOperatorIsDefinable) {
  // The spirit of the built-in try(e), Sec 6.1, as a defined operator
  // for the source position.
  ASSERT_TRUE(
      db_.DefineOperator("about(?E, ?R, ?T) := (?E, ?R, ?T)").ok());
  auto r = db_.Call("about(B-LOGIC, *, *)");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->rows.size(), 3u);  // IN BOOK, AUTHOR ALICE, CITES itself
}

TEST_F(DefinitionsTest, DefinitionsComposeWithQuantifiers) {
  ASSERT_TRUE(db_.DefineOperator(
                    "self-citing(?A) := exists ?B ((?B, CITES, ?B) and "
                    "(?B, AUTHOR, ?A) and (?A, IN, PERSON))")
                  .ok());
  auto r = db_.Call("self-citing(?WHO)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Column(*r), (std::set<std::string>{"ALICE"}));
  // Proposition form: a ground invocation.
  auto p = db_.Call("self-citing(ALICE)");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->is_proposition);
  EXPECT_TRUE(p->truth);
  auto q = db_.Call("self-citing(CAROL)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->truth);
}

TEST_F(DefinitionsTest, ArityMismatchRejected) {
  ASSERT_TRUE(
      db_.DefineOperator("author-of(?B, ?A) := (?B, AUTHOR, ?A)").ok());
  auto r = db_.Call("author-of(B-LOGIC)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DefinitionsTest, UnknownDefinitionIsNotFound) {
  auto r = db_.Call("nope(X)");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(DefinitionsTest, DuplicateNameRejected) {
  ASSERT_TRUE(db_.DefineOperator("f(?X) := (?X, IN, BOOK)").ok());
  EXPECT_EQ(db_.DefineOperator("f(?Y) := (?Y, IN, PERSON)").code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DefinitionsTest, ParameterMustOccurInBody) {
  Status s = db_.DefineOperator("f(?X, ?Y) := (?X, IN, BOOK)");
  EXPECT_TRUE(s.IsParseError());
}

TEST_F(DefinitionsTest, BadSyntaxRejected) {
  EXPECT_TRUE(db_.DefineOperator("f(?X) (?X, IN, BOOK)").IsParseError());
  EXPECT_TRUE(db_.DefineOperator("f ?X := (?X, IN, BOOK)").IsParseError());
  EXPECT_TRUE(db_.DefineOperator("f(X) := (X, IN, BOOK)").IsParseError());
}

TEST_F(DefinitionsTest, DefinitionsLoadFromLsdText) {
  Status s = db_.LoadText(
      "(B-NEW, IN, BOOK)\n"
      "define books() := (?B, IN, BOOK)\n");
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(db_.definitions().Has("books"));
  auto r = db_.Call("books()");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 4u);
}

// Arguments and bodies are template positions: a spaced name is one
// entity, in a definition's body as in a call's argument.
TEST_F(DefinitionsTest, CallWithSpacedArgument) {
  ASSERT_TRUE(db_.LoadText("(JOHN SMITH, LIKES, GRAND OPERA)\n"
                           "(MARY, LIKES, OPERA)\n")
                  .ok());
  ASSERT_TRUE(
      db_.DefineOperator("opera-lover(?X) := (?X, LIKES, GRAND OPERA)").ok());
  auto r = db_.Call("opera-lover(JOHN SMITH)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->is_proposition);
  EXPECT_TRUE(r->truth);
  auto who = db_.Call("opera-lover( ?WHO )");
  ASSERT_TRUE(who.ok()) << who.status().ToString();
  EXPECT_EQ(Column(*who), (std::set<std::string>{"JOHN SMITH"}));
  EXPECT_TRUE(db_.Call("opera-lover(JOHN SMITH) junk").status().IsParseError());
}

TEST_F(DefinitionsTest, SameVariableForTwoParams) {
  ASSERT_TRUE(db_.DefineOperator(
                    "related(?X, ?Y) := (?X, CITES, ?Y)")
                  .ok());
  // Passing the same variable to both parameters asks for self-citers.
  auto r = db_.Call("related(?S, ?S)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(Column(*r), (std::set<std::string>{"B-LOGIC"}));
}

}  // namespace
}  // namespace lsd
