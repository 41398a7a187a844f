#include "rules/composition.h"

#include <gtest/gtest.h>

#include "rules/closure_view.h"

namespace lsd {
namespace {

class CompositionTest : public ::testing::Test {
 protected:
  CompositionTest()
      : math_(&store_), view_(&store_, &store_.base(), nullptr, &math_),
        composer_(&store_.entities()) {}

  EntityId E(const char* name) { return store_.entities().Intern(name); }

  FactStore store_;
  MathProvider math_;
  ClosureView view_;
  CompositionEngine composer_;
};

// Sec 3.7's example: Tom's instructor, by way of CS100.
TEST_F(CompositionTest, PaperExample) {
  store_.Assert("TOM", "ENROLLED-IN", "CS100");
  store_.Assert("CS100", "TAUGHT-BY", "HARRY");
  const size_t names = store_.entities().size();
  CompositionOptions options;
  options.limit = 2;
  auto paths = composer_.PathsBetween(view_, E("TOM"), E("HARRY"), options);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  const FactChain& chain = (*paths)[0];
  EXPECT_EQ(ComposedName(store_.entities(), chain),
            "ENROLLED-IN.CS100.TAUGHT-BY");
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.front().source, E("TOM"));
  EXPECT_EQ(chain.back().target, E("HARRY"));
  // The composed relationship is spelled, not interned.
  EXPECT_EQ(store_.entities().size(), names);
}

TEST_F(CompositionTest, LimitOneDisablesComposition) {
  store_.Assert("A", "R1", "B");
  store_.Assert("B", "R2", "C");
  CompositionOptions options;
  options.limit = 1;  // Sec 6.1: n = 1 disables composition altogether
  auto paths = composer_.PathsBetween(view_, E("A"), E("C"), options);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths->empty());
}

TEST_F(CompositionTest, LimitBoundsChainLength) {
  store_.Assert("A", "R", "B");
  store_.Assert("B", "R", "C");
  store_.Assert("C", "R", "D");
  CompositionOptions options;
  options.limit = 2;
  auto paths = composer_.PathsBetween(view_, E("A"), E("D"), options);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths->empty());  // A->D needs 3 links
  options.limit = 3;
  paths = composer_.PathsBetween(view_, E("A"), E("D"), options);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  EXPECT_EQ((*paths)[0].size(), 3u);
}

// Sec 3.7: cyclic compositions are avoided; a 2-cycle produces no
// endless paths and no s==t compositions.
TEST_F(CompositionTest, TwoCycleProducesNoComposition) {
  store_.Assert("JOHN", "LOVES", "MARY");
  store_.Assert("MARY", "LOVES", "JOHN");
  CompositionOptions options;
  options.limit = 6;
  auto paths = composer_.PathsBetween(view_, E("JOHN"), E("MARY"), options);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths->empty());  // only the direct fact relates them
}

// Simple-path strengthening: a 3-cycle yields finitely many paths even
// with a generous limit.
TEST_F(CompositionTest, ThreeCycleStaysFinite) {
  store_.Assert("A", "R", "B");
  store_.Assert("B", "R", "C");
  store_.Assert("C", "R", "A");
  CompositionOptions options;
  options.limit = 10;
  auto paths = composer_.PathsBetween(view_, E("A"), E("C"), options);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);  // A->B->C only: A may not repeat
  EXPECT_EQ((*paths)[0].size(), 2u);
}

TEST_F(CompositionTest, MultiplePathsAllFound) {
  store_.Assert("JOHN", "FAVORITE-MUSIC", "PC9");
  store_.Assert("PC9", "COMPOSED-BY", "MOZART");
  store_.Assert("JOHN", "ADMIRES", "LEOPOLD");
  store_.Assert("LEOPOLD", "FATHER-OF", "MOZART");
  CompositionOptions options;
  options.limit = 3;
  auto paths = composer_.PathsBetween(view_, E("JOHN"), E("MOZART"),
                                      options);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 2u);
}

TEST_F(CompositionTest, MetaRelationshipsExcludedByDefault) {
  store_.Assert("A", "ISA", "B");
  store_.Assert("B", "R", "C");
  CompositionOptions options;
  options.limit = 3;
  auto paths = composer_.PathsBetween(view_, E("A"), E("C"), options);
  ASSERT_TRUE(paths.ok());
  EXPECT_TRUE(paths->empty());
  options.include_meta_relationships = true;
  paths = composer_.PathsBetween(view_, E("A"), E("C"), options);
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 1u);
}

TEST_F(CompositionTest, MaterializeAllCountsGrowWithLimit) {
  // A small chain: facts A0->A1->A2->A3.
  for (int i = 0; i < 3; ++i) {
    store_.Assert(("A" + std::to_string(i)).c_str(), "R",
                  ("A" + std::to_string(i + 1)).c_str());
  }
  CompositionOptions options;
  options.limit = 2;
  auto two = composer_.MaterializeAll(view_, options);
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(two->size(), 2u);  // A0A1A2, A1A2A3
  options.limit = 4;
  auto four = composer_.MaterializeAll(view_, options);
  ASSERT_TRUE(four.ok());
  EXPECT_EQ(four->size(), 3u);  // + A0..A3 (len 3); len-4 impossible
}

TEST_F(CompositionTest, MaterializeAllRespectsMaxResults) {
  // A dense bipartite-ish graph generates many paths.
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      store_.Assert(("L" + std::to_string(i)).c_str(), "R",
                    ("M" + std::to_string(j)).c_str());
      store_.Assert(("M" + std::to_string(j)).c_str(), "R",
                    ("N" + std::to_string(i)).c_str());
    }
  }
  CompositionOptions options;
  options.limit = 3;
  options.max_results = 10;
  auto r = composer_.MaterializeAll(view_, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST_F(CompositionTest, ComposedNamesNestCorrectly) {
  store_.Assert("A", "R1", "B");
  store_.Assert("B", "R2", "C");
  store_.Assert("C", "R3", "D");
  CompositionOptions options;
  options.limit = 3;
  auto paths = composer_.PathsBetween(view_, E("A"), E("D"), options);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  EXPECT_EQ(ComposedName(store_.entities(), (*paths)[0]), "R1.B.R2.C.R3");
}

TEST_F(CompositionTest, ComposedRelationshipsDoNotRecompose) {
  store_.Assert("A", "R1", "B");
  store_.Assert("B", "R2", "C");
  // Mint the composed fact and *store* it, as if materialized.
  CompositionOptions options;
  options.limit = 2;
  auto paths = composer_.PathsBetween(view_, E("A"), E("C"), options);
  ASSERT_TRUE(paths.ok());
  ASSERT_EQ(paths->size(), 1u);
  const EntityId composed = store_.entities().InternComposed(
      ComposedName(store_.entities(), (*paths)[0]));
  store_.Assert(Fact(E("A"), composed, E("C")));
  store_.Assert("C", "R3", "D");
  options.limit = 4;
  auto more = composer_.PathsBetween(view_, E("A"), E("D"), options);
  ASSERT_TRUE(more.ok());
  // Only the elementary chain A->B->C->D; the stored composed fact is
  // not used as a link.
  ASSERT_EQ(more->size(), 1u);
  EXPECT_EQ((*more)[0].size(), 3u);
}

// PathsBetween stops at max_results with OutOfRange, as MaterializeAll
// does, so a hub pair cannot build an unbounded answer.
TEST_F(CompositionTest, PathsBetweenRespectsMaxResults) {
  for (int i = 0; i < 6; ++i) {
    const std::string mid = "M" + std::to_string(i);
    store_.Assert("A", "R", mid.c_str());
    store_.Assert(mid.c_str(), "R", "B");
  }
  const size_t names = store_.entities().size();
  CompositionOptions options;
  options.limit = 2;
  options.max_results = 6;
  auto all = composer_.PathsBetween(view_, E("A"), E("B"), options);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->size(), 6u);
  options.max_results = 5;
  auto capped = composer_.PathsBetween(view_, E("A"), E("B"), options);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(store_.entities().size(), names);
}

}  // namespace
}  // namespace lsd
