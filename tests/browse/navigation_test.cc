// Reproduces the Sec 4.1 navigation session (F1-F3 in DESIGN.md).
#include "browse/navigation.h"

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "workload/music_domain.h"

namespace lsd {
namespace {

class NavigationTest : public ::testing::Test {
 protected:
  void SetUp() override { workload::BuildMusicDomain(&db_); }

  std::set<std::string> Names(const std::vector<EntityId>& ids) {
    std::set<std::string> out;
    for (EntityId e : ids) out.insert(db_.entities().Name(e));
    return out;
  }

  const NeighborhoodView::RelationGroup* FindGroup(
      const NeighborhoodView& view, const std::string& rel) {
    for (const auto& g : view.outgoing) {
      if (db_.entities().Name(g.relationship) == rel) return &g;
    }
    return nullptr;
  }

  LooseDb db_;
};

// F1: the (JOHN, *, *) table.
TEST_F(NavigationTest, JohnsNeighborhood) {
  auto view = db_.Navigate("JOHN");
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // First column "JOHN**": PERSON (inferred), EMPLOYEE, PET-OWNER,
  // MUSIC-LOVER.
  EXPECT_EQ(Names(view->classes),
            (std::set<std::string>{"PERSON", "EMPLOYEE", "PET-OWNER",
                                   "MUSIC-LOVER"}));

  const auto* likes = FindGroup(*view, "LIKES");
  ASSERT_NE(likes, nullptr);
  EXPECT_EQ(Names(likes->entities),
            (std::set<std::string>{"CAT", "FELIX", "HEATHCLIFF", "MOZART",
                                   "MARY"}));

  // WORKS-FOR shows both the asserted SHIPPING and the inferred
  // DEPARTMENT (Sec 3.2).
  const auto* works = FindGroup(*view, "WORKS-FOR");
  ASSERT_NE(works, nullptr);
  EXPECT_EQ(Names(works->entities),
            (std::set<std::string>{"SHIPPING", "DEPARTMENT"}));

  // The paper's table lists the three concrete works; the closure also
  // legitimately contains their classes (rule 2b lifts PC#9-WAM to
  // CONCERTO, then rule 1c to CLASSICAL-COMPOSITION and COMPOSITION).
  const auto* fav = FindGroup(*view, "FAVORITE-MUSIC");
  ASSERT_NE(fav, nullptr);
  std::set<std::string> fav_names = Names(fav->entities);
  EXPECT_TRUE(fav_names.count("PC#9-WAM"));
  EXPECT_TRUE(fav_names.count("PC#2-PIT"));
  EXPECT_TRUE(fav_names.count("S#5-LVB"));
  EXPECT_TRUE(fav_names.count("CONCERTO"));  // inferred, Sec 3.2

  const auto* boss = FindGroup(*view, "BOSS");
  ASSERT_NE(boss, nullptr);
  EXPECT_EQ(Names(boss->entities), (std::set<std::string>{"PETER"}));
}

// F2: the (PC#9-WAM, *, *) table, including the inverse-inferred
// FAVORITE-OF column.
TEST_F(NavigationTest, ConcertoNeighborhood) {
  auto view = db_.Navigate("PC#9-WAM");
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  EXPECT_TRUE(Names(view->classes).count("CONCERTO"));
  EXPECT_TRUE(Names(view->classes).count("CLASSICAL-COMPOSITION"));
  EXPECT_TRUE(Names(view->classes).count("COMPOSITION"));

  const auto* composed = FindGroup(*view, "COMPOSED-BY");
  ASSERT_NE(composed, nullptr);
  EXPECT_EQ(Names(composed->entities), (std::set<std::string>{"MOZART"}));

  const auto* performed = FindGroup(*view, "PERFORMED-BY");
  ASSERT_NE(performed, nullptr);
  EXPECT_EQ(Names(performed->entities),
            (std::set<std::string>{"SERKIN", "BARENBOIM"}));

  // FAVORITE-OF: JOHN — inferred via (FAVORITE-MUSIC, INV, FAVORITE-OF).
  // John's classes also appear: rule 2b lifts JOHN to EMPLOYEE etc.
  const auto* fav_of = FindGroup(*view, "FAVORITE-OF");
  ASSERT_NE(fav_of, nullptr);
  EXPECT_TRUE(Names(fav_of->entities).count("JOHN"));
}

TEST_F(NavigationTest, RenderedTableShowsHeaderAndEntities) {
  auto view = db_.Navigate("JOHN");
  ASSERT_TRUE(view.ok());
  std::string table = view->Render(db_.entities());
  EXPECT_NE(table.find("JOHN **"), std::string::npos);
  EXPECT_NE(table.find("LIKES"), std::string::npos);
  EXPECT_NE(table.find("FELIX"), std::string::npos);
  EXPECT_NE(table.find("PERSON"), std::string::npos);
}

// F3: (LEOPOLD, *, MOZART) — all associations, direct and composed.
TEST_F(NavigationTest, LeopoldMozartAssociations) {
  auto assocs = db_.Associations("LEOPOLD", "MOZART");
  ASSERT_TRUE(assocs.ok()) << assocs.status().ToString();
  std::set<std::string> names;
  for (const Association& a : *assocs) {
    names.insert(ComposedName(db_.entities(), a.chain));
  }
  EXPECT_TRUE(names.count("FATHER-OF"));
  EXPECT_TRUE(names.count("TAUGHT"));
}

// The composed association the paper highlights: John relates to Mozart
// through his favorite concerto.
TEST_F(NavigationTest, JohnMozartComposedPath) {
  auto assocs = db_.Associations("JOHN", "MOZART");
  ASSERT_TRUE(assocs.ok()) << assocs.status().ToString();
  std::set<std::string> names;
  for (const Association& a : *assocs) {
    names.insert(ComposedName(db_.entities(), a.chain));
  }
  EXPECT_TRUE(names.count("LIKES"));  // direct
  EXPECT_TRUE(names.count("FAVORITE-MUSIC.PC#9-WAM.COMPOSED-BY"))
      << "composed path missing";
}

TEST_F(NavigationTest, AssociationsRespectCompositionLimit) {
  db_.SetCompositionLimit(1);  // Sec 6.1: limit(1) disables composition
  auto assocs = db_.Associations("JOHN", "MOZART");
  ASSERT_TRUE(assocs.ok());
  for (const Association& a : *assocs) {
    EXPECT_EQ(a.chain.size(), 1u);  // only direct facts remain
  }
}

TEST_F(NavigationTest, RenderAssociationsTable) {
  auto table = db_.RenderAssociations("LEOPOLD", "MOZART");
  ASSERT_TRUE(table.ok());
  EXPECT_NE(table->find("LEOPOLD * MOZART"), std::string::npos);
  EXPECT_NE(table->find("FATHER-OF"), std::string::npos);
}

TEST_F(NavigationTest, UnknownEntityIsNotFound) {
  auto view = db_.Navigate("NOBODY");
  EXPECT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsNotFound());
}

TEST_F(NavigationTest, IncomingGroupsAppear) {
  auto view = db_.Navigate("MOZART");
  ASSERT_TRUE(view.ok());
  bool found_composed_by = false;
  for (const auto& g : view->incoming) {
    if (db_.entities().Name(g.relationship) == "COMPOSED-BY") {
      found_composed_by = true;
      EXPECT_EQ(Names(g.entities), (std::set<std::string>{"PC#9-WAM"}));
    }
  }
  EXPECT_TRUE(found_composed_by);
}

}  // namespace
}  // namespace lsd
