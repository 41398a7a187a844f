// Reproduces the Sec 5 probing machinery: the broadness lattice, the
// retraction sets, the automatic-retraction menu (F4) and the USC
// quarterbacks cascade (Q3).
#include "browse/probing.h"

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "server/shared_store.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

class ProbingTest : public ::testing::Test {
 protected:
  void SetUp() override { workload::BuildCampusDomain(&db_); }

  EntityId E(const char* name) { return db_.entities().Intern(name); }

  std::set<std::string> Names(const std::vector<EntityId>& ids) {
    std::set<std::string> out;
    for (EntityId e : ids) out.insert(db_.entities().Name(e));
    return out;
  }

  const GeneralizationLattice& Lattice() {
    auto view = db_.View();
    EXPECT_TRUE(view.ok());
    if (lattice_ == nullptr) {
      lattice_ = std::make_unique<GeneralizationLattice>(
          GeneralizationLattice::Build(**view));
    }
    return *lattice_;
  }

  LooseDb db_;
  std::unique_ptr<GeneralizationLattice> lattice_;
};

TEST_F(ProbingTest, MinimalGeneralizationsAreCovers) {
  // QUARTERBACK ≺ FOOTBALL-PLAYER ≺ ATHLETE: the transitive edge
  // QUARTERBACK ≺ ATHLETE is in the closure, but the *minimal*
  // generalization is only FOOTBALL-PLAYER.
  EXPECT_EQ(Names(Lattice().MinimalGeneralizations(E("QUARTERBACK"))),
            (std::set<std::string>{"FOOTBALL-PLAYER"}));
  EXPECT_EQ(Names(Lattice().MinimalGeneralizations(E("FOOTBALL-PLAYER"))),
            (std::set<std::string>{"ATHLETE"}));
}

TEST_F(ProbingTest, RootsGeneralizeToAny) {
  EXPECT_EQ(Names(Lattice().MinimalGeneralizations(E("ATHLETE"))),
            (std::set<std::string>{"ANY"}));
  // COSTS has no generalization facts at all (Sec 5.2 uses
  // (COSTS, ≺, Δ) as its minimal generalization).
  EXPECT_EQ(Names(Lattice().MinimalGeneralizations(E("COSTS"))),
            (std::set<std::string>{"ANY"}));
}

TEST_F(ProbingTest, EntityWithMultipleMinimalGeneralizations) {
  // OPERA ≺ MUSIC and OPERA ≺ THEATER, neither comparable.
  EXPECT_EQ(Names(Lattice().MinimalGeneralizations(E("OPERA"))),
            (std::set<std::string>{"MUSIC", "THEATER"}));
}

TEST_F(ProbingTest, MinimalSpecializations) {
  EXPECT_EQ(Names(Lattice().MinimalSpecializations(E("STUDENT"))),
            (std::set<std::string>{"FRESHMAN", "SENIOR"}));
  EXPECT_EQ(Names(Lattice().MinimalSpecializations(E("FRESHMAN"))),
            (std::set<std::string>{"NONE"}));
}

TEST_F(ProbingTest, KnownnessTracksStoredFacts) {
  auto view = db_.View();
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE((*view)->Mentions(E("STUDENT")));
  EXPECT_TRUE((*view)->Mentions(E("COSTS")));
  EntityId ghost = db_.entities().Intern("ZZZ-GHOST");
  EXPECT_FALSE((*view)->Mentions(ghost));
}

// Knownness is a property of the epoch's facts, not of the lattice: a
// commit of non-ISA facts keeps the previous epoch's lattice, yet an
// entity it names for the first time is known on the new epoch.
TEST(ProbingKnownnessTest, NewEntityIsKnownOnAnEpochThatReusesTheLattice) {
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    workload::BuildCampusDomain(&db);
                    return Status::OK();
                  })
                  .ok());
  EpochPtr before = store.snapshot();
  auto old_lattice = before->db().Lattice();
  ASSERT_TRUE(old_lattice.ok());

  auto after = store.Commit([](LooseDb& db) {
    db.Assert("NEWCOMER", "LOVE", "OPERA");
    return Status::OK();
  });
  ASSERT_TRUE(after.ok());
  auto new_lattice = (*after)->db().Lattice();
  ASSERT_TRUE(new_lattice.ok());
  EXPECT_EQ(*new_lattice, *old_lattice) << "a non-ISA commit rebuilt the "
                                           "lattice instead of sharing it";

  auto probe = (*after)->db().Probe("(NEWCOMER, HATE, ?Z)");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  std::set<std::string> unknown;
  for (EntityId e : probe->unknown_entities) {
    unknown.insert((*after)->db().entities().Name(e));
  }
  EXPECT_EQ(unknown, (std::set<std::string>{"HATE"}));
  auto view = (*after)->db().View();
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE((*view)->Mentions(
      *(*after)->db().entities().Lookup("NEWCOMER")));
}

TEST_F(ProbingTest, RetractionSetOfPaperQuery) {
  auto query = db_.Parse("(STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)");
  ASSERT_TRUE(query.ok());
  auto view = db_.View();
  ASSERT_TRUE(view.ok());
  Prober prober(*view, &Lattice(), &db_.entities());
  auto retractions = prober.RetractionSet(*query);

  std::set<std::string> rendered;
  for (const auto& [q, sub] : retractions) {
    rendered.insert(q.DebugString(db_.entities()));
  }
  // The paper's four minimally broader queries (Sec 5.2).
  EXPECT_TRUE(rendered.count("(FRESHMAN, LOVE, ?Z) and (?Z, COSTS, FREE)"))
      << "source specialization missing";
  EXPECT_TRUE(rendered.count("(STUDENT, LIKE, ?Z) and (?Z, COSTS, FREE)"))
      << "relationship generalization missing";
  EXPECT_TRUE(rendered.count("(STUDENT, LOVE, ?Z) and (?Z, ANY, FREE)"))
      << "COSTS -> ANY generalization missing";
  EXPECT_TRUE(rendered.count("(STUDENT, LOVE, ?Z) and (?Z, COSTS, CHEAP)"))
      << "target generalization missing";
}

// F4: the paper's menu with exactly the two successes.
TEST_F(ProbingTest, AutomaticRetractionMenu) {
  auto probe = db_.Probe("(STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_FALSE(probe->original_succeeded);
  EXPECT_EQ(probe->waves, 1);
  ASSERT_EQ(probe->successes.size(), 2u);

  std::set<std::string> menu_lines;
  for (const auto& s : probe->successes) {
    ASSERT_EQ(s.substitutions.size(), 1u);
    menu_lines.insert(s.substitutions[0].Describe(db_.entities()));
  }
  EXPECT_EQ(menu_lines,
            (std::set<std::string>{"FRESHMAN instead of STUDENT",
                                   "CHEAP instead of FREE"}));

  std::string menu = probe->Menu(db_.entities());
  EXPECT_NE(menu.find("Query failed. Retrying..."), std::string::npos);
  EXPECT_NE(menu.find("instead of STUDENT"), std::string::npos);
  EXPECT_NE(menu.find("You may select."), std::string::npos);
}

TEST_F(ProbingTest, SuccessfulQueryNeedsNoRetraction) {
  auto probe = db_.Probe("(FRESHMAN, LOVE, ?Z)");
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->original_succeeded);
  EXPECT_TRUE(probe->successes.empty());
  EXPECT_TRUE(probe->original_result.Success());
}

// Sec 5.1: the USC quarterbacks query, rescued by GRADUATE-OF ->
// ATTENDED.
TEST_F(ProbingTest, QuarterbackProbe) {
  auto probe =
      db_.Probe("(?Z, IN, QUARTERBACK) and (?Z, GRADUATE-OF, USC)");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_FALSE(probe->original_succeeded);
  ASSERT_FALSE(probe->successes.empty());
  bool found = false;
  for (const auto& s : probe->successes) {
    for (const Substitution& sub : s.substitutions) {
      if (sub.Describe(db_.entities()) ==
          "ATTENDED instead of GRADUATE-OF") {
        found = true;
        // The rescued query finds Bob.
        ASSERT_EQ(s.result.rows.size(), 1u);
        EXPECT_EQ(db_.entities().Name(s.result.rows[0][0]), "BOB");
      }
    }
  }
  EXPECT_TRUE(found);
}

// Sec 5.2: queries whose entities are unknown are diagnosed as "no such
// database entities".
TEST_F(ProbingTest, MisspelledEntityDiagnosed) {
  auto probe = db_.Probe("(JOHN, LUVS, ?X)", ProbeOptions{.max_waves = 2});
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->original_succeeded);
  std::set<std::string> unknown;
  for (EntityId e : probe->unknown_entities) {
    unknown.insert(db_.entities().Name(e));
  }
  EXPECT_TRUE(unknown.count("LUVS"));
  EXPECT_TRUE(unknown.count("JOHN"));  // not in the campus domain either
  std::string menu = probe->Menu(db_.entities());
  EXPECT_NE(menu.find("no such database entities"), std::string::npos);
}

// Sec 5.2: second-wave retraction — when wave 1 fails entirely, the
// search continues one level broader.
TEST_F(ProbingTest, SecondWaveRetraction) {
  LooseDb db;
  db.Assert("C0", "ISA", "C1");
  db.Assert("C1", "ISA", "C2");
  db.Assert("X", "TOUCHES", "C2");
  // (X, TOUCHES, C0) fails; (X, TOUCHES, C1) fails; (X, TOUCHES, C2)
  // succeeds two generalizations up. (Note: inference pushes TOUCHES
  // facts *down* the hierarchy, not up, so the narrower queries fail.)
  auto probe = db.Probe("(X, TOUCHES, C0)");
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_FALSE(probe->original_succeeded);
  EXPECT_EQ(probe->waves, 2);
  ASSERT_FALSE(probe->successes.empty());
  EXPECT_EQ(probe->successes[0].substitutions.size(), 2u);
}

// Sec 5.2: fully weakened templates are deleted.
TEST_F(ProbingTest, FullyWeakTemplateIsDeleted) {
  auto query = db_.Parse("(?Z, ANY, ANY) and (?Z, COSTS, FREE)");
  ASSERT_TRUE(query.ok());
  auto view = db_.View();
  ASSERT_TRUE(view.ok());
  Prober prober(*view, &Lattice(), &db_.entities());
  auto retractions = prober.RetractionSet(*query);
  bool deletion_found = false;
  for (const auto& [q, sub] : retractions) {
    if (sub.kind == Substitution::Kind::kDeleteTemplate) {
      deletion_found = true;
      EXPECT_EQ(q.DebugString(db_.entities()), "(?Z, COSTS, FREE)");
    }
  }
  EXPECT_TRUE(deletion_found);
}

TEST_F(ProbingTest, ProbeBudgetIsRespected) {
  ProbeOptions options;
  options.max_queries = 3;
  options.max_waves = 5;
  auto probe = db_.Probe(
      "(STUDENT, LOVE, ?Z) and (?Z, COSTS, NOTHING-KNOWN)", options);
  ASSERT_TRUE(probe.ok());
  EXPECT_LE(probe->queries_attempted, 3u);
}

}  // namespace
}  // namespace lsd
