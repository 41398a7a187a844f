// Cross-module scenarios: the full paper pipeline (facts -> rules ->
// closure -> query -> browse -> probe) exercised end to end, plus
// persistence of a browsed database.
#include <filesystem>

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "server/shared_store.h"
#include "workload/music_domain.h"
#include "workload/org_domain.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

TEST(IntegrationTest, QueryingAndBrowsingInterleave) {
  // Sec 4.1: "a user may submit a complex query, and use the answer as a
  // starting point for browsing."
  LooseDb db;
  workload::BuildMusicDomain(&db);

  // Query: who likes John back?
  auto r = db.Query("(JOHN, LIKES, ?X) and (?X, LIKES, JOHN)");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rows.size(), 1u);
  std::string friend_name = db.entities().Name(r->rows[0][0]);
  EXPECT_EQ(friend_name, "FELIX");

  // Browse the answer's neighborhood.
  auto hood = db.Navigate(friend_name);
  ASSERT_TRUE(hood.ok());
  std::set<std::string> classes;
  for (EntityId e : hood->classes) classes.insert(db.entities().Name(e));
  EXPECT_TRUE(classes.count("CAT"));
}

TEST(IntegrationTest, SchemaAndDataAreQueriedUniformly) {
  // Sec 2.6: no schema/data dichotomy — one template style reaches both
  // "schema facts" (EMPLOYEE, EARNS, SALARY) and "data facts".
  LooseDb db;
  workload::OrgOptions options;
  options.num_employees = 5;
  workload::BuildOrgDomain(&db, options);
  auto schema = db.Query("(EMPLOYEE, EARNS, ?WHAT)");
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(schema->Success());
  auto data = db.Query("(EMP-0, EARNS, ?WHAT)");
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->Success());
}

TEST(IntegrationTest, ProbeFullPipelineOnCampus) {
  LooseDb db;
  workload::BuildCampusDomain(&db);
  auto probe = db.Probe("(STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)");
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->successes.size(), 2u);
  // The rescued results are the paper's: MOVIE-NIGHT and CONCERT-PASS.
  std::set<std::string> rescued;
  for (const auto& s : probe->successes) {
    for (const auto& row : s.result.rows) {
      rescued.insert(db.entities().Name(row[0]));
    }
  }
  EXPECT_TRUE(rescued.count("MOVIE-NIGHT"));
  EXPECT_TRUE(rescued.count("CONCERT-PASS"));
}

TEST(IntegrationTest, EvolutionWithoutRestructuring) {
  // The introduction's motivation: an evolving environment needs no
  // schema surgery — new kinds of facts are just asserted.
  LooseDb db;
  workload::OrgOptions options;
  options.num_employees = 5;
  workload::BuildOrgDomain(&db, options);
  // A new aspect of the world appears: employees have hobbies.
  db.Assert("EMP-0", "HOBBY", "CHESS");
  db.Assert("EMP-1", "HOBBY", "SAILING");
  auto r = db.Query("(?X, HOBBY, ?H)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  // And "where does EMP-0 appear?" needs no knowledge of organization.
  auto t = db.Try("EMP-0");
  ASSERT_TRUE(t.ok());
  EXPECT_NE(t->find("CHESS"), std::string::npos);
}

TEST(IntegrationTest, MultiDatabaseUnification) {
  // The introduction: unified access to multiple databases is simpler
  // without structure. Merge two .lsd documents and one synonym fact.
  LooseDb db;
  ASSERT_TRUE(db.LoadText("(JOHN, EARNS, $25000)\n").ok());
  ASSERT_TRUE(db.LoadText("(JOHNNY, OWES, $9000)\n").ok());
  db.Assert("JOHN", "SYN", "JOHNNY");
  auto r = db.Query("(JOHN, OWES, ?X)");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->Success());
  auto r2 = db.Query("(JOHNNY, EARNS, $25000)");
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->truth);
}

TEST(IntegrationTest, BrowsedDatabaseSurvivesPersistence) {
  auto dir = std::filesystem::temp_directory_path() / "lsd_integration";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string prefix = (dir / "music").string();
  {
    SharedStore store;
    ASSERT_TRUE(store.OpenDurable(prefix).ok());
    ASSERT_TRUE(store
                    .Commit([](LooseDb& db) {
                      workload::BuildMusicDomain(&db);
                      return Status::OK();
                    })
                    .ok());
    ASSERT_TRUE(store.Checkpoint().ok());
    // One record past the checkpoint, so recovery replays the log too.
    ASSERT_TRUE(store
                    .Commit([](LooseDb& db) {
                      db.Assert("JOHN", "LIKES", "OPERA");
                      return Status::OK();
                    })
                    .ok());
  }
  SharedStore store;
  ASSERT_TRUE(store.OpenDurable(prefix).ok());
  EXPECT_TRUE(store.last_recovery().snapshot_loaded);
  EXPECT_EQ(store.last_recovery().records_replayed, 1u);
  LooseDb& db = store.snapshot()->db();
  auto hood = db.Navigate("JOHN");
  ASSERT_TRUE(hood.ok());
  auto assocs = db.Associations("JOHN", "MOZART");
  ASSERT_TRUE(assocs.ok());
  bool composed = false;
  for (const auto& a : *assocs) {
    if (a.chain.size() > 1) composed = true;
  }
  EXPECT_TRUE(composed);
  EXPECT_TRUE(db.Query("(JOHN, LIKES, OPERA)")->truth);
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, ContradictionFreeDefinitionOfDatabase) {
  // Sec 2.6: a loosely structured database is facts + rules whose
  // closure is contradiction-free — including contradictions reachable
  // only via inference chains.
  LooseDb db;
  db.Assert("ADORES", "ISA", "LOVES");
  db.Assert("LOVES", "CONTRA", "HATES");
  db.Assert("ROMEO", "ADORES", "JULIET");
  EXPECT_TRUE(db.CheckIntegrity().ok());
  db.Assert("ROMEO", "HATES", "JULIET");
  EXPECT_TRUE(db.CheckIntegrity().IsIntegrityViolation());
  db.Retract("ROMEO", "HATES", "JULIET");
  EXPECT_TRUE(db.CheckIntegrity().ok());
}

TEST(IntegrationTest, InconsistencyAndReplicationAreAllowed) {
  // Sec 2.6 explicitly permits "(JOHN, EARN, $25000), (JOHN, EARN,
  // $40000) and (JOHN, INCOME, $40000)" — loose stores tolerate them.
  LooseDb db;
  db.Assert("JOHN", "EARN", "$25000");
  db.Assert("JOHN", "EARN", "$40000");
  db.Assert("JOHN", "INCOME", "$40000");
  EXPECT_TRUE(db.CheckIntegrity().ok());
  auto r = db.Query("(JOHN, EARN, ?X)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
}

}  // namespace
}  // namespace lsd
