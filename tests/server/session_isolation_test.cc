// Satellite: two concurrent sessions probing the paper's campus
// example (Sec 5.2) each get the exact paper retraction menu,
// unaffected by the other session's hypothetical retractions. Run
// under TSan in CI.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/session.h"
#include "server/shared_store.h"
#include "workload/music_domain.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

constexpr char kPaperQuery[] = "probe (STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)";
constexpr char kFreshmanSuccess[] = "FRESHMAN instead of STUDENT";
constexpr char kCheapSuccess[] = "CHEAP instead of FREE";

class SessionIsolationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto seeded = store_.Commit([](LooseDb& db) {
      workload::BuildCampusDomain(&db);
      return Status::OK();
    });
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  }

  std::string Run(ServerSession& session, std::string_view line) {
    auto result = session.Execute(line);
    EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
    return result.ok() ? *result : std::string();
  }

  SharedStore store_;
};

TEST_F(SessionIsolationTest, PaperMenuComesOutOfTheServerSession) {
  ServerSession session(1, &store_);
  std::string menu = Run(session, kPaperQuery);
  EXPECT_NE(menu.find("Query failed. Retrying..."), std::string::npos);
  EXPECT_NE(menu.find(kFreshmanSuccess), std::string::npos);
  EXPECT_NE(menu.find(kCheapSuccess), std::string::npos);
  EXPECT_NE(menu.find("You may select."), std::string::npos);
}

TEST_F(SessionIsolationTest, HypotheticalRetractionIsSessionLocal) {
  ServerSession alice(1, &store_);
  ServerSession bob(2, &store_);

  // Alice hypothesizes away the fact behind the FRESHMAN success.
  Run(alice, "hypo retract (MOVIE-NIGHT, COSTS, FREE)");
  EXPECT_EQ(alice.overlay_size(), 1u);

  std::string alice_menu = Run(alice, kPaperQuery);
  EXPECT_EQ(alice_menu.find(kFreshmanSuccess), std::string::npos)
      << alice_menu;
  EXPECT_NE(alice_menu.find(kCheapSuccess), std::string::npos);

  // Bob still gets the paper's full two-success menu.
  std::string bob_menu = Run(bob, kPaperQuery);
  EXPECT_NE(bob_menu.find(kFreshmanSuccess), std::string::npos);
  EXPECT_NE(bob_menu.find(kCheapSuccess), std::string::npos);

  // And dropping the hypothesis restores Alice's menu.
  Run(alice, "hypo clear");
  std::string restored = Run(alice, kPaperQuery);
  EXPECT_NE(restored.find(kFreshmanSuccess), std::string::npos);
}

TEST_F(SessionIsolationTest, HypotheticalRetractionOfRealMenuEntry) {
  // Retracting the CONCERT-PASS pricing removes the CHEAP success: the
  // hypothesis propagates through probing exactly as a real retraction.
  ServerSession session(1, &store_);
  Run(session, "hypo retract (CONCERT-PASS, COSTS, CHEAP)");
  std::string menu = Run(session, kPaperQuery);
  EXPECT_EQ(menu.find(kCheapSuccess), std::string::npos) << menu;
  EXPECT_NE(menu.find(kFreshmanSuccess), std::string::npos);
}

TEST_F(SessionIsolationTest, HypotheticalRetractionMustNameAssertedFact) {
  ServerSession session(1, &store_);
  auto result = session.Execute("hypo retract (TOM, ENROLLED-IN, ART1)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.overlay_size(), 0u);
}

TEST_F(SessionIsolationTest, OverlayRebasesOntoNewEpochs) {
  ServerSession alice(1, &store_);
  ServerSession bob(2, &store_);

  Run(alice, "hypo retract (MOVIE-NIGHT, COSTS, FREE)");
  std::string before = Run(alice, kPaperQuery);
  EXPECT_EQ(before.find(kFreshmanSuccess), std::string::npos);

  // Bob commits a new free thing freshmen love. Alice's overlay must
  // rebase onto the new epoch: her hypothesis still hides MOVIE-NIGHT,
  // but the FRESHMAN success reappears via PIZZA-NIGHT.
  Run(bob, "assert (FRESHMAN, LOVE, PIZZA-NIGHT)");
  Run(bob, "assert (PIZZA-NIGHT, COSTS, FREE)");

  std::string after = Run(alice, kPaperQuery);
  EXPECT_NE(after.find(kFreshmanSuccess), std::string::npos) << after;
  // The hypothesis itself survives the rebase.
  EXPECT_EQ(alice.overlay_size(), 1u);
  std::string listed = Run(alice, "hypo list");
  EXPECT_NE(listed.find("retract (MOVIE-NIGHT, COSTS, FREE)"),
            std::string::npos);
}

TEST_F(SessionIsolationTest, TrailsAreSessionLocal) {
  ServerSession alice(1, &store_);
  ServerSession bob(2, &store_);
  Run(alice, "visit TOM");
  Run(alice, "visit CS100");
  Run(bob, "visit SUE");
  std::string back = Run(alice, "back");
  EXPECT_NE(back.find("[TOM]"), std::string::npos) << back;
  auto bob_back = bob.Execute("back");
  EXPECT_FALSE(bob_back.ok());  // Bob only ever visited one entity
}

// The acceptance-criteria concurrency test: sessions with different
// hypothetical overlays probe the same shared epochs from different
// threads, interleaved with writer commits of unrelated facts. Every
// probe must return that session's exact menu.
TEST_F(SessionIsolationTest, ConcurrentSessionsKeepExactPaperMenus) {
  constexpr int kIterations = 12;

  std::thread alice_thread([this] {
    ServerSession alice(1, &store_);
    Run(alice, "hypo retract (MOVIE-NIGHT, COSTS, FREE)");
    for (int i = 0; i < kIterations; ++i) {
      std::string menu = Run(alice, kPaperQuery);
      EXPECT_EQ(menu.find(kFreshmanSuccess), std::string::npos) << menu;
      EXPECT_NE(menu.find(kCheapSuccess), std::string::npos) << menu;
    }
  });

  std::thread bob_thread([this] {
    ServerSession bob(2, &store_);
    for (int i = 0; i < kIterations; ++i) {
      std::string menu = Run(bob, kPaperQuery);
      EXPECT_NE(menu.find(kFreshmanSuccess), std::string::npos) << menu;
      EXPECT_NE(menu.find(kCheapSuccess), std::string::npos) << menu;
    }
  });

  std::thread writer_thread([this] {
    ServerSession writer(3, &store_);
    for (int i = 0; i < kIterations / 2; ++i) {
      // Unrelated facts: new epochs keep appearing under both browsers
      // without perturbing the campus example.
      Run(writer, "assert (AUDIT-" + std::to_string(i) + ", MARKS, DONE)");
    }
  });

  alice_thread.join();
  bob_thread.join();
  writer_thread.join();
}

// A published epoch's entity universe is fixed when it is published:
// every epoch shares one entity table, which later commits, what-ifs and
// reads append to, and a universal quantification must not range over
// names the epoch never held.
class EpochUniverseTest : public ::testing::Test {
 protected:
  static constexpr char kForall[] = "query forall ?X (?X, HAS, P)";

  void SetUp() override {
    // Every regular entity HAS P, so the universal holds.
    auto seeded = store_.Commit([](LooseDb& db) {
      db.Assert("A", "HAS", "P");
      db.Assert("P", "HAS", "P");
      db.Assert("HAS", "HAS", "P");
      return Status::OK();
    });
    ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
  }

  std::string Run(ServerSession& session, std::string_view line) {
    auto result = session.Execute(line);
    EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
    return result.ok() ? *result : std::string();
  }

  // Runs `line`, a mutation verb naming `unknown`, an entity the store
  // does not hold; then an unrelated assert commits a new epoch, whose
  // universe is fixed at publication. Returns what `line` answered.
  StatusOr<std::string> RunThenCommit(std::string_view line,
                                      std::string_view unknown) {
    ServerSession session(1, &store_);
    EXPECT_EQ(Run(session, kForall), "true\n");
    auto result = session.Execute(line);
    EXPECT_FALSE(store_.snapshot()->db().entities().Lookup(unknown))
        << line << " interned " << unknown;
    EXPECT_EQ(Run(session, "assert (A, HAS, HAS)"), "added\n");
    return result;
  }

  SharedStore store_;
};

// A mutation verb interns only the names of an assert it applies. A
// retract, a what-if retract or a rejected batch that names an unknown
// entity leaves the shared table alone, so the next commit's universe
// does not take the name in and the universal stays true.
TEST_F(EpochUniverseTest, RetractBatchOfAnUnknownNameLeavesForallTrue) {
  auto result = RunThenCommit("retract* (QQTYPO, HAS, P)", "QQTYPO");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "added 0, present 0, removed 0, missing 1\n");
  ServerSession later(2, &store_);
  EXPECT_EQ(Run(later, kForall), "true\n");
}

TEST_F(EpochUniverseTest, RetractOfAnUnknownNameLeavesForallTrue) {
  auto result = RunThenCommit("retract (QQTYPO, HAS, P)", "QQTYPO");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "not asserted\n");
  ServerSession later(2, &store_);
  EXPECT_EQ(Run(later, kForall), "true\n");
}

TEST_F(EpochUniverseTest, WhatIfRetractOfAnUnknownNameLeavesForallTrue) {
  auto result = RunThenCommit("hypo retract (QQTYPO, HAS, P)", "QQTYPO");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  ServerSession later(2, &store_);
  EXPECT_EQ(Run(later, kForall), "true\n");
}

TEST_F(EpochUniverseTest, RejectedBatchLeavesForallTrue) {
  auto result = RunThenCommit("assert* (NEWX, HAS, P) (BAD", "NEWX");
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  ServerSession later(2, &store_);
  EXPECT_EQ(Run(later, kForall), "true\n");
}

TEST_F(EpochUniverseTest, AnotherSessionsUnknownNameLeavesForallTrue) {
  ServerSession first(1, &store_);
  ServerSession typist(2, &store_);
  ServerSession third(3, &store_);
  EXPECT_EQ(Run(first, kForall), "true\n");
  // The typo is interned into the shared table by the parse.
  Run(typist, "query (QQTYPO, HAS, ?Y)");
  ASSERT_TRUE(store_.snapshot()->db().entities().Lookup("QQTYPO"));
  EXPECT_EQ(Run(third, kForall), "true\n");
  EXPECT_EQ(Run(first, kForall), "true\n");
}

TEST_F(EpochUniverseTest, PinnedEpochKeepsItsUniverseAcrossACommit) {
  EpochPtr pinned = store_.snapshot();
  auto forall = [](const EpochPtr& epoch) {
    auto r = epoch->db().Query("forall ?X (?X, HAS, P)");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->truth;
  };
  EXPECT_TRUE(forall(pinned));
  // A commit interns a name that does not HAS P.
  auto committed = store_.Commit([](LooseDb& db) {
    db.Assert("NEWCOMER", "LIKES", "A");
    return Status::OK();
  });
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_FALSE(forall(*committed));
  EXPECT_TRUE(forall(pinned));
}

TEST_F(EpochUniverseTest, FailedRuleCommitLeavesForallTrue) {
  ServerSession session(1, &store_);
  EXPECT_EQ(Run(session, "rule mirror: (?X, HAS, P) => (P, HAS, ?X)"),
            "defined\n");
  EXPECT_EQ(Run(session, kForall), "true\n");
  // The duplicate name fails the commit after parsing interned NEWC and
  // OTHERC into the shared table.
  auto dup = session.Execute("rule mirror: (?X, HAS, NEWC) => (?X, HAS, OTHERC)");
  EXPECT_FALSE(dup.ok());
  ASSERT_TRUE(store_.snapshot()->db().entities().Lookup("NEWC"));
  EXPECT_EQ(Run(session, kForall), "true\n");
  ServerSession later(2, &store_);
  EXPECT_EQ(Run(later, kForall), "true\n");
}

TEST_F(EpochUniverseTest, WhatIfKeepsItsEpochsUniverse) {
  ServerSession browser(1, &store_);
  ServerSession writer(2, &store_);
  Run(writer, "assert (A, HAS, HAS)");
  // A what-if retracting an unrelated fact brings in no names.
  Run(browser, "hypo retract (A, HAS, HAS)");
  // Another session's rule commit fails after interning NEWC and OTHERC.
  auto dup = writer.Execute("rule x: (?X, HAS, P) => (P, HAS, ?X)");
  ASSERT_TRUE(dup.ok()) << dup.status().ToString();
  dup = writer.Execute("rule x: (?X, HAS, NEWC) => (?X, HAS, OTHERC)");
  EXPECT_FALSE(dup.ok());
  ASSERT_TRUE(store_.snapshot()->db().entities().Lookup("NEWC"));
  EXPECT_EQ(Run(browser, kForall), "true\n");
  EXPECT_EQ(Run(browser, "query (A, HAS, HAS)"), "false\n");
  // A what-if's own assert of a known name keeps the universal too.
  Run(browser, "hypo assert (A, HAS, A)");
  EXPECT_EQ(Run(browser, kForall), "true\n");
  Run(browser, "hypo clear");
  EXPECT_EQ(Run(browser, kForall), "true\n");
}

// A read writes nothing shared. `assoc` used to mint every composition
// it found as an entity of the table all epochs share; now it spells
// them from their chains, so another session's `assoc` leaves the entity
// count in `stats` and the next checkpoint's snapshot bytes as they were.
TEST(ReadsWriteNothingTest, AssocLeavesEntitiesAndSnapshotUnchanged) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("lsd_assoc_reads_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto run = [](ServerSession& session, std::string_view line) {
    auto result = session.Execute(line);
    EXPECT_TRUE(result.ok()) << line << ": " << result.status().ToString();
    return result.ok() ? *result : std::string();
  };
  auto entities_line = [](const std::string& stats) {
    const size_t at = stats.find("entities:");
    if (at == std::string::npos) return std::string();
    return stats.substr(at, stats.find('\n', at) - at);
  };
  // Twin durable stores take the same commits; only the second serves an
  // assoc before both checkpoint.
  std::string snapshot[2];
  for (int twin = 0; twin < 2; ++twin) {
    const std::string prefix = (dir / ("db" + std::to_string(twin))).string();
    SharedStore store;
    ASSERT_TRUE(store.OpenDurable(prefix).ok());
    ASSERT_TRUE(store
                    .Commit([](LooseDb& db) {
                      workload::BuildMusicDomain(&db);
                      return Status::OK();
                    })
                    .ok());
    ServerSession reader(1, &store);
    ServerSession browser(2, &store);
    const std::string before = entities_line(run(reader, "stats"));
    ASSERT_FALSE(before.empty());
    if (twin == 1) {
      EXPECT_NE(run(browser, "assoc JOHN MOZART")
                    .find("FAVORITE-MUSIC.PC#9-WAM.COMPOSED-BY"),
                std::string::npos);
    }
    EXPECT_EQ(entities_line(run(reader, "stats")), before);
    run(reader, "checkpoint");
    std::ifstream in(prefix + ".snap", std::ios::binary);
    snapshot[twin].assign(std::istreambuf_iterator<char>(in), {});
    ASSERT_FALSE(snapshot[twin].empty());
  }
  EXPECT_TRUE(snapshot[0] == snapshot[1])
      << "snapshot bytes differ (" << snapshot[0].size() << " vs "
      << snapshot[1].size() << " bytes)";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lsd
