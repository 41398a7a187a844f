#include "server/shared_store.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "server/session.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

TEST(SharedStoreTest, BootstrapEpochIsPublishedImmediately) {
  SharedStore store;
  EpochPtr epoch = store.snapshot();
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->sequence(), 0u);
  // The bootstrap epoch holds only the standard-rules seed facts; no
  // user entities yet.
  EXPECT_FALSE(epoch->db().entities().Lookup("TOM").has_value());
  EXPECT_EQ(store.commits(), 0u);
}

TEST(SharedStoreTest, CommitPublishesNewEpoch) {
  SharedStore store;
  size_t base = store.snapshot()->db().store().size();
  auto committed = store.Commit([](LooseDb& db) {
    db.Assert("TOM", "ENROLLED-IN", "CS100");
    return Status::OK();
  });
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ((*committed)->sequence(), 1u);
  EXPECT_EQ((*committed)->db().store().size(), base + 1);
  EXPECT_EQ(store.snapshot()->sequence(), 1u);
  EXPECT_EQ(store.commits(), 1u);
}

// The acceptance-criteria test: a reader pinned to epoch N keeps an
// unchanged view while a writer publishes N+1 mid-request.
TEST(SharedStoreTest, PinnedReaderUnaffectedByConcurrentCommit) {
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    workload::BuildCampusDomain(&db);
                    return Status::OK();
                  })
                  .ok());

  EpochPtr pinned = store.snapshot();
  size_t facts_before = pinned->db().store().size();
  uint64_t version_before = pinned->store_version();

  auto committed = store.Commit([](LooseDb& db) {
    db.Assert("SUE", "ENROLLED-IN", "CS100");
    return Status::OK();
  });
  ASSERT_TRUE(committed.ok());

  // The pinned epoch is frozen: same facts, same version key, and the
  // new fact is invisible through it.
  EXPECT_EQ(pinned->db().store().size(), facts_before);
  EXPECT_EQ(pinned->store_version(), version_before);
  auto old_result = pinned->db().Query("(SUE, ENROLLED-IN, ?C)");
  ASSERT_TRUE(old_result.ok());
  EXPECT_EQ(old_result->rows.size(), 1u);  // MATH101 only

  auto new_result = (*committed)->db().Query("(SUE, ENROLLED-IN, ?C)");
  ASSERT_TRUE(new_result.ok());
  EXPECT_EQ(new_result->rows.size(), 2u);
  EXPECT_GT((*committed)->sequence(), pinned->sequence());
}

TEST(SharedStoreTest, FailedMutationPublishesNothing) {
  SharedStore store;
  EpochPtr before = store.snapshot();
  size_t base = before->db().store().size();
  auto failed = store.Commit([](LooseDb& db) {
    db.Assert("A", "R", "B");
    return Status::InvalidArgument("boom");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(store.snapshot(), before);
  EXPECT_EQ(store.commits(), 0u);
  // All-or-nothing: the fact asserted before the failure is gone. Its
  // names stay in the shared entity table, but outside the published
  // epoch's universe.
  EXPECT_EQ(store.snapshot()->db().store().size(), base);
  auto a = store.snapshot()->db().entities().Lookup("A");
  EXPECT_TRUE(!a.has_value() ||
              *a >= store.snapshot()->db().store().universe());
}

TEST(SharedStoreTest, AssertAfterRetractStillPublishes) {
  // Clones are built by replaying facts, so their insert count alone
  // can collide with the tip's mutation clock after a retract; the
  // no-op check must not mistake such a commit for "nothing changed".
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    db.Assert("A", "R", "B");
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    return db.Retract("A", "R", "B");
                  })
                  .ok());
  const uint64_t seq = store.snapshot()->sequence();
  auto committed = store.Commit([](LooseDb& db) {
    db.Assert("C", "R", "D");
    return Status::OK();
  });
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ((*committed)->sequence(), seq + 1);
  auto r = store.snapshot()->db().Query("(C, R, ?X)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 1u);
}

TEST(SharedStoreTest, NoOpCommitSkipsPublication) {
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    db.Assert("A", "R", "B");
                    return Status::OK();
                  })
                  .ok());
  EpochPtr before = store.snapshot();
  auto noop = store.Commit([](LooseDb&) { return Status::OK(); });
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(*noop, before);
  EXPECT_EQ(store.snapshot()->sequence(), 1u);
  EXPECT_EQ(store.commits(), 1u);
}

TEST(SharedStoreTest, OperatorDefinitionPublishesNewEpoch) {
  // DefineOperator does not bump the (store, rules) version keys, so
  // the commit path must also compare definition counts.
  SharedStore store;
  auto committed = store.Commit([](LooseDb& db) {
    return db.DefineOperator("CLASSMATES(?A, ?B) := "
                             "(?A, ENROLLED-IN, ?C) and (?B, ENROLLED-IN, ?C)");
  });
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ((*committed)->sequence(), 1u);
}

TEST(SharedStoreTest, CommitsCarryRulesAndDefinitionsForward) {
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    workload::BuildCampusDomain(&db);
                    return db.DefineRule(
                        "teaches: (?C, TAUGHT-BY, ?P) => (?P, TEACHES, ?C)",
                        RuleKind::kInference);
                  })
                  .ok());
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    db.Assert("CS200", "TAUGHT-BY", "HARRY");
                    return Status::OK();
                  })
                  .ok());
  // The rule defined in epoch 1 still fires on the fact added in epoch 2.
  auto result = store.snapshot()->db().Query("(HARRY, TEACHES, CS200)");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Success());
}

// Writers and readers race freely: every commit lands, every reader
// sees an internally consistent epoch. Run under TSan.
TEST(SharedStoreTest, ConcurrentCommittersAndPinnedReaders) {
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    workload::BuildCampusDomain(&db);
                    return Status::OK();
                  })
                  .ok());
  size_t base_facts = store.snapshot()->db().store().size();

  constexpr int kWriters = 3;
  constexpr int kCommitsPerWriter = 4;
  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &reader_errors] {
      while (!stop.load()) {
        EpochPtr pinned = store.snapshot();
        size_t size_at_pin = pinned->db().store().size();
        auto probe = pinned->db().Probe("(STUDENT, LOVE, ?Z) and "
                                        "(?Z, COSTS, FREE)");
        if (!probe.ok() || probe->successes.size() != 2) {
          reader_errors.fetch_add(1);
        }
        // The pinned epoch never moves underneath the request.
        if (pinned->db().store().size() != size_at_pin) {
          reader_errors.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (int c = 0; c < kCommitsPerWriter; ++c) {
        std::string source =
            "W" + std::to_string(w) + "-C" + std::to_string(c);
        auto committed = store.Commit([&source](LooseDb& db) {
          db.Assert(source, "MARKS", "DONE");
          return Status::OK();
        });
        ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(store.snapshot()->db().store().size(),
            base_facts + kWriters * kCommitsPerWriter);
  // Group commit may coalesce concurrent writers into one epoch, so the
  // epoch count is bounded, not exact: at least one more than the seed,
  // at most one per commit call.
  EXPECT_GE(store.snapshot()->sequence(), 2u);
  EXPECT_LE(store.snapshot()->sequence(),
            1u + kWriters * kCommitsPerWriter);
  EXPECT_EQ(store.commits(), store.snapshot()->sequence());
}

// Heavier write-side contention: every commit must land exactly once
// (all-or-nothing per slot), every returned epoch must already contain
// its own write, and epochs returned to one thread must be strictly
// ordered. Run under TSan.
TEST(SharedStoreTest, GroupCommitContention) {
  SharedStore store;
  size_t base_facts = store.snapshot()->db().store().size();

  constexpr int kWriters = 8;
  constexpr int kCommitsPerWriter = 8;
  std::atomic<int> ordering_errors{0};
  std::atomic<int> visibility_errors{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, &ordering_errors, &visibility_errors, w] {
      uint64_t last_seq = 0;
      for (int c = 0; c < kCommitsPerWriter; ++c) {
        std::string source =
            "G" + std::to_string(w) + "-C" + std::to_string(c);
        auto committed = store.Commit([&source](LooseDb& db) {
          db.Assert(source, "MARKS", "DONE");
          return Status::OK();
        });
        ASSERT_TRUE(committed.ok()) << committed.status().ToString();
        // The epoch handed back covers this slot's own write.
        auto seen = (*committed)->db().Query("(" + source + ", MARKS, ?X)");
        if (!seen.ok() || !seen->Success()) visibility_errors.fetch_add(1);
        // A later commit from this thread can never observe an epoch at
        // or before the one its previous commit produced.
        uint64_t seq = (*committed)->sequence();
        if (seq <= last_seq && c > 0) ordering_errors.fetch_add(1);
        if (c == 0 && seq == 0) ordering_errors.fetch_add(1);
        last_seq = seq;
      }
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(ordering_errors.load(), 0);
  EXPECT_EQ(visibility_errors.load(), 0);
  EXPECT_EQ(store.snapshot()->db().store().size(),
            base_facts + kWriters * kCommitsPerWriter);

  GroupCommitStats stats = store.group_stats();
  EXPECT_EQ(stats.slots_acked, uint64_t{kWriters * kCommitsPerWriter});
  EXPECT_EQ(stats.slots_rejected, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_LE(stats.groups, stats.slots_acked);
  EXPECT_EQ(store.commits(), store.snapshot()->sequence());
}

// Waits until the commit queue holds at least one slot. The deadline is
// a liveness guard only: when the awaited slot cannot arrive (a leader
// that keeps draining holds its own caller), the waiter gives up and the
// test reports it instead of hanging.
bool AwaitQueuedSlot(const SharedStore& store) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (store.group_stats().queue_depth < 1) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Leader hand-off: a leader processes the group holding its own slot,
// hands the lead to the oldest queued slot, and returns. Two committers
// keep the queue non-empty — each slot's mutation waits until the other
// committer's next slot is queued — which a leader that drained until
// the queue is empty would turn into a wait on its own caller's next
// commit, which never comes while that caller is held.
TEST(SharedStoreTest, LeaderReturnsAfterItsOwnGroup) {
  SharedStore store;
  constexpr int kRounds = 3;
  std::atomic<bool> first_parked{false};
  std::atomic<int> second_applied{0};
  std::atomic<int> missed_waits{0};
  int second_applied_when_first_returned = -1;

  // First committer: every slot waits for the second committer's slot of
  // the same round.
  std::thread first([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto committed = store.Commit([&, i](LooseDb& db) {
        db.Assert("FIRST", "ROUND", std::to_string(i));
        first_parked.store(true);
        if (!AwaitQueuedSlot(store)) missed_waits.fetch_add(1);
        return Status::OK();
      });
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
      if (i == 0) second_applied_when_first_returned = second_applied.load();
    }
  });
  // Second committer, enqueued behind the first one's parked slot: every
  // slot but its last waits for the first committer's next slot.
  while (!first_parked.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread second([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto committed = store.Commit([&, i](LooseDb& db) {
        db.Assert("SECOND", "ROUND", std::to_string(i));
        if (i + 1 < kRounds && !AwaitQueuedSlot(store)) {
          missed_waits.fetch_add(1);
        }
        second_applied.fetch_add(1);
        return Status::OK();
      });
      ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    }
  });
  first.join();
  second.join();

  // The first caller returned after its own group, before any slot of
  // the second committer was applied, and no slot waited in vain.
  EXPECT_EQ(second_applied_when_first_returned, 0);
  EXPECT_EQ(missed_waits.load(), 0);
  GroupCommitStats stats = store.group_stats();
  EXPECT_EQ(stats.slots_acked, uint64_t{2 * kRounds});
  EXPECT_EQ(stats.queue_depth, 0u);
}

// A failing slot is charged to its caller alone: the leader replays the
// surviving slots on a fresh clone, so the group still publishes and
// none of the failed closure's effects leak. The first committer parks
// inside its own closure until two more callers are queued behind it,
// which forces a real multi-slot group deterministically.
TEST(SharedStoreTest, FailingSlotDoesNotPoisonItsGroup) {
  SharedStore store;
  size_t base_facts = store.snapshot()->db().store().size();

  std::atomic<bool> parked{false};
  std::thread blocker([&store, &parked] {
    auto committed = store.Commit([&store, &parked](LooseDb& db) {
      db.Assert("FIRST", "MARKS", "DONE");
      parked.store(true);
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (store.group_stats().queue_depth < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::OK();
    });
    ASSERT_TRUE(committed.ok());
  });
  // The blocker must own leadership before anyone else enqueues, or the
  // forced grouping below is not guaranteed.
  while (!parked.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));

  // These two enqueue while the blocker's group is mid-flight, so the
  // leader drains them into one follow-up group.
  std::thread failing([&store] {
    auto failed = store.Commit([](LooseDb& db) {
      db.Assert("BAD", "MARKS", "DONE");  // must not survive
      return Status::InvalidArgument("rejected slot");
    });
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  });
  std::thread succeeding([&store] {
    auto committed = store.Commit([](LooseDb& db) {
      db.Assert("SECOND", "MARKS", "DONE");
      return Status::OK();
    });
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    // The survivor's epoch has its own write but nothing from the
    // rejected slot, even though both may share a group.
    const LooseDb& db = (*committed)->db();
    auto second = db.entities().Lookup("SECOND");
    ASSERT_TRUE(second.has_value());
    EXPECT_TRUE(db.store().Contains(Fact(*second,
                                         *db.entities().Lookup("MARKS"),
                                         *db.entities().Lookup("DONE"))));
    auto bad = db.entities().Lookup("BAD");
    EXPECT_TRUE(!bad.has_value() ||
                db.store().base().CountMatches(
                    Pattern(*bad, kAnyEntity, kAnyEntity)) == 0);
  });

  blocker.join();
  failing.join();
  succeeding.join();

  EXPECT_EQ(store.snapshot()->db().store().size(), base_facts + 2);
  auto bad = store.snapshot()->db().entities().Lookup("BAD");
  EXPECT_TRUE(!bad.has_value() ||
              store.snapshot()->db().store().base().CountMatches(
                  Pattern(*bad, kAnyEntity, kAnyEntity)) == 0);

  GroupCommitStats stats = store.group_stats();
  EXPECT_EQ(stats.slots_acked, 2u);
  EXPECT_EQ(stats.slots_rejected, 1u);
  // The parked leader guarantees the two trailing callers shared one
  // group, so coalescing really happened.
  EXPECT_GE(stats.max_group, 2u);
  EXPECT_LE(stats.groups, 2u);
}

// ---- Rule-only commits ----------------------------------------------------

// Runs one command line through a session; the output, or "! <status>".
std::string Exec(SharedStore* store, const std::string& line) {
  ServerSession session(1, store);
  auto out = session.Execute(line);
  return out.ok() ? *out : "! " + out.status().ToString();
}

// Truth of a ground proposition on the tip.
bool Holds(SharedStore* store, const std::string& proposition) {
  auto r = store->snapshot()->db().Query(proposition);
  return r.ok() && r->truth;
}

// A rule-only commit changes no fact: only the rules clock tells the
// commit path that it is not a no-op, so every step must publish.
void ExpectRuleOnlyCommitsPublish(SharedStore* store) {
  const char* kSteps[] = {
      "rule r1: (?X, R1, ?Y) => (?Y, R1-BACK, ?X)",
      "rule r2: (?X, R2, ?Y) => (?Y, R2-BACK, ?X)",
      "exclude r1",
      "include r1",
      "exclude r2",
  };
  for (const char* step : kSteps) {
    const uint64_t before = store->snapshot()->sequence();
    EXPECT_EQ(Exec(store, step).rfind("! ", 0), std::string::npos) << step;
    EXPECT_EQ(store->snapshot()->sequence(), before + 1) << step;
  }
  EpochPtr tip = store->snapshot();
  EXPECT_TRUE(tip->db().IsRuleEnabled("r1"));
  EXPECT_FALSE(tip->db().IsRuleEnabled("r2"));
  EXPECT_NE(Exec(store, "rules").find("[ ] rule r2"), std::string::npos);
}

TEST(SharedStoreTest, RuleOnlyCommitsPublish) {
  SharedStore store;
  ExpectRuleOnlyCommitsPublish(&store);
}

TEST(SharedStoreTest, CheckpointNeedsADurableStore) {
  SharedStore store;
  EXPECT_EQ(store.Checkpoint().code(), StatusCode::kFailedPrecondition);
}

// ---- Durable stores across restarts ---------------------------------------

class DurableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lsd_durable_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    prefix_ = (dir_ / "db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // A durable store over prefix_, recovered from whatever is there.
  std::unique_ptr<SharedStore> Open() {
    auto store = std::make_unique<SharedStore>();
    Status s = store->OpenDurable(prefix_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return store;
  }

  std::filesystem::path dir_;
  std::string prefix_;
};

// The persistence of one database's facts, rules and rule toggles,
// through the durable store's log and checkpoints.
class LooseDbPersistenceTest : public DurableStoreTest {};

TEST_F(LooseDbPersistenceTest, SaveOpenRoundTrip) {
  {
    LooseDb db;
    db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
    ASSERT_TRUE(
        db.DefineRule("pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)")
            .ok());
    ASSERT_TRUE(db.Save(prefix_).ok());
  }
  {
    // Opening the exported snapshot durably; commits land in the WAL.
    auto store = Open();
    EXPECT_TRUE(store->last_recovery().snapshot_loaded);
    EXPECT_EQ(Exec(store.get(), "assert (JOHN, IN, EMPLOYEE)"), "added\n");
  }
  auto restored = Open();
  EXPECT_EQ(restored->last_recovery().records_replayed, 1u);
  // Needs the snapshot rule + the WAL fact.
  EXPECT_TRUE(Holds(restored.get(), "(JOHN, EARNS, SALARY)"));
  EXPECT_TRUE(Holds(restored.get(), "(JOHN, WORKS-FOR, SHIPPING)"));
}

TEST_F(LooseDbPersistenceTest, OpenWithoutFilesStartsEmptyAndLogs) {
  {
    auto store = Open();
    EXPECT_FALSE(store->last_recovery().snapshot_loaded);
    EXPECT_EQ(store->last_recovery().records_replayed, 0u);
    EXPECT_EQ(Exec(store.get(), "assert (A, R, B)"), "added\n");
  }
  auto again = Open();
  EXPECT_TRUE(Holds(again.get(), "(A, R, B)"));
}

TEST_F(LooseDbPersistenceTest, RetractionsSurviveRestart) {
  {
    auto store = Open();
    Exec(store.get(), "assert (A, R, B)");
    Exec(store.get(), "assert (C, R, D)");
    EXPECT_EQ(Exec(store.get(), "retract (A, R, B)"), "removed\n");
  }
  auto again = Open();
  EXPECT_FALSE(Holds(again.get(), "(A, R, B)"));
  EXPECT_TRUE(Holds(again.get(), "(C, R, D)"));
}

TEST_F(LooseDbPersistenceTest, RuleTogglesSurviveRestart) {
  {
    auto store = Open();
    Exec(store.get(), "assert* (JOHN, IN, EMPLOYEE) "
                      "(EMPLOYEE, WORKS-FOR, DEPARTMENT)");
    EXPECT_EQ(Exec(store.get(), "exclude mem-source"), "excluded\n");
  }
  auto again = Open();
  EXPECT_FALSE(again->snapshot()->db().IsRuleEnabled("mem-source"));
  EXPECT_FALSE(Holds(again.get(), "(JOHN, WORKS-FOR, DEPARTMENT)"));
}

TEST_F(DurableStoreTest, RuleOnlyCommitsPublishAfterRecovery) {
  { auto store = Open(); }  // leaves an empty log behind
  auto store = Open();
  ExpectRuleOnlyCommitsPublish(store.get());
  store.reset();
  auto again = Open();
  EXPECT_TRUE(again->snapshot()->db().IsRuleEnabled("r1"));
  EXPECT_FALSE(again->snapshot()->db().IsRuleEnabled("r2"));
}

TEST_F(DurableStoreTest, LoadedFactsAndClassMarksAreLogged) {
  const std::string file = (dir_ / "pay.lsd").string();
  std::ofstream(file) << "rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)\n"
                         "(JOHN, IN, EMPLOYEE)\n"
                         "@class HEADCOUNT\n";
  {
    auto store = Open();
    EXPECT_EQ(Exec(store.get(), "load " + file), "loaded\n");
    ASSERT_TRUE(store
                    ->Commit([](LooseDb& db) {
                      db.MarkClassRelationship("PAYROLL");
                      return Status::OK();
                    })
                    .ok());
  }
  auto again = Open();
  EXPECT_TRUE(Holds(again.get(), "(JOHN, EARNS, SALARY)"));
  EXPECT_TRUE(Holds(again.get(), "(HEADCOUNT, IN, CLASS-REL)"));
  EXPECT_TRUE(Holds(again.get(), "(PAYROLL, IN, CLASS-REL)"));
}

TEST_F(DurableStoreTest, CheckpointBoundsReplay) {
  {
    auto store = Open();
    Exec(store.get(), "assert (A, R, B)");
    const EpochPtr tip = store->snapshot();
    EXPECT_EQ(Exec(store.get(), "checkpoint"),
              "checkpointed at generation 1\n");
    EXPECT_EQ(store->snapshot(), tip);  // a checkpoint publishes nothing
    Exec(store.get(), "assert (C, R, D)");
  }
  for (const WalSegmentInfo& seg : Wal::Inventory(prefix_ + ".wal")) {
    EXPECT_EQ(seg.generation, 1u) << seg.path;  // older ones dropped
  }
  auto again = Open();
  EXPECT_TRUE(again->last_recovery().snapshot_loaded);
  EXPECT_EQ(again->last_recovery().generation, 1u);
  EXPECT_EQ(again->last_recovery().records_replayed, 1u);
  EXPECT_TRUE(Holds(again.get(), "(A, R, B)"));
  EXPECT_TRUE(Holds(again.get(), "(C, R, D)"));
}

// Checkpoints ride the commit queue, so one racing a stream of writers
// never drops a group between its snapshot and its generation swap.
TEST_F(DurableStoreTest, CheckpointsRacingWritersLoseNothing) {
  constexpr int kWriters = 3;
  constexpr int kCommitsPerWriter = 40;
  {
    auto store = Open();
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&store, w] {
        for (int i = 0; i < kCommitsPerWriter; ++i) {
          const std::string name =
              "W" + std::to_string(w) + "-" + std::to_string(i);
          EXPECT_TRUE(store
                          ->Commit([&name](LooseDb& db) {
                            db.Assert(name, "MARKS", "DONE");
                            return Status::OK();
                          })
                          .ok());
        }
      });
    }
    threads.emplace_back([&store] {
      for (int i = 0; i < 10; ++i) EXPECT_TRUE(store->Checkpoint().ok());
    });
    for (std::thread& t : threads) t.join();
    EXPECT_TRUE(store->wal_status().ok()) << store->wal_status().ToString();
  }
  auto again = Open();
  auto r = again->snapshot()->db().Query("(?W, MARKS, DONE)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), size_t{kWriters * kCommitsPerWriter});
}

// `save` exports; it must never write over the store's own snapshot,
// where recovery would replay the whole log on top of it.
TEST_F(DurableStoreTest, SaveNeverTargetsTheLoggedPrefix) {
  const std::string exported = (dir_ / "export").string();
  {
    auto store = Open();
    Exec(store.get(), "rule pay: (?X, IN, EMPLOYEE) => (?X, EARNS, SALARY)");
    Exec(store.get(), "assert (JOHN, IN, EMPLOYEE)");
    EXPECT_NE(Exec(store.get(), "save").find("InvalidArgument"),
              std::string::npos);
    EXPECT_NE(Exec(store.get(), "save " + prefix_).find("'checkpoint'"),
              std::string::npos);
    EXPECT_EQ(Exec(store.get(), "save " + exported),
              "saved " + exported + ".snap\n");
    EXPECT_FALSE(store->snapshot()->db().Save(prefix_).ok());
  }
  EXPECT_TRUE(std::filesystem::exists(exported + ".snap"));
  auto again = Open();
  size_t pay_rules = 0;
  for (const Rule& r : again->snapshot()->db().rules()) {
    if (r.name == "pay") ++pay_rules;
  }
  EXPECT_EQ(pay_rules, 1u);
  Exec(again.get(), "exclude pay");
  EXPECT_FALSE(Holds(again.get(), "(JOHN, EARNS, SALARY)"));
}

}  // namespace
}  // namespace lsd
