// Background compaction must be invisible: any interleaving of commits
// (retracts of frozen and of overlay facts included), merges and session
// what-ifs yields a store whose closure — and whose answers to the
// Sec 5.2 golden suite — are bit-identical to a never-compacted twin fed
// the same commit sequence, and to a from-scratch recomputation.
// Compaction rearranges storage generations; it must never add, drop, or
// reorder a fact.
#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rules/rule_engine.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "util/random.h"
#include "workload/university_domain.h"

namespace lsd {
namespace {

// The full stored closure (base ∪ derived), sorted. Virtual layers
// (ISA axioms, comparators) only answer bound-relationship patterns, so
// the wildcard enumeration below is exactly the materialized tiers.
std::vector<Fact> EnumerateClosure(const LooseDb& db) {
  auto view = db.View();
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  std::vector<Fact> out;
  if (view.ok()) {
    (*view)->ForEach(Pattern(), [&](const Fact& f) {
      out.push_back(f);
      return true;
    });
  }
  std::sort(out.begin(), out.end(), OrderSrt());
  return out;
}

// The tiers `db` serves equal ComputeClosure from scratch over its facts.
void ExpectMatchesRecompute(const LooseDb& db, const std::string& what) {
  ASSERT_TRUE(db.View().ok()) << what;
  MathProvider math(&db.store());
  RuleEngine engine(&db.store(), &math);
  auto fresh = engine.ComputeClosure(db.rules());
  ASSERT_TRUE(fresh.ok()) << what << ": " << fresh.status().ToString();
  EXPECT_EQ(db.closure()->base().Materialize(),
            (*fresh)->base().Materialize())
      << what << ": base tier";
  EXPECT_EQ(db.closure()->derived().Materialize(),
            (*fresh)->derived().Materialize())
      << what << ": derived tier";
}

std::string Render(const Fact& f, const EntityTable& names) {
  return "(" + names.Name(f.source) + ", " + names.Name(f.relationship) +
         ", " + names.Name(f.target) + ")";
}

// The paper's Sec 5.2 probing menu, as a comparable digest.
std::set<std::string> GoldenProbeDigest(LooseDb& db) {
  std::set<std::string> digest;
  auto probe = db.Probe("(STUDENT, LOVE, ?Z) and (?Z, COSTS, FREE)");
  EXPECT_TRUE(probe.ok()) << probe.status().ToString();
  if (!probe.ok()) return digest;
  for (const auto& s : probe->successes) {
    for (const auto& row : s.result.rows) {
      for (EntityId e : row) digest.insert(db.entities().Name(e));
    }
  }
  digest.insert("successes=" + std::to_string(probe->successes.size()));
  return digest;
}

Status CommitBatch(SharedStore* store, const std::vector<Fact>& batch,
                   const std::vector<std::string>& names) {
  auto committed = store->Commit([&](LooseDb& db) {
    for (const Fact& f : batch) {
      db.Assert(names[f.source], names[f.relationship], names[f.target]);
    }
    return Status::OK();
  });
  return committed.status();
}

TEST(CompactionPropertyTest, RandomInterleavingsMatchNeverCompactedTwin) {
  // A small symbol universe so batches collide with frozen facts,
  // overlay facts, and each other.
  std::vector<std::string> names;
  for (int i = 0; i < 14; ++i) names.push_back("SYM-" + std::to_string(i));

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    SharedStore compacted;
    SharedStore reference;
    for (SharedStore* s : {&compacted, &reference}) {
      // The symbols are interned up front: a what-if on `compacted`
      // interns the names it parses, and ids must stay equal.
      ASSERT_TRUE(s->Commit([&names](LooseDb& db) {
                     workload::BuildCampusDomain(&db);
                     for (const std::string& n : names) db.entities().Intern(n);
                     return Status::OK();
                   })
                      .ok());
    }

    // Retract pool, as names: the campus facts (frozen since the
    // bootstrap) and every asserted batch (overlay facts until a merge
    // folds them).
    std::vector<Fact> asserted;
    std::vector<Fact> campus;
    const EpochPtr bootstrap = reference.snapshot();
    const EntityTable& campus_names = bootstrap->db().entities();
    bootstrap->db().store().base().ForEach(Pattern(), [&](const Fact& f) {
      campus.push_back(f);
      return true;
    });
    ServerSession what_if(1, &compacted);
    for (int step = 0; step < 60; ++step) {
      const uint32_t roll = rng.Uniform(12);
      if (roll < 6 || asserted.empty()) {
        std::vector<Fact> batch;
        const size_t n = 1 + rng.Uniform(5);
        for (size_t i = 0; i < n; ++i) {
          batch.push_back(Fact(rng.Uniform(names.size()), rng.Uniform(5),
                               rng.Uniform(names.size())));
        }
        ASSERT_TRUE(CommitBatch(&compacted, batch, names).ok());
        ASSERT_TRUE(CommitBatch(&reference, batch, names).ok());
        asserted.insert(asserted.end(), batch.begin(), batch.end());
      } else if (roll < 8) {
        // Retraction of an asserted batch fact (in an overlay, or frozen
        // by a merge) or of a campus fact (frozen): delete and re-derive
        // on tiers the compactor also rewrites.
        std::string s, r, t;
        if (roll == 6) {
          const Fact victim = asserted[rng.Uniform(asserted.size())];
          s = names[victim.source];
          r = names[victim.relationship];
          t = names[victim.target];
        } else {
          const Fact victim = campus[rng.Uniform(campus.size())];
          s = campus_names.Name(victim.source);
          r = campus_names.Name(victim.relationship);
          t = campus_names.Name(victim.target);
        }
        for (SharedStore* store : {&compacted, &reference}) {
          auto committed = store->Commit([&](LooseDb& db) {
            (void)db.Retract(s, r, t);
            return Status::OK();
          });
          ASSERT_TRUE(committed.ok()) << committed.status().ToString();
        }
      } else if (roll < 10) {
        ASSERT_TRUE(compacted.CompactOnce().ok());
      } else {
        // A what-if layer over the compacted store: a hypothetical
        // retract of a campus fact or assert of a batch-shaped fact.
        std::string line = "hypo clear";
        if (roll == 10) {
          line = "hypo retract " +
                 Render(campus[rng.Uniform(campus.size())], campus_names);
        } else if (rng.Uniform(2) == 0) {
          line = "hypo assert (" + names[rng.Uniform(names.size())] + ", " +
                 names[rng.Uniform(5)] + ", " +
                 names[rng.Uniform(names.size())] + ")";
        }
        auto out = what_if.Execute(line);
        // A campus fact retracted for real since cannot be retracted
        // hypothetically.
        ASSERT_TRUE(out.ok() || out.status().IsNotFound())
            << line << ": " << out.status().ToString();
      }
      SCOPED_TRACE("step " + std::to_string(step));
      ExpectMatchesRecompute(compacted.snapshot()->db(), "compacted");
      ExpectMatchesRecompute(reference.snapshot()->db(), "reference");
      auto pinned = what_if.Pin();
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      if (pinned->overlaid) ExpectMatchesRecompute(*pinned->db, "what-if");
      if (step % 15 == 14) {
        EXPECT_EQ(EnumerateClosure(compacted.snapshot()->db()),
                  EnumerateClosure(reference.snapshot()->db()))
            << "closures diverged at step " << step;
      }
      if (HasFailure()) return;
    }

    // One final merge-down, then the twins must be indistinguishable.
    ASSERT_TRUE(compacted.CompactOnce().ok());
    LooseDb& a = compacted.snapshot()->db();
    LooseDb& b = reference.snapshot()->db();
    EXPECT_EQ(EnumerateClosure(a), EnumerateClosure(b));
    EXPECT_EQ(GoldenProbeDigest(a), GoldenProbeDigest(b));
    for (const char* q :
         {"(?S, ENROLLED-IN, ?C)", "(STUDENT, LOVE, ?Z)",
          "(?Z, COSTS, CHEAP)", "(?X, ISA, STUDENT)"}) {
      auto ra = a.Query(q);
      auto rb = b.Query(q);
      ASSERT_TRUE(ra.ok() && rb.ok()) << q;
      EXPECT_EQ(ra->rows, rb->rows) << q;
    }
  }
}

TEST(CompactionPropertyTest, CompactOnceOnQuiescentStoreIsIdempotent) {
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    workload::BuildCampusDomain(&db);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(store.CompactOnce().ok());
  const uint64_t gen = store.snapshot()->db().storage_generation();
  const std::vector<Fact> before = EnumerateClosure(store.snapshot()->db());
  // Fully merged: another pass finds an empty plan, publishes nothing.
  uint64_t bytes = 0, facts = 0;
  ASSERT_TRUE(store.CompactOnce(&bytes, &facts).ok());
  EXPECT_EQ(facts, 0u);
  EXPECT_EQ(store.snapshot()->db().storage_generation(), gen);
  EXPECT_EQ(EnumerateClosure(store.snapshot()->db()), before);
}

// A plan pinned before a retract must not install: the retracted fact
// sits in the base tier's overlay, so the segment prefix the plan merged
// is unchanged, and only the tier's erase count shows that the merged
// generation still holds the fact.
TEST(CompactionPropertyTest, StalePlanAfterRetractAborts) {
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    workload::BuildCampusDomain(&db);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    db.Assert("STALE-A", "LIKES", "STALE-B");
                    return Status::OK();
                  })
                  .ok());
  const LooseDb& pinned = store.snapshot()->db();
  const Fact f(*pinned.entities().Lookup("STALE-A"),
               *pinned.entities().Lookup("LIKES"),
               *pinned.entities().Lookup("STALE-B"));
  ASSERT_TRUE(pinned.closure()->base().overlay().Contains(f));
  auto plan = pinned.BuildCompactionPlan();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->base.trivial());

  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    return db.Retract("STALE-A", "LIKES", "STALE-B");
                  })
                  .ok());
  const auto before = store.snapshot()->db().closure()->base().segments();
  auto installed = store.Commit(
      [&plan](LooseDb& db) { return db.InstallCompactedTiers(*plan); });
  EXPECT_TRUE(installed.status().IsAborted()) << installed.status().ToString();

  const LooseDb& tip = store.snapshot()->db();
  auto view = tip.View();
  ASSERT_TRUE(view.ok());
  EXPECT_FALSE((*view)->Contains(f));
  EXPECT_FALSE(tip.store().Contains(f));
  EXPECT_EQ(tip.closure()->base().segments(), before);
  ExpectMatchesRecompute(tip, "after the aborted install");
}

// The background merge thread racing live writers and pinned readers:
// an aggressive compactor (merge on any overlay byte, 1ms poll) must
// not lose, duplicate, or tear anything.
TEST(CompactionPropertyTest, BackgroundMergesRaceWritersAndReaders) {
  SharedStore compacted;
  SharedStore reference;
  for (SharedStore* s : {&compacted, &reference}) {
    ASSERT_TRUE(s->Commit([](LooseDb& db) {
                   workload::BuildCampusDomain(&db);
                   return Status::OK();
                 })
                    .ok());
  }

  CompactionOptions aggressive;
  aggressive.min_runs = 1;
  aggressive.overlay_ratio = 0.0;
  aggressive.min_overlay_bytes = 1;
  aggressive.poll_ms = 1;
  aggressive.backpressure_runs = 0;  // never throttle this test
  ASSERT_TRUE(compacted.EnableCompaction(aggressive).ok());
  EXPECT_TRUE(compacted.compaction_enabled());

  std::atomic<bool> done{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&compacted, &done, &reader_errors] {
      while (!done.load()) {
        EpochPtr pinned = compacted.snapshot();
        auto result = pinned->db().Query("(?S, ENROLLED-IN, ?C)");
        if (!result.ok() || result->rows.empty()) ++reader_errors;
        std::this_thread::yield();
      }
    });
  }

  for (int step = 0; step < 120; ++step) {
    std::vector<Fact> batch;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(Fact((step * 3 + i) % 40, step % 5, (step + i) % 40));
    }
    std::vector<std::string> names;
    for (int i = 0; i < 40; ++i) names.push_back("CHURN-" + std::to_string(i));
    ASSERT_TRUE(CommitBatch(&compacted, batch, names).ok());
    ASSERT_TRUE(CommitBatch(&reference, batch, names).ok());
  }
  done.store(true);
  for (auto& t : readers) t.join();
  const CompactionStats st = compacted.compaction_stats();
  compacted.StopCompaction();
  EXPECT_FALSE(compacted.compaction_enabled());
  EXPECT_GE(st.merges, 1u) << "the background thread never merged";
  EXPECT_EQ(st.failures, 0u);
  EXPECT_EQ(reader_errors.load(), 0);

  ASSERT_TRUE(compacted.CompactOnce().ok());
  EXPECT_EQ(EnumerateClosure(compacted.snapshot()->db()),
            EnumerateClosure(reference.snapshot()->db()));
  EXPECT_EQ(GoldenProbeDigest(compacted.snapshot()->db()),
            GoldenProbeDigest(reference.snapshot()->db()));
}

}  // namespace
}  // namespace lsd
