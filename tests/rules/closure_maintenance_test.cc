// Closure maintenance (LooseDb::View): asserts extend the cached closure,
// retracts delete and re-derive (RuleEngine::RetractFromClosure), and
// the maintained tiers always equal a from-scratch recomputation, tier
// for tier, with the two tiers disjoint.
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/loose_db.h"
#include "rules/builtin_rules.h"
#include "rules/rule_engine.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "util/random.h"

namespace lsd {
namespace {

// Compares the closure `db` serves with ComputeClosure from scratch over
// the same facts and rules: the base tier, the derived tier, and their
// disjointness.
void ExpectMatchesRecompute(const LooseDb& db, const std::string& what) {
  auto view = db.View();
  ASSERT_TRUE(view.ok()) << what << ": " << view.status().ToString();
  const Closure* kept = db.closure();
  ASSERT_NE(kept, nullptr) << what;
  MathProvider math(&db.store());
  RuleEngine engine(&db.store(), &math);
  auto fresh = engine.ComputeClosure(db.rules());
  ASSERT_TRUE(fresh.ok()) << what << ": " << fresh.status().ToString();
  EXPECT_EQ(kept->base().Materialize(), (*fresh)->base().Materialize())
      << what << ": base tier";
  EXPECT_EQ(kept->derived().Materialize(), (*fresh)->derived().Materialize())
      << what << ": derived tier";
  size_t shared = 0;
  kept->derived().ForEach(Pattern(), [&](const Fact& f) {
    if (kept->base().Contains(f)) ++shared;
    return true;
  });
  EXPECT_EQ(shared, 0u) << what << ": tiers overlap";
}

class IncrementalTest : public ::testing::Test {
 protected:
  EntityId E(const char* name) { return db_.entities().Intern(name); }

  // Asserts and reads, so the next change maintains a current closure.
  Fact Assert(const char* s, const char* r, const char* t) {
    Fact f = db_.Assert(s, r, t);
    EXPECT_TRUE(db_.View().ok());
    return f;
  }

  void Retract(const Fact& f) {
    ASSERT_TRUE(db_.Retract(f));
    ASSERT_TRUE(db_.View().ok());
  }

  bool InView(const Fact& f) { return (*db_.View())->Contains(f); }
  const Closure& closure() { return *db_.closure(); }

  LooseDb db_;
};

TEST_F(IncrementalTest, AssertPropagatesConsequences) {
  Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  Assert("JOHN", "IN", "EMPLOYEE");
  EXPECT_TRUE(InView(Fact(E("JOHN"), E("WORKS-FOR"), E("DEPARTMENT"))));
  ExpectMatchesRecompute(db_, "after asserts");
}

TEST_F(IncrementalTest, AssertingADerivedFactKeepsLayersDisjoint) {
  Assert("A", "ISA", "B");
  Assert("B", "ISA", "C");
  const Fact transitive(E("A"), kEntIsa, E("C"));
  EXPECT_TRUE(closure().derived().Contains(transitive));
  // Now assert the derived fact explicitly: it changes tier.
  ASSERT_TRUE(db_.Assert(transitive));
  ASSERT_TRUE(db_.View().ok());
  EXPECT_FALSE(closure().derived().Contains(transitive));
  EXPECT_TRUE(closure().base().Contains(transitive));
  EXPECT_TRUE(InView(transitive));
  ExpectMatchesRecompute(db_, "after asserting a derived fact");
}

TEST_F(IncrementalTest, RetractDeletesConsequences) {
  const Fact isa = Assert("A", "ISA", "B");
  Assert("B", "ISA", "C");
  EXPECT_TRUE(InView(Fact(E("A"), kEntIsa, E("C"))));
  Retract(isa);
  EXPECT_FALSE(InView(Fact(E("A"), kEntIsa, E("C"))));
  // Maintained, not recomputed: a fresh closure has erased nothing.
  EXPECT_GT(closure().base().erase_count(), 0u);
  ExpectMatchesRecompute(db_, "after the retract");
}

TEST_F(IncrementalTest, RetractRederivesAlternativeSupport) {
  // Diamond: (A ISA C) derivable through B and through B2.
  const Fact through_b = Assert("A", "ISA", "B");
  Assert("B", "ISA", "C");
  Assert("A", "ISA", "B2");
  Assert("B2", "ISA", "C");
  const Fact a_c(E("A"), kEntIsa, E("C"));
  EXPECT_TRUE(InView(a_c));
  Retract(through_b);
  // Over-deleted with its lost proof, then re-derived through B2.
  EXPECT_GT(closure().derived().erase_count(), 0u);
  EXPECT_TRUE(closure().derived().Contains(a_c));
  ExpectMatchesRecompute(db_, "after the retract");
}

TEST_F(IncrementalTest, RetractedBaseFactMayBeRederivable) {
  Assert("A", "ISA", "B");
  Assert("B", "ISA", "C");
  // Assert the transitive fact as a base fact too, then retract it: it
  // must survive as a derived fact.
  const Fact transitive = Assert("A", "ISA", "C");
  EXPECT_TRUE(closure().base().Contains(transitive));
  Retract(transitive);
  EXPECT_TRUE(InView(transitive));
  EXPECT_TRUE(closure().derived().Contains(transitive));
  EXPECT_FALSE(closure().base().Contains(transitive));
  ExpectMatchesRecompute(db_, "after the retract");
}

TEST_F(IncrementalTest, InversionChainMaintained) {
  const Fact inv = Assert("TEACHES", "INV", "TAUGHT-BY");
  Assert("HARRY", "TEACHES", "CS100");
  EXPECT_TRUE(InView(Fact(E("CS100"), E("TAUGHT-BY"), E("HARRY"))));
  Retract(inv);
  EXPECT_FALSE(InView(Fact(E("CS100"), E("TAUGHT-BY"), E("HARRY"))));
  ExpectMatchesRecompute(db_, "after the retract");
}

// Over-delete and re-derive rounds large enough to fan out across the
// closure's worker threads: a ten-class chain whose bottom class has 300
// members inheriting ten facts from the top. Retracting a middle link
// deletes thousands of derived facts; re-asserting it re-derives them.
TEST(ClosureMaintenanceTest, OverDeleteAcrossWorkersMatchesRecompute) {
  LooseDbOptions options;
  options.closure.num_threads = 4;
  LooseDb db(options);
  for (int i = 0; i + 1 < 10; ++i) {
    db.Assert("K" + std::to_string(i), "ISA", "K" + std::to_string(i + 1));
  }
  for (int m = 0; m < 300; ++m) db.Assert("M" + std::to_string(m), "IN", "K0");
  for (int j = 0; j < 10; ++j) db.Assert("K9", "LIKES", "Y" + std::to_string(j));
  ASSERT_TRUE(db.View().ok());
  const size_t derived = db.closure()->derived().size();
  ASSERT_GT(derived, 4000u);

  ASSERT_TRUE(db.Retract("K4", "ISA", "K5").ok());
  ExpectMatchesRecompute(db, "after the retract");
  EXPECT_LT(db.closure()->derived().size() + 3000, derived);
  EXPECT_GT(db.closure()->derived().erase_count(), 3000u);

  db.Assert("K4", "ISA", "K5");
  ExpectMatchesRecompute(db, "after the re-assert");
  EXPECT_EQ(db.closure()->derived().size(), derived);
}

using NamedTriple = std::tuple<std::string, std::string, std::string>;

std::string Render(const NamedTriple& f) {
  return "(" + std::get<0>(f) + ", " + std::get<1>(f) + ", " +
         std::get<2>(f) + ")";
}

// Candidate facts: a small taxonomy with a synonym, memberships, data
// facts, an inversion, and the class-relationship mark of HAS (which
// changes what the generalization rules may inherit).
const std::vector<NamedTriple>& Pool() {
  static const std::vector<NamedTriple> pool = {
      {"C1", "ISA", "C2"},    {"C2", "ISA", "C3"},
      {"C3", "ISA", "C4"},    {"C1B", "ISA", "C2"},
      {"C4", "ISA", "C1"},    {"M1", "IN", "C1"},
      {"M2", "IN", "C1B"},    {"C2", "HAS", "X"},
      {"C3", "OWES", "Y"},    {"HAS", "INV", "OWNED-BY"},
      {"HAS", "SYN", "POSSESSES"}, {"C1", "SYN", "C1B"},
      {"HAS", "IN", "CLASS-REL"}};
  return pool;
}

// One random step's changes, applied in order in one batch (one commit,
// or between two View()s). `present` tracks the pool facts asserted.
struct Step {
  std::string what;
  std::vector<std::pair<size_t, bool>> changes;  // pool index, assert?
  const char* toggle_rule = nullptr;
};

Step RandomStep(Rng& rng, std::vector<bool>* present) {
  const std::vector<NamedTriple>& pool = Pool();
  Step step;
  const uint64_t roll = rng.Uniform(10);
  if (roll < 6) {
    // Toggle one to three pool facts (ISA facts and the mark included).
    for (uint64_t k = 0, n = 1 + rng.Uniform(3); k < n; ++k) {
      const size_t i = rng.Uniform(pool.size());
      const bool add = !(*present)[i];
      (*present)[i] = add;
      step.changes.push_back({i, add});
      step.what += std::string(add ? "assert " : "retract ") +
                   Render(pool[i]) + " ";
    }
  } else if (roll < 8) {
    // Retract and re-assert one fact in one batch: no net change.
    std::vector<size_t> on;
    for (size_t i = 0; i < pool.size(); ++i) {
      if ((*present)[i]) on.push_back(i);
    }
    if (on.empty()) return RandomStep(rng, present);
    const size_t i = on[rng.Uniform(on.size())];
    step.changes = {{i, false}, {i, true}};
    step.what = "retract and re-assert " + Render(pool[i]);
  } else {
    step.toggle_rule = rng.Uniform(2) == 0 ? kRuleGenSource : kRuleMemUp;
    step.what = std::string("toggle ") + step.toggle_rule;
  }
  return step;
}

void Apply(const Step& step, LooseDb& db) {
  const std::vector<NamedTriple>& pool = Pool();
  for (const auto& [i, add] : step.changes) {
    const auto& [s, r, t] = pool[i];
    if (add) {
      db.Assert(s, r, t);
    } else {
      ASSERT_TRUE(db.Retract(s, r, t).ok()) << Render(pool[i]);
    }
  }
  if (step.toggle_rule != nullptr) {
    ASSERT_TRUE(
        db.SetRuleEnabled(step.toggle_rule,
                          !db.IsRuleEnabled(step.toggle_rule))
            .ok());
  }
}

// Randomized equivalence: interleaved asserts and retracts (ISA facts,
// the class mark, batches that cancel out) and rule toggles always
// leave the closure equal to a full recomputation — on one database
// mutated in place, and through a SharedStore with compaction and
// session overlays.
class IncrementalRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalRandomTest, AlwaysEquivalentToRecompute) {
  {
    SCOPED_TRACE("in place");
    Rng rng(GetParam());
    LooseDb db;
    std::vector<bool> present(Pool().size(), false);
    ASSERT_TRUE(db.View().ok());
    for (int step = 0; step < 60; ++step) {
      const Step s = RandomStep(rng, &present);
      SCOPED_TRACE("step " + std::to_string(step) + ": " + s.what);
      Apply(s, db);
      ExpectMatchesRecompute(db, "in place");
      if (HasFailure()) return;
    }
  }

  SCOPED_TRACE("through a SharedStore");
  Rng rng(GetParam() + 100);
  SharedStore store;
  ServerSession session(1, &store);
  std::vector<bool> present(Pool().size(), false);
  for (int step = 0; step < 60; ++step) {
    const uint64_t roll = rng.Uniform(10);
    std::string what;
    if (roll < 6) {
      const Step s = RandomStep(rng, &present);
      what = s.what;
      auto published = store.Commit([&s](LooseDb& db) {
        Apply(s, db);
        return Status::OK();
      });
      ASSERT_TRUE(published.ok()) << published.status().ToString();
    } else if (roll < 7) {
      what = "CompactOnce";
      ASSERT_TRUE(store.CompactOnce().ok());
    } else {
      // A hypothetical retract must name an asserted fact.
      std::vector<size_t> on;
      for (size_t i = 0; i < present.size(); ++i) {
        if (present[i]) on.push_back(i);
      }
      const uint64_t kind = rng.Uniform(3);
      std::string line = "hypo clear";
      if (kind == 1 && !on.empty()) {
        line = "hypo retract " + Render(Pool()[on[rng.Uniform(on.size())]]);
      } else if (kind != 0) {
        line = "hypo assert " + Render(Pool()[rng.Uniform(Pool().size())]);
      }
      what = line;
      auto out = session.Execute(line);
      ASSERT_TRUE(out.ok()) << line << ": " << out.status().ToString();
    }
    SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
    ExpectMatchesRecompute(store.snapshot()->db(), "tip");
    auto pinned = session.Pin();
    ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
    if (pinned->overlaid) ExpectMatchesRecompute(*pinned->db, "overlay");
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LooseDbIncrementalTest, BrowsingWorksUnderIncrementalMode) {
  LooseDb db;
  db.Assert("JOHN", "IN", "EMPLOYEE");
  db.Assert("EMPLOYEE", "ISA", "PERSON");
  db.Assert("JOHN", "LIKES", "FELIX");
  ASSERT_TRUE(db.View().ok());
  db.Assert("FELIX", "IN", "CAT");  // maintained by extension

  auto hood = db.Navigate("JOHN");
  ASSERT_TRUE(hood.ok());
  bool person = false;
  for (EntityId c : hood->classes) {
    if (db.entities().Name(c) == "PERSON") person = true;
  }
  EXPECT_TRUE(person);

  // Probing rebuilds the lattice against the maintained closure, after
  // an ISA retract too.
  db.Assert("INTERN", "ISA", "EMPLOYEE");
  db.Assert("MANAGES", "ISA", "WORKS-FOR");
  db.Assert("JOHN", "WORKS-FOR", "SHIPPING");
  auto probe = db.Probe("(JOHN, MANAGES, SHIPPING)");
  ASSERT_TRUE(probe.ok());
  ASSERT_EQ(probe->successes.size(), 1u);
  EXPECT_EQ(probe->successes[0].substitutions[0].Describe(db.entities()),
            "WORKS-FOR instead of MANAGES");
  ASSERT_TRUE(db.Retract("MANAGES", "ISA", "WORKS-FOR").ok());
  probe = db.Probe("(JOHN, MANAGES, SHIPPING)");
  ASSERT_TRUE(probe.ok());
  for (const ProbeSuccess& s : probe->successes) {
    EXPECT_NE(s.substitutions[0].Describe(db.entities()),
              "WORKS-FOR instead of MANAGES");
  }
  ExpectMatchesRecompute(db, "after probing");
}

TEST(LooseDbIncrementalTest, FacadeModeMatchesRecomputeMode) {
  LooseDb db;
  db.Assert("JOHN", "IN", "EMPLOYEE");
  ASSERT_TRUE(db.View().ok());
  // Each step leaves the maintained database answering like one built
  // from scratch with the same facts and rule switches.
  std::vector<NamedTriple> facts = {{"JOHN", "IN", "EMPLOYEE"}};
  std::set<std::string> excluded;
  auto expect_same = [&](const std::string& what) {
    LooseDb fresh;
    for (const auto& [s, r, t] : facts) fresh.Assert(s, r, t);
    for (const std::string& rule : excluded) {
      ASSERT_TRUE(fresh.SetRuleEnabled(rule, false).ok());
    }
    // Entity ids differ between the two, so rows compare by name.
    auto rows = [](LooseDb& d) {
      std::set<std::string> out;
      auto q = d.Query("(JOHN, ?R, ?X)");
      EXPECT_TRUE(q.ok()) << q.status().ToString();
      for (const auto& row : q->rows) {
        out.insert(d.entities().Name(row[0]) + " " +
                   d.entities().Name(row[1]));
      }
      return out;
    };
    EXPECT_EQ(rows(db), rows(fresh)) << what;
    ExpectMatchesRecompute(db, what);
  };
  db.Assert("EMPLOYEE", "WORKS-FOR", "DEPARTMENT");
  facts.push_back({"EMPLOYEE", "WORKS-FOR", "DEPARTMENT"});
  db.Assert("EMPLOYEE", "ISA", "PERSON");
  facts.push_back({"EMPLOYEE", "ISA", "PERSON"});
  expect_same("asserts");

  ASSERT_TRUE(db.Retract("EMPLOYEE", "WORKS-FOR", "DEPARTMENT").ok());
  facts.erase(facts.begin() + 1);
  expect_same("retract");

  // Rule toggles recompute but stay correct.
  ASSERT_TRUE(db.SetRuleEnabled("mem-source", false).ok());
  excluded.insert("mem-source");
  expect_same("exclude");
}

}  // namespace
}  // namespace lsd
