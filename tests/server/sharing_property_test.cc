// Epochs share one copy of the facts and of the entity table: every
// epoch a SharedStore publishes, and every session what-if built over
// one, holds its fact index, its closure tiers and its entity table by
// pointer with the states before and after it, and a mutation copies
// what it writes. This drives random commits (bulk loads, single
// asserts, new names), retracts (of overlay facts and of facts in a
// frozen segment), rule toggles, what-ifs and compactions, and checks
// after every step that the tip holds what an independent model of the
// asserted facts says, and that every epoch pinned so far still holds
// what it held when it was published. A write that reached a shared
// structure in place would change an older epoch's answers.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rules/rule_engine.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "util/random.h"

namespace lsd {
namespace {

constexpr int kEntities = 24;
constexpr int kRelationships = 4;

std::string EntityName(uint64_t i) { return "S" + std::to_string(i); }
std::string RelName(uint64_t i) { return "R" + std::to_string(i); }

// What a state held when it was pinned.
struct Reference {
  std::vector<Fact> facts;         // P, SRT-sorted
  std::vector<std::string> names;  // entity names by id, below the universe
  std::vector<Fact> derived;       // ComputeClosure's derived tier
};

std::vector<Fact> Stream(const DeltaIndex& index) {
  std::vector<Fact> out;
  index.ForEach(Pattern(), [&out](const Fact& f) {
    out.push_back(f);
    return true;
  });
  return out;
}

// A from-scratch closure over `db`'s facts and rules.
std::vector<Fact> RecomputedDerived(const LooseDb& db) {
  MathProvider math(&db.store());
  RuleEngine engine(&db.store(), &math);
  auto fresh = engine.ComputeClosure(db.rules());
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  return fresh.ok() ? (*fresh)->derived().Materialize() : std::vector<Fact>();
}

Reference Capture(const LooseDb& db) {
  Reference ref;
  ref.facts = db.store().base().Materialize();
  for (EntityId id = 0; id < db.store().universe(); ++id) {
    ref.names.push_back(db.entities().Name(id));
  }
  ref.derived = RecomputedDerived(db);
  return ref;
}

// `db` still answers as `ref` says it did when it was pinned.
void ExpectHolds(const LooseDb& db, const Reference& ref,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(db.store().size(), ref.facts.size());
  // The full scan streams the same facts in SRT order.
  EXPECT_EQ(Stream(db.store().base()), ref.facts);
  // Membership over the whole symbol universe, held or not.
  const std::set<Fact, OrderSrt> held(ref.facts.begin(), ref.facts.end());
  const EntityTable& names = db.entities();
  for (int s = 0; s < kEntities; ++s) {
    auto sid = names.Lookup(EntityName(s));
    if (!sid) continue;
    for (int r = 0; r < kRelationships; ++r) {
      auto rid = names.Lookup(RelName(r));
      if (!rid) continue;
      for (int t = 0; t < kEntities; ++t) {
        auto tid = names.Lookup(EntityName(t));
        if (!tid) continue;
        const Fact f(*sid, *rid, *tid);
        EXPECT_EQ(db.store().Contains(f), held.count(f) != 0)
            << names.Name(f.source) << " " << names.Name(f.relationship)
            << " " << names.Name(f.target);
      }
    }
  }
  // Entity names by id, and the universe fixed at publication.
  EXPECT_EQ(db.store().universe(), ref.names.size());
  for (EntityId id = 0; id < ref.names.size(); ++id) {
    EXPECT_EQ(names.Name(id), ref.names[id]) << "id " << id;
  }
  // The closure tiers: the base tier is the store's facts, the derived
  // tier what a from-scratch closure derives.
  ASSERT_NE(db.closure(), nullptr);
  EXPECT_EQ(db.closure()->base().Materialize(), ref.facts);
  EXPECT_EQ(db.closure()->derived().Materialize(), ref.derived);
}

class SharingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharingPropertyTest, PinnedEpochsNeverChange) {
  Rng rng(GetParam());
  SharedStore store;
  // A bulk load large enough to land as a frozen segment, so retracts
  // rewrite segments that older epochs share.
  ASSERT_TRUE(store
                  .Commit([&rng](LooseDb& db) {
                    std::vector<Fact> bulk;
                    for (int i = 0; i < 600; ++i) {
                      bulk.push_back(db.entities().InternFact(
                          EntityName(rng.Uniform(kEntities)),
                          RelName(rng.Uniform(kRelationships)),
                          EntityName(rng.Uniform(kEntities))));
                    }
                    db.AssertAll(bulk);
                    db.Assert("R0", "ISA", "R1");
                    db.Assert("R2", "INV", "R3");
                    return db.DefineRule(
                        "chain: (?A, R0, ?B), (?B, R0, ?C) => (?A, R1, ?C)");
                  })
                  .ok());

  struct Pin {
    EpochPtr epoch;
    Reference ref;
  };
  std::vector<Pin> pins;
  auto pin_tip = [&] {
    EpochPtr tip = store.snapshot();
    if (!pins.empty() && pins.back().epoch == tip) return;
    pins.push_back({tip, Capture(tip->db())});
    // Keep the first pin (the bulk load's frozen segment) and a window
    // of recent ones.
    if (pins.size() > 10) pins.erase(pins.begin() + 1);
  };
  pin_tip();
  // The tip's asserted facts, maintained independently of the store.
  std::set<Fact, OrderSrt> model(pins[0].ref.facts.begin(),
                                 pins[0].ref.facts.end());
  ServerSession what_if(1, &store);
  int new_names = 0;

  for (int step = 0; step < 70; ++step) {
    const std::string label = "step " + std::to_string(step);
    const uint64_t roll = rng.Uniform(10);
    const std::vector<Fact> tip_facts =
        store.snapshot()->db().store().base().Materialize();
    if (roll < 3) {
      // A commit of a few single asserts, sometimes naming a new entity.
      std::vector<std::string> line;
      for (uint64_t n = 1 + rng.Uniform(3); n > 0; --n) {
        const bool fresh = rng.Uniform(4) == 0;
        line.push_back(fresh ? "NEW" + std::to_string(new_names++)
                             : EntityName(rng.Uniform(kEntities)));
        line.push_back(RelName(rng.Uniform(kRelationships)));
        line.push_back(EntityName(rng.Uniform(kEntities)));
      }
      ASSERT_TRUE(store
                      .Commit([&line, &model](LooseDb& db) {
                        for (size_t i = 0; i < line.size(); i += 3) {
                          model.insert(
                              db.Assert(line[i], line[i + 1], line[i + 2]));
                        }
                        return Status::OK();
                      })
                      .ok())
          << label;
    } else if (roll < 6) {
      // A retract of one to five tip facts as one run: a frozen segment
      // holding several of them is rewritten once.
      std::vector<Fact> gone;
      for (uint64_t n = 1 + rng.Uniform(5); n > 0; --n) {
        gone.push_back(tip_facts[rng.Uniform(tip_facts.size())]);
      }
      const size_t distinct =
          std::set<Fact, OrderSrt>(gone.begin(), gone.end()).size();
      ASSERT_TRUE(store
                      .Commit([&gone, distinct](LooseDb& db) {
                        return db.RetractAll(gone) == distinct
                                   ? Status::OK()
                                   : Status::NotFound("gone");
                      })
                      .ok())
          << label;
      for (const Fact& f : gone) model.erase(f);
    } else if (roll < 7) {
      // A rule toggle: the next epoch recomputes its closure.
      const bool enable = !store.snapshot()->db().IsRuleEnabled("chain");
      ASSERT_TRUE(store
                      .Commit([enable](LooseDb& db) {
                        return db.SetRuleEnabled("chain", enable);
                      })
                      .ok())
          << label;
    } else if (roll < 8) {
      ASSERT_TRUE(store.CompactOnce().ok()) << label;
    } else {
      // A what-if over the tip: a hypothetical retract and assert build
      // a private state that shares the epoch's tiers and table.
      const Fact f = tip_facts[rng.Uniform(tip_facts.size())];
      const EntityTable& names = store.snapshot()->db().entities();
      ASSERT_TRUE(what_if.Execute("hypo clear").ok());
      ASSERT_TRUE(what_if
                      .Execute("hypo retract (" + names.Name(f.source) +
                               ", " + names.Name(f.relationship) + ", " +
                               names.Name(f.target) + ")")
                      .ok())
          << label;
      const std::string added = "WHATIF" + std::to_string(step);
      const std::string target = EntityName(rng.Uniform(kEntities));
      ASSERT_TRUE(
          what_if.Execute("hypo assert (" + added + ", R0, " + target + ")")
              .ok())
          << label;
      auto overlay = what_if.Pin();
      ASSERT_TRUE(overlay.ok()) << label;
      ASSERT_TRUE(overlay->overlaid);
      ASSERT_TRUE(overlay->db->View().ok()) << label;
      // The what-if state itself: the epoch's facts minus the retract
      // plus the assert (of a new name), closed as from scratch.
      std::set<Fact, OrderSrt> hypo = model;
      hypo.erase(f);
      const EntityTable& overlay_names = overlay->db->entities();
      hypo.insert(Fact(*overlay_names.Lookup(added),
                       *overlay_names.Lookup("R0"),
                       *overlay_names.Lookup(target)));
      Reference expect = Capture(*overlay->db);
      EXPECT_EQ(expect.facts, std::vector<Fact>(hypo.begin(), hypo.end()))
          << label;
      EXPECT_FALSE(overlay->db->store().Contains(f)) << label;
      EXPECT_TRUE(overlay->epoch->db().store().Contains(f)) << label;
      ExpectHolds(*overlay->db, expect, label + " what-if");
    }
    pin_tip();
    EXPECT_EQ(store.snapshot()->db().store().base().Materialize(),
              std::vector<Fact>(model.begin(), model.end()))
        << label << ": the tip against the model";
    for (size_t i = 0; i < pins.size(); ++i) {
      ExpectHolds(pins[i].epoch->db(), pins[i].ref,
                  label + ", epoch " +
                      std::to_string(pins[i].epoch->sequence()));
    }
    if (HasFatalFailure() || HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharingPropertyTest,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace lsd
