// Differential property test for the shared generalization lattice
// (Sec 5.1). A database keeps its lattice while its closure's ISA facts
// stay the same, and commit clones, published epochs and session
// overlays share it. Whatever the commit sequence, the lattice any of
// them serves must equal two references: a from-scratch Build on that
// database's view, and the literal definition of a cover computed here
// over a full stored-fact scan. Knownness ("no such database entities",
// Sec 5.2) must equal the same scan.
#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "browse/probing.h"
#include "core/loose_db.h"
#include "rules/builtin_rules.h"
#include "server/session.h"
#include "server/shared_store.h"
#include "util/random.h"

namespace lsd {
namespace {

using Covers = std::vector<EntityId>;

// The lattice answers for every id the database knows, plus one past
// its entity table (an entity some later epoch may intern).
struct LatticeAnswers {
  std::vector<Covers> up;
  std::vector<Covers> down;
  std::vector<bool> known;  // builtins excluded: always false
};

bool Regular(const EntityTable& entities, EntityId e) {
  return entities.Kind(e) == EntityKind::kRegular;
}

// The literal definition: over the stored facts, s ≺ t is a stored ISA
// fact between distinct regular entities; t covers s iff s ≺ t, not
// t ≺ s, and no x lies strictly between them. Roots generalize to ANY,
// leaves specialize to NONE; builtins follow Sec 2.3's fixed answers.
LatticeAnswers LiteralReference(const LooseDb& db) {
  auto view = db.View();
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  const EntityTable& entities = db.entities();
  const size_t n = entities.size();
  LatticeAnswers ref;
  ref.known.assign(n + 1, false);
  std::set<std::pair<EntityId, EntityId>> isa;
  (*view)->ForEach(Pattern(), [&](const Fact& f) {
    for (EntityId e : {f.source, f.relationship, f.target}) {
      if (e >= kNumBuiltinEntities) ref.known[e] = true;
    }
    if (f.relationship == kEntIsa && f.source != f.target &&
        Regular(entities, f.source) && Regular(entities, f.target)) {
      isa.insert({f.source, f.target});
    }
    return true;
  });
  auto strictly_below = [&](EntityId a, EntityId b) {
    return isa.count({a, b}) != 0 && isa.count({b, a}) == 0;
  };
  std::vector<Covers> up(n + 1), down(n + 1);
  for (const auto& [s, t] : isa) {
    if (!strictly_below(s, t)) continue;
    bool between = false;
    for (EntityId x = 0; x < n && !between; ++x) {
      between = strictly_below(s, x) && strictly_below(x, t);
    }
    if (!between) {
      up[s].push_back(t);
      down[t].push_back(s);
    }
  }
  for (EntityId e = 0; e <= n; ++e) {
    std::sort(up[e].begin(), up[e].end());
    std::sort(down[e].begin(), down[e].end());
    Covers g, sp;
    if (e == kEntTop) {
      sp = {kEntBottom};
    } else if (e == kEntBottom) {
      g = {kEntTop};
    } else if (e >= kNumBuiltinEntities) {
      g = up[e].empty() ? Covers{kEntTop} : up[e];
      sp = down[e].empty() ? Covers{kEntBottom} : down[e];
    }
    ref.up.push_back(std::move(g));
    ref.down.push_back(std::move(sp));
  }
  return ref;
}

LatticeAnswers Answers(const GeneralizationLattice& lattice,
                       const ClosureView& view, size_t n) {
  LatticeAnswers out;
  for (EntityId e = 0; e <= n; ++e) {
    out.up.push_back(lattice.MinimalGeneralizations(e));
    out.down.push_back(lattice.MinimalSpecializations(e));
    out.known.push_back(e >= kNumBuiltinEntities && e < n &&
                        view.Mentions(e));
  }
  return out;
}

void ExpectSameAnswers(const LatticeAnswers& got,
                       const LatticeAnswers& want, const EntityTable& names,
                       const std::string& what) {
  ASSERT_EQ(got.up.size(), want.up.size()) << what;
  auto name = [&](EntityId e) {
    return e < names.size() ? names.Name(e) : "#" + std::to_string(e);
  };
  for (EntityId e = 0; e < got.up.size(); ++e) {
    EXPECT_EQ(got.up[e], want.up[e]) << what << ": generalizations of "
                                     << name(e);
    EXPECT_EQ(got.down[e], want.down[e]) << what << ": specializations of "
                                         << name(e);
    EXPECT_EQ(got.known[e], want.known[e]) << what << ": knownness of "
                                           << name(e);
  }
}

// Checks the lattice `db` serves (its kept, possibly shared one) against
// a from-scratch Build and the literal reference, and the probe's
// unknown-entity diagnosis on one query naming `probe_names`.
void CheckDatabase(LooseDb& db, const std::vector<std::string>& probe_names,
                   const std::string& what) {
  auto view = db.View();
  ASSERT_TRUE(view.ok()) << what << ": " << view.status().ToString();
  auto kept = db.Lattice();
  ASSERT_TRUE(kept.ok()) << what << ": " << kept.status().ToString();
  const size_t n = db.entities().size();
  const LatticeAnswers literal = LiteralReference(db);
  ExpectSameAnswers(Answers(**kept, **view, n), literal, db.entities(),
                    what + " (kept lattice)");
  const GeneralizationLattice fresh = GeneralizationLattice::Build(**view);
  ExpectSameAnswers(Answers(fresh, **view, n), literal, db.entities(),
                    what + " (from-scratch Build)");

  // The names all exist already, so parsing interns nothing.
  auto probe = db.Probe("(" + probe_names[0] + ", " + probe_names[1] + ", " +
                            probe_names[2] + ")",
                        ProbeOptions{.max_waves = 1});
  ASSERT_TRUE(probe.ok()) << what << ": " << probe.status().ToString();
  std::set<EntityId> want_unknown;
  for (const std::string& name : probe_names) {
    const EntityId e = *db.entities().Lookup(name);
    if (e >= kNumBuiltinEntities && !literal.known[e]) want_unknown.insert(e);
  }
  EXPECT_EQ(std::set<EntityId>(probe->unknown_entities.begin(),
                               probe->unknown_entities.end()),
            want_unknown)
      << what << ": unknown-entity diagnosis";
}

using NamedTriple = std::tuple<std::string, std::string, std::string>;

std::string Render(const NamedTriple& f) {
  return "(" + std::get<0>(f) + ", " + std::get<1>(f) + ", " +
         std::get<2>(f) + ")";
}

// The ISA-heavy universe: a pool of classes, a synonym pair, a diamond,
// a few individuals and relationships. FLIP-A and FLIP-B take part in
// one ISA fact whose direction a commit reverses (see Structural).
struct Universe {
  std::vector<std::string> classes;
  std::vector<std::string> individuals = {"I0", "I1", "I2", "I3"};
  std::vector<std::string> relationships = {"R0", "R1", "R2"};

  Universe() {
    for (int i = 0; i < 10; ++i) classes.push_back("K" + std::to_string(i));
    for (const char* c : {"SYN-A", "SYN-B", "D-TOP", "D-LEFT", "D-RIGHT",
                          "D-BOTTOM"}) {
      classes.push_back(c);
    }
  }

  std::vector<std::string> all() const {
    std::vector<std::string> out = classes;
    out.insert(out.end(), individuals.begin(), individuals.end());
    out.insert(out.end(), relationships.begin(), relationships.end());
    out.push_back("FLIP-A");
    out.push_back("FLIP-B");
    return out;
  }

  NamedTriple RandomIsa(Rng& rng) const {
    return {classes[rng.Uniform(classes.size())], "ISA",
            classes[rng.Uniform(classes.size())]};
  }

  NamedTriple RandomOther(Rng& rng) const {
    const std::vector<std::string> names = all();
    return {names[rng.Uniform(names.size())],
            relationships[rng.Uniform(relationships.size())],
            names[rng.Uniform(names.size())]};
  }

  // Names for one probe: two entities and a relationship.
  std::vector<std::string> ProbeNames(Rng& rng) const {
    const std::vector<std::string> names = all();
    return {names[rng.Uniform(names.size())], relationships[0],
            names[rng.Uniform(names.size())]};
  }
};

class LatticeRun {
 public:
  explicit LatticeRun(uint64_t seed)
      : rng_(seed),
        sessions_{ServerSession(1, &store_), ServerSession(2, &store_)} {}

  void Run(int steps) {
    Commit("bootstrap", {{"K0", "ISA", "K1"},
                         {"K1", "ISA", "K2"},
                         {"K3", "ISA", "K1"},
                         {"I0", "IN", "K0"},
                         {"I1", "R0", "K2"},
                         {"K2", "R1", "I2"}},
           {});
    for (int step = 0; step < steps; ++step) {
      std::string what;
      if (step % 4 == 3) {
        what = Structural(step / 4);
      } else {
        what = RandomStep();
      }
      SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
      CheckEverything();
      if (::testing::Test::HasFatalFailure()) return;
    }
    // Sharing must actually happen, or the checks above prove little.
    EXPECT_GT(shared_, 0) << "no commit reused its parent's lattice";
  }

 private:
  // One commit: retract `retracts`, then assert `asserts`, in one slot.
  // Every name is interned first (a no-op after the bootstrap), so
  // probing an epoch parses without interning and entities that no fact
  // names exist to be diagnosed.
  void Commit(const std::string& what, const std::vector<NamedTriple>& asserts,
              const std::vector<NamedTriple>& retracts) {
    EpochPtr before = store_.snapshot();
    auto published = store_.Commit([&](LooseDb& db) {
      for (const std::string& name : universe_.all()) {
        db.entities().Intern(name);
      }
      for (const NamedTriple& f : retracts) {
        (void)db.Retract(std::get<0>(f), std::get<1>(f), std::get<2>(f));
      }
      for (const NamedTriple& f : asserts) {
        db.Assert(std::get<0>(f), std::get<1>(f), std::get<2>(f));
      }
      return Status::OK();
    });
    ASSERT_TRUE(published.ok()) << what << ": "
                                << published.status().ToString();
    for (const NamedTriple& f : retracts) asserted_.erase(f);
    for (const NamedTriple& f : asserts) asserted_.insert(f);
    Published(before, *published);
  }

  void Published(const EpochPtr& before, const EpochPtr& after) {
    if (after == before) return;  // a no-op group publishes nothing
    epochs_.push_back(after);
    auto old_lattice = before->db().Lattice();
    auto new_lattice = after->db().Lattice();
    if (old_lattice.ok() && new_lattice.ok() && *old_lattice == *new_lattice) {
      ++shared_;
    }
  }

  NamedTriple RandomIsa() { return universe_.RandomIsa(rng_); }
  NamedTriple RandomOther() { return universe_.RandomOther(rng_); }

  std::vector<NamedTriple> AssertedWith(bool isa) const {
    std::vector<NamedTriple> out;
    for (const NamedTriple& f : asserted_) {
      if ((std::get<1>(f) == "ISA") == isa) out.push_back(f);
    }
    return out;
  }

  // The shapes sharing must get right, cycled in order.
  std::string Structural(int round) {
    switch (round % 5) {
      case 0:
        Commit("synonym cycle", {{"SYN-A", "ISA", "SYN-B"},
                                 {"SYN-B", "ISA", "SYN-A"},
                                 {"K4", "ISA", "SYN-A"},
                                 {"SYN-B", "ISA", "K5"}},
               {});
        return "synonym cycle SYN-A ≺ SYN-B ≺ SYN-A";
      case 1:
        Commit("diamond", {{"D-BOTTOM", "ISA", "D-LEFT"},
                           {"D-BOTTOM", "ISA", "D-RIGHT"},
                           {"D-LEFT", "ISA", "D-TOP"},
                           {"D-RIGHT", "ISA", "D-TOP"}},
               {});
        return "diamond";
      case 2: {
        // Retract and re-assert one ISA fact in one commit group: the
        // ISA slice ends where it began, and the changes cancel out.
        std::vector<NamedTriple> isa = AssertedWith(true);
        if (isa.empty()) return RandomStep();
        const NamedTriple f = isa[rng_.Uniform(isa.size())];
        Commit("retract and re-assert", {f}, {f});
        return "retract and re-assert " + Render(f);
      }
      case 3: {
        // Swap one ISA fact for another in one commit.
        std::vector<NamedTriple> isa = AssertedWith(true);
        if (isa.empty()) return RandomStep();
        const NamedTriple gone = isa[rng_.Uniform(isa.size())];
        const NamedTriple added = RandomIsa();
        Commit("swap", {added}, {gone});
        return "swap " + Render(gone) + " for " + Render(added);
      }
      default: {
        // Reverse an ISA fact no other fact touches: the closure's ISA
        // count stays the same while the slice changes.
        const NamedTriple up = {"FLIP-A", "ISA", "FLIP-B"};
        const NamedTriple down = {"FLIP-B", "ISA", "FLIP-A"};
        if (asserted_.count(up) != 0) {
          Commit("flip", {down}, {up});
          return "flip FLIP-A ≺ FLIP-B to FLIP-B ≺ FLIP-A";
        }
        if (asserted_.count(down) != 0) {
          Commit("flip", {up}, {down});
          return "flip FLIP-B ≺ FLIP-A to FLIP-A ≺ FLIP-B";
        }
        Commit("flip", {up}, {});
        return "assert FLIP-A ≺ FLIP-B";
      }
    }
  }

  std::string RandomStep() {
    const uint64_t roll = rng_.Uniform(10);
    if (roll < 3) {
      std::vector<NamedTriple> batch;
      for (uint64_t i = 0, k = 1 + rng_.Uniform(3); i < k; ++i) {
        batch.push_back(RandomOther());
      }
      Commit("assert", batch, {});
      return "assert " + std::to_string(batch.size()) + " non-ISA fact(s)";
    }
    if (roll < 5) {
      const NamedTriple f = RandomIsa();
      Commit("assert ISA", {f}, {});
      return "assert " + Render(f);
    }
    if (roll < 7) {
      const bool isa = roll == 5;
      std::vector<NamedTriple> pool = AssertedWith(isa);
      if (pool.empty()) return "nothing to retract";
      const NamedTriple f = pool[rng_.Uniform(pool.size())];
      Commit("retract", {}, {f});
      return "retract " + Render(f);
    }
    if (roll == 7) {
      // The standard rules make ≺ transitive through gen-source and
      // gen-target (with r = ISA); with both excluded the stored ISA
      // relation is no longer transitively closed.
      const char* rule = rng_.Uniform(2) == 0 ? kRuleGenSource
                                              : kRuleGenTarget;
      const bool enable = !store_.snapshot()->db().IsRuleEnabled(rule);
      EpochPtr before = store_.snapshot();
      auto published = store_.Commit([&](LooseDb& db) {
        return db.SetRuleEnabled(rule, enable);
      });
      EXPECT_TRUE(published.ok()) << published.status().ToString();
      if (published.ok()) Published(before, *published);
      return std::string(enable ? "include " : "exclude ") + rule;
    }
    if (roll == 8) {
      EpochPtr before = store_.snapshot();
      EXPECT_TRUE(store_.CompactOnce().ok());
      Published(before, store_.snapshot());
      return "CompactOnce";
    }
    // A hypothetical step in one of the sessions.
    ServerSession& session = sessions_[rng_.Uniform(2)];
    const uint64_t kind = rng_.Uniform(5);
    std::string line;
    if (kind == 0) {
      line = "hypo clear";
    } else if (kind == 1 && !asserted_.empty()) {
      std::vector<NamedTriple> pool(asserted_.begin(), asserted_.end());
      line = "hypo retract " + Render(pool[rng_.Uniform(pool.size())]);
    } else {
      line = "hypo assert " + Render(kind < 4 ? RandomIsa() : RandomOther());
    }
    auto out = session.Execute(line);
    EXPECT_TRUE(out.ok()) << line << ": " << out.status().ToString();
    return "session " + std::to_string(session.id()) + ": " + line;
  }

  // Every epoch published so far (they are immutable, so a reference
  // computed once stays valid; re-checking them catches a later commit
  // disturbing a shared lattice) and each session's current overlay.
  void CheckEverything() {
    const std::vector<std::string> names = universe_.ProbeNames(rng_);
    for (size_t i = 0; i < epochs_.size(); ++i) {
      CheckDatabase(epochs_[i]->db(), names,
                    "epoch " + std::to_string(epochs_[i]->sequence()));
    }
    for (ServerSession& session : sessions_) {
      auto pinned = session.Pin();
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      if (!pinned->overlaid) continue;
      CheckDatabase(*pinned->db, names,
                    "overlay of session " + std::to_string(session.id()));
    }
  }

  Rng rng_;
  SharedStore store_;
  Universe universe_;
  ServerSession sessions_[2];
  std::set<NamedTriple> asserted_;
  std::vector<EpochPtr> epochs_;
  int shared_ = 0;
};

// One database mutated in place, no clone in between: its closure is
// extended by each assert and deletes and re-derives for each retract,
// ISA retracts included.
void RunInPlace(uint64_t seed, int steps) {
  Rng rng(seed);
  const Universe universe;
  LooseDb db;
  for (const std::string& name : universe.all()) db.entities().Intern(name);
  std::vector<NamedTriple> asserted;
  for (int step = 0; step < steps; ++step) {
    const uint64_t roll = rng.Uniform(4);
    std::string what;
    if (roll < 2 || asserted.empty()) {
      const NamedTriple f =
          roll == 0 ? universe.RandomIsa(rng) : universe.RandomOther(rng);
      db.Assert(std::get<0>(f), std::get<1>(f), std::get<2>(f));
      asserted.push_back(f);
      what = "assert " + Render(f);
    } else {
      const size_t i = rng.Uniform(asserted.size());
      const NamedTriple f = asserted[i];
      asserted.erase(asserted.begin() + i);
      (void)db.Retract(std::get<0>(f), std::get<1>(f), std::get<2>(f));
      what = "retract " + Render(f);
    }
    SCOPED_TRACE("step " + std::to_string(step) + ": " + what);
    CheckDatabase(db, universe.ProbeNames(rng), "in place");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LatticePropertyTest, InPlaceMutationsMatchBothReferences) {
  for (uint64_t seed : {11, 12}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    RunInPlace(seed, /*steps=*/40);
    if (HasFatalFailure()) return;
  }
}

TEST(LatticePropertyTest, RandomCommitSequencesMatchBothReferences) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    LatticeRun run(seed);
    run.Run(/*steps=*/40);
    if (HasFatalFailure()) return;
  }
}

// Published epochs share one lattice across reader threads: readers on 4
// threads probe pinned epochs while a writer commits ISA facts. Every
// pinned epoch's lattice equals a from-scratch Build on its view, and
// probing with either gives the same menu.
TEST(LatticePropertyTest, ReadersProbeWhileWriterCommitsIsa) {
  SharedStore store;
  ASSERT_TRUE(store
                  .Commit([](LooseDb& db) {
                    for (int i = 0; i + 1 < 12; ++i) {
                      db.Assert("C" + std::to_string(i), "ISA",
                                "C" + std::to_string(i + 1));
                    }
                    db.Assert("X", "TOUCHES", "C6");
                    return Status::OK();
                  })
                  .ok());
  auto query = store.snapshot()->db().Parse("(X, TOUCHES, C0)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<int> checks(4, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r, q = query->Clone()] {
      while (!done.load()) {
        EpochPtr epoch = store.snapshot();
        const LooseDb& db = epoch->db();
        auto view = db.View();
        auto kept = db.Lattice();
        if (!view.ok() || !kept.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const GeneralizationLattice fresh =
            GeneralizationLattice::Build(**view);
        for (EntityId e = 0; e < db.entities().size(); ++e) {
          if ((*kept)->MinimalGeneralizations(e) !=
                  fresh.MinimalGeneralizations(e) ||
              (*kept)->MinimalSpecializations(e) !=
                  fresh.MinimalSpecializations(e)) {
            mismatches.fetch_add(1);
          }
        }
        const ProbeOptions options{.max_waves = 8};
        auto probe = db.Probe(q, options);
        auto reference = Prober(*view, &fresh, &db.entities()).Probe(q, options);
        if (!probe.ok() || !reference.ok()) {
          failures.fetch_add(1);
        } else if (probe->Menu(db.entities()) !=
                   reference->Menu(db.entities())) {
          mismatches.fetch_add(1);
        }
        ++checks[r];
      }
    });
  }
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const int lo = static_cast<int>(rng.Uniform(12));
    const int hi = static_cast<int>(rng.Uniform(12));
    auto published = store.Commit([&](LooseDb& db) {
      db.Assert("C" + std::to_string(lo), "ISA", "C" + std::to_string(hi));
      if (i % 3 == 0) db.Assert("X", "SEES", "C" + std::to_string(lo));
      return Status::OK();
    });
    EXPECT_TRUE(published.ok()) << published.status().ToString();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  for (int r = 0; r < 4; ++r) EXPECT_GT(checks[r], 0) << "reader " << r;
}

}  // namespace
}  // namespace lsd
