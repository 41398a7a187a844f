// E10: closure maintenance (Sec 6.2 "update of data") vs full
// recomputation, for point updates against organizations of growing
// size. LooseDb::View folds each update into its cached closure: an
// assert extends it, a retract deletes and re-derives (DRed).
//
// Expected shape: full recomputation cost grows with store size;
// maintained assert+retract pairs cost time proportional to the
// consequences of the single fact plus a copy of the tiers' overlays.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/loose_db.h"
#include "workload/org_domain.h"

namespace {

struct World {
  std::unique_ptr<lsd::LooseDb> db;
  std::unique_ptr<lsd::MathProvider> math;
  std::unique_ptr<lsd::RuleEngine> engine;
};

World* BuildWorld(int employees) {
  static auto* cache = new std::map<int, std::unique_ptr<World>>();
  auto it = cache->find(employees);
  if (it != cache->end()) return it->second.get();
  auto w = std::make_unique<World>();
  w->db = std::make_unique<lsd::LooseDb>();
  lsd::workload::OrgOptions options;
  options.num_employees = employees;
  options.salary_integrity_rule = false;
  lsd::workload::BuildOrgDomain(w->db.get(), options);
  w->math =
      std::make_unique<lsd::MathProvider>(&w->db->store());
  w->engine =
      std::make_unique<lsd::RuleEngine>(&w->db->store(), w->math.get());
  World* out = w.get();
  (*cache)[employees] = std::move(w);
  return out;
}

void BM_FullRecomputeAfterUpdate(benchmark::State& state) {
  World* w = BuildWorld(static_cast<int>(state.range(0)));
  lsd::FactStore& store = w->db->store();
  lsd::Fact f(store.entities().Intern("EMP-0"),
              store.entities().Intern("MENTORS"),
              store.entities().Intern("EMP-1"));
  size_t derived = 0;
  for (auto _ : state) {
    store.Assert(f);
    auto closure = w->engine->ComputeClosure(w->db->rules());
    if (!closure.ok()) {
      state.SkipWithError(closure.status().ToString().c_str());
      return;
    }
    derived = (*closure)->stats().derived_facts;
    store.Retract(f);
  }
  state.counters["derived"] = static_cast<double>(derived);
  state.counters["base_facts"] = static_cast<double>(store.size());
}

// Assert a fact, read, retract it, read: one extension and one DRed
// run on the maintained closure.
void BM_IncrementalUpdatePair(benchmark::State& state) {
  World* w = BuildWorld(static_cast<int>(state.range(0)));
  lsd::LooseDb& db = *w->db;
  lsd::Fact f(db.entities().Intern("EMP-0"), db.entities().Intern("MENTORS"),
              db.entities().Intern("EMP-1"));
  if (!db.View().ok()) {
    state.SkipWithError("closure failed");
    return;
  }
  for (auto _ : state) {
    db.Assert(f);
    lsd::Status s1 = db.View().status();
    db.Retract(f);
    lsd::Status s2 = db.View().status();
    if (!s1.ok() || !s2.ok()) {
      state.SkipWithError("closure maintenance failed");
      return;
    }
  }
  state.counters["base_facts"] = static_cast<double>(db.store().size());
  state.counters["derived"] =
      static_cast<double>(db.closure_stats()->derived_facts);
}

// A heavier update: retracting a membership fact tears down and partly
// rebuilds the employee's derived facts (DRed both phases); the
// re-assert extends them back.
void BM_IncrementalMembershipChurn(benchmark::State& state) {
  World* w = BuildWorld(static_cast<int>(state.range(0)));
  lsd::LooseDb& db = *w->db;
  lsd::Fact f(db.entities().Intern("EMP-0"), db.entities().Intern("IN"),
              db.entities().Intern("EMPLOYEE"));
  if (!db.View().ok()) {
    state.SkipWithError("closure failed");
    return;
  }
  for (auto _ : state) {
    db.Retract(f);
    lsd::Status s1 = db.View().status();
    db.Assert(f);
    lsd::Status s2 = db.View().status();
    if (!s1.ok() || !s2.ok()) {
      state.SkipWithError("closure maintenance failed");
      return;
    }
  }
  state.counters["base_facts"] = static_cast<double>(db.store().size());
}

}  // namespace

#define LSD_E10_SIZES ->Arg(100)->Arg(400)->Arg(1600)

BENCHMARK(BM_FullRecomputeAfterUpdate)
LSD_E10_SIZES->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalUpdatePair)
LSD_E10_SIZES->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalMembershipChurn)
LSD_E10_SIZES->Unit(benchmark::kMillisecond);
