// E7: inference overhead of the synonym and inversion rules (Sec 3.3,
// 3.4). As the synonym density grows, more salary facts are asserted
// under the synonym name GETS-PAID and must be recovered through the
// synonym-substitution rules; this measures the closure cost and the
// answer-time effect.
//
// Expected shape: closure size and time grow roughly linearly with
// synonym density (each synonymous fact doubles), while query answers
// remain identical.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "core/loose_db.h"
#include "workload/org_domain.h"

namespace {

struct SynWorld {
  std::unique_ptr<lsd::LooseDb> db;
  lsd::Query query;
};

SynWorld* BuildWorld(int employees, int density_percent) {
  static auto* cache =
      new std::map<std::pair<int, int>, std::unique_ptr<SynWorld>>();
  auto key = std::pair(employees, density_percent);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();
  auto w = std::make_unique<SynWorld>();
  w->db = std::make_unique<lsd::LooseDb>();
  lsd::workload::OrgOptions options;
  options.num_employees = employees;
  options.synonym_density = density_percent / 100.0;
  options.salary_integrity_rule = false;
  lsd::workload::BuildOrgDomain(w->db.get(), options);
  auto q = w->db->Parse("(?X, EARNS, ?S) and (?S, IN, SALARY)");
  w->query = std::move(*q);
  SynWorld* out = w.get();
  (*cache)[key] = std::move(w);
  return out;
}

void BM_ClosureWithSynonyms(benchmark::State& state) {
  SynWorld* w =
      BuildWorld(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  lsd::MathProvider math(&w->db->store());
  lsd::RuleEngine engine(&w->db->store(), &math);
  size_t derived = 0;
  for (auto _ : state) {
    auto closure = engine.ComputeClosure(w->db->rules());
    if (!closure.ok()) {
      state.SkipWithError(closure.status().ToString().c_str());
      return;
    }
    derived = (*closure)->stats().derived_facts;
  }
  state.counters["derived"] = static_cast<double>(derived);
}

void BM_QueryWithSynonyms(benchmark::State& state) {
  SynWorld* w =
      BuildWorld(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  (void)w->db->View();  // closure computed outside the timed region
  size_t rows = 0;
  for (auto _ : state) {
    auto r = w->db->Run(w->query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    rows = r->rows.size();
  }
  // Every employee's salary is found regardless of the name it was
  // asserted under.
  state.counters["rows"] = static_cast<double>(rows);
}

}  // namespace

// employees, synonym density (percent).
BENCHMARK(BM_ClosureWithSynonyms)
    ->Args({200, 0})
    ->Args({200, 10})
    ->Args({200, 30})
    ->Args({200, 60})
    ->Args({800, 0})
    ->Args({800, 30})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QueryWithSynonyms)
    ->Args({200, 0})
    ->Args({200, 30})
    ->Args({800, 0})
    ->Args({800, 30})
    ->Unit(benchmark::kMillisecond);
