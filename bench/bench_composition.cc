// E3: composition blow-up vs the limit(n) operator (Sec 3.7, 6.1). The
// paper warns that "augmenting the database with all composition facts
// may have serious effect on the cost of query processing" — this
// measures both the count of materialized composition facts and the
// cost of producing them as the chain-length bound grows.
//
// Expected shape: composed-fact count and time grow super-linearly in n
// until the simple-path bound saturates.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "rules/closure_view.h"
#include "rules/composition.h"
#include "workload/random_graph.h"

namespace {

struct World {
  lsd::FactStore store;
  std::unique_ptr<lsd::MathProvider> math;
  std::unique_ptr<lsd::ClosureView> view;
};

World* BuildWorld(size_t num_facts) {
  static auto* cache = new std::map<size_t, std::unique_ptr<World>>();
  auto it = cache->find(num_facts);
  if (it != cache->end()) return it->second.get();
  auto w = std::make_unique<World>();
  lsd::workload::GraphOptions options;
  options.num_facts = num_facts;
  options.num_entities = num_facts / 4;
  options.zipf_exponent = 0.8;  // mild skew: connected but not absurd
  lsd::workload::BuildZipfGraph(&w->store, options);
  w->math = std::make_unique<lsd::MathProvider>(&w->store);
  w->view = std::make_unique<lsd::ClosureView>(
      &w->store, &w->store.base(), nullptr, w->math.get());
  World* out = w.get();
  (*cache)[num_facts] = std::move(w);
  return out;
}

void BM_MaterializeAll(benchmark::State& state) {
  World* w = BuildWorld(static_cast<size_t>(state.range(0)));
  lsd::CompositionEngine composer(&w->store.entities());
  lsd::CompositionOptions options;
  options.limit = static_cast<int>(state.range(1));
  options.max_results = 5'000'000;

  size_t composed = 0;
  for (auto _ : state) {
    auto result = composer.MaterializeAll(*w->view, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    composed = result->size();
    benchmark::DoNotOptimize(composed);
  }
  state.counters["base_facts"] = static_cast<double>(w->store.size());
  state.counters["composed_facts"] = static_cast<double>(composed);
}

void BM_PathsBetween(benchmark::State& state) {
  World* w = BuildWorld(2000);
  lsd::CompositionEngine composer(&w->store.entities());
  lsd::CompositionOptions options;
  options.limit = static_cast<int>(state.range(0));
  lsd::EntityId s = *w->store.entities().Lookup("E0");
  lsd::EntityId t = *w->store.entities().Lookup("E1");

  size_t paths = 0;
  for (auto _ : state) {
    auto result = composer.PathsBetween(*w->view, s, t, options);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    paths = result->size();
    benchmark::DoNotOptimize(paths);
  }
  state.counters["paths"] = static_cast<double>(paths);
}

}  // namespace

BENCHMARK(BM_MaterializeAll)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 3})
    ->Args({1000, 4})
    ->Args({4000, 2})
    ->Args({4000, 3})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PathsBetween)->DenseRange(1, 5)->Unit(benchmark::kMillisecond);
