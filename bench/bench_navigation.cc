// E5: navigation neighborhood retrieval vs entity degree (Sec 4.1). On
// a Zipf graph the rank-1 hub concentrates a large share of all facts;
// browsing its neighborhood costs proportionally more than a tail
// entity's.
//
// Expected shape: latency tracks entity degree (result size), not total
// store size.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "browse/navigation.h"
#include "rules/closure_view.h"
#include "workload/random_graph.h"

namespace {

struct NavWorld {
  lsd::FactStore store;
  std::unique_ptr<lsd::MathProvider> math;
  std::unique_ptr<lsd::ClosureView> view;
  lsd::EntityId hub;
  lsd::EntityId mid;
  lsd::EntityId tail;
};

NavWorld* BuildWorld(size_t num_facts) {
  static auto* cache = new std::map<size_t, std::unique_ptr<NavWorld>>();
  auto it = cache->find(num_facts);
  if (it != cache->end()) return it->second.get();
  auto w = std::make_unique<NavWorld>();
  lsd::workload::GraphOptions options;
  options.num_facts = num_facts;
  options.num_entities = std::max<size_t>(200, num_facts / 20);
  std::string hub = lsd::workload::BuildZipfGraph(&w->store, options);
  w->math = std::make_unique<lsd::MathProvider>(&w->store);
  w->view = std::make_unique<lsd::ClosureView>(
      &w->store, &w->store.base(), nullptr, w->math.get());
  w->hub = *w->store.entities().Lookup(hub);
  w->mid = w->store.entities().Intern("E20");
  w->tail = w->store.entities().Intern(
      "E" + std::to_string(options.num_entities - 1));
  NavWorld* out = w.get();
  (*cache)[num_facts] = std::move(w);
  return out;
}

void RunNeighborhood(benchmark::State& state,
                     lsd::EntityId NavWorld::* which) {
  NavWorld* w = BuildWorld(static_cast<size_t>(state.range(0)));
  lsd::Navigator navigator(w->view.get(), &w->store.entities());
  lsd::EntityId entity = w->*which;

  size_t groups = 0, neighbors = 0;
  for (auto _ : state) {
    lsd::NeighborhoodView view = *navigator.Neighborhood(entity);
    groups = view.outgoing.size() + view.incoming.size();
    neighbors = 0;
    for (const auto& g : view.outgoing) neighbors += g.entities.size();
    for (const auto& g : view.incoming) neighbors += g.entities.size();
    benchmark::DoNotOptimize(view);
  }
  state.counters["facts"] = static_cast<double>(w->store.size());
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["neighbors"] = static_cast<double>(neighbors);
}

void BM_NeighborhoodHub(benchmark::State& state) {
  RunNeighborhood(state, &NavWorld::hub);
}
void BM_NeighborhoodMid(benchmark::State& state) {
  RunNeighborhood(state, &NavWorld::mid);
}
void BM_NeighborhoodTail(benchmark::State& state) {
  RunNeighborhood(state, &NavWorld::tail);
}

}  // namespace

BENCHMARK(BM_NeighborhoodHub)->Arg(10000)->Arg(100000)->Arg(400000);
BENCHMARK(BM_NeighborhoodMid)->Arg(10000)->Arg(100000)->Arg(400000);
BENCHMARK(BM_NeighborhoodTail)->Arg(10000)->Arg(100000)->Arg(400000);
