// E4: cost of automatic retraction (Sec 5.2) as the generalization
// hierarchy changes shape. A probe whose success is planted g waves
// above the query explores a frontier whose width is governed by the
// taxonomy fanout and whose depth is g.
//
// Expected shape: retraction queries attempted grow with fanout x
// number of query constants per wave, and multiplicatively with wave
// depth.
//
// The lattice those waves walk is built from the closure's ISA facts
// (BM_LatticeBuild) and kept across commits that add none
// (BM_CommitWarm), so a commit pays for it only when its hierarchy moves.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "core/loose_db.h"
#include "workload/random_graph.h"

namespace {

struct ProbeWorld {
  std::unique_ptr<lsd::LooseDb> db;
  lsd::Query query;
  std::string leaf;  // the query's leaf class
};

// Builds a taxonomy and a query (X, TOUCHES, <leaf>) whose only
// success sits `gap` generalization steps above the leaf. `dag_percent`
// controls how many nodes have a second parent: a tree gives every
// entity exactly one minimal generalization, so only DAG-ness widens
// the retraction frontier.
ProbeWorld* BuildWorld(int depth, int fanout, int gap, int dag_percent) {
  static auto* cache = new std::map<std::tuple<int, int, int, int>,
                                    std::unique_ptr<ProbeWorld>>();
  auto key = std::tuple(depth, fanout, gap, dag_percent);
  auto it = cache->find(key);
  if (it != cache->end()) return it->second.get();

  auto w = std::make_unique<ProbeWorld>();
  w->db = std::make_unique<lsd::LooseDb>();
  lsd::workload::TaxonomyOptions tax;
  tax.depth = depth;
  tax.fanout = fanout;
  tax.extra_parent_prob = dag_percent / 100.0;
  auto taxonomy = lsd::workload::BuildRandomTaxonomy(w->db.get(), tax);
  const std::string& leaf = taxonomy.levels.back().front();
  w->leaf = leaf;
  const std::string& target = taxonomy.levels[depth - gap].front();
  w->db->Assert("X", "TOUCHES", target);
  auto q = w->db->Parse("(X, TOUCHES, " + leaf + ")");
  w->query = std::move(*q);
  // Warm the closure and the lattice outside the timed region.
  (void)w->db->Probe(w->query, lsd::ProbeOptions{.max_waves = 1});

  ProbeWorld* out = w.get();
  (*cache)[key] = std::move(w);
  return out;
}

void BM_Probe(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int fanout = static_cast<int>(state.range(1));
  const int gap = static_cast<int>(state.range(2));
  const int dag_percent = static_cast<int>(state.range(3));
  ProbeWorld* w = BuildWorld(depth, fanout, gap, dag_percent);

  lsd::ProbeOptions options;
  options.max_waves = gap + 1;
  size_t attempted = 0, waves = 0, successes = 0;
  for (auto _ : state) {
    auto probe = w->db->Probe(w->query, options);
    if (!probe.ok()) {
      state.SkipWithError(probe.status().ToString().c_str());
      return;
    }
    attempted = probe->queries_attempted;
    waves = static_cast<size_t>(probe->waves);
    successes = probe->successes.size();
  }
  state.counters["queries_attempted"] = static_cast<double>(attempted);
  state.counters["waves"] = static_cast<double>(waves);
  state.counters["successes"] = static_cast<double>(successes);
}

// A from-scratch lattice build on the depth-6, fanout-4, 50 %-DAG
// taxonomy: the ISA-slice scan plus the cover computation.
void BM_LatticeBuild(benchmark::State& state) {
  ProbeWorld* w = BuildWorld(/*depth=*/6, /*fanout=*/4, /*gap=*/3,
                             /*dag_percent=*/50);
  auto view = w->db->View();
  if (!view.ok()) {
    state.SkipWithError(view.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    lsd::GeneralizationLattice lattice =
        lsd::GeneralizationLattice::Build(**view);
    benchmark::DoNotOptimize(lattice);
  }
  const lsd::GeneralizationLattice lattice =
      lsd::GeneralizationLattice::Build(**view);
  size_t covers = 0;
  for (lsd::EntityId e = 0; e < w->db->entities().size(); ++e) {
    covers += lattice.MinimalGeneralizations(e).size();
  }
  // An unbound pattern streams the stored facts only (no ISA axioms).
  size_t isa_facts = 0;
  (*view)->ForEach(lsd::Pattern(), [&isa_facts](const lsd::Fact& f) {
    if (f.relationship == lsd::kEntIsa) ++isa_facts;
    return true;
  });
  state.counters["isa_facts"] = static_cast<double>(isa_facts);
  state.counters["covers"] = static_cast<double>(covers);
}

// One commit's private work on the same taxonomy: clone the warmed
// database, assert one fact, then Warm (closure extension, lattice,
// planner key). Arg 0 asserts a non-ISA fact, which keeps the lattice;
// arg 1 asserts an ISA fact, which rebuilds it. warm_ms isolates Warm.
void BM_CommitWarm(benchmark::State& state) {
  ProbeWorld* w = BuildWorld(/*depth=*/6, /*fanout=*/4, /*gap=*/3,
                             /*dag_percent=*/50);
  const bool isa = state.range(0) != 0;
  if (!w->db->Warm().ok()) {
    state.SkipWithError("warm failed");
    return;
  }
  lsd::LooseDbOptions options;
  options.standard_rules = false;
  double warm_ms = 0;
  for (auto _ : state) {
    lsd::LooseDb clone(options);
    lsd::Status s = w->db->CloneInto(&clone);
    if (isa) {
      clone.Assert("BENCH-LEAF", "ISA", w->leaf);
    } else {
      clone.Assert("X", "SEES", w->leaf);
    }
    const auto start = std::chrono::steady_clock::now();
    if (s.ok()) s = clone.Warm();
    warm_ms += std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.counters["warm_ms"] =
      warm_ms / static_cast<double>(std::max<int64_t>(1, state.iterations()));
}

}  // namespace

// depth, fanout, gap (waves to success), dag density (percent of nodes
// with a second parent).
BENCHMARK(BM_Probe)
    ->Args({4, 2, 1, 0})
    ->Args({4, 2, 2, 0})
    ->Args({4, 2, 3, 0})
    ->Args({4, 4, 2, 0})
    ->Args({6, 2, 2, 0})
    ->Args({8, 2, 2, 0})
    ->Args({4, 4, 1, 50})
    ->Args({4, 4, 2, 50})
    ->Args({4, 4, 3, 50})
    ->Args({4, 4, 2, 100})
    ->Args({6, 4, 3, 100})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_LatticeBuild)->Unit(benchmark::kMillisecond);

// 0 = non-ISA assert, 1 = ISA assert.
BENCHMARK(BM_CommitWarm)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);
