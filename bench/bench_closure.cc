// E1: cost of computing the database closure (Sec 2.6) — semi-naive vs
// naive fixpoint, over random taxonomies of growing size. The paper
// promises "repeated application of the rules"; this measures how the
// evaluation strategy changes that cost.
//
// Expected shape: semi-naive beats naive, and the gap widens with store
// size (naive re-derives the full closure every round).
#include <benchmark/benchmark.h>

#include "core/loose_db.h"
#include "workload/random_graph.h"

namespace {

using lsd::ClosureOptions;
using lsd::LooseDb;
using lsd::MathProvider;
using lsd::RuleEngine;

void RunClosure(benchmark::State& state, ClosureOptions::Strategy strategy,
                unsigned num_threads = 1) {
  const int depth = static_cast<int>(state.range(0));
  const int fanout = static_cast<int>(state.range(1));

  LooseDb db;
  lsd::workload::TaxonomyOptions tax;
  tax.depth = depth;
  tax.fanout = fanout;
  auto taxonomy = lsd::workload::BuildRandomTaxonomy(&db, tax);
  // Members on the leaves plus a few class-level facts make the
  // generalization/membership rules do real work.
  for (size_t i = 0; i < taxonomy.levels.back().size(); ++i) {
    db.Assert("M" + std::to_string(i), "IN", taxonomy.levels.back()[i]);
  }
  db.Assert(taxonomy.Root(), "NEEDS", "OXYGEN");

  MathProvider math(&db.store());
  RuleEngine engine(&db.store(), &math);
  ClosureOptions options;
  options.strategy = strategy;
  options.num_threads = num_threads;

  size_t derived = 0, candidates = 0, rounds = 0;
  for (auto _ : state) {
    auto closure = engine.ComputeClosure(db.rules(), options);
    if (!closure.ok()) {
      state.SkipWithError(closure.status().ToString().c_str());
      return;
    }
    derived = (*closure)->stats().derived_facts;
    candidates = (*closure)->stats().candidate_facts;
    rounds = (*closure)->stats().rounds;
    benchmark::DoNotOptimize(*closure);
  }
  state.counters["base_facts"] = static_cast<double>(db.store().size());
  state.counters["derived"] = static_cast<double>(derived);
  state.counters["candidates"] = static_cast<double>(candidates);
  state.counters["rounds"] = static_cast<double>(rounds);
}

// Pinned to one thread so the numbers stay comparable across machines
// (and with historic BENCH_closure.json entries).
void BM_ClosureSemiNaive(benchmark::State& state) {
  RunClosure(state, ClosureOptions::Strategy::kSemiNaive, 1);
}

// num_threads = 0 resolves to hardware_concurrency.
void BM_ClosureSemiNaiveParallel(benchmark::State& state) {
  RunClosure(state, ClosureOptions::Strategy::kSemiNaive, 0);
}

void BM_ClosureNaive(benchmark::State& state) {
  RunClosure(state, ClosureOptions::Strategy::kNaive);
}

}  // namespace

// Bushy taxonomies (depth, fanout) plus deep chains (fanout 1), where
// many rounds make the strategies diverge most.
BENCHMARK(BM_ClosureSemiNaive)
    ->Args({2, 3})
    ->Args({3, 3})
    ->Args({4, 3})
    ->Args({5, 3})
    ->Args({3, 6})
    ->Args({32, 1})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClosureSemiNaiveParallel)
    ->Args({4, 3})
    ->Args({5, 3})
    ->Args({3, 6})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClosureNaive)
    ->Args({2, 3})
    ->Args({3, 3})
    ->Args({4, 3})
    ->Args({5, 3})
    ->Args({3, 6})
    ->Args({32, 1})
    ->Args({64, 1})
    ->Unit(benchmark::kMillisecond);
