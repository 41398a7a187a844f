// E9: storage strategies — the Sec 6.2 open problem. Compares the
// dynamic set-backed TripleIndex against the frozen sorted-array index
// on inserts and scans, and measures snapshot/WAL durability throughput.
//
// Expected shape: the frozen index scans faster (contiguous memory) but
// cannot mutate; snapshot I/O is linear in store size; WAL appends are
// constant-time per record.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>

#include "store/frozen_index.h"
#include "util/random.h"
#include "store/persistence.h"
#include "workload/random_graph.h"

namespace {

lsd::FactStore* BuildStore(size_t num_facts) {
  static auto* cache =
      new std::map<size_t, std::unique_ptr<lsd::FactStore>>();
  auto it = cache->find(num_facts);
  if (it != cache->end()) return it->second.get();
  auto store = std::make_unique<lsd::FactStore>();
  lsd::workload::GraphOptions options;
  options.num_facts = num_facts;
  options.num_entities = std::max<size_t>(100, num_facts / 10);
  lsd::workload::BuildZipfGraph(store.get(), options);
  lsd::FactStore* out = store.get();
  (*cache)[num_facts] = std::move(store);
  return out;
}

void BM_TripleIndexInsert(benchmark::State& state) {
  lsd::Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    lsd::TripleIndex idx;
    const size_t n = static_cast<size_t>(state.range(0));
    state.ResumeTiming();
    for (size_t i = 0; i < n; ++i) {
      idx.Insert(lsd::Fact(static_cast<lsd::EntityId>(rng.Uniform(n / 4)),
                           static_cast<lsd::EntityId>(rng.Uniform(16)),
                           static_cast<lsd::EntityId>(rng.Uniform(n / 4))));
    }
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_FrozenIndexBuild(benchmark::State& state) {
  lsd::FactStore* store = BuildStore(static_cast<size_t>(state.range(0)));
  std::vector<lsd::Fact> facts = store->base().Match(lsd::Pattern());
  for (auto _ : state) {
    lsd::FrozenIndex frozen(facts);
    benchmark::DoNotOptimize(frozen.size());
  }
  state.SetItemsProcessed(state.iterations() * facts.size());
}

enum class ScanVariant {
  kDynamic,       // the set-backed TripleIndex
  kFrozen,        // FrozenIndex, production (auto) strategy
  kFrozenGather,  // FrozenIndex, forced RTS-permutation gather
  kFrozenDirect,  // FrozenIndex, forced canonical-column filter
};

void RunScan(benchmark::State& state, ScanVariant variant) {
  lsd::FactStore* store = BuildStore(static_cast<size_t>(state.range(0)));
  lsd::EntityId rel = *store->entities().Lookup("R0");
  lsd::Pattern p(lsd::kAnyEntity, rel, lsd::kAnyEntity);
  lsd::TripleIndex dynamic;
  std::unique_ptr<lsd::FrozenIndex> frozen;
  if (variant == ScanVariant::kDynamic) {
    for (const lsd::Fact& f : store->base().Materialize()) dynamic.Insert(f);
  } else {
    frozen = std::make_unique<lsd::FrozenIndex>(store->base().Materialize());
    if (variant == ScanVariant::kFrozenGather) {
      frozen->set_rel_scan_mode(lsd::FrozenIndex::RelScanMode::kGather);
    } else if (variant == ScanVariant::kFrozenDirect) {
      frozen->set_rel_scan_mode(lsd::FrozenIndex::RelScanMode::kDirect);
    }
  }
  size_t n = 0;
  for (auto _ : state) {
    n = 0;
    auto count = [&](const lsd::Fact&) {
      ++n;
      return true;
    };
    if (variant == ScanVariant::kDynamic) {
      dynamic.ForEach(p, count);
    } else {
      frozen->ForEach(p, count);
    }
    benchmark::DoNotOptimize(n);
  }
  state.counters["matches"] = static_cast<double>(n);
}

void BM_DynamicIndexScan(benchmark::State& state) {
  RunScan(state, ScanVariant::kDynamic);
}
void BM_FrozenIndexScan(benchmark::State& state) {
  RunScan(state, ScanVariant::kFrozen);
}
// The two forced strategies, so regressions in the auto cutover show up
// as BM_FrozenIndexScan drifting away from the better forced number.
void BM_FrozenIndexScanGather(benchmark::State& state) {
  RunScan(state, ScanVariant::kFrozenGather);
}
void BM_FrozenIndexScanDirect(benchmark::State& state) {
  RunScan(state, ScanVariant::kFrozenDirect);
}

void BM_SnapshotSave(benchmark::State& state) {
  lsd::FactStore* store = BuildStore(static_cast<size_t>(state.range(0)));
  std::string path =
      (std::filesystem::temp_directory_path() / "lsd_bench.snap").string();
  for (auto _ : state) {
    lsd::Status s = lsd::SaveSnapshot(path, *store, {});
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * store->size());
  std::remove(path.c_str());
}

void BM_SnapshotLoad(benchmark::State& state) {
  lsd::FactStore* store = BuildStore(static_cast<size_t>(state.range(0)));
  std::string path =
      (std::filesystem::temp_directory_path() / "lsd_bench_load.snap")
          .string();
  lsd::Status saved = lsd::SaveSnapshot(path, *store, {});
  if (!saved.ok()) {
    state.SkipWithError(saved.ToString().c_str());
    return;
  }
  for (auto _ : state) {
    lsd::FactStore loaded;
    lsd::Status s = lsd::LoadSnapshot(path, &loaded, nullptr);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(loaded.size());
  }
  state.SetItemsProcessed(state.iterations() * store->size());
  std::remove(path.c_str());
}

void BM_WalAppend(benchmark::State& state) {
  lsd::FactStore store;
  lsd::Fact f = store.Assert("A", "R", "B");
  std::string path =
      (std::filesystem::temp_directory_path() / "lsd_bench.wal").string();
  std::remove((path + ".000001").c_str());
  lsd::Wal wal;
  lsd::WalOptions options;
  options.segment_bytes = 0;  // measure appends, not rotation
  lsd::Status opened = wal.Open(path, options);
  if (!opened.ok()) {
    state.SkipWithError(opened.ToString().c_str());
    return;
  }
  const std::vector<lsd::WalRecord> record = {
      lsd::WalFactRecord(lsd::WalOpCode::kAssert, store.entities(), f)};
  for (auto _ : state) {
    lsd::Status s = wal.AppendBatch(record);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  wal.Close();
  std::remove((path + ".000001").c_str());
}

}  // namespace

BENCHMARK(BM_TripleIndexInsert)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FrozenIndexBuild)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DynamicIndexScan)->Arg(10000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_FrozenIndexScan)->Arg(10000)->Arg(100000)->Arg(1000000);
BENCHMARK(BM_FrozenIndexScanGather)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);
BENCHMARK(BM_FrozenIndexScanDirect)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);
BENCHMARK(BM_SnapshotSave)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotLoad)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalAppend);
