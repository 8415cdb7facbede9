// google-benchmark microbenchmarks of the building blocks: the B-tree and
// the multi-rooted B-tree, the partition monitor, the cost model, and the
// partitioning search.
#include <benchmark/benchmark.h>

#include "core/cost_model.h"
#include "core/monitor.h"
#include "core/search.h"
#include "storage/btree.h"
#include "storage/mrbtree.h"
#include "util/rng.h"
#include "workload/micro.h"
#include "workload/tatp.h"

namespace atrapos {
namespace {

void BM_BTree_Insert(benchmark::State& state) {
  storage::BPlusTree bt;
  uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt.Insert(k++, k));
  }
  state.SetItemsProcessed(static_cast<int64_t>(k));
}
BENCHMARK(BM_BTree_Insert);

void BM_BTree_Get(benchmark::State& state) {
  storage::BPlusTree bt;
  constexpr uint64_t kN = 100000;
  for (uint64_t k = 0; k < kN; ++k) (void)bt.Insert(k, k);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bt.Get(rng.Uniform(kN)));
  }
}
BENCHMARK(BM_BTree_Get);

void BM_MRBTree_RouteAndGet(benchmark::State& state) {
  auto parts = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> bounds;
  constexpr uint64_t kN = 100000;
  for (size_t p = 0; p < parts; ++p) bounds.push_back(kN * p / parts);
  storage::MultiRootedBTree t(bounds);
  for (uint64_t k = 0; k < kN; ++k) (void)t.Insert(k, k);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.Get(rng.Uniform(kN)));
  }
}
BENCHMARK(BM_MRBTree_RouteAndGet)->Arg(1)->Arg(8)->Arg(80);

void BM_Monitor_RecordAction(benchmark::State& state) {
  core::PartitionMonitor pm(0, 1000000);
  Rng rng(3);
  for (auto _ : state) {
    pm.RecordAction(rng.Uniform(1000000), 1.0);
  }
}
BENCHMARK(BM_Monitor_RecordAction);

void BM_CostModel_Evaluate(benchmark::State& state) {
  auto topo = hw::Topology::TwistedCube8x10();
  auto spec = workload::TatpSpec(800000);
  core::CostModel model(&topo, &spec);
  core::WorkloadStats stats;
  stats.tables.resize(spec.tables.size());
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    for (size_t b = 0; b < 160; ++b) {
      stats.tables[t].sub_starts.push_back(spec.tables[t].num_rows * b / 160);
      stats.tables[t].sub_cost.push_back(1.0);
    }
  }
  for (const auto& c : spec.classes) stats.class_counts.push_back(c.weight);
  std::vector<uint64_t> rows;
  for (const auto& t : spec.tables) rows.push_back(t.num_rows);
  core::Scheme s = core::NaiveScheme(topo, rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.ResourceImbalance(s, stats));
    benchmark::DoNotOptimize(model.SyncCost(s, stats));
  }
}
BENCHMARK(BM_CostModel_Evaluate);

void BM_PartitionSearch_Tatp(benchmark::State& state) {
  auto topo = hw::Topology::TwistedCube8x10();
  auto spec = workload::TatpSpec(800000);
  core::CostModel model(&topo, &spec);
  core::WorkloadStats stats;
  stats.tables.resize(spec.tables.size());
  Rng rng(11);
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    for (size_t b = 0; b < 80; ++b) {
      stats.tables[t].sub_starts.push_back(spec.tables[t].num_rows * b / 80);
      stats.tables[t].sub_cost.push_back(1.0 + rng.NextDouble());
    }
  }
  for (const auto& c : spec.classes) stats.class_counts.push_back(c.weight);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ChoosePartitioning(model, stats));
  }
}
BENCHMARK(BM_PartitionSearch_Tatp)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace atrapos

BENCHMARK_MAIN();
