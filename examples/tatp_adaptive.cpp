// TATP on the real partitioned engine with the ATraPos adaptive manager:
// loads the four TATP tables, submits a skewed workload as routed
// ActionGraphs (asynchronous, pipelined), and watches the monitor + cost
// model + repartitioner rebalance the partitioning online. Transaction
// classes are reported to the adaptive manager by the executor's
// completion path — the driver below never hand-counts anything.
//
// Run: ./build/examples/tatp_adaptive
#include <chrono>
#include <cstdio>
#include <deque>

#include "engine/adaptive_manager.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "util/rng.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

using namespace atrapos;

int main() {
  constexpr uint64_t kSubscribers = 20000;
  constexpr size_t kPipelineDepth = 16;
  auto topo = hw::Topology::SingleSocket(4);

  // Build the database with real TATP tables, 4 partitions each.
  engine::Database db({.topo = topo});
  std::vector<uint64_t> bounds;
  for (int p = 0; p < 4; ++p) bounds.push_back(kSubscribers * p / 4);
  auto tables = workload::BuildTatpTables(kSubscribers, bounds);
  std::printf("loaded TATP: %llu subscribers, %llu access-info, %llu "
              "special-facility, %llu call-forwarding rows\n",
              static_cast<unsigned long long>(tables[0]->num_rows()),
              static_cast<unsigned long long>(tables[1]->num_rows()),
              static_cast<unsigned long long>(tables[2]->num_rows()),
              static_cast<unsigned long long>(tables[3]->num_rows()));
  for (auto& t : tables) db.AddTable(std::move(t));

  // Partitioned executor: one worker per partition.
  engine::PartitionedExecutor exec(&db, topo,
                                   workload::TatpScheme(kSubscribers, 4));

  auto spec = workload::TatpSpec(kSubscribers);
  engine::AdaptiveManager::Options mopt;
  mopt.controller.initial_interval_s = 0.1;
  mopt.controller.max_interval_s = 0.8;
  engine::AdaptiveManager mgr(&exec, &topo, &spec, mopt);
  mgr.Start();

  // Drive GetSubscriberData with heavy skew: 80% of lookups hit the first
  // 10% of subscribers. The single client thread keeps kPipelineDepth
  // transactions in flight — Submit returns a TxnFuture immediately, so
  // no thread blocks per in-flight transaction. The adaptive manager
  // should split the hot range.
  workload::TatpActionGraphs graphs(kSubscribers);
  Rng rng(42);
  uint64_t submitted = 0;
  std::deque<engine::TxnFuture> window;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < deadline) {
    uint64_t s_id = rng.Chance(0.8) ? rng.Uniform(kSubscribers / 10)
                                    : rng.Uniform(kSubscribers);
    auto f = exec.Submit(graphs.GetSubscriberData(s_id));
    if (!f.ok()) break;
    window.push_back(f.take());
    ++submitted;
    while (window.size() >= kPipelineDepth) {
      (void)window.front().Wait();
      window.pop_front();
    }
    if (mgr.repartitions() > 0) break;
  }
  while (!window.empty()) {
    (void)window.front().Wait();
    window.pop_front();
  }
  mgr.Stop();

  std::printf("submitted %llu GetSubscriberData action graphs "
              "(%llu counted by the completion path)\n",
              static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(mgr.completed_transactions()));
  std::printf("adaptive repartitions: %llu\n",
              static_cast<unsigned long long>(mgr.repartitions()));
  auto final_scheme = exec.scheme();
  std::printf("Subscriber partitioning after adaptation: %zu partitions\n",
              final_scheme.tables[0].num_partitions());
  std::printf("fence keys:");
  for (uint64_t b : final_scheme.tables[0].boundaries)
    std::printf(" %llu", static_cast<unsigned long long>(b));
  std::printf("\n(finer partitions over the hot low range = the ATraPos "
              "skew response of Fig. 11)\n");
  return 0;
}
