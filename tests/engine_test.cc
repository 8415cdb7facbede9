// Integration tests of the real-thread engine: partitioned execution and
// online repartitioning under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "engine/adaptive_manager.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "workload/micro.h"
#include "workload/tatp.h"

namespace atrapos::engine {
namespace {

std::unique_ptr<storage::Table> MicroTable(uint64_t rows,
                                           std::vector<uint64_t> bounds = {0},
                                           int id = 0) {
  auto t = std::make_unique<storage::Table>(
      id, "T" + std::to_string(id), workload::MicroTableSchema(), bounds);
  for (uint64_t k = 0; k < rows; ++k) {
    storage::Tuple row(&t->schema());
    row.SetInt(0, static_cast<int64_t>(k));
    row.SetInt(1, 100);
    (void)t->Insert(k, row);
  }
  return t;
}

core::Scheme TwoPartitionScheme(uint64_t rows) {
  core::Scheme s;
  core::TableScheme ts;
  ts.boundaries = {0, rows / 2};
  ts.placement = {0, 1};
  s.tables.push_back(ts);
  return s;
}

TEST(PartitionedExecutorTest, RoutesActionsToOwningPartition) {
  Database db({});
  uint64_t rows = 1000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, TwoPartitionScheme(rows));

  std::atomic<int64_t> sum{0};
  ActionGraph g;
  for (uint64_t k : {10ULL, 600ULL, 900ULL}) {
    g.Add(0, k, [k, &sum](storage::Table* t, ActionCtx&) {
      storage::Tuple row;
      ATRAPOS_RETURN_NOT_OK(t->Read(k, &row));
      sum += row.GetInt(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(exec.SubmitAndWait(std::move(g)).ok());
  EXPECT_EQ(sum.load(), 300);
  EXPECT_EQ(exec.executed_actions(), 3u);
}

TEST(PartitionedExecutorTest, HarvestStatsReflectsLoad) {
  Database db({});
  uint64_t rows = 1000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, TwoPartitionScheme(rows));
  // Hammer the low half only.
  for (int i = 0; i < 20; ++i) {
    ActionGraph g;
    g.Add(0, static_cast<uint64_t>(i * 7 % 500),
          [](storage::Table*, ActionCtx&) { return Status::OK(); });
    ASSERT_TRUE(exec.SubmitAndWait(std::move(g)).ok());
  }
  auto stats = exec.HarvestStats({20.0}, 1.0);
  ASSERT_EQ(stats.tables.size(), 1u);
  double low = 0, high = 0;
  for (size_t i = 0; i < stats.tables[0].sub_starts.size(); ++i) {
    (stats.tables[0].sub_starts[i] < 500 ? low : high) +=
        stats.tables[0].sub_cost[i];
  }
  EXPECT_GT(low, 0.0);
  EXPECT_EQ(high, 0.0);
}

TEST(PartitionedExecutorTest, RepartitionPreservesDataUnderLoad) {
  Database db({});
  uint64_t rows = 2000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(4);
  PartitionedExecutor exec(&db, topo, TwoPartitionScheme(rows));

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread load([&] {
    Rng rng(3);
    while (!stop) {
      uint64_t k = rng.Uniform(rows);
      ActionGraph g;
      g.Add(0, k, [k, &errors](storage::Table* t, ActionCtx&) {
        storage::Tuple row;
        if (!t->Read(k, &row).ok() || row.GetInt(1) != 100) ++errors;
        return Status::OK();
      });
      if (!exec.SubmitAndWait(std::move(g)).ok()) ++errors;
    }
  });
  // Repartition to 4 partitions mid-load.
  core::Scheme target;
  core::TableScheme ts;
  ts.boundaries = {0, rows / 4, rows / 2, 3 * rows / 4};
  ts.placement = {0, 1, 2, 3};
  target.tables.push_back(ts);
  auto applied = exec.Repartition(target);
  ASSERT_TRUE(applied.ok());
  EXPECT_GT(applied.value(), 0u);
  stop = true;
  load.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(db.table(0)->index().num_partitions(), 4u);
  EXPECT_EQ(db.table(0)->num_rows(), rows);
}

// ---- one worker thread per placement core ----------------------------------

/// Threads of this process, from /proc/self/status ("Threads:").
int ProcessThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

/// ProcessThreads() once it reads `want`, or its last reading after 5 s:
/// a joined thread can linger in /proc for a moment after join returns.
int SettledThreads(int want) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int n = ProcessThreads();
  while (n != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    n = ProcessThreads();
  }
  return n;
}

/// `tables` micro tables of `rows` rows, each split in half; partition p
/// of every table placed on core p (so each core owns `tables` partitions).
core::Scheme HalvesOnCores(int tables, uint64_t rows,
                           std::vector<hw::CoreId> cores) {
  core::Scheme s;
  for (int t = 0; t < tables; ++t) {
    core::TableScheme ts;
    ts.boundaries = {0, rows / 2};
    ts.placement = cores;
    s.tables.push_back(ts);
  }
  return s;
}

TEST(PartitionedExecutorTest, OneWorkerThreadPerDistinctPlacementCore) {
  Database db({});
  constexpr uint64_t kRows = 400;
  for (int t = 0; t < 4; ++t)
    (void)db.AddTable(MicroTable(kRows, {0, kRows / 2}, t));
  auto topo = hw::Topology::SingleSocket(4);
  const int before = ProcessThreads();
  ASSERT_GT(before, 0);
  {
    // 4 tables x 2 partitions on cores {0, 1}: 8 partitions, 2 workers
    // (plus the kill sentinel; durability is off, so no log flusher).
    PartitionedExecutor exec(&db, topo, HalvesOnCores(4, kRows, {0, 1}));
    EXPECT_EQ(SettledThreads(before + 2 + 1), before + 2 + 1);
    // Re-placed onto three distinct cores: three workers after restart.
    core::Scheme three = HalvesOnCores(4, kRows, {0, 1});
    three.tables[2].placement = {2, 2};
    three.tables[3].placement = {2, 1};
    ASSERT_TRUE(exec.Repartition(three).ok());
    EXPECT_EQ(SettledThreads(before + 3 + 1), before + 3 + 1);
    // Everything still routes and runs.
    for (int t = 0; t < 4; ++t) {
      for (uint64_t k : {uint64_t{3}, kRows - 3}) {
        ActionGraph g;
        g.Add(t, k, [](storage::Table*, ActionCtx&) { return Status::OK(); });
        ASSERT_TRUE(exec.SubmitAndWait(std::move(g)).ok());
      }
    }
    EXPECT_EQ(exec.executed_actions(), 8u);
  }
  EXPECT_EQ(SettledThreads(before), before);
}

TEST(PartitionedExecutorTest, BatchWaveWakesEachParkedCoreOnce) {
  Database db({});
  constexpr uint64_t kRows = 400;
  for (int t = 0; t < 4; ++t)
    (void)db.AddTable(MicroTable(kRows, {0, kRows / 2}, t));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, HalvesOnCores(4, kRows, {0, 1}));
  auto counter = [&](obs::CounterId c) {
    return db.StatsSnapshot().counter(c);
  };
  // Blocks until `floor` park episodes were counted. A worker counts its
  // episode after setting `parked` and before blocking, and nothing wakes
  // it but the waves below, so reaching the floor means both are parked.
  auto await_parks = [&](uint64_t floor) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (counter(obs::CounterId::kWorkerParks) < floor) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  await_parks(2);
  for (int round = 0; round < 5; ++round) {
    const uint64_t parks = counter(obs::CounterId::kWorkerParks);
    const uint64_t wakes = counter(obs::CounterId::kWorkerWakes);
    // One wave over all 8 partitions (4 tables x 2 halves, 2 cores).
    std::vector<ActionGraph> wave;
    for (int t = 0; t < 4; ++t) {
      for (uint64_t k : {uint64_t{1}, kRows - 1}) {
        ActionGraph g;
        g.Add(t, k, [](storage::Table*, ActionCtx&) { return Status::OK(); });
        wave.push_back(std::move(g));
      }
    }
    auto fs = exec.SubmitBatch(wave);
    ASSERT_TRUE(fs.ok());
    for (auto& f : fs.value()) ASSERT_TRUE(f.Wait().ok());
    EXPECT_EQ(counter(obs::CounterId::kWorkerWakes) - wakes, 2u)
        << "one claimed wake per parked core, not per partition";
    await_parks(parks + 2);
  }
  // Exposed on the Prometheus surface too.
  std::string prom = db.StatsSnapshot().ToPrometheus();
  EXPECT_NE(prom.find("atrapos_worker_parks "), std::string::npos);
  EXPECT_NE(prom.find("atrapos_worker_wakes "), std::string::npos);
}

// The poll-before-park gate: a worker polls only when it owns a CPU and
// the host keeps a CPU beyond the workers for the threads feeding them.
TEST(PartitionedExecutorTest, PollBeforeParkNeedsAPinnedWorkerAndASpareCpu) {
  EXPECT_TRUE(PollBeforePark(/*bound=*/true, /*host_cpus=*/4, /*workers=*/2));
  EXPECT_TRUE(PollBeforePark(true, 4, 3));
  // Unpinned (affinity failed, or the core id exceeds the host's CPUs).
  EXPECT_FALSE(PollBeforePark(false, 64, 2));
  // Too few CPUs: SingleSocket(4) on a 4-CPU host, or fewer CPUs still.
  EXPECT_FALSE(PollBeforePark(true, 4, 4));
  EXPECT_FALSE(PollBeforePark(true, 1, 4));
  EXPECT_FALSE(PollBeforePark(true, 1, 1));
  // hardware_concurrency() may report 0 (unknown): never poll then.
  EXPECT_FALSE(PollBeforePark(true, 0, 1));
}

// ---- Island placement (src/mem/) -----------------------------------------

TEST(IslandPlacementTest, PartitionStateLandsOnOwnerIslandArena) {
  auto topo = hw::Topology::Cube(1, 2);  // sockets {0,1}, cores {0,1},{2,3}
  Database db({.topo = topo});
  uint64_t rows = 2000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));

  core::Scheme s;
  core::TableScheme ts;
  ts.boundaries = {0, rows / 2};
  ts.placement = {0, 2};  // partition 0 on socket 0, partition 1 on socket 1
  s.tables.push_back(ts);
  PartitionedExecutor exec(&db, topo, s);

  auto& index = db.table(0)->index();
  ASSERT_NE(index.partition_arena(0), nullptr);
  ASSERT_NE(index.partition_arena(1), nullptr);
  EXPECT_EQ(index.partition_arena(0)->home_socket(), 0);
  EXPECT_EQ(index.partition_arena(1)->home_socket(), 1);
  // Each partition's heap follows its own owner island, like its subtree.
  ASSERT_NE(db.table(0)->heap(0).arena(), nullptr);
  ASSERT_NE(db.table(0)->heap(1).arena(), nullptr);
  EXPECT_EQ(db.table(0)->heap(0).arena()->home_socket(), 0);
  EXPECT_EQ(db.table(0)->heap(1).arena()->home_socket(), 1);
  // Both islands hold resident bytes for their partition's subtree.
  EXPECT_GT(db.memory().stats().resident_bytes(0), 0);
  EXPECT_GT(db.memory().stats().resident_bytes(1), 0);
}

TEST(IslandPlacementTest, CentralPolicyPlacesEverythingOnOneIsland) {
  auto topo = hw::Topology::Cube(1, 2);
  Database db({.topo = topo,
               .mem = {.policy = mem::PlacementPolicy::kCentral,
                       .central_socket = 1}});
  uint64_t rows = 1000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  core::Scheme s;
  core::TableScheme ts;
  ts.boundaries = {0, rows / 2};
  ts.placement = {0, 2};
  s.tables.push_back(ts);
  PartitionedExecutor exec(&db, topo, s);

  auto& index = db.table(0)->index();
  EXPECT_EQ(index.partition_arena(0)->home_socket(), 1);
  EXPECT_EQ(index.partition_arena(1)->home_socket(), 1);
  EXPECT_EQ(db.memory().stats().resident_bytes(0), 0);
  EXPECT_GT(db.memory().stats().resident_bytes(1), 0);
}

TEST(IslandPlacementTest, RepartitionMigratesMovedSubtreesToNewOwner) {
  auto topo = hw::Topology::Cube(1, 2);
  Database db({.topo = topo});
  uint64_t rows = 2000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  core::Scheme s;
  core::TableScheme ts;
  ts.boundaries = {0, rows / 2};
  ts.placement = {0, 2};  // partition 1 owned by socket 1
  s.tables.push_back(ts);
  PartitionedExecutor exec(&db, topo, s);
  ASSERT_GT(db.memory().stats().resident_bytes(1), 0);

  // Move everything to socket 0: partition 1's subtree must physically
  // migrate off island 1 (asserted via AllocStats resident bytes).
  core::Scheme target;
  core::TableScheme tt;
  tt.boundaries = {0, rows / 4, rows / 2};
  tt.placement = {0, 1, 1};  // all cores of socket 0
  target.tables.push_back(tt);
  auto applied = exec.Repartition(target);
  ASSERT_TRUE(applied.ok());

  auto& index = db.table(0)->index();
  ASSERT_EQ(index.num_partitions(), 3u);
  for (size_t p = 0; p < 3; ++p) {
    ASSERT_NE(index.partition_arena(p), nullptr);
    EXPECT_EQ(index.partition_arena(p)->home_socket(), 0);
  }
  EXPECT_EQ(db.memory().stats().resident_bytes(1), 0);
  EXPECT_GT(db.memory().stats().resident_bytes(0), 0);
  // Data survived the migration.
  EXPECT_EQ(db.table(0)->num_rows(), rows);
  storage::Tuple row;
  ASSERT_TRUE(db.table(0)->Read(rows - 1, &row).ok());
  EXPECT_EQ(row.GetInt(1), 100);
}

TEST(AdaptiveManagerTest, RepartitionsUnderSkewedLoad) {
  Database db({});
  uint64_t rows = 4000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 4, rows / 2, 3 * rows / 4}));
  auto topo = hw::Topology::SingleSocket(4);
  auto spec = workload::ReadOneSpec(rows);
  core::Scheme initial;
  core::TableScheme ts;
  ts.boundaries = {0, rows / 4, rows / 2, 3 * rows / 4};
  ts.placement = {0, 1, 2, 3};
  initial.tables.push_back(ts);
  PartitionedExecutor exec(&db, topo, initial);

  AdaptiveManager::Options mopt;
  mopt.controller.initial_interval_s = 0.05;
  mopt.controller.max_interval_s = 0.2;
  AdaptiveManager mgr(&exec, &topo, &spec, mopt);
  mgr.Start();

  // Skewed load: 90% of reads hit the first 10% of keys. Class counts are
  // populated by the executor's completion path (txn_class 0), not by
  // hand-reporting.
  Rng rng(5);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < deadline) {
    uint64_t k = rng.Chance(0.9) ? rng.Uniform(rows / 10) : rng.Uniform(rows);
    ActionGraph g(/*txn_class=*/0);
    g.Add(0, k, [](storage::Table*, ActionCtx&) { return Status::OK(); });
    ASSERT_TRUE(exec.SubmitAndWait(std::move(g)).ok());
    if (mgr.repartitions() > 0) break;
  }
  mgr.Stop();
  EXPECT_GE(mgr.repartitions(), 1u);
  EXPECT_GT(mgr.completed_transactions(), 0u);
  // All rows still present after repartitioning.
  EXPECT_EQ(db.table(0)->num_rows(), rows);
}

}  // namespace
}  // namespace atrapos::engine
