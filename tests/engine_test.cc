// Integration tests of the real-thread engine: partitioned execution and
// online repartitioning under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/adaptive_manager.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "util/rng.h"
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

// ---- drain-loop properties: ordering, exactly-once, accounting -----------
// The Interleave* suite names date from when these tests also swept an
// interleaved drain depth; they are kept so the test ids stay stable.

constexpr uint64_t kKeys = 64;
constexpr int kParts = 4;
constexpr int64_t kInitial = 100;  // MicroTable's initial value column

std::vector<uint64_t> Bounds(uint64_t rows, int partitions) {
  std::vector<uint64_t> b;
  for (int p = 0; p < partitions; ++p)
    b.push_back(rows * static_cast<uint64_t>(p) /
                static_cast<uint64_t>(partitions));
  return b;
}

std::unique_ptr<storage::Table> ChurnTable(int id = 0) {
  return MicroTable(kKeys, Bounds(kKeys, kParts), id);
}

core::Scheme OneTableScheme(const std::vector<int>& placement) {
  core::Scheme scheme;
  core::TableScheme ts;
  ts.boundaries = Bounds(kKeys, static_cast<int>(placement.size()));
  for (int core : placement) ts.placement.push_back(core);
  scheme.tables.push_back(ts);
  return scheme;
}

ActionGraph WriteVal(uint64_t k, int64_t v) {
  ActionGraph g(0);
  g.Add(0, k, [k, v](storage::Table* t, ActionCtx&) {
    storage::Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(k, &row));
    row.SetInt(1, v);
    return t->Update(k, row);
  });
  return g;
}

// Every submitted future completes exactly once; per key, the observed
// execution order is a strictly-increasing subsequence of submission
// order (per-partition same-key ordering, which Repartition's
// drain-then-move must preserve); the final row value is the last
// executed write; and the number of executed single-action transactions
// equals the number of OK completions (no execute-then-abort, no
// abort-then-execute). All of this while Repartition and KillIsland race
// the submitter.
TEST(InterleaveOrderingTest, SameKeyOrderExactlyOnceUnderChurn) {
  hw::Topology topo = hw::Topology::Cube(1, 2);  // 2 islands x 2 cores
  Database db({.topo = topo});
  db.AddTable(ChurnTable());
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, 1, 2, 3}));

  // Per-key observed execution sequence, appended from worker threads.
  std::vector<std::vector<int64_t>> seen(kKeys);
  std::vector<std::unique_ptr<std::mutex>> seen_mu;
  for (uint64_t k = 0; k < kKeys; ++k)
    seen_mu.push_back(std::make_unique<std::mutex>());

  constexpr int kTxns = 3000;
  std::atomic<int> completions{0}, ok{0}, unavailable{0}, other{0};

  // Churn: two repartitions (shuffled placement + different boundaries),
  // then an island kill, racing the submission loop.
  std::thread churn([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    (void)exec.Repartition(OneTableScheme({3, 2, 1, 0}));
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    (void)exec.Repartition(OneTableScheme({1, 3, 0, 2}));
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    (void)exec.KillIsland(1);
  });

  std::deque<TxnFuture> window;
  auto pump = [&](size_t limit) {
    while (window.size() > limit) {
      (void)window.front().Wait();
      window.pop_front();
    }
  };
  Rng rng(8);
  for (int i = 0; i < kTxns; ++i) {
    // Hot 8-key set half the time: force same-key pileups inside one
    // drained batch.
    uint64_t k = (i % 2 == 0) ? rng.Uniform(8) : rng.Uniform(kKeys);
    int64_t seq = i;
    ActionGraph g(0);
    g.Add(0, k, [&, k, seq](storage::Table* t, ActionCtx&) {
      {
        std::lock_guard<std::mutex> lk(*seen_mu[k]);
        seen[k].push_back(seq);
      }
      storage::Tuple row;
      ATRAPOS_RETURN_NOT_OK(t->Read(k, &row));
      row.SetInt(1, seq);
      return t->Update(k, row);
    });
    auto f = exec.Submit(std::move(g));
    ASSERT_TRUE(f.ok());
    f.value().OnComplete([&](const Status& s) {
      ++completions;
      if (s.ok())
        ++ok;
      else if (s.code() == StatusCode::kUnavailable)
        ++unavailable;
      else
        ++other;
    });
    window.push_back(f.take());
    pump(64);
  }
  churn.join();
  pump(0);
  exec.Drain();

  EXPECT_EQ(completions.load(), kTxns) << "every future settles once";
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);

  int64_t executed = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    for (size_t i = 1; i < seen[k].size(); ++i)
      ASSERT_LT(seen[k][i - 1], seen[k][i])
          << "key " << k << " executed out of submission order";
    executed += static_cast<int64_t>(seen[k].size());
    storage::Tuple row;
    ASSERT_TRUE(db.table(0)->Read(k, &row).ok());
    int64_t want = seen[k].empty() ? kInitial : seen[k].back();
    EXPECT_EQ(row.GetInt(1), want) << "key " << k;
  }
  // Single-action graphs: executed <=> committed, exactly once.
  EXPECT_EQ(executed, ok.load());
}

// Same-core cross-table RVP fan-out: stage 0 runs on table 0 and stage 1
// on table 1, and partition p of both tables sits on the same core, so
// one worker thread publishes the next stage into a sibling partition's
// inbox — its own — and must pick it up on a later pass. Under
// Repartition x KillIsland churn (the kill re-homes island 1's
// partitions onto island 0's cores, stacking more partitions per worker)
// every future settles exactly once and each key's stages run in
// submission order on both tables.
TEST(InterleaveOrderingTest, SameCoreCrossTableFanOutUnderChurn) {
  hw::Topology topo = hw::Topology::Cube(1, 2);  // 2 islands x 2 cores
  Database db({.topo = topo});
  db.AddTable(ChurnTable(0));
  db.AddTable(ChurnTable(1));
  auto both = [](const std::vector<int>& placement) {
    core::Scheme s = OneTableScheme(placement);
    s.tables.push_back(s.tables[0]);
    return s;
  };
  PartitionedExecutor exec(&db, topo, both({0, 1, 2, 3}));

  // Per-key, per-table observed execution sequence.
  std::vector<std::vector<int64_t>> seen[2];
  seen[0].resize(kKeys);
  seen[1].resize(kKeys);
  std::vector<std::unique_ptr<std::mutex>> seen_mu;
  for (uint64_t k = 0; k < kKeys; ++k)
    seen_mu.push_back(std::make_unique<std::mutex>());

  constexpr int kTxns = 3000;
  std::atomic<int> completions{0}, ok{0}, unavailable{0}, other{0};
  std::thread churn([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    (void)exec.Repartition(both({3, 2, 1, 0}));
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    (void)exec.Repartition(both({1, 3, 0, 2}));
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    (void)exec.KillIsland(1);
  });

  std::deque<TxnFuture> window;
  auto pump = [&](size_t limit) {
    while (window.size() > limit) {
      (void)window.front().Wait();
      window.pop_front();
    }
  };
  Rng rng(18);
  for (int i = 0; i < kTxns; ++i) {
    uint64_t k = (i % 2 == 0) ? rng.Uniform(8) : rng.Uniform(kKeys);
    int64_t seq = i;
    auto record = [&, k, seq](int table, storage::Table* t) {
      {
        std::lock_guard<std::mutex> lk(*seen_mu[k]);
        seen[table][k].push_back(seq);
      }
      storage::Tuple row;
      ATRAPOS_RETURN_NOT_OK(t->Read(k, &row));
      row.SetInt(1, seq);
      return t->Update(k, row);
    };
    ActionGraph g(0);
    g.Add(0, k,
          [record](storage::Table* t, ActionCtx&) { return record(0, t); });
    g.Rvp();
    g.Add(1, k,
          [record](storage::Table* t, ActionCtx&) { return record(1, t); });
    auto f = exec.Submit(std::move(g));
    ASSERT_TRUE(f.ok());
    f.value().OnComplete([&](const Status& s) {
      ++completions;
      if (s.ok())
        ++ok;
      else if (s.code() == StatusCode::kUnavailable)
        ++unavailable;
      else
        ++other;
    });
    window.push_back(f.take());
    pump(64);
  }
  churn.join();
  pump(0);
  exec.Drain();

  EXPECT_EQ(completions.load(), kTxns) << "every future settles once";
  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(ok.load(), 0);
  for (int table = 0; table < 2; ++table) {
    int64_t executed = 0;
    for (uint64_t k = 0; k < kKeys; ++k) {
      const auto& s = seen[table][k];
      for (size_t i = 1; i < s.size(); ++i)
        ASSERT_LT(s[i - 1], s[i]) << "table " << table << " key " << k
                                  << " executed out of submission order";
      executed += static_cast<int64_t>(s.size());
      storage::Tuple row;
      ASSERT_TRUE(db.table(table)->Read(k, &row).ok());
      EXPECT_EQ(row.GetInt(1), s.empty() ? kInitial : s.back())
          << "table " << table << " key " << k;
    }
    // Stage 1 is the last stage: it ran <=> the graph committed. Stage 0
    // ran for every commit plus any graph whose stage 1 was quarantined.
    if (table == 1)
      EXPECT_EQ(executed, ok.load());
    else
      EXPECT_GE(executed, ok.load());
  }
}

// Kill the only island: every partition stays quarantined forever and
// all submissions abort kUnavailable. Those aborted actions must not be
// credited to executed_actions() and must not advance the partition
// monitors — the balancer would otherwise keep planning for load on a
// dead island.
TEST(InterleaveAccountingTest, ZombieActionsAreNotCreditedAsLoad) {
  hw::Topology topo = hw::Topology::SingleSocket(kParts);
  Database db({.topo = topo});
  db.AddTable(ChurnTable());
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, 1, 2, 3}));

  // Live traffic advances both executed_actions and monitor load.
  for (uint64_t k = 0; k < 8; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(WriteVal(k, 7)).ok());
  EXPECT_EQ(exec.executed_actions(), 8u);
  // Harvest aggregates AND resets the per-partition monitors. Workers
  // record batch cost *after* completing the futures, so settle until a
  // harvest window reads zero — from then on any nonzero harvest is
  // genuinely new load.
  double live_load = 0.0;
  for (int tries = 0; tries < 1000; ++tries) {
    double got = exec.HarvestStats({8.0}, 1.0).TotalLoad();
    live_load += got;
    if (got == 0.0 && live_load > 0.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(live_load, 0.0);

  auto r = exec.KillIsland(0);
  ASSERT_FALSE(r.ok());  // no survivor: degraded, partitions zombie
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);

  const uint64_t before = exec.executed_actions();
  for (uint64_t k = 0; k < kKeys; ++k)
    EXPECT_EQ(exec.SubmitAndWait(WriteVal(k, 9)).code(),
              StatusCode::kUnavailable);
  exec.Drain();
  EXPECT_EQ(exec.executed_actions(), before)
      << "aborted zombie actions were credited as executed";
  core::WorkloadStats dead = exec.HarvestStats({64.0}, 1.0);
  EXPECT_EQ(dead.TotalLoad(), 0.0)
      << "killed island still reports phantom load";
  // And the aborts really did not touch the table.
  for (uint64_t k = 0; k < 8; ++k) {
    storage::Tuple row;
    ASSERT_TRUE(db.table(0)->Read(k, &row).ok());
    EXPECT_EQ(row.GetInt(1), 7);
  }
}

// Deterministically co-mingles commit markers with actions in one
// drained batch and pins the recorded kDrainBatchSize to the action
// count (the basis kActionAvgUs divides by). Layout: worker 0's sampled
// drains are ticks 0, 8, 16, … (1-in-8, first always). Seven serial
// transactions consume ticks 0..6; a blocker action holds the worker
// inside batch 8 (tick 7) while 16 writes queue behind it; releasing the
// blocker publishes its commit marker into the same inbox (the worker
// appends to its own inbox mid-batch), so the next drain — tick 8,
// sampled — is exactly {16 actions + 1 marker}. The histogram max must
// be 16 (action basis), not 17.
TEST(InterleaveAccountingTest, DrainBatchSizeExcludesCommitMarkers) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(ChurnTable());
  PartitionedExecutor::Options opt;
  opt.durability = DurabilityMode::kGroup;
  opt.log_flush_interval_us = 20;
  // All keys < 32 route to partition 0: worker 1 never samples.
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, 1}), opt);

  // Ticks 0..6 (tick 0 samples batch size 1).
  for (int i = 0; i < 7; ++i)
    ASSERT_TRUE(exec.SubmitAndWait(WriteVal(1, i)).ok());

  // Blocker: occupies worker 0 inside its own batch (tick 7, unsampled)
  // and, being a committed write, publishes a marker at release.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  ActionGraph blocker(0);
  blocker.Add(0, 0, [opened](storage::Table* t, ActionCtx&) {
    opened.wait();
    storage::Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(0, &row));
    row.SetInt(1, 1234);
    return t->Update(0, row);
  });
  auto bf = exec.Submit(std::move(blocker));
  ASSERT_TRUE(bf.ok());
  // Let worker 0 drain the blocker batch and park inside the body.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<TxnFuture> pending;
  for (int i = 0; i < 16; ++i) {
    auto f = exec.Submit(WriteVal(2 + static_cast<uint64_t>(i), 500 + i));
    ASSERT_TRUE(f.ok());
    pending.push_back(f.take());
  }
  gate.set_value();
  ASSERT_TRUE(bf.value().Wait().ok());
  for (auto& f : pending) ASSERT_TRUE(f.Wait().ok());
  exec.Drain();

  obs::StatsSnapshot snap = db.StatsSnapshot();
  obs::Histogram sizes = snap.hist(obs::HistId::kDrainBatchSize);
  ASSERT_EQ(sizes.count(), 2u);  // ticks 0 and 8
  EXPECT_EQ(sizes.min(), 1u);
  EXPECT_EQ(sizes.max(), 16u)
      << "drain_batch_size counted commit markers (marker+action batch "
         "recorded on the wrong basis)";
  // Same sampling gate, same basis: avg-cost samples pair the sizes.
  EXPECT_EQ(snap.hist(obs::HistId::kActionAvgUs).count(), 2u);
}

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
