// Interleaved (coroutine-pipelined) action execution tests (ISSUE 10):
// the PrefetchChain substrate (warm descents find the indexed value,
// frames come from — and return to — the installed ChunkPool), and the
// executor semantics that interleaving must NOT move:
//
//  - per-partition same-key ordering and exactly-once TxnFuture
//    completion, under interleave_depth ∈ {1,4,16} racing Repartition
//    and KillIsland (the tentpole's invariant sweep);
//  - zombie batches are not credited to executed_actions() nor to the
//    partition monitors — a killed island must stop advancing load
//    stats instead of reporting phantom load (accounting bugfix 1);
//  - kDrainBatchSize records actions, not actions+markers, matching the
//    kActionAvgUs basis (accounting bugfix 2) — pinned by a
//    deterministically co-mingled marker/action batch;
//  - with durability on, interleaved execution recovers to exactly the
//    live state (write-ahead marker order and WorkerLogObserver
//    attribution hold under K>1).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/recovery.h"
#include "mem/chunk_pool.h"
#include "storage/interleave.h"
#include "storage/table.h"
#include "util/rng.h"
#include "workload/micro.h"

namespace atrapos {
namespace {

using engine::ActionCtx;
using engine::ActionGraph;
using engine::Database;
using engine::DurabilityMode;
using engine::PartitionedExecutor;
using storage::PrefetchChain;
using storage::Table;
using storage::Tuple;

constexpr uint64_t kKeys = 64;
constexpr int kParts = 4;
constexpr int64_t kInitial = 100;

std::vector<uint64_t> Bounds(uint64_t rows, int partitions) {
  std::vector<uint64_t> b;
  for (int p = 0; p < partitions; ++p)
    b.push_back(rows * static_cast<uint64_t>(p) /
                static_cast<uint64_t>(partitions));
  return b;
}

std::unique_ptr<Table> FreshTable(int id = 0) {
  auto t = std::make_unique<Table>(id, "T" + std::to_string(id),
                                   workload::MicroTableSchema(),
                                   Bounds(kKeys, kParts));
  for (uint64_t k = 0; k < kKeys; ++k) {
    Tuple row(&t->schema());
    row.SetInt(0, static_cast<int64_t>(k));
    row.SetInt(1, kInitial);
    (void)t->Insert(k, row);
  }
  return t;
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
  g.Add(0, k, [k, v](Table* t, ActionCtx&) {
    Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(k, &row));
    row.SetInt(1, v);
    return t->Update(k, row);
  });
  return g;
}

// Drives a warm chain to completion, counting suspensions.
int DriveToDone(PrefetchChain& c) {
  int resumes = 0;
  while (!c.done()) {
    c.Resume();
    ++resumes;
  }
  return resumes;
}

// ---- substrate: warm descents + pooled frames ------------------------------

TEST(InterleaveSubstrateTest, WarmDescentFindsIndexedValue) {
  auto t = FreshTable();
  for (uint64_t k : {uint64_t{0}, uint64_t{17}, kKeys - 1}) {
    size_t part = t->index().PartitionOf(k);
    std::optional<uint64_t> warm_val;
    PrefetchChain c = t->index().subtree(part).WarmDescent(k, &warm_val);
    DriveToDone(c);
    ASSERT_TRUE(warm_val.has_value()) << "key " << k;
    // The warm view must agree with the authoritative lookup.
    auto direct = t->index().subtree(part).Get(k);
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(*warm_val, *direct) << "key " << k;
  }
  // Missing key: the chain completes (no value), never faults.
  std::optional<uint64_t> miss;
  PrefetchChain c =
      t->index().subtree(t->index().PartitionOf(7)).WarmDescent(kKeys + 500,
                                                                &miss);
  DriveToDone(c);
  EXPECT_FALSE(miss.has_value());
}

TEST(InterleaveSubstrateTest, WarmRecordCompletesAndToleratesBadRid) {
  auto t = FreshTable();
  size_t part = t->index().PartitionOf(3);
  auto v = t->index().subtree(part).Get(3);
  ASSERT_TRUE(v.has_value());
  auto rid = storage::Rid::TryDecode(*v);
  ASSERT_TRUE(rid.has_value());
  PrefetchChain c = t->heap(part).WarmRecord(*rid);
  EXPECT_GT(DriveToDone(c), 0);  // at least one memory-stall suspension
  // A stale/garbage rid must end the chain early, not crash.
  PrefetchChain bad = t->heap(part).WarmRecord(storage::Rid{0, 999999, 3});
  DriveToDone(bad);
  EXPECT_TRUE(bad.done());
}

TEST(InterleaveSubstrateTest, FramesUseInstalledPoolAndReturnOnDestroy) {
  auto t = FreshTable();
  mem::ChunkPool pool;
  storage::SetThreadFramePool(&pool);
  {
    std::optional<uint64_t> val;
    PrefetchChain c = t->index().subtree(0).WarmDescent(1, &val);
    // The frame is alive and pool-backed (a WarmDescent frame is far
    // smaller than a 4 KiB pool block, so there is no heap fallback).
    EXPECT_EQ(pool.blocks_out(), 1);
    DriveToDone(c);
    EXPECT_EQ(pool.blocks_out(), 1);  // done, but frame not yet destroyed
  }
  EXPECT_EQ(pool.blocks_out(), 0);  // owner destruction returned the block
  storage::SetThreadFramePool(nullptr);
  EXPECT_EQ(storage::ThreadFramePool(), nullptr);

  // Frames created under one installation may be destroyed under another:
  // the origin tag in the frame header routes the free.
  storage::SetThreadFramePool(&pool);
  std::optional<uint64_t> val;
  auto c = std::make_unique<PrefetchChain>(
      t->index().subtree(0).WarmDescent(2, &val));
  storage::SetThreadFramePool(nullptr);
  EXPECT_EQ(pool.blocks_out(), 1);
  c.reset();
  EXPECT_EQ(pool.blocks_out(), 0);

  // With no pool installed, chains work off the heap.
  std::optional<uint64_t> heap_val;
  PrefetchChain h = t->index().subtree(0).WarmDescent(1, &heap_val);
  DriveToDone(h);
  EXPECT_TRUE(heap_val.has_value());
  EXPECT_EQ(pool.blocks_out(), 0);
}

// ---- property: ordering + exactly-once under churn, K ∈ {1,4,16} -----------

// Every submitted future completes exactly once; per key, the observed
// execution order is a strictly-increasing subsequence of submission
// order (per-partition same-key ordering, which Repartition's
// drain-then-move must preserve); the final row value is the last
// executed write; and the number of executed single-action transactions
// equals the number of OK completions (no execute-then-abort, no
// abort-then-execute). All of this while Repartition and KillIsland race
// the submitter.
TEST(InterleaveOrderingTest, SameKeyOrderExactlyOnceUnderChurn) {
  for (int depth : {1, 4, 16}) {
    SCOPED_TRACE("interleave_depth=" + std::to_string(depth));
    hw::Topology topo = hw::Topology::Cube(1, 2);  // 2 islands x 2 cores
    Database db({.topo = topo});
    db.AddTable(FreshTable());
    PartitionedExecutor::Options opt;
    opt.interleave_depth = depth;
    PartitionedExecutor exec(&db, topo, OneTableScheme({0, 1, 2, 3}), opt);

    // Per-key observed execution sequence, appended from worker threads.
    std::vector<std::vector<int64_t>> seen(kKeys);
    std::vector<std::unique_ptr<std::mutex>> seen_mu;
    for (uint64_t k = 0; k < kKeys; ++k)
      seen_mu.push_back(std::make_unique<std::mutex>());

    constexpr int kTxns = 3000;
    std::atomic<int> completions{0}, ok{0}, unavailable{0}, other{0};

    // Churn: two repartitions (shuffled placement + different
    // boundaries), then an island kill, racing the submission loop.
    std::thread churn([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      (void)exec.Repartition(OneTableScheme({3, 2, 1, 0}));
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      (void)exec.Repartition(OneTableScheme({1, 3, 0, 2}));
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      (void)exec.KillIsland(1);
    });

    std::deque<engine::TxnFuture> window;
    auto pump = [&](size_t limit) {
      while (window.size() > limit) {
        (void)window.front().Wait();
        window.pop_front();
      }
    };
    Rng rng(static_cast<uint64_t>(depth) * 7 + 1);
    for (int i = 0; i < kTxns; ++i) {
      // Hot 8-key set half the time: force same-key pileups inside one
      // interleaved batch.
      uint64_t k = (i % 2 == 0) ? rng.Uniform(8) : rng.Uniform(kKeys);
      int64_t seq = i;
      ActionGraph g(0);
      g.Add(0, k, [&, k, seq](Table* t, ActionCtx&) {
        {
          std::lock_guard<std::mutex> lk(*seen_mu[k]);
          seen[k].push_back(seq);
        }
        Tuple row;
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
      Tuple row;
      ASSERT_TRUE(db.table(0)->Read(k, &row).ok());
      int64_t want = seen[k].empty() ? kInitial : seen[k].back();
      EXPECT_EQ(row.GetInt(1), want) << "key " << k;
    }
    // Single-action graphs: executed <=> committed, exactly once.
    EXPECT_EQ(executed, ok.load());
  }
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
  for (int depth : {1, 4}) {
    SCOPED_TRACE("interleave_depth=" + std::to_string(depth));
    hw::Topology topo = hw::Topology::Cube(1, 2);  // 2 islands x 2 cores
    Database db({.topo = topo});
    db.AddTable(FreshTable(0));
    db.AddTable(FreshTable(1));
    auto both = [](const std::vector<int>& placement) {
      core::Scheme s = OneTableScheme(placement);
      s.tables.push_back(s.tables[0]);
      return s;
    };
    PartitionedExecutor::Options opt;
    opt.interleave_depth = depth;
    PartitionedExecutor exec(&db, topo, both({0, 1, 2, 3}), opt);

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

    std::deque<engine::TxnFuture> window;
    auto pump = [&](size_t limit) {
      while (window.size() > limit) {
        (void)window.front().Wait();
        window.pop_front();
      }
    };
    Rng rng(static_cast<uint64_t>(depth) * 13 + 5);
    for (int i = 0; i < kTxns; ++i) {
      uint64_t k = (i % 2 == 0) ? rng.Uniform(8) : rng.Uniform(kKeys);
      int64_t seq = i;
      auto record = [&, k, seq](int table, Table* t) {
        {
          std::lock_guard<std::mutex> lk(*seen_mu[k]);
          seen[table][k].push_back(seq);
        }
        Tuple row;
        ATRAPOS_RETURN_NOT_OK(t->Read(k, &row));
        row.SetInt(1, seq);
        return t->Update(k, row);
      };
      ActionGraph g(0);
      g.Add(0, k, [record](Table* t, ActionCtx&) { return record(0, t); });
      g.Rvp();
      g.Add(1, k, [record](Table* t, ActionCtx&) { return record(1, t); });
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
        Tuple row;
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
}

// ---- bugfix 1: zombie batches carry no phantom load ------------------------

// Kill the only island: every partition stays quarantined forever and
// all submissions abort kUnavailable. Those aborted actions must not be
// credited to executed_actions() and must not advance the partition
// monitors — the balancer would otherwise keep planning for load on a
// dead island.
TEST(InterleaveAccountingTest, ZombieActionsAreNotCreditedAsLoad) {
  for (int depth : {1, 4}) {
    SCOPED_TRACE("interleave_depth=" + std::to_string(depth));
    hw::Topology topo = hw::Topology::SingleSocket(kParts);
    Database db({.topo = topo});
    db.AddTable(FreshTable());
    PartitionedExecutor::Options opt;
    opt.interleave_depth = depth;
    PartitionedExecutor exec(&db, topo, OneTableScheme({0, 1, 2, 3}), opt);

    // Live traffic advances both executed_actions and monitor load.
    for (uint64_t k = 0; k < 8; ++k)
      ASSERT_TRUE(exec.SubmitAndWait(WriteVal(k, 7)).ok());
    EXPECT_EQ(exec.executed_actions(), 8u);
    // Harvest aggregates AND resets the per-partition monitors. Workers
    // record batch cost *after* completing the futures, so settle until
    // a harvest window reads zero — from then on any nonzero harvest is
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
      Tuple row;
      ASSERT_TRUE(db.table(0)->Read(k, &row).ok());
      EXPECT_EQ(row.GetInt(1), 7);
    }
  }
}

// ---- bugfix 2: kDrainBatchSize counts actions, not actions+markers --------

// Deterministically co-mingles commit markers with actions in one
// drained batch and pins the recorded size to the action count. Layout:
// worker 0's sampled drains are ticks 0, 8, 16, … (1-in-8, first always).
// Seven serial transactions consume ticks 0..6; a blocker action holds
// the worker inside batch 8 (tick 7) while 16 writes queue behind it;
// releasing the blocker publishes its commit marker into the same inbox
// (the worker appends to its own inbox mid-batch), so the next drain —
// tick 8, sampled — is exactly {16 actions + 1 marker}. The histogram
// max must be 16 (action basis); the pre-fix code recorded 17.
TEST(InterleaveAccountingTest, DrainBatchSizeExcludesCommitMarkers) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(FreshTable());
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
  blocker.Add(0, 0, [opened](Table* t, ActionCtx&) {
    opened.wait();
    Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(0, &row));
    row.SetInt(1, 1234);
    return t->Update(0, row);
  });
  auto bf = exec.Submit(std::move(blocker));
  ASSERT_TRUE(bf.ok());
  // Let worker 0 drain the blocker batch and park inside the body.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::vector<engine::TxnFuture> pending;
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

// ---- durability: interleaved execution == serial replay --------------------

// With group commit on and K=16, recovery from the log must reproduce
// the live table exactly: data records are attributed to the right
// transaction (WorkerLogObserver::set_txn is scoped to each body, never
// torn across interleaved warms) and every marker still follows its
// data records in shard order.
TEST(InterleaveDurabilityTest, RecoveryMatchesLiveStateAtDepth16) {
  hw::Topology topo = hw::Topology::SingleSocket(kParts);
  Database db({.topo = topo});
  db.AddTable(FreshTable());
  PartitionedExecutor::Options opt;
  opt.durability = DurabilityMode::kGroup;
  opt.log_flush_interval_us = 20;
  opt.interleave_depth = 16;
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, 1, 2, 3}), opt);

  std::deque<engine::TxnFuture> window;
  auto pump = [&](size_t limit) {
    while (window.size() > limit) {
      EXPECT_TRUE(window.front().Wait().ok());
      window.pop_front();
    }
  };
  Rng rng(97);
  for (int i = 0; i < 1500; ++i) {
    uint64_t k = rng.Uniform(kKeys);
    auto f = exec.Submit(WriteVal(k, 10000 + i));
    ASSERT_TRUE(f.ok());
    window.push_back(f.take());
    pump(64);
  }
  pump(0);
  exec.Drain();
  exec.log_manager()->FlushAll();
  auto cut = exec.log_manager()->SnapshotDurable();

  auto fresh = FreshTable();
  log::RecoveryReport report = log::Recover(cut, {fresh.get()});
  EXPECT_EQ(report.torn_cuts.size(), 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    Tuple live, rec;
    ASSERT_TRUE(db.table(0)->Read(k, &live).ok());
    ASSERT_TRUE(fresh->Read(k, &rec).ok());
    EXPECT_EQ(live.GetInt(1), rec.GetInt(1))
        << "key " << k << ": interleaved execution diverged from replay";
  }
  // Interleaving actually happened (suspensions were recorded).
  obs::StatsSnapshot snap = db.StatsSnapshot();
  EXPECT_GT(snap.counter(obs::CounterId::kInterleaveSuspensions), 0u);
  EXPECT_EQ(snap.gauge(obs::GaugeId::kInterleaveDepth), 16);
}

}  // namespace
}  // namespace atrapos
