// Unit and integration tests of the island-partitioned durability
// subsystem (src/log/): the per-partition chunk pool, shard append /
// group-commit / waiter semantics, the LogManager commit protocol
// (epochs, tickets, watermark, generations), and the executor wiring
// (per-partition shards, async acks, the centralized 1-shard
// configuration, and the pooled submission path).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/log_manager.h"
#include "log/recovery.h"
#include "mem/chunk_pool.h"
#include "workload/micro.h"

namespace atrapos {
namespace {

using engine::ActionCtx;
using engine::ActionGraph;
using engine::Database;
using engine::DurabilityMode;
using engine::PartitionedExecutor;
using storage::Table;
using storage::Tuple;
using log::LogType;
using log::Lsn;

// ---- ChunkPool --------------------------------------------------------------

TEST(ChunkPoolTest, SteadyStateAllocatesNoSlabs) {
  mem::ChunkPool pool(256, nullptr, 8);
  // Warm up: force every block of the first slab out at once.
  std::vector<void*> out;
  for (int i = 0; i < 8; ++i) out.push_back(pool.Get());
  for (void* p : out) pool.Put(p);
  uint64_t warm = pool.slab_allocs();
  EXPECT_GE(warm, 1u);
  // Steady state: the same working set recycles forever.
  for (int round = 0; round < 1000; ++round) {
    out.clear();
    for (int i = 0; i < 8; ++i) out.push_back(pool.Get());
    for (void* p : out) pool.Put(p);
  }
  EXPECT_EQ(pool.slab_allocs(), warm);
  EXPECT_EQ(pool.blocks_out(), 0);
}

TEST(ChunkPoolTest, BlocksAreDistinctAndWritable) {
  mem::ChunkPool pool(64, nullptr, 4);
  void* a = pool.Get();
  void* b = pool.Get();
  EXPECT_NE(a, b);
  std::memset(a, 0xAA, 64);
  std::memset(b, 0xBB, 64);
  EXPECT_EQ(static_cast<uint8_t*>(a)[63], 0xAA);
  EXPECT_EQ(static_cast<uint8_t*>(b)[0], 0xBB);
  pool.Put(a);
  pool.Put(b);
}

TEST(ChunkPoolTest, ConcurrentGetPutKeepsEveryBlockExactlyOnce) {
  mem::ChunkPool pool(64, nullptr, 16);
  constexpr int kThreads = 4, kRounds = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < kRounds; ++i) {
        void* a = pool.Get();
        void* b = pool.Get();
        // Writing the payload catches double-handouts under TSAN.
        std::memset(a, 1, 64);
        std::memset(b, 2, 64);
        pool.Put(a);
        pool.Put(b);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pool.blocks_out(), 0);
}

TEST(ChunkPoolTest, OverflowPastSlabTableDegradesToDirectAllocation) {
  // One block per slab: the 1024-slab table fills after 1024 live blocks;
  // further Gets must keep working (unbounded consumers like a
  // long-running log shard), served outside the freelist.
  mem::ChunkPool pool(64, nullptr, 1);
  std::vector<void*> out;
  for (int i = 0; i < 1200; ++i) {
    out.push_back(pool.Get());
    std::memset(out.back(), 0x5A, 64);
  }
  EXPECT_GT(pool.overflow_allocs(), 0u);
  EXPECT_EQ(pool.blocks_out(), 1200);
  for (void* p : out) pool.Put(p);
  EXPECT_EQ(pool.blocks_out(), 0);
}

// ---- LogShard ---------------------------------------------------------------

log::LogManager::Options ManualFlush() {
  log::LogManager::Options o;
  o.start_flusher = false;
  return o;
}

TEST(LogShardTest, BatchAppendAssignsDenseLsnsAndOneReservation) {
  log::LogManager mgr(ManualFlush());
  log::LogShard* shard = mgr.shard(mgr.AddShard(nullptr, nullptr));
  std::vector<log::PendingRecord> recs(3);
  std::vector<uint8_t> images = {1, 2, 3, 4};
  for (int i = 0; i < 3; ++i) {
    recs[static_cast<size_t>(i)].txn = 7;
    recs[static_cast<size_t>(i)].type = LogType::kUpdate;
    recs[static_cast<size_t>(i)].key = static_cast<uint64_t>(i);
    recs[static_cast<size_t>(i)].image_offset = static_cast<uint32_t>(i);
    recs[static_cast<size_t>(i)].image_size = 1;
  }
  Lsn first = shard->AppendBatch(recs.data(), recs.size(), images.data(),
                                 nullptr);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(shard->tail_lsn(), 3u);
  EXPECT_EQ(shard->num_records(), 3u);
  EXPECT_EQ(shard->durable_lsn(), 0u);  // not flushed yet
}

TEST(LogShardTest, SnapshotCutsAtDurableLsn) {
  log::LogManager mgr(ManualFlush());
  log::LogShard* shard = mgr.shard(mgr.AddShard(nullptr, nullptr));
  log::PendingRecord r;
  r.txn = 1;
  r.type = LogType::kUpdate;
  r.key = 10;
  shard->AppendOne(r, nullptr, nullptr);
  mgr.FlushAll();  // durable = 1
  r.key = 11;
  shard->AppendOne(r, nullptr, nullptr);  // appended, NOT durable
  log::ShardSnapshot snap = shard->SnapshotDurable();
  ASSERT_EQ(snap.records.size(), 1u);  // the crash cut loses the tail
  EXPECT_EQ(snap.records[0].key, 10u);
  mgr.FlushAll();
  EXPECT_EQ(shard->SnapshotDurable().records.size(), 2u);
}

TEST(LogShardTest, WaitDurableAfterStopReturnsImmediately) {
  log::LogManager mgr(ManualFlush());
  log::LogShard* shard = mgr.shard(mgr.AddShard(nullptr, nullptr));
  log::PendingRecord r;
  r.txn = 1;
  r.type = LogType::kBegin;
  shard->AppendOne(r, nullptr, nullptr);
  mgr.Stop();  // final flush freezes durable at 1
  shard->AppendOne(r, nullptr, nullptr);  // lsn 2, never durable
  EXPECT_EQ(shard->WaitDurable(2), 1u);   // returns, does not hang
}

// ---- LogManager: tickets, watermark, generations ---------------------------

class RecordingSink : public log::LogManager::CommitSink {
 public:
  void OnCommitAcked(uint64_t epoch, void* cookie) override {
    acked.emplace_back(epoch, cookie);
  }
  std::vector<std::pair<uint64_t, void*>> acked;
};

TEST(LogManagerTest, TicketFiresWhenEveryShardMarkerIsDurable) {
  log::LogManager mgr(ManualFlush());
  RecordingSink sink;
  mgr.SetCommitSink(&sink);
  log::LogShard* s0 = mgr.shard(mgr.AddShard(nullptr, nullptr));
  log::LogShard* s1 = mgr.shard(mgr.AddShard(nullptr, nullptr));
  int cookie = 42;
  log::CommitTicket* t = mgr.BeginCommit(2, &cookie, /*fire_on_append=*/false);
  uint64_t epoch = t->epoch;  // FlushAll frees the ticket once settled
  log::PendingRecord m;
  m.txn = 9;
  m.type = LogType::kCommit;
  m.epoch = epoch;
  m.marker_expected = 2;
  m.ticket = t;
  s0->AppendOne(m, nullptr, nullptr);
  mgr.FlushAll();
  EXPECT_TRUE(sink.acked.empty());  // one marker still missing
  EXPECT_EQ(mgr.durable_epoch(), 0u);
  s1->AppendOne(m, nullptr, nullptr);
  mgr.FlushAll();
  ASSERT_EQ(sink.acked.size(), 1u);
  EXPECT_EQ(sink.acked[0].second, &cookie);
  EXPECT_EQ(mgr.durable_epoch(), epoch);  // watermark advanced
}

TEST(LogManagerTest, EpochWatermarkWaitsForGaps) {
  log::LogManager mgr(ManualFlush());
  log::LogShard* s = mgr.shard(mgr.AddShard(nullptr, nullptr));
  log::CommitTicket* t1 = mgr.BeginCommit(1, nullptr, false);  // epoch 1
  log::CommitTicket* t2 = mgr.BeginCommit(1, nullptr, false);  // epoch 2
  uint64_t e1 = t1->epoch, e2 = t2->epoch;
  log::PendingRecord m;
  m.type = LogType::kCommit;
  m.marker_expected = 1;
  // Epoch 2's marker lands (and flushes) first: the watermark must hold
  // at 0 until epoch 1 is durable too.
  m.txn = 2;
  m.epoch = e2;
  m.ticket = t2;
  s->AppendOne(m, nullptr, nullptr);
  mgr.FlushAll();
  EXPECT_EQ(mgr.durable_epoch(), 0u);
  m.txn = 1;
  m.epoch = e1;
  m.ticket = t1;
  s->AppendOne(m, nullptr, nullptr);
  mgr.FlushAll();
  EXPECT_EQ(mgr.durable_epoch(), 2u);
}

TEST(LogManagerTest, AppendFiredTicketAcksBeforeFlush) {
  log::LogManager mgr(ManualFlush());
  RecordingSink sink;
  mgr.SetCommitSink(&sink);
  log::LogShard* s = mgr.shard(mgr.AddShard(nullptr, nullptr));
  log::CommitTicket* t = mgr.BeginCommit(1, &sink, /*fire_on_append=*/true);
  log::PendingRecord m;
  m.txn = 5;
  m.type = LogType::kCommit;
  m.epoch = t->epoch;
  m.marker_expected = 1;
  m.ticket = t;
  std::vector<log::CommitTicket*> fired;
  s->AppendOne(m, nullptr, &fired);
  ASSERT_EQ(fired.size(), 1u);
  mgr.OnMarkersAppended(fired);
  ASSERT_EQ(sink.acked.size(), 1u);  // acked while nothing is durable yet
  EXPECT_EQ(mgr.durable_epoch(), 0u);
  mgr.FlushAll();  // settles (and frees) the ticket, advances the mark
  EXPECT_EQ(mgr.durable_epoch(), 1u);
  EXPECT_EQ(sink.acked.size(), 1u);  // exactly one ack
}

TEST(LogManagerTest, BeginGenerationSealsActiveShards) {
  log::LogManager mgr(ManualFlush());
  int id0 = mgr.AddShard(nullptr, nullptr);
  log::PendingRecord r;
  r.txn = 1;
  r.type = LogType::kUpdate;
  mgr.shard(id0)->AppendOne(r, nullptr, nullptr);
  mgr.BeginGeneration();
  EXPECT_TRUE(mgr.shard(id0)->sealed());
  // Sealing is the final flush: the old generation is fully durable.
  EXPECT_EQ(mgr.shard(id0)->durable_lsn(), 1u);
  int id1 = mgr.AddShard(nullptr, nullptr);
  EXPECT_EQ(mgr.shard(id1)->generation(), 1);
  EXPECT_EQ(mgr.num_active_shards(), 1u);
  EXPECT_EQ(mgr.num_shards(), 2u);
}

// ---- Pooled inbox (mpsc_queue + ChunkPool) ---------------------------------

TEST(PooledInboxTest, PublishDrainAllocatesNothingSteadyState) {
  struct Item {
    int v;
  };
  mem::ChunkPool pool(mem::kPartitionChunkBytes, nullptr, 8);
  engine::MpscChunkQueue<Item> q;
  q.SetPool(&pool);
  for (int round = 0; round < 500; ++round) {
    auto* c = q.AllocChunk();
    for (int i = 0; i < 16; ++i) c->Append({i});
    q.Push(c);
    auto* chain = q.PopAll();
    while (chain != nullptr) {
      auto* cur = chain;
      chain = chain->next;
      q.ReleaseChunk(cur);
    }
  }
  EXPECT_EQ(pool.slab_allocs(), 1u);
  EXPECT_EQ(pool.blocks_out(), 0);
}

// ---- Executor wiring --------------------------------------------------------

std::vector<uint64_t> Bounds(uint64_t rows, int partitions) {
  std::vector<uint64_t> b;
  for (int p = 0; p < partitions; ++p)
    b.push_back(rows * static_cast<uint64_t>(p) /
                static_cast<uint64_t>(partitions));
  return b;
}

std::unique_ptr<Table> MicroTable(uint64_t rows,
                                  std::vector<uint64_t> bounds = {0}) {
  auto t = std::make_unique<Table>(0, "T", workload::MicroTableSchema(),
                                   bounds);
  for (uint64_t k = 0; k < rows; ++k) {
    Tuple row(&t->schema());
    row.SetInt(0, static_cast<int64_t>(k));
    row.SetInt(1, 100);
    (void)t->Insert(k, row);
  }
  return t;
}

core::Scheme OneTableScheme(uint64_t rows, int partitions) {
  core::Scheme scheme;
  core::TableScheme ts;
  for (int p = 0; p < partitions; ++p) {
    ts.boundaries.push_back(rows * static_cast<uint64_t>(p) /
                            static_cast<uint64_t>(partitions));
    ts.placement.push_back(p);
  }
  scheme.tables.push_back(ts);
  return scheme;
}

ActionGraph AddDelta(int table, uint64_t key, int64_t delta) {
  ActionGraph g(0);
  g.Add(table, key, [key, delta](Table* t, ActionCtx&) {
    Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(key, &row));
    row.SetInt(1, row.GetInt(1) + delta);
    return t->Update(key, row);
  });
  return g;
}

ActionGraph ReadKey(int table, uint64_t key) {
  ActionGraph g(0);
  g.Add(table, key, [key](Table* t, ActionCtx&) {
    Tuple row;
    return t->Read(key, &row);
  });
  return g;
}

/// The centralized sync-commit path wakes the committer on the flush cv a
/// hair before the flusher settles the ticket; spin until the watermark
/// catches up instead of racing it.
void WaitForDurableEpoch(log::LogManager* mgr, uint64_t epoch) {
  for (int i = 0; i < 2000 && mgr->durable_epoch() < epoch; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

PartitionedExecutor::Options GroupOpts(int shards = 0) {
  PartitionedExecutor::Options o;
  o.durability = DurabilityMode::kGroup;
  o.log_shards = shards;
  o.log_flush_interval_us = 30;
  return o;
}

TEST(ExecutorDurabilityTest, GroupCommitWaitsForDurableMarkers) {
  hw::Topology topo = hw::Topology::SingleSocket(4);
  Database db({.topo = topo});
  db.AddTable(MicroTable(64));
  PartitionedExecutor exec(&db, topo, OneTableScheme(64, 4), GroupOpts());
  log::LogManager* mgr = exec.log_manager();
  ASSERT_NE(mgr, nullptr);
  EXPECT_EQ(mgr->num_active_shards(), 4u);  // one shard per partition
  for (uint64_t k = 0; k < 64; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
  // Every write transaction is durable the moment its future resolves.
  WaitForDurableEpoch(mgr, 64);
  EXPECT_EQ(mgr->durable_epoch(), 64u);
  log::DurablePoint p = mgr->durable_point();
  uint64_t records = 0;
  for (Lsn l : p.shard_lsns) records += l;
  // 64 data records + 64 commit markers, all durable.
  EXPECT_EQ(records, 128u);
}

TEST(ExecutorDurabilityTest, ReadOnlyTransactionsForceNothing) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(16));
  PartitionedExecutor exec(&db, topo, OneTableScheme(16, 2), GroupOpts());
  for (uint64_t k = 0; k < 16; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(ReadKey(0, k)).ok());
  EXPECT_EQ(exec.log_manager()->num_records(), 0u);
  EXPECT_EQ(exec.log_manager()->durable_epoch(), 0u);
}

TEST(ExecutorDurabilityTest, CentralizedConfigUsesOneShard) {
  hw::Topology topo = hw::Topology::SingleSocket(4);
  Database db({.topo = topo});
  db.AddTable(MicroTable(64));
  PartitionedExecutor exec(&db, topo, OneTableScheme(64, 4), GroupOpts(1));
  for (uint64_t k = 0; k < 64; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
  log::LogManager* mgr = exec.log_manager();
  EXPECT_EQ(mgr->num_active_shards(), 1u);
  EXPECT_EQ(mgr->num_records(), 128u);  // everything funnels into shard 0
  WaitForDurableEpoch(mgr, 64);
  EXPECT_EQ(mgr->durable_epoch(), 64u);
}

TEST(ExecutorDurabilityTest, AsyncModeAcksBeforeDurable) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(32));
  PartitionedExecutor::Options o;
  o.durability = DurabilityMode::kAsync;
  // No flusher at all: acks must not depend on one in async mode.
  o.log_manual_flush = true;
  PartitionedExecutor exec(&db, topo, OneTableScheme(32, 2), o);
  for (uint64_t k = 0; k < 32; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
  // All 32 commits acked while nothing is durable (the async contract:
  // the ack means "appended", durability lags the flush window).
  EXPECT_EQ(exec.log_manager()->num_records(), 64u);
  EXPECT_EQ(exec.log_manager()->durable_epoch(), 0u);
  exec.log_manager()->FlushAll();
  EXPECT_EQ(exec.log_manager()->durable_epoch(), 32u);
}

TEST(ExecutorDurabilityTest, AbortedTransactionsAreNotCommitted) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(16));
  PartitionedExecutor exec(&db, topo, OneTableScheme(16, 2), GroupOpts());
  // Write in stage 0, then fail at stage 1: the write is logged but the
  // abort decision must keep the transaction out of the committed set.
  ActionGraph g(0);
  g.Add(0, 3, [](Table* t, ActionCtx&) {
    Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(3, &row));
    row.SetInt(1, 1);
    return t->Update(3, row);
  });
  g.Rvp();
  g.Add(0, 12, [](Table*, ActionCtx&) {
    return Status::NotFound("forced failure");
  });
  EXPECT_FALSE(exec.SubmitAndWait(std::move(g)).ok());
  exec.Drain();
  exec.log_manager()->FlushAll();
  auto snaps = exec.log_manager()->SnapshotDurable();
  auto fresh = MicroTable(16);
  log::RecoveryReport rep =
      log::Recover(snaps, {fresh.get()});
  EXPECT_EQ(rep.applied.size(), 0u);
  EXPECT_EQ(rep.txns_aborted, 1u);
  Tuple row;
  ASSERT_TRUE(fresh->Read(3, &row).ok());
  EXPECT_EQ(row.GetInt(1), 100);  // the aborted write was not replayed
}

TEST(ExecutorDurabilityTest, RepartitionSealsGenerationAndKeepsLogging) {
  hw::Topology topo = hw::Topology::SingleSocket(4);
  Database db({.topo = topo});
  db.AddTable(MicroTable(64, Bounds(64, 4)));
  PartitionedExecutor exec(&db, topo, OneTableScheme(64, 4), GroupOpts());
  for (uint64_t k = 0; k < 32; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
  ASSERT_TRUE(exec.Repartition(OneTableScheme(64, 2)).ok());
  for (uint64_t k = 32; k < 64; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
  log::LogManager* mgr = exec.log_manager();
  EXPECT_EQ(mgr->generation(), 1);
  EXPECT_EQ(mgr->num_active_shards(), 2u);
  EXPECT_EQ(mgr->num_shards(), 6u);  // 4 sealed + 2 active
  exec.Drain();
  mgr->FlushAll();
  // Replay across both generations rebuilds the full state.
  auto fresh = MicroTable(64);
  log::RecoveryReport rep = log::Recover(mgr->SnapshotDurable(),
                                         {fresh.get()});
  EXPECT_EQ(rep.applied.size(), 64u);
  for (uint64_t k = 0; k < 64; ++k) {
    Tuple row;
    ASSERT_TRUE(fresh->Read(k, &row).ok());
    EXPECT_EQ(row.GetInt(1), 101) << "key " << k;
  }
}

}  // namespace
}  // namespace atrapos
