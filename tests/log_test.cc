// Unit and integration tests of the island-partitioned durability
// subsystem (src/log/): the per-partition chunk pool, shard append /
// group-commit / waiter semantics, the LogManager commit protocol
// (epochs, tickets, watermark, generations), and the executor wiring
// (per-partition shards, async acks and the pooled submission path), the
// varint encoding's round trip, and the committer-led group-commit path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "fault/injector.h"
#include "log/log_manager.h"
#include "log/recovery.h"
#include "mem/chunk_pool.h"
#include "util/rng.h"
#include "workload/micro.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

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
  r.key = 12;
  shard->AppendOne(r, nullptr, nullptr);
  mgr.Stop();  // the final flush makes lsn 3 durable, then freezes
  r.key = 13;
  shard->AppendOne(r, nullptr, nullptr);  // lsn 4, never durable
  EXPECT_EQ(shard->durable_lsn(), 3u);
  EXPECT_EQ(shard->SnapshotDurable().records.size(), 3u);
}

// ---- varint encoding --------------------------------------------------------

struct ScopedInjector {
  explicit ScopedInjector(fault::Injector* inj) : prev(fault::Get()) {
    fault::Install(inj);
  }
  ~ScopedInjector() { fault::Install(prev); }
  fault::Injector* prev;
};

/// A value of a random bit width, so every varint length (1..10 bytes)
/// shows up.
uint64_t RandomWidth(Rng& rng) {
  uint64_t bits = rng.Uniform(65);
  if (bits == 0) return 0;
  uint64_t v = rng.Next();
  return bits == 64 ? v : v & ((uint64_t{1} << bits) - 1);
}

/// One random record with only the fields its type serializes set (the
/// rest stay 0, which is what the parse reports for them).
log::PendingRecord RandomRecord(Rng& rng, std::vector<uint8_t>* images) {
  static constexpr LogType kTypes[] = {LogType::kInsert, LogType::kUpdate,
                                       LogType::kDelete, LogType::kCommit,
                                       LogType::kAbort};
  log::PendingRecord r;
  r.type = kTypes[rng.Uniform(5)];
  r.txn = RandomWidth(rng);
  if (log::IsMarkerType(r.type)) {
    r.marker_expected = static_cast<uint16_t>(rng.Uniform(65536));
    r.epoch = RandomWidth(rng);
    return r;
  }
  r.table = static_cast<uint32_t>(rng.Uniform(65536));
  r.key = RandomWidth(rng);
  r.is_diff = r.type == LogType::kUpdate && rng.Chance(0.5);
  if (r.is_diff) r.diff_offset = static_cast<uint16_t>(rng.Uniform(65536));
  r.image_offset = static_cast<uint32_t>(images->size());
  r.image_size = r.type == LogType::kDelete
                     ? 0
                     : static_cast<uint32_t>(rng.Uniform(300));
  for (uint32_t i = 0; i < r.image_size; ++i)
    images->push_back(static_cast<uint8_t>(rng.Next()));
  return r;
}

void ExpectSameRecord(const log::PendingRecord& want,
                      const std::vector<uint8_t>& images,
                      const log::RecoveredRecord& got, Lsn lsn) {
  EXPECT_EQ(got.lsn, lsn);
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.txn, want.txn);
  EXPECT_EQ(got.table, want.table);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.epoch, want.epoch);
  EXPECT_EQ(got.marker_expected, want.marker_expected);
  EXPECT_EQ(got.is_diff, want.is_diff);
  EXPECT_EQ(got.diff_offset, want.diff_offset);
  std::vector<uint8_t> img(images.begin() + want.image_offset,
                           images.begin() + want.image_offset +
                               want.image_size);
  EXPECT_EQ(got.image, img);
}

// Property: any record, boundary values included, parses back exactly as
// it was staged.
TEST(LogEncodingTest, RandomRecordsRoundTripExactly) {
  log::LogManager mgr(ManualFlush());
  log::LogShard* shard = mgr.shard(mgr.AddShard(nullptr, nullptr));
  Rng rng(2024);
  std::vector<log::PendingRecord> all;
  std::vector<uint8_t> images;
  // Boundary records first: extreme varints, the widest table id, and a
  // zero-length diff.
  log::PendingRecord r;
  r.type = LogType::kCommit;
  r.txn = UINT64_MAX;
  r.epoch = UINT64_MAX;
  r.marker_expected = UINT16_MAX;
  all.push_back(r);
  r = log::PendingRecord();
  r.type = LogType::kUpdate;
  r.txn = UINT64_MAX;
  r.key = UINT64_MAX;
  r.table = 65535;
  r.is_diff = true;
  r.diff_offset = UINT16_MAX;
  r.image_offset = static_cast<uint32_t>(images.size());
  all.push_back(r);  // zero-length diff
  r = log::PendingRecord();
  r.type = LogType::kAbort;  // every field 0
  all.push_back(r);
  for (int i = 0; i < 2000; ++i) all.push_back(RandomRecord(rng, &images));
  // Appended in random batch sizes, like drained worker batches.
  for (size_t i = 0; i < all.size();) {
    size_t n = std::min<size_t>(1 + rng.Uniform(16), all.size() - i);
    shard->AppendBatch(all.data() + i, n, images.data(), nullptr);
    i += n;
  }
  mgr.FlushAll();
  log::ShardSnapshot snap = shard->SnapshotDurable();
  EXPECT_FALSE(snap.torn);
  ASSERT_EQ(snap.records.size(), all.size());
  for (size_t i = 0; i < all.size(); ++i)
    ExpectSameRecord(all[i], images, snap.records[i], i + 1);
}

// A record that exactly fills a chunk: the header of an update with
// the widest fields is 29 bytes (type byte, table 3, txn 10, key 10, diff
// offset 3, size 2), so 4067 payload bytes fill a 4096-byte chunk.
TEST(LogEncodingTest, ImageFillingAWholeChunkRoundTrips) {
  log::LogManager mgr(ManualFlush());
  log::LogShard* shard = mgr.shard(mgr.AddShard(nullptr, nullptr));
  const uint32_t kImage = static_cast<uint32_t>(mem::kPartitionChunkBytes) - 29;
  std::vector<uint8_t> images(kImage);
  for (uint32_t i = 0; i < kImage; ++i) images[i] = static_cast<uint8_t>(i);
  log::PendingRecord r;
  r.type = LogType::kUpdate;
  r.txn = UINT64_MAX;
  r.key = UINT64_MAX;
  r.table = 65535;
  r.is_diff = true;
  r.diff_offset = UINT16_MAX;
  r.image_size = kImage;
  std::vector<log::PendingRecord> recs = {r, r};  // two chunks, one each
  shard->AppendBatch(recs.data(), recs.size(), images.data(), nullptr);
  EXPECT_EQ(shard->bytes_logged(), 2 * mem::kPartitionChunkBytes);
  mgr.FlushAll();
  log::ShardSnapshot snap = shard->SnapshotDurable();
  ASSERT_EQ(snap.records.size(), 2u);
  for (size_t i = 0; i < 2; ++i)
    ExpectSameRecord(r, images, snap.records[i], i + 1);
}

// A torn tail that cuts a record inside its varint header still ends the
// parse there and is reported; every earlier record survives intact.
TEST(LogEncodingTest, TornTailInsideVarintHeaderEndsParse) {
  // Both records are all header or nearly so: the modeled cut at half
  // the record lands inside the txn varint.
  log::PendingRecord marker;
  marker.type = LogType::kCommit;
  marker.txn = UINT64_MAX;
  marker.epoch = UINT64_MAX;
  marker.marker_expected = 3;
  log::PendingRecord data;
  data.type = LogType::kInsert;
  data.table = 65535;
  data.txn = UINT64_MAX;
  data.key = UINT64_MAX;
  data.image_size = 2;
  std::vector<uint8_t> images = {0xAB, 0xCD};
  for (const log::PendingRecord& victim : {marker, data}) {
    fault::Injector inj(5);
    inj.Arm(fault::SiteId::kLogTornTail, {.trigger_at = 4});
    ScopedInjector scope(&inj);
    log::LogManager mgr(ManualFlush());
    log::LogShard* shard = mgr.shard(mgr.AddShard(nullptr, nullptr));
    std::vector<log::PendingRecord> recs;
    for (int i = 0; i < 6; ++i) {
      log::PendingRecord r = victim;
      r.txn = UINT64_MAX - static_cast<uint64_t>(i);
      recs.push_back(r);
    }
    shard->AppendBatch(recs.data(), recs.size(), images.data(), nullptr);
    mgr.FlushAll();
    ASSERT_EQ(inj.fires(fault::SiteId::kLogTornTail), 1u);
    log::ShardSnapshot snap = shard->SnapshotDurable();
    EXPECT_TRUE(snap.torn);
    EXPECT_EQ(snap.torn_lsn, 4u);
    ASSERT_EQ(snap.records.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
      ExpectSameRecord(recs[i], images, snap.records[i], i + 1);
    // The cut falls after the type byte and before the header ends.
    const uint64_t rec_bytes = shard->bytes_logged() / recs.size();
    EXPECT_GT(snap.torn_cut_byte, 3 * rec_bytes + 1);
    EXPECT_LT(snap.torn_cut_byte, 3 * rec_bytes + rec_bytes - images.size());
  }
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

PartitionedExecutor::Options GroupOpts() {
  PartitionedExecutor::Options o;
  o.durability = DurabilityMode::kGroup;
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
  // Every write transaction is durable the moment its future resolves:
  // the flush pass advances the epoch watermark before it acks.
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

// ---- Committer-led group commit ---------------------------------------------

/// Input 1: 200 sequential single-key group commits. Checked per commit,
/// so a tick-bound commit path fails within a tick or two instead of
/// after 200.
void SequentialCommitsOutpaceTheTick() {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(64, Bounds(64, 2)));
  PartitionedExecutor::Options o = GroupOpts();
  o.log_flush_interval_us = 1'000'000;
  PartitionedExecutor exec(&db, topo, OneTableScheme(64, 2), o);
  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, i % 64, 1)).ok());
    ASSERT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << "commit " << i;
  }
  // Each ack came after its commit was durable.
  EXPECT_EQ(exec.log_manager()->durable_epoch(), 200u);
}

/// Input 2: the batched shape of a closed-loop driver — TATP Mix waves of
/// 32 through SubmitBatch at depth 32 on 2000 subscribers. The floor is
/// 1000 transactions/s, checked after every wave against a budget of 1 ms
/// per transaction plus a 100 ms start-up grace, so a tick-bound commit
/// path (one wave acked per tick) fails on its first wave.
void TatpWavesOutpaceTheTick() {
  constexpr uint64_t kSubs = 2000;
  constexpr size_t kWave = 32;
  constexpr int kWaves = 64;
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  for (auto& t : workload::BuildTatpTables(kSubs, Bounds(kSubs, 2)))
    db.AddTable(std::move(t));
  PartitionedExecutor::Options o = GroupOpts();
  o.log_flush_interval_us = 1'000'000;
  PartitionedExecutor exec(&db, topo, workload::TatpScheme(kSubs, 2), o);
  workload::TatpActionGraphs graphs(kSubs);
  Rng rng(5);
  uint64_t done = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int w = 0; w < kWaves; ++w) {
    std::vector<ActionGraph> wave;
    for (size_t i = 0; i < kWave; ++i) wave.push_back(graphs.Mix(rng));
    auto fs = exec.SubmitBatch(wave);
    ASSERT_TRUE(fs.ok());
    for (auto& f : fs.value()) {
      const Status st = f.Wait();
      EXPECT_TRUE(workload::TatpActionGraphs::CountsAsSuccess(st))
          << st.ToString();
    }
    done += kWave;
    ASSERT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(100) +
                  std::chrono::milliseconds(done))
        << "wave " << w << ": below 1000 transactions/s";
  }
  EXPECT_GT(exec.log_manager()->durable_epoch(), 0u);
}

// Acks do not depend on the idle flusher: under a one-second tick, a
// commit path that waited for it would ack one commit (or one wave) per
// second. Both inputs run, so each reports its own verdict.
TEST(GroupCommitTest, AcksWithoutWaitingForTheIdleTick) {
  {
    SCOPED_TRACE("sequential single-key commits");
    SequentialCommitsOutpaceTheTick();
  }
  {
    SCOPED_TRACE("TATP Mix waves of 32");
    TatpWavesOutpaceTheTick();
  }
}

// Manual mode stays manual: no worker flushes, so group commits wait for
// the test's FlushAll.
TEST(GroupCommitTest, ManualModeAcksOnlyOnFlushAll) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(16, Bounds(16, 2)));
  PartitionedExecutor::Options o = GroupOpts();
  o.log_manual_flush = true;
  PartitionedExecutor exec(&db, topo, OneTableScheme(16, 2), o);
  std::vector<engine::TxnFuture> futures;
  for (uint64_t k = 0; k < 8; ++k) {
    auto f = exec.Submit(AddDelta(0, k, 1));
    ASSERT_TRUE(f.ok());
    futures.push_back(f.take());
  }
  log::LogManager* mgr = exec.log_manager();
  // Every marker appended (8 data records + 8 markers), none acked.
  for (int i = 0; i < 2000 && mgr->num_records() < 16; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(mgr->num_records(), 16u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (auto& f : futures) EXPECT_FALSE(f.Done());
  EXPECT_EQ(mgr->durable_epoch(), 0u);
  mgr->FlushAll();
  for (auto& f : futures) {
    EXPECT_TRUE(f.Done());
    EXPECT_TRUE(f.Wait().ok());
  }
  EXPECT_EQ(mgr->durable_epoch(), 8u);
}

/// Submits `per_thread` single- and two-partition writes from each of
/// `threads` submitters and checks every future settles exactly once.
void RunLeaderHandoffStress(PartitionedExecutor* exec, int threads,
                            int per_thread, uint64_t rows) {
  std::vector<std::atomic<int>> settled(
      static_cast<size_t>(threads * per_thread));
  std::vector<std::thread> submitters;
  for (int t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(t) + 1);
      std::vector<engine::TxnFuture> futures;
      for (int i = 0; i < per_thread; ++i) {
        uint64_t k = rng.Uniform(rows);
        ActionGraph g = AddDelta(0, k, 1);
        if (i % 3 == 0) {
          // A second partition: two markers per commit, one per shard.
          uint64_t k2 = (k + rows / 2) % rows;
          g.Add(0, k2, [k2](Table* tbl, ActionCtx&) {
            Tuple row;
            ATRAPOS_RETURN_NOT_OK(tbl->Read(k2, &row));
            row.SetInt(1, row.GetInt(1) + 1);
            return tbl->Update(k2, row);
          });
        }
        auto f = exec->Submit(std::move(g));
        ASSERT_TRUE(f.ok());
        const size_t slot = static_cast<size_t>(t * per_thread + i);
        f.value().OnComplete([&settled, slot](const Status& s) {
          EXPECT_TRUE(s.ok());
          settled[slot].fetch_add(1);
        });
        futures.push_back(f.take());
        // Bounded pipelining per submitter.
        if (futures.size() >= 16) {
          for (auto& fut : futures) EXPECT_TRUE(fut.Wait().ok());
          futures.clear();
        }
      }
      for (auto& fut : futures) EXPECT_TRUE(fut.Wait().ok());
    });
  }
  for (auto& t : submitters) t.join();
  exec->Drain();
  exec->log_manager()->FlushAll();
  for (size_t i = 0; i < settled.size(); ++i)
    ASSERT_EQ(settled[i].load(), 1) << "future " << i;
  EXPECT_EQ(exec->log_manager()->durable_epoch(),
            exec->log_manager()->last_epoch());
  EXPECT_EQ(exec->log_manager()->last_epoch(),
            static_cast<uint64_t>(threads * per_thread));
}

// Several submitters against two workers and the idle tick: leadership
// passes between both workers and the flusher, and no request is lost in
// a handoff.
TEST(GroupCommitTest, LeaderHandoffSettlesEveryFutureOnce) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(64, Bounds(64, 2)));
  PartitionedExecutor::Options o = GroupOpts();
  o.log_flush_interval_us = 20;
  PartitionedExecutor exec(&db, topo, OneTableScheme(64, 2), o);
  RunLeaderHandoffStress(&exec, 4, 300, 64);
}

// Short flushes without manual mode: committers and the idle tick keep
// re-flushing until every window completes.
TEST(GroupCommitTest, ShortFlushesConvergeWithoutManualMode) {
  fault::Injector inj(11);
  inj.Arm(fault::SiteId::kLogShortFlush, {.probability = 0.5});
  ScopedInjector scope(&inj);
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(64, Bounds(64, 2)));
  PartitionedExecutor::Options o = GroupOpts();
  o.log_flush_interval_us = 50;
  PartitionedExecutor exec(&db, topo, OneTableScheme(64, 2), o);
  RunLeaderHandoffStress(&exec, 2, 100, 64);
  EXPECT_GT(inj.fires(fault::SiteId::kLogShortFlush), 0u);
}

// ---- The idle flusher sleeps until a flush is owed ------------------------

// Committer-led group commit owes the idle flusher nothing: an idle
// executor — fresh, and again after a burst of commits — must not tick.
// With a 30 us tick, a flusher that still ticked unconditionally would
// record thousands of passes in 100 ms.
TEST(IdleFlusherTest, IdleGroupExecutorDoesNotTick) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(64, Bounds(64, 2)));
  PartitionedExecutor exec(&db, topo, OneTableScheme(64, 2), GroupOpts());
  auto flushes = [&] {
    return db.StatsSnapshot().counter(obs::CounterId::kLogFlushes);
  };
  const uint64_t fresh = flushes();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(flushes() - fresh, 2u) << "fresh executor";
  for (uint64_t k = 0; k < 32; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
  exec.Drain();
  const uint64_t after_burst = flushes();
  EXPECT_GE(after_burst, 1u);  // the committers led their flushes
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(flushes() - after_burst, 2u) << "after a burst of commits";
  EXPECT_EQ(exec.log_manager()->durable_epoch(), 32u);
}

// Async commits are acked on append and never request a flush; their
// markers are owed to the idle flusher, which makes them durable on its
// own.
TEST(IdleFlusherTest, AsyncMarkerBecomesDurableWithoutARequest) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  db.AddTable(MicroTable(32, Bounds(32, 2)));
  PartitionedExecutor::Options o;
  o.durability = DurabilityMode::kAsync;
  o.log_flush_interval_us = 30;
  PartitionedExecutor exec(&db, topo, OneTableScheme(32, 2), o);
  log::LogManager* mgr = exec.log_manager();
  for (uint64_t round = 1; round <= 3; ++round) {
    // Idle in between, so each round's marker wakes a sleeping flusher.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, round, 1)).ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (mgr->durable_epoch() < round &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    EXPECT_EQ(mgr->durable_epoch(), round);
  }
}

// The manager-level contract: an append-acked ticket notes the flush owed.
TEST(IdleFlusherTest, AppendAckedTicketIsFlushedByTheIdleFlusher) {
  log::LogManager::Options o;
  o.flush_interval_us = 30;
  log::LogManager mgr(o);
  log::LogShard* shard = mgr.shard(mgr.AddShard(nullptr, nullptr));
  log::CommitTicket* t = mgr.BeginCommit(1, nullptr, /*fire_on_append=*/true);
  log::PendingRecord r;
  r.txn = 1;
  r.type = LogType::kCommit;
  r.epoch = t->epoch;
  r.marker_expected = 1;
  r.ticket = t;
  std::vector<log::CommitTicket*> fired;
  Lsn lsn = shard->AppendOne(r, nullptr, &fired);
  ASSERT_EQ(fired.size(), 1u);
  mgr.OnMarkersAppended(fired);
  // Nothing else flushes: only the idle flusher can make lsn durable.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((mgr.durable_point().shard_lsns[0] < lsn ||
          mgr.durable_epoch() < 1) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  EXPECT_EQ(mgr.durable_point().shard_lsns[0], lsn);
  EXPECT_EQ(mgr.durable_epoch(), 1u);
}

}  // namespace
}  // namespace atrapos
