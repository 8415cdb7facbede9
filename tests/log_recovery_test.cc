// Crash-consistency property tests of log::Recover (ISSUE 4 acceptance):
// any prefix-by-epoch replay of the shard logs yields a state equal to a
// serial application of exactly the transactions the recovery report
// says it applied — no torn transactions across shards.
//
// The workload is cross-partition transfers (key a loses 1, key b gains
// 1, different partitions): torn replay breaks the total-sum invariant,
// and a dependency-closure violation (an excluded transaction's effect
// smuggled in through a survivor's after-image) breaks the per-key
// equality against the serial application of the reported set. Snapshots
// are taken mid-run — each is a genuine crash cut, with in-flight
// transactions and commit markers torn across shards.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <map>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/recovery.h"
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

constexpr uint64_t kKeys = 64;
constexpr int kPartitions = 4;
constexpr int64_t kInitial = 1000;

std::vector<uint64_t> Bounds(uint64_t rows, int partitions) {
  std::vector<uint64_t> b;
  for (int p = 0; p < partitions; ++p)
    b.push_back(rows * static_cast<uint64_t>(p) /
                static_cast<uint64_t>(partitions));
  return b;
}

std::unique_ptr<Table> FreshTable() {
  auto t = std::make_unique<Table>(0, "T", workload::MicroTableSchema(),
                                   Bounds(kKeys, kPartitions));
  for (uint64_t k = 0; k < kKeys; ++k) {
    Tuple row(&t->schema());
    row.SetInt(0, static_cast<int64_t>(k));
    row.SetInt(1, kInitial);
    (void)t->Insert(k, row);
  }
  return t;
}

core::Scheme OneTableScheme() {
  core::Scheme scheme;
  core::TableScheme ts;
  ts.boundaries = Bounds(kKeys, kPartitions);
  for (int p = 0; p < kPartitions; ++p) ts.placement.push_back(p);
  scheme.tables.push_back(ts);
  return scheme;
}

/// Moves 1 from `a` to `b` — two RMW actions on different partitions,
/// joined at the final RVP.
ActionGraph Transfer(uint64_t a, uint64_t b) {
  ActionGraph g(0);
  auto rmw = [](uint64_t key, int64_t delta) {
    return [key, delta](Table* t, ActionCtx&) {
      Tuple row;
      ATRAPOS_RETURN_NOT_OK(t->Read(key, &row));
      row.SetInt(1, row.GetInt(1) + delta);
      return t->Update(key, row);
    };
  };
  g.Add(0, a, rmw(a, -1));
  g.Add(0, b, rmw(b, +1));
  return g;
}

struct TransferLog {
  std::vector<std::pair<uint64_t, uint64_t>> by_txn;  // [txn_id - 1]
};

/// Checks one recovered state: total sum preserved (no torn transfers)
/// and per-key equality with the serial application of exactly the
/// transactions the report applied.
void CheckRecoveredState(const Table& recovered,
                         const log::RecoveryReport& report,
                         const TransferLog& transfers) {
  std::vector<int64_t> expect(kKeys, kInitial);
  for (const auto& [txn, epoch] : report.applied) {
    (void)epoch;
    ASSERT_GE(txn, 1u);
    ASSERT_LE(txn, transfers.by_txn.size());
    const auto& [a, b] = transfers.by_txn[txn - 1];
    expect[a] -= 1;
    expect[b] += 1;
  }
  int64_t sum = 0;
  for (uint64_t k = 0; k < kKeys; ++k) {
    Tuple row;
    ASSERT_TRUE(recovered.Read(k, &row).ok());
    sum += row.GetInt(1);
    EXPECT_EQ(row.GetInt(1), expect[k])
        << "key " << k << " diverges from the serial application of the "
        << report.applied.size() << " transactions the report applied";
  }
  EXPECT_EQ(sum, static_cast<int64_t>(kKeys) * kInitial)
      << "a torn transfer leaked through recovery";
}

TEST(LogRecoveryPropertyTest, MidRunCrashCutsReplayToSerialPrefixes) {
  hw::Topology topo = hw::Topology::SingleSocket(kPartitions);
  Database db({.topo = topo});
  db.AddTable(FreshTable());
  PartitionedExecutor::Options opt;
  opt.durability = DurabilityMode::kGroup;
  opt.log_flush_interval_us = 20;  // frequent, small commit windows
  PartitionedExecutor exec(&db, topo, OneTableScheme(), opt);

  constexpr int kTxns = 3000;
  TransferLog transfers;
  Rng rng(7);
  for (int i = 0; i < kTxns; ++i) {
    uint64_t a = rng.Uniform(kKeys);
    uint64_t b = rng.Uniform(kKeys);
    if (a / (kKeys / kPartitions) == b / (kKeys / kPartitions))
      b = (b + kKeys / kPartitions) % kKeys;  // force cross-partition
    transfers.by_txn.emplace_back(a, b);
  }

  // Single submitter => executor txn ids are 1..kTxns in order.
  std::atomic<bool> done{false};
  std::thread client([&] {
    std::deque<engine::TxnFuture> window;
    for (int i = 0; i < kTxns; ++i) {
      auto [a, b] = transfers.by_txn[static_cast<size_t>(i)];
      auto f = exec.Submit(Transfer(a, b));
      ASSERT_TRUE(f.ok());
      window.push_back(f.take());
      while (window.size() >= 16) {
        ASSERT_TRUE(window.front().Wait().ok());
        window.pop_front();
      }
    }
    while (!window.empty()) {
      ASSERT_TRUE(window.front().Wait().ok());
      window.pop_front();
    }
    done.store(true);
  });

  // Crash cuts while the run is hot: each snapshot sees whatever each
  // shard had flushed at that instant, markers torn across shards and
  // all.
  std::vector<std::vector<log::ShardSnapshot>> cuts;
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cuts.push_back(exec.log_manager()->SnapshotDurable());
  }
  client.join();
  exec.Drain();
  exec.log_manager()->FlushAll();
  cuts.push_back(exec.log_manager()->SnapshotDurable());  // complete log

  ASSERT_GE(cuts.size(), 2u);
  uint64_t mid_run_applied = 0;
  for (const auto& cut : cuts) {
    auto fresh = FreshTable();
    log::RecoveryReport report = log::Recover(cut, {fresh.get()});
    EXPECT_EQ(report.records_without_image, 0u);
    CheckRecoveredState(*fresh, report, transfers);
    mid_run_applied += report.applied.size();
  }
  EXPECT_GT(mid_run_applied, 0u) << "no cut recovered any transaction";

  // The complete log replays every transaction and matches the live table.
  {
    auto fresh = FreshTable();
    log::RecoveryReport report = log::Recover(cuts.back(), {fresh.get()});
    EXPECT_EQ(report.applied.size(), static_cast<size_t>(kTxns));
    EXPECT_EQ(report.txns_undecided, 0u);
    EXPECT_EQ(report.txns_poisoned, 0u);
    for (uint64_t k = 0; k < kKeys; ++k) {
      Tuple live, rec;
      ASSERT_TRUE(db.table(0)->Read(k, &live).ok());
      ASSERT_TRUE(fresh->Read(k, &rec).ok());
      EXPECT_EQ(live.GetInt(1), rec.GetInt(1)) << "key " << k;
    }
  }
}

TEST(LogRecoveryPropertyTest, PrefixByEpochReplaysAreSerialPrefixes) {
  hw::Topology topo = hw::Topology::SingleSocket(kPartitions);
  Database db({.topo = topo});
  db.AddTable(FreshTable());
  PartitionedExecutor::Options opt;
  opt.durability = DurabilityMode::kGroup;
  opt.log_flush_interval_us = 20;
  PartitionedExecutor exec(&db, topo, OneTableScheme(), opt);

  constexpr int kTxns = 500;
  TransferLog transfers;
  Rng rng(11);
  for (int i = 0; i < kTxns; ++i) {
    uint64_t a = rng.Uniform(kKeys);
    uint64_t b = (a + kKeys / kPartitions) % kKeys;
    transfers.by_txn.emplace_back(a, b);
    ASSERT_TRUE(exec.SubmitAndWait(Transfer(a, b)).ok());
  }
  exec.Drain();
  exec.log_manager()->FlushAll();
  auto cut = exec.log_manager()->SnapshotDurable();

  // Truncating by epoch must still yield dependency-closed serial
  // prefixes (epoch-excluded transactions poison their successors).
  for (uint64_t max_epoch : {uint64_t{0}, uint64_t{1}, uint64_t{kTxns / 3},
                             uint64_t{kTxns / 2}, uint64_t{kTxns}}) {
    auto fresh = FreshTable();
    log::RecoveryOptions ropt;
    ropt.max_epoch = max_epoch;
    log::RecoveryReport report = log::Recover(cut, {fresh.get()}, ropt);
    for (const auto& [txn, epoch] : report.applied) {
      (void)txn;
      EXPECT_LE(epoch, max_epoch);
    }
    CheckRecoveredState(*fresh, report, transfers);
  }
}

/// What the retired fixed-header after-image encoding (v1) would have
/// spent on `cut`: a 48-byte header per record, plus the full row for
/// every insert and update (it never staged diffs). The oracle for the
/// log-bytes property below.
uint64_t AfterImageBytes(const std::vector<log::ShardSnapshot>& cut,
                         uint32_t row_bytes) {
  constexpr uint64_t kHeaderBytes = 48;
  uint64_t bytes = 0;
  for (const log::ShardSnapshot& shard : cut) {
    for (const log::RecoveredRecord& r : shard.records) {
      bytes += kHeaderBytes;
      if (r.type == log::LogType::kInsert || r.type == log::LogType::kUpdate)
        bytes += row_bytes;
    }
  }
  return bytes;
}

// Updates are diff-encoded: the records that reach recovery carry
// (key, changed-range) payloads, and replay patches the bytes in place.
// The crash cuts above already run on this encoding; this test pins it
// explicitly and checks that it logs at most half the bytes a full
// after-image encoding would have for the same records.
TEST(LogRecoveryPropertyTest, DiffEncodingRecoversAndHalvesAfterImageBytes) {
  hw::Topology topo = hw::Topology::SingleSocket(kPartitions);
  Database db({.topo = topo});
  db.AddTable(FreshTable());
  PartitionedExecutor::Options opt;
  opt.durability = DurabilityMode::kGroup;
  opt.log_flush_interval_us = 20;
  PartitionedExecutor exec(&db, topo, OneTableScheme(), opt);

  constexpr int kTxns = 400;
  TransferLog transfers;
  Rng rng(3);
  for (int i = 0; i < kTxns; ++i) {
    uint64_t a = rng.Uniform(kKeys);
    uint64_t b = (a + kKeys / kPartitions) % kKeys;
    transfers.by_txn.emplace_back(a, b);
    ASSERT_TRUE(exec.SubmitAndWait(Transfer(a, b)).ok());
  }
  exec.Drain();
  exec.log_manager()->FlushAll();
  auto cut = exec.log_manager()->SnapshotDurable();

  auto fresh = FreshTable();
  log::RecoveryReport report = log::Recover(cut, {fresh.get()});
  EXPECT_EQ(report.applied.size(), static_cast<size_t>(kTxns));
  EXPECT_EQ(report.records_diff_missed, 0u);
  // Every transfer logged two diff-encoded updates, replayed in place.
  EXPECT_EQ(report.records_diff_applied, static_cast<uint64_t>(2 * kTxns));
  CheckRecoveredState(*fresh, report, transfers);

  // The diff encoding is the point: at least 2x fewer log bytes than the
  // after-image encoding (measured here on an update-only transfer mix).
  const uint64_t bytes = exec.log_manager()->bytes_logged();
  const uint64_t after_image =
      AfterImageBytes(cut, db.table(0)->schema().record_size());
  ASSERT_GT(bytes, 0u);
  EXPECT_GE(after_image, 2 * bytes)
      << "after-image=" << after_image << " logged=" << bytes;
}

// Crash cuts spanning a repartition generation boundary, with transactions
// updating the same keys (and therefore the same logical rows, under
// different Rids) in both generations. Replay must merge generations in
// order and resolve each diff through the key — the logged Rid of
// generation 0 is stale by generation 1 — and still equal the serial
// application of exactly the reported commit set.
TEST(LogRecoveryPropertyTest, DiffReplayAcrossRepartitionGenerations) {
  hw::Topology topo = hw::Topology::SingleSocket(kPartitions);
  Database db({.topo = topo});
  db.AddTable(FreshTable());
  PartitionedExecutor::Options opt;
  opt.durability = DurabilityMode::kGroup;
  opt.log_flush_interval_us = 20;
  PartitionedExecutor exec(&db, topo, OneTableScheme(), opt);

  constexpr int kTxnsPerPhase = 400;
  TransferLog transfers;
  Rng rng(17);
  std::vector<std::vector<log::ShardSnapshot>> cuts;
  // Phase schemes: 4 partitions -> 2 -> 3; every boundary change re-homes
  // heap records and reassigns log shards (new generation).
  std::vector<core::Scheme> phases;
  for (int parts : {2, 3}) {
    core::Scheme s;
    core::TableScheme ts;
    ts.boundaries = Bounds(kKeys, parts);
    for (int p = 0; p < parts; ++p) ts.placement.push_back(p);
    s.tables.push_back(ts);
    phases.push_back(s);
  }
  int txn = 0;
  for (size_t phase = 0; phase <= phases.size(); ++phase) {
    for (int i = 0; i < kTxnsPerPhase; ++i, ++txn) {
      uint64_t a = rng.Uniform(kKeys);
      uint64_t b = (a + kKeys / kPartitions) % kKeys;
      transfers.by_txn.emplace_back(a, b);
      ASSERT_TRUE(exec.SubmitAndWait(Transfer(a, b)).ok());
      if (i % 100 == 50)
        cuts.push_back(exec.log_manager()->SnapshotDurable());
    }
    if (phase < phases.size())
      ASSERT_TRUE(exec.Repartition(phases[phase]).ok());
  }
  exec.Drain();
  exec.log_manager()->FlushAll();
  cuts.push_back(exec.log_manager()->SnapshotDurable());
  EXPECT_EQ(exec.log_manager()->generation(), 2);

  uint64_t diff_applied = 0;
  for (const auto& cut : cuts) {
    auto fresh = FreshTable();
    log::RecoveryReport report = log::Recover(cut, {fresh.get()});
    EXPECT_EQ(report.records_without_image, 0u);
    EXPECT_EQ(report.records_diff_missed, 0u);
    CheckRecoveredState(*fresh, report, transfers);
    diff_applied += report.records_diff_applied;
  }
  EXPECT_GT(diff_applied, 0u);

  // The complete multi-generation log replays every transaction.
  auto fresh = FreshTable();
  log::RecoveryReport report = log::Recover(cuts.back(), {fresh.get()});
  EXPECT_EQ(report.applied.size(), transfers.by_txn.size());
  EXPECT_EQ(report.txns_undecided, 0u);
  for (uint64_t k = 0; k < kKeys; ++k) {
    Tuple live, rec;
    ASSERT_TRUE(db.table(0)->Read(k, &live).ok());
    ASSERT_TRUE(fresh->Read(k, &rec).ok());
    EXPECT_EQ(live.GetInt(1), rec.GetInt(1)) << "key " << k;
  }
}

// A TATP mid-run crash: recovery must replay without torn transactions,
// and a post-drain cut must rebuild exactly the live tables (TATP's
// aborts never write, so live state == committed state).
TEST(LogRecoveryTatpTest, CrashRecoverGroupCommit) {
  constexpr uint64_t kSubs = 512;
  constexpr int kCores = 2;
  constexpr uint64_t kSeed = 99;
  hw::Topology topo = hw::Topology::SingleSocket(kCores);
  std::vector<uint64_t> bounds = Bounds(kSubs, kCores);

  Database db({.topo = topo});
  for (auto& t : workload::BuildTatpTables(kSubs, bounds, kSeed))
    db.AddTable(std::move(t));
  PartitionedExecutor::Options opt;
  opt.durability = DurabilityMode::kGroup;
  opt.log_flush_interval_us = 20;
  PartitionedExecutor exec(&db, topo, workload::TatpScheme(kSubs, kCores),
                           opt);

  workload::TatpActionGraphs graphs(kSubs);
  Rng rng(kSeed);
  std::deque<engine::TxnFuture> window;
  std::vector<std::vector<log::ShardSnapshot>> cuts;
  for (int i = 0; i < 2000; ++i) {
    auto f = exec.Submit(graphs.Mix(rng));
    ASSERT_TRUE(f.ok());
    window.push_back(f.take());
    while (window.size() >= 32) {
      (void)window.front().Wait();  // TATP misses complete with NotFound
      window.pop_front();
    }
    if (i % 500 == 250) cuts.push_back(exec.log_manager()->SnapshotDurable());
  }
  while (!window.empty()) {
    (void)window.front().Wait();
    window.pop_front();
  }
  exec.Drain();
  exec.log_manager()->FlushAll();
  cuts.push_back(exec.log_manager()->SnapshotDurable());

  for (const auto& cut : cuts) {
    // Recover into a fresh copy of the initial load.
    auto fresh_tables = workload::BuildTatpTables(kSubs, bounds, kSeed);
    std::vector<Table*> raw;
    for (auto& t : fresh_tables) raw.push_back(t.get());
    log::RecoveryReport report = log::Recover(cut, raw);
    EXPECT_EQ(report.records_without_image, 0u);
    // Replayed transactions are all-or-nothing by construction; the final
    // (complete) cut must reproduce the live tables exactly.
    if (&cut == &cuts.back()) {
      EXPECT_EQ(report.txns_undecided, 0u);
      EXPECT_EQ(report.txns_poisoned, 0u);
      // Compare the fields only *committed* transactions write. kBit1 is
      // excluded deliberately: UpdateSubscriberData runs its Subscriber
      // and SpecialFacility updates in one stage, so a missing SF row
      // aborts the transaction after bit1 was already written — the
      // engine does not roll back, so live state keeps the aborted write
      // while recovery (correctly) discards it (see recovery.h).
      for (uint64_t s = 0; s < kSubs; ++s) {
        Tuple live, rec;
        ASSERT_TRUE(db.table(workload::kSubscriber)->Read(s, &live).ok());
        ASSERT_TRUE(raw[workload::kSubscriber]->Read(s, &rec).ok());
        EXPECT_EQ(live.GetInt(workload::kVlrLoc),
                  rec.GetInt(workload::kVlrLoc));
      }
      // CallForwarding saw committed inserts and deletes (a failed CF
      // write never mutates): the row set and contents must match.
      EXPECT_EQ(db.table(workload::kCallForwarding)->num_rows(),
                raw[workload::kCallForwarding]->num_rows());
      for (uint64_t s = 0; s < kSubs; ++s) {
        for (uint64_t sf = 0; sf < 4; ++sf) {
          for (uint64_t start = 0; start <= 24; start += 8) {
            uint64_t key = workload::TatpEncodeCfKey(s, sf, start);
            Tuple live, rec;
            Status ls = db.table(workload::kCallForwarding)->Read(key, &live);
            Status rs = raw[workload::kCallForwarding]->Read(key, &rec);
            ASSERT_EQ(ls.ok(), rs.ok()) << "cf key " << key;
            if (ls.ok())
              EXPECT_EQ(live.GetInt(workload::kCfEnd),
                        rec.GetInt(workload::kCfEnd));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace atrapos
