// Tests of the asynchronous flow-graph submission API: ActionGraph staging
// and payloads, abort-at-RVP, pipelined Submit, per-partition ordering,
// completion-exactly-once under a racing Repartition, and the TATP
// procedures as routed action graphs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/adaptive_manager.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "workload/micro.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

namespace atrapos::engine {
namespace {

std::unique_ptr<storage::Table> MicroTable(uint64_t rows,
                                           std::vector<uint64_t> bounds = {0}) {
  auto t = std::make_unique<storage::Table>(0, "T", workload::MicroTableSchema(),
                                            bounds);
  for (uint64_t k = 0; k < rows; ++k) {
    storage::Tuple row(&t->schema());
    row.SetInt(0, static_cast<int64_t>(k));
    row.SetInt(1, 100);
    (void)t->Insert(k, row);
  }
  return t;
}

core::Scheme OneTableScheme(std::vector<uint64_t> bounds,
                            std::vector<hw::CoreId> placement) {
  core::Scheme s;
  core::TableScheme ts;
  ts.boundaries = std::move(bounds);
  ts.placement = std::move(placement);
  s.tables.push_back(ts);
  return s;
}

TEST(ActionGraphTest, StagesAndPayloadsFlowAcrossRvp) {
  Database db({});
  uint64_t rows = 100;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));

  ActionGraph g;
  size_t a = g.Add(0, 10, [](storage::Table* t, ActionCtx& ctx) {
    storage::Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(10, &row));
    ctx.Emit(row.GetInt(1));
    return Status::OK();
  });
  g.Rvp();
  size_t b = g.Add(0, 90, [a](storage::Table* t, ActionCtx& ctx) {
    const int64_t* upstream = ctx.In<int64_t>(a);
    if (!upstream) return Status::Internal("missing upstream payload");
    storage::Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(90, &row));
    ctx.Emit(*upstream + row.GetInt(1));
    return Status::OK();
  });
  EXPECT_EQ(g.num_stages(), 2u);

  auto f = exec.Submit(std::move(g));
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value().Wait().ok());
  const int64_t* out = f.value().payload<int64_t>(b);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 200);
}

TEST(ActionGraphTest, AbortAtRvpCancelsDownstreamStages) {
  Database db({});
  uint64_t rows = 100;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));

  std::atomic<int> downstream_ran{0};
  ActionGraph g;
  g.Add(0, 10, [](storage::Table*, ActionCtx&) {
    return Status::InvalidArgument("boom");
  });
  g.Add(0, 90, [](storage::Table*, ActionCtx&) { return Status::OK(); });
  g.Rvp();
  g.Add(0, 20, [&downstream_ran](storage::Table*, ActionCtx&) {
    ++downstream_ran;
    return Status::OK();
  });
  g.Rvp();
  g.Add(0, 30, [&downstream_ran](storage::Table*, ActionCtx&) {
    ++downstream_ran;
    return Status::OK();
  });

  Status s = exec.SubmitAndWait(std::move(g));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "boom");
  exec.Drain();
  EXPECT_EQ(downstream_ran.load(), 0);
  // Only the two stage-0 actions ran.
  EXPECT_EQ(exec.executed_actions(), 2u);
}

TEST(ActionGraphTest, UnknownTableIdReturnsStatusNotCrash) {
  Database db({});
  (void)db.AddTable(MicroTable(100));
  auto topo = hw::Topology::SingleSocket(1);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0}, {0}));

  ActionGraph bad;
  bad.Add(7, 1, [](storage::Table*, ActionCtx&) { return Status::OK(); });
  auto f = exec.Submit(std::move(bad));
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);

  ActionGraph neg;
  neg.Add(-1, 1, [](storage::Table*, ActionCtx&) { return Status::OK(); });
  EXPECT_FALSE(exec.Submit(std::move(neg)).ok());

  ActionGraph empty;
  EXPECT_FALSE(exec.Submit(std::move(empty)).ok());
}

TEST(ActionGraphTest, OutOfRangeKeysClampToNearestPartition) {
  Database db({});
  uint64_t rows = 100;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));

  // A key far beyond every partition's [lo, hi) range routes to the last
  // partition instead of crashing; the action still runs.
  std::atomic<int> ran{0};
  ActionGraph g;
  g.Add(0, UINT64_MAX, [&ran](storage::Table*, ActionCtx&) {
    ++ran;
    return Status::OK();
  });
  ASSERT_TRUE(exec.SubmitAndWait(std::move(g)).ok());
  EXPECT_EQ(ran.load(), 1);
}

TEST(ActionGraphTest, SubmitKeepsManyTransactionsInFlightFromOneThread) {
  Database db({});
  uint64_t rows = 100;
  (void)db.AddTable(MicroTable(rows));
  auto topo = hw::Topology::SingleSocket(1);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0}, {0}));

  constexpr int kInFlight = 32;
  // The first action blocks its (only) worker until the client finished
  // submitting all graphs: with the old blocking Execute this would
  // deadlock; with pipelined Submit the client races ahead.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  std::vector<TxnFuture> futures;
  std::atomic<int> completions{0};
  for (int i = 0; i < kInFlight; ++i) {
    ActionGraph g;
    g.Add(0, static_cast<uint64_t>(i), [&](storage::Table*, ActionCtx&) {
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return release; });
      return Status::OK();
    });
    auto f = exec.Submit(std::move(g));
    ASSERT_TRUE(f.ok());
    f.value().OnComplete([&completions](const Status& s) {
      EXPECT_TRUE(s.ok());
      ++completions;
    });
    futures.push_back(f.take());
  }
  EXPECT_EQ(completions.load(), 0);  // all still in flight
  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& f : futures) EXPECT_TRUE(f.Wait().ok());
  EXPECT_EQ(completions.load(), kInFlight);
  EXPECT_EQ(exec.executed_actions(), static_cast<uint64_t>(kInFlight));
}

TEST(ActionGraphTest, ListenerUnregisterDoesNotWaitForPipeline) {
  Database db({});
  (void)db.AddTable(MicroTable(100));
  auto topo = hw::Topology::SingleSocket(1);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0}, {0}));

  struct CountingListener : PartitionedExecutor::TxnCompletionListener {
    std::atomic<int> calls{0};
    void OnTxnComplete(int, const Status&) override { ++calls; }
  } listener;
  exec.SetCompletionListener(&listener);

  // Block the worker so the submitted graph stays in flight; clearing the
  // listener must NOT wait for the executor to go idle (the old
  // Stop()-drains-everything behavior deadlocked here).
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  ActionGraph g;
  g.Add(0, 1, [&](storage::Table*, ActionCtx&) {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return release; });
    return Status::OK();
  });
  auto f = exec.Submit(std::move(g));
  ASSERT_TRUE(f.ok());

  exec.SetCompletionListener(nullptr);  // returns while the graph is queued
  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(f.value().Wait().ok());
  // The graph completed after unregistration: no call reached the
  // listener.
  EXPECT_EQ(listener.calls.load(), 0);
}

TEST(ActionGraphTest, InvalidFutureIsSafeToQuery) {
  TxnFuture f;
  EXPECT_FALSE(f.valid());
  EXPECT_FALSE(f.Done());
  EXPECT_EQ(f.Wait().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(f.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(f.payload<int64_t>(0), nullptr);
  bool fired = false;
  f.OnComplete([&fired](const Status& s) {
    fired = true;
    EXPECT_FALSE(s.ok());
  });
  EXPECT_TRUE(fired);
}

TEST(ActionGraphTest, PerPartitionOrderPreservedUnderConcurrentSubmit) {
  Database db({});
  uint64_t rows = 100;
  (void)db.AddTable(MicroTable(rows));
  auto topo = hw::Topology::SingleSocket(1);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0}, {0}));

  constexpr int kClients = 4, kPerClient = 200;
  std::mutex log_mu;
  std::vector<std::pair<int, int>> log;  // (client, seq) in execution order
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        ActionGraph g;
        g.Add(0, static_cast<uint64_t>(i % 100),
              [&log_mu, &log, c, i](storage::Table*, ActionCtx&) {
                std::lock_guard lk(log_mu);
                log.emplace_back(c, i);
                return Status::OK();
              });
        auto f = exec.Submit(std::move(g));
        ASSERT_TRUE(f.ok());
      }
    });
  }
  for (auto& t : clients) t.join();
  exec.Drain();
  ASSERT_EQ(log.size(), static_cast<size_t>(kClients * kPerClient));
  // Every client's own submissions ran in submission order on the single
  // partition worker, regardless of interleaving across clients.
  std::vector<int> next(kClients, 0);
  for (auto [c, seq] : log) {
    EXPECT_EQ(seq, next[static_cast<size_t>(c)]);
    ++next[static_cast<size_t>(c)];
  }
}

TEST(ActionGraphTest, FutureCompletesExactlyOnceUnderRepartitionRace) {
  Database db({});
  uint64_t rows = 2000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(4);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> submitted{0}, completed{0}, errors{0};
  std::thread load([&] {
    Rng rng(7);
    while (!stop) {
      uint64_t k = rng.Uniform(rows);
      // Two-stage graph spanning both halves: stages keep advancing on
      // worker threads while Repartition tries to pause the world.
      ActionGraph g;
      g.Add(0, k, [k, &errors](storage::Table* t, ActionCtx& ctx) {
        storage::Tuple row;
        if (!t->Read(k, &row).ok()) {
          ++errors;
          return Status::OK();
        }
        ctx.Emit(row.GetInt(1));
        return Status::OK();
      });
      g.Rvp();
      g.Add(0, rows - 1 - k, [&errors](storage::Table*, ActionCtx&) {
        return Status::OK();
      });
      auto f = exec.Submit(std::move(g));
      ASSERT_TRUE(f.ok());
      ++submitted;
      f.value().OnComplete([&completed](const Status& s) {
        if (s.ok()) ++completed;
      });
    }
  });

  // Bounce the partitioning back and forth under load.
  for (int round = 0; round < 4; ++round) {
    core::Scheme target =
        round % 2 == 0
            ? OneTableScheme({0, rows / 4, rows / 2, 3 * rows / 4},
                             {0, 1, 2, 3})
            : OneTableScheme({0, rows / 2}, {0, 1});
    auto applied = exec.Repartition(target);
    ASSERT_TRUE(applied.ok());
  }
  stop = true;
  load.join();
  exec.Drain();
  EXPECT_EQ(errors.load(), 0u);
  // Exactly one completion callback per submission: no future lost to the
  // repartition, none completed twice.
  EXPECT_EQ(completed.load(), submitted.load());
  EXPECT_GT(submitted.load(), 0u);
  EXPECT_EQ(db.table(0)->num_rows(), rows);
}

// ---- Batched submission (SubmitBatch + MPSC inboxes) ---------------------

TEST(ActionGraphTest, SubmitBatchCompletesEveryGraphWithPayloads) {
  Database db({});
  uint64_t rows = 100;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));

  constexpr int kBatch = 64;
  std::vector<ActionGraph> graphs;
  for (int i = 0; i < kBatch; ++i) {
    ActionGraph g;
    uint64_t k = static_cast<uint64_t>(i) % rows;  // both partitions
    g.Add(0, k, [k](storage::Table* t, ActionCtx& ctx) {
      storage::Tuple row;
      ATRAPOS_RETURN_NOT_OK(t->Read(k, &row));
      ctx.Emit(row.GetInt(1));
      return Status::OK();
    });
    graphs.push_back(std::move(g));
  }
  auto fs = exec.SubmitBatch(graphs);
  ASSERT_TRUE(fs.ok());
  ASSERT_EQ(fs.value().size(), static_cast<size_t>(kBatch));
  for (auto& f : fs.value()) {
    ASSERT_TRUE(f.Wait().ok());
    const int64_t* out = f.payload<int64_t>(0);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, 100);
  }
  EXPECT_EQ(exec.executed_actions(), static_cast<uint64_t>(kBatch));

  // An empty batch is a no-op, not an error.
  std::vector<ActionGraph> none;
  auto empty = exec.SubmitBatch(none);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(ActionGraphTest, SubmitBatchValidationIsAllOrNothing) {
  Database db({});
  (void)db.AddTable(MicroTable(100));
  auto topo = hw::Topology::SingleSocket(1);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0}, {0}));

  std::atomic<int> ran{0};
  std::vector<ActionGraph> graphs;
  ActionGraph good;
  good.Add(0, 1, [&ran](storage::Table*, ActionCtx&) {
    ++ran;
    return Status::OK();
  });
  graphs.push_back(std::move(good));
  ActionGraph bad;
  bad.Add(7, 1, [&ran](storage::Table*, ActionCtx&) {
    ++ran;
    return Status::OK();
  });
  graphs.push_back(std::move(bad));

  auto fs = exec.SubmitBatch(graphs);
  ASSERT_FALSE(fs.ok());
  EXPECT_EQ(fs.status().code(), StatusCode::kInvalidArgument);
  // Nothing was published: not even the valid first graph ran.
  exec.Drain();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(exec.executed_actions(), 0u);
}

TEST(ActionGraphTest, SubmitBatchPreservesPerPartitionFifoPerClient) {
  Database db({});
  uint64_t rows = 100;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));

  constexpr int kClients = 4, kWaves = 60, kPerWave = 8;
  // Per (client, partition) execution logs, appended by the two single
  // worker threads.
  std::mutex log_mu[2];
  std::vector<std::vector<std::pair<int, int>>> logs(2);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int seq = 0;
      for (int w = 0; w < kWaves; ++w) {
        std::vector<ActionGraph> wave;
        for (int i = 0; i < kPerWave; ++i, ++seq) {
          // Alternate destination partitions within each wave so a single
          // SubmitBatch wave fans out to both inboxes.
          uint64_t k = (seq % 2 == 0) ? 10 : 90;
          size_t part = k < rows / 2 ? 0 : 1;
          ActionGraph g;
          g.Add(0, k,
                [&log_mu, &logs, part, c, seq](storage::Table*, ActionCtx&) {
                  std::lock_guard lk(log_mu[part]);
                  logs[part].emplace_back(c, seq);
                  return Status::OK();
                });
          wave.push_back(std::move(g));
        }
        auto fs = exec.SubmitBatch(wave);
        ASSERT_TRUE(fs.ok());
      }
    });
  }
  for (auto& t : clients) t.join();
  exec.Drain();
  ASSERT_EQ(logs[0].size() + logs[1].size(),
            static_cast<size_t>(kClients * kWaves * kPerWave));
  // On each partition, every client's own actions ran in submission
  // order (monotonically increasing seq), regardless of interleaving.
  for (auto& log : logs) {
    std::vector<int> last(kClients, -1);
    for (auto [c, seq] : log) {
      EXPECT_GT(seq, last[static_cast<size_t>(c)]);
      last[static_cast<size_t>(c)] = seq;
    }
  }
}

TEST(ActionGraphTest, SubmitBatchExactlyOnceUnderRepartitionRace) {
  Database db({});
  uint64_t rows = 2000;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(4);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> submitted{0}, completed{0}, errors{0};
  std::thread load([&] {
    Rng rng(13);
    while (!stop) {
      // Waves of two-stage graphs spanning both halves: RVP fan-out keeps
      // publishing into sibling inboxes while Repartition pauses the
      // world.
      std::vector<ActionGraph> wave;
      for (int i = 0; i < 8; ++i) {
        uint64_t k = rng.Uniform(rows);
        ActionGraph g;
        g.Add(0, k, [k, &errors](storage::Table* t, ActionCtx&) {
          storage::Tuple row;
          if (!t->Read(k, &row).ok()) ++errors;
          return Status::OK();
        });
        g.Rvp();
        g.Add(0, rows - 1 - k, [](storage::Table*, ActionCtx&) {
          return Status::OK();
        });
        wave.push_back(std::move(g));
      }
      auto fs = exec.SubmitBatch(wave);
      ASSERT_TRUE(fs.ok());
      submitted += fs.value().size();
      for (auto& f : fs.value()) {
        f.OnComplete([&completed](const Status& s) {
          if (s.ok()) ++completed;
        });
      }
    }
  });

  for (int round = 0; round < 4; ++round) {
    core::Scheme target =
        round % 2 == 0
            ? OneTableScheme({0, rows / 4, rows / 2, 3 * rows / 4},
                             {0, 1, 2, 3})
            : OneTableScheme({0, rows / 2}, {0, 1});
    auto applied = exec.Repartition(target);
    ASSERT_TRUE(applied.ok());
  }
  stop = true;
  load.join();
  exec.Drain();
  EXPECT_EQ(errors.load(), 0u);
  // Exactly one completion per submitted graph: none lost to the
  // repartition, none completed twice.
  EXPECT_EQ(completed.load(), submitted.load());
  EXPECT_GT(submitted.load(), 0u);
  EXPECT_EQ(db.table(0)->num_rows(), rows);
}

TEST(ActionGraphTest, RepeatedStartStopHasNoMissedWake) {
  Database db({});
  uint64_t rows = 200;
  (void)db.AddTable(MicroTable(rows, {0, rows / 2}));
  auto topo = hw::Topology::SingleSocket(2);

  // Workers parked on the MPSC inbox must observe stop without a missed
  // wake: Repartition stops and restarts every worker each round, right
  // after bursts leave them freshly parked. A missed wake hangs the test.
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));
  for (int round = 0; round < 30; ++round) {
    std::vector<ActionGraph> wave;
    for (int i = 0; i < 4; ++i) {
      ActionGraph g;
      g.Add(0, static_cast<uint64_t>(i * 50),
            [](storage::Table*, ActionCtx&) { return Status::OK(); });
      wave.push_back(std::move(g));
    }
    auto fs = exec.SubmitBatch(wave);
    ASSERT_TRUE(fs.ok());
    core::Scheme target =
        round % 2 == 0 ? OneTableScheme({0, rows / 4}, {1, 0})
                       : OneTableScheme({0, rows / 2}, {0, 1});
    ASSERT_TRUE(exec.Repartition(target).ok());
  }
  exec.Drain();

  // Executor teardown from a parked state, repeatedly: construct, submit
  // a little (or nothing), destroy.
  for (int i = 0; i < 10; ++i) {
    PartitionedExecutor e2(&db, topo, OneTableScheme({0, rows / 2}, {0, 1}));
    if (i % 2 == 0) {
      ActionGraph g;
      g.Add(0, 1, [](storage::Table*, ActionCtx&) { return Status::OK(); });
      ASSERT_TRUE(e2.SubmitAndWait(std::move(g)).ok());
    }
  }
}

TEST(ActionGraphTest, FourPartitionsOnOneCoreNeverMissAWake) {
  Database db({});
  constexpr uint64_t kRows = 400;
  (void)db.AddTable(MicroTable(kRows, {0, 100, 200, 300}));
  auto topo = hw::Topology::SingleSocket(2);
  auto quarters_on = [](std::vector<uint64_t> bounds) {
    return OneTableScheme(std::move(bounds), {0, 0, 0, 0});
  };
  auto noop = [](storage::Table*, ActionCtx&) { return Status::OK(); };

  // One worker owns all four inboxes, so a missed wake on any of them
  // hangs every partition. Started and stopped repeatedly: each round
  // lands concurrent producers on different partitions of the same core
  // while the worker is parking, then restarts the worker via Repartition.
  PartitionedExecutor exec(&db, topo, quarters_on({0, 100, 200, 300}));
  for (int round = 0; round < 20; ++round) {
    std::vector<std::thread> producers;
    for (int q = 0; q < 4; ++q) {
      producers.emplace_back([&, q] {
        for (int i = 0; i < 25; ++i) {
          ActionGraph g;
          g.Add(0, static_cast<uint64_t>(q * 100 + i), noop);
          ASSERT_TRUE(exec.SubmitAndWait(std::move(g)).ok());
        }
      });
    }
    for (auto& t : producers) t.join();
    std::vector<ActionGraph> wave;
    for (uint64_t k = 0; k < kRows; k += 50) {
      ActionGraph g;
      g.Add(0, k, noop);
      wave.push_back(std::move(g));
    }
    ASSERT_TRUE(exec.SubmitBatch(wave).ok());
    ASSERT_TRUE(exec.Repartition(round % 2 == 0
                                     ? quarters_on({0, 50, 150, 350})
                                     : quarters_on({0, 100, 200, 300}))
                    .ok());
  }
  exec.Drain();
  EXPECT_EQ(exec.executed_actions(), 20u * (4 * 25 + kRows / 50));

  // Construct/destroy from a parked state with all four on one core.
  for (int i = 0; i < 10; ++i) {
    PartitionedExecutor e2(&db, topo, quarters_on({0, 100, 200, 300}));
    if (i % 2 == 0) {
      ActionGraph g;
      g.Add(0, static_cast<uint64_t>(i * 40), noop);
      ASSERT_TRUE(e2.SubmitAndWait(std::move(g)).ok());
    }
  }
}

// The completion word under races: 10k transactions from 2 submitters
// over 2 workers, each future also waited on by a third thread.
// Callbacks are registered before completion (and handed to the waiter
// only afterwards), racing it (handed over first), or after it (the
// submitter waited itself, so the callback must run inline on the
// submitter). Every 16th transaction sleeps past the Wait poll window,
// so waiters really sleep on the word and must be woken. Some
// transactions fail in their second action. Properties: each callback
// fires exactly once with the final status; a callback registered
// before the handoff has its side effect visible when Wait() returns;
// after Done(), status() and payload() agree with Wait().
TEST(ActionGraphTest, CompletionWordRaceFiresEachCallbackOnce) {
  Database db({});
  constexpr uint64_t kRows = 200;
  (void)db.AddTable(MicroTable(kRows, {0, kRows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, kRows / 2}, {0, 1}));

  constexpr int kSubmitters = 2;
  constexpr int kPerSubmitter = 5000;
  constexpr int kTxns = kSubmitters * kPerSubmitter;
  enum Mode { kBefore = 0, kDuring = 1, kAfter = 2 };
  auto mode_of = [](int i) { return static_cast<Mode>(i % 3); };
  auto fails = [](int i) { return i % 7 == 3; };
  // Written only by the callback; read after Wait() returns.
  std::vector<std::atomic<int>> fired(kTxns);
  std::vector<int> side_effect(kTxns, 0);
  std::atomic<int> inline_after{0};

  struct Handoff {
    int i;
    TxnFuture f;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Handoff> queue;
  int submitters_done = 0;
  auto hand_over = [&](int i, TxnFuture f) {
    std::lock_guard lk(mu);
    queue.push_back(Handoff{i, std::move(f)});
    cv.notify_one();
  };

  std::atomic<int> waited{0};
  std::thread waiter([&] {
    for (;;) {
      Handoff h;
      {
        std::unique_lock lk(mu);
        cv.wait(lk, [&] {
          return !queue.empty() || submitters_done == kSubmitters;
        });
        if (queue.empty()) return;
        h = std::move(queue.front());
        queue.pop_front();
      }
      Status s = h.f.Wait();
      EXPECT_EQ(s.ok(), !fails(h.i)) << "txn " << h.i;
      if (mode_of(h.i) != kDuring) {
        // Registered before the handoff: the callback returned before
        // Wait() did, on whichever thread ran it.
        EXPECT_EQ(fired[h.i].load(std::memory_order_relaxed), 1)
            << "txn " << h.i;
        EXPECT_EQ(side_effect[h.i], h.i + 1) << "txn " << h.i;
      }
      EXPECT_TRUE(h.f.Done());
      EXPECT_EQ(h.f.status().code(), s.code());
      const int64_t* out = h.f.payload<int64_t>(0);
      ASSERT_NE(out, nullptr) << "txn " << h.i;
      EXPECT_EQ(*out, static_cast<int64_t>(h.i));
      if (!fails(h.i)) {
        const int64_t* second = h.f.payload<int64_t>(1);
        ASSERT_NE(second, nullptr) << "txn " << h.i;
        EXPECT_EQ(*second, static_cast<int64_t>(h.i) * 2);
      }
      waited.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      const auto self = std::this_thread::get_id();
      for (int j = 0; j < kPerSubmitter; ++j) {
        const int i = t * kPerSubmitter + j;
        ActionGraph g;
        // Two actions on the two workers' partitions.
        g.Add(0, static_cast<uint64_t>(i) % (kRows / 2),
              [i](storage::Table*, ActionCtx& ctx) {
                if (i % 16 == 0)
                  std::this_thread::sleep_for(std::chrono::microseconds(200));
                ctx.Emit(static_cast<int64_t>(i));
                return Status::OK();
              });
        g.Add(0, kRows / 2 + static_cast<uint64_t>(i) % (kRows / 2),
              [i, &fails](storage::Table*, ActionCtx& ctx) {
                if (fails(i)) return Status::Internal("injected");
                ctx.Emit(static_cast<int64_t>(i) * 2);
                return Status::OK();
              });
        auto r = exec.Submit(std::move(g));
        if (!r.ok()) {
          ADD_FAILURE() << "submit " << i << ": " << r.status().ToString();
          continue;
        }
        TxnFuture f = r.take();
        auto cb = [&, i](const Status& s) {
          EXPECT_EQ(s.ok(), !fails(i)) << "txn " << i;
          side_effect[i] = i + 1;
          fired[i].fetch_add(1, std::memory_order_relaxed);
        };
        switch (mode_of(i)) {
          case kBefore:
            f.OnComplete(cb);
            hand_over(i, f);
            break;
          case kDuring:
            hand_over(i, f);
            f.OnComplete(cb);
            break;
          case kAfter: {
            (void)f.Wait();
            bool ran_here = false;
            f.OnComplete([&, cb, self](const Status& s) {
              EXPECT_EQ(std::this_thread::get_id(), self);
              ran_here = true;
              cb(s);
            });
            EXPECT_TRUE(ran_here) << "txn " << i;
            if (ran_here) inline_after.fetch_add(1, std::memory_order_relaxed);
            hand_over(i, f);
            break;
          }
        }
      }
      std::lock_guard lk(mu);
      ++submitters_done;
      cv.notify_one();
    });
  }
  for (auto& t : submitters) t.join();
  waiter.join();
  exec.Drain();
  EXPECT_EQ(waited.load(), kTxns);
  EXPECT_EQ(inline_after.load(), (kTxns + 1) / 3);
  for (int i = 0; i < kTxns; ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "txn " << i;
    EXPECT_EQ(side_effect[i], i + 1) << "txn " << i;
  }
}

TEST(ActionGraphTest, FedPartitionCannotStarveSameCoreSibling) {
  Database db({});
  constexpr uint64_t kRows = 200;
  (void)db.AddTable(MicroTable(kRows, {0, kRows / 2}));
  auto topo = hw::Topology::SingleSocket(2);
  // Both partitions on core 0: one worker, two inboxes.
  PartitionedExecutor exec(&db, topo, OneTableScheme({0, kRows / 2}, {0, 0}));

  // kChains self-feeding actions keep partition 0 busy until `stop`:
  // each one submits its successor into partition 0's inbox before it
  // returns, so that inbox is never empty while the feed runs. A worker
  // that drained a partition until it stayed empty would never come back
  // to partition 1.
  constexpr int kChains = 8;
  std::atomic<uint64_t> fed{0};  // partition-0 actions executed so far
  std::atomic<bool> stop{false};
  std::function<Status(storage::Table*, ActionCtx&)> feed =
      [&](storage::Table*, ActionCtx&) {
        fed.fetch_add(1, std::memory_order_relaxed);
        if (!stop.load(std::memory_order_relaxed)) {
          ActionGraph next;
          next.Add(0, 0, feed);
          if (!exec.Submit(std::move(next)).ok()) return Status::Internal("");
        }
        return Status::OK();
      };
  for (int c = 0; c < kChains; ++c) {
    ActionGraph g;
    g.Add(0, static_cast<uint64_t>(c), feed);
    ASSERT_TRUE(exec.Submit(std::move(g)).ok());
  }
  // Probe the sibling while partition 0 is fed. Between a probe's publish
  // and its execution the worker may finish the partition-0 batch in
  // progress and run at most one more (the round-robin pass visits
  // partition 1 next): at most 2 * kChains partition-0 actions. `fed` is
  // read just after Submit returned, i.e. after the publish, so the
  // measured wait can only undercount — never flag a fair worker.
  constexpr int kProbes = 200;
  int64_t worst = 0;
  for (int i = 0; i < kProbes; ++i) {
    std::atomic<int64_t> at_run{0};
    ActionGraph g;
    g.Add(0, kRows - 1, [&](storage::Table*, ActionCtx&) {
      at_run.store(static_cast<int64_t>(fed.load(std::memory_order_relaxed)),
                   std::memory_order_relaxed);
      return Status::OK();
    });
    auto f = exec.Submit(std::move(g));
    const auto at_publish =
        static_cast<int64_t>(fed.load(std::memory_order_relaxed));
    ASSERT_TRUE(f.ok());
    // A starved probe would never finish: fail instead of hanging (the
    // stop flag ends the feed so teardown can drain).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!f.value().Done()) {
      if (std::chrono::steady_clock::now() > deadline) {
        stop = true;
        FAIL() << "probe starved behind the fed partition";
      }
      std::this_thread::yield();
    }
    ASSERT_TRUE(f.value().status().ok());
    worst = std::max(worst, at_run.load() - at_publish);
  }
  stop = true;
  exec.Drain();
  EXPECT_GT(fed.load(), static_cast<uint64_t>(kProbes))
      << "partition 0 was not fed while the probes ran";
  EXPECT_LE(worst, 2 * kChains) << "sibling waited behind more than one batch";
}

// ---- TATP as routed action graphs ----------------------------------------

class TatpGraphTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSubs = 2000;

  TatpGraphTest() : topo_(hw::Topology::SingleSocket(2)), db_({.topo = topo_}) {
    std::vector<uint64_t> bounds = {0, kSubs / 2};
    for (auto& t : workload::BuildTatpTables(kSubs, bounds))
      db_.AddTable(std::move(t));
    exec_ = std::make_unique<PartitionedExecutor>(
        &db_, topo_, workload::TatpScheme(kSubs, 2));
  }

  hw::Topology topo_;
  Database db_;
  std::unique_ptr<PartitionedExecutor> exec_;
  workload::TatpActionGraphs graphs_{kSubs};
};

TEST_F(TatpGraphTest, GraphShapesMatchFlowGraphSpec) {
  auto spec = workload::TatpSpec(kSubs);
  auto check = [&](engine::ActionGraph g, int cls) {
    EXPECT_TRUE(g.MatchesClass(spec.classes[static_cast<size_t>(cls)]).ok())
        << spec.classes[static_cast<size_t>(cls)].name;
    EXPECT_EQ(g.txn_class(), cls);
  };
  check(graphs_.GetSubscriberData(1), workload::kGetSubData);
  check(graphs_.GetNewDestination(1, 1, 8, 1), workload::kGetNewDest);
  check(graphs_.GetAccessData(1, 1), workload::kGetAccData);
  check(graphs_.UpdateSubscriberData(1, 1, 1, 7), workload::kUpdSubData);
  check(graphs_.UpdateLocation(1, 7), workload::kUpdLocation);
  check(graphs_.InsertCallForwarding(1, 1, 8, 16, "x"), workload::kInsCallFwd);
  check(graphs_.DeleteCallForwarding(1, 1, 8), workload::kDelCallFwd);
}

TEST_F(TatpGraphTest, GetSubscriberDataMatchesDirectRead) {
  auto out = std::make_shared<storage::Tuple>();
  ASSERT_TRUE(
      exec_->SubmitAndWait(graphs_.GetSubscriberData(42, out)).ok());
  storage::Tuple direct;
  ASSERT_TRUE(db_.table(workload::kSubscriber)->Read(42, &direct).ok());
  EXPECT_EQ(out->GetInt(workload::kSubId), direct.GetInt(workload::kSubId));
  EXPECT_EQ(out->GetInt(workload::kVlrLoc), direct.GetInt(workload::kVlrLoc));
}

TEST_F(TatpGraphTest, UpdateLocationWritesThrough) {
  ASSERT_TRUE(exec_->SubmitAndWait(graphs_.UpdateLocation(7, 123456)).ok());
  storage::Tuple row;
  ASSERT_TRUE(db_.table(workload::kSubscriber)->Read(7, &row).ok());
  EXPECT_EQ(row.GetInt(workload::kVlrLoc), 123456);
}

TEST_F(TatpGraphTest, InsertThenDeleteCallForwardingRoundTrips) {
  // Use a window slot the loader never fills (start 24 exists only when
  // rng drew 4 windows; delete first to make the insert deterministic).
  (void)exec_->SubmitAndWait(graphs_.DeleteCallForwarding(11, 0, 24));
  Status ins = exec_->SubmitAndWait(
      graphs_.InsertCallForwarding(11, 0, 24, 30, "555-0007"));
  ASSERT_TRUE(ins.ok()) << ins.ToString();
  auto number = std::make_shared<std::string>();
  Status get =
      exec_->SubmitAndWait(graphs_.GetNewDestination(11, 0, 24, 25, number));
  if (get.ok()) EXPECT_EQ(*number, "555-0007");
  ASSERT_TRUE(
      exec_->SubmitAndWait(graphs_.DeleteCallForwarding(11, 0, 24)).ok());
}

TEST_F(TatpGraphTest, MixRunsPipelinedWithCompletionPathReporting) {
  auto spec = workload::TatpSpec(kSubs);
  AdaptiveManager::Options mopt;
  mopt.controller.initial_interval_s = 0.05;
  AdaptiveManager mgr(exec_.get(), &topo_, &spec, mopt);
  mgr.Start();

  Rng rng(11);
  constexpr int kTxns = 400, kDepth = 16;
  std::deque<TxnFuture> window;
  int ok = 0, failed = 0;
  for (int i = 0; i < kTxns; ++i) {
    auto f = exec_->Submit(graphs_.Mix(rng));
    ASSERT_TRUE(f.ok());
    window.push_back(f.take());
    if (window.size() >= kDepth) {
      (workload::TatpActionGraphs::CountsAsSuccess(window.front().Wait())
           ? ok
           : failed)++;
      window.pop_front();
    }
  }
  while (!window.empty()) {
    (workload::TatpActionGraphs::CountsAsSuccess(window.front().Wait())
         ? ok
         : failed)++;
    window.pop_front();
  }
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(ok, kTxns);
  // Every completion was reported to the adaptive manager by the executor.
  EXPECT_EQ(mgr.completed_transactions(), static_cast<uint64_t>(kTxns));
  mgr.Stop();
}

// ---- TATP stored procedures, one behaviour per case ----------------------
// The procedure-level checks of the TATP benchmark (row contents, both
// tables of UpdateSubscriberData, CallForwarding windows, the mix), run as
// action graphs on the partitioned executor.

class TatpProcsTest : public TatpGraphTest {
 protected:
  // Sets the SpecialFacility's is_active flag so window lookups are
  // deterministic.
  void ActivateSf(uint64_t s_id, uint64_t sf_type) {
    const uint64_t sf_key = workload::TatpEncodeSfKey(s_id, sf_type);
    ActionGraph g;
    g.Add(workload::kSpecialFacility, sf_key,
          [sf_key](storage::Table* t, ActionCtx&) {
            storage::Tuple sf;
            ATRAPOS_RETURN_NOT_OK(t->Read(sf_key, &sf));
            sf.SetInt(workload::kSfActive, 1);
            return t->Update(sf_key, sf);
          });
    ASSERT_TRUE(exec_->SubmitAndWait(std::move(g)).ok());
  }
};

TEST_F(TatpProcsTest, GetSubscriberDataReturnsRow) {
  auto row = std::make_shared<storage::Tuple>();
  ASSERT_TRUE(exec_->SubmitAndWait(graphs_.GetSubscriberData(42, row)).ok());
  EXPECT_EQ(row->GetInt(workload::kSubId), 42);
  EXPECT_EQ(row->GetString(workload::kSubNbr), "42");
}

TEST_F(TatpProcsTest, GetSubscriberDataMissingKey) {
  EXPECT_EQ(exec_->SubmitAndWait(graphs_.GetSubscriberData(kSubs + 10)).code(),
            StatusCode::kNotFound);
}

TEST_F(TatpProcsTest, GetAccessDataReadsAiRow) {
  // The loader gives every subscriber ai_type 0.
  auto data1 = std::make_shared<int64_t>(-1);
  ASSERT_TRUE(exec_->SubmitAndWait(graphs_.GetAccessData(7, 0, data1)).ok());
  storage::Tuple direct;
  ASSERT_TRUE(db_.table(workload::kAccessInfo)
                  ->Read(workload::TatpEncodeAiKey(7, 0), &direct)
                  .ok());
  EXPECT_EQ(*data1, direct.GetInt(workload::kAiData1));
  EXPECT_GE(*data1, 0);
  EXPECT_LT(*data1, 256);
}

TEST_F(TatpProcsTest, UpdateLocationPersists) {
  ASSERT_TRUE(exec_->SubmitAndWait(graphs_.UpdateLocation(123, 987654)).ok());
  auto row = std::make_shared<storage::Tuple>();
  ASSERT_TRUE(exec_->SubmitAndWait(graphs_.GetSubscriberData(123, row)).ok());
  EXPECT_EQ(row->GetInt(workload::kVlrLoc), 987654);
}

TEST_F(TatpProcsTest, UpdateSubscriberDataTouchesBothTables) {
  ASSERT_TRUE(
      exec_->SubmitAndWait(graphs_.UpdateSubscriberData(5, 1, 0, 77)).ok());
  storage::Tuple sub;
  ASSERT_TRUE(db_.table(workload::kSubscriber)->Read(5, &sub).ok());
  EXPECT_EQ(sub.GetInt(workload::kBit1), 1);
  storage::Tuple sf;
  ASSERT_TRUE(db_.table(workload::kSpecialFacility)
                  ->Read(workload::TatpEncodeSfKey(5, 0), &sf)
                  .ok());
  EXPECT_EQ(sf.GetInt(workload::kSfDataA), 77);
}

TEST_F(TatpProcsTest, InsertThenDeleteCallForwarding) {
  // Delete first: the loader may or may not have filled this window.
  (void)exec_->SubmitAndWait(graphs_.DeleteCallForwarding(9, 0, 16));
  ASSERT_TRUE(exec_
                  ->SubmitAndWait(
                      graphs_.InsertCallForwarding(9, 0, 16, 23, "555-7777"))
                  .ok());
  EXPECT_EQ(exec_
                ->SubmitAndWait(
                    graphs_.InsertCallForwarding(9, 0, 16, 23, "555-8888"))
                .code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(
      exec_->SubmitAndWait(graphs_.DeleteCallForwarding(9, 0, 16)).ok());
  EXPECT_EQ(
      exec_->SubmitAndWait(graphs_.DeleteCallForwarding(9, 0, 16)).code(),
      StatusCode::kNotFound);
}

TEST_F(TatpProcsTest, GetNewDestinationFindsInsertedWindow) {
  (void)exec_->SubmitAndWait(graphs_.DeleteCallForwarding(11, 0, 0));
  ASSERT_TRUE(exec_
                  ->SubmitAndWait(
                      graphs_.InsertCallForwarding(11, 0, 0, 20, "555-0042"))
                  .ok());
  ActivateSf(11, 0);

  auto number = std::make_shared<std::string>();
  Status get =
      exec_->SubmitAndWait(graphs_.GetNewDestination(11, 0, 5, 10, number));
  ASSERT_TRUE(get.ok()) << get.ToString();
  EXPECT_EQ(*number, "555-0042");
  // A window that ends too early does not match.
  EXPECT_EQ(
      exec_->SubmitAndWait(graphs_.GetNewDestination(11, 0, 5, 25)).code(),
      StatusCode::kNotFound);
}

TEST_F(TatpProcsTest, MixRunsAllClasses) {
  Rng rng(99);
  std::map<int, int> executed;
  for (int i = 0; i < 3000; ++i) {
    ActionGraph g = graphs_.Mix(rng);
    const int cls = g.txn_class();
    Status s = exec_->SubmitAndWait(std::move(g));
    ASSERT_TRUE(workload::TatpActionGraphs::CountsAsSuccess(s))
        << s.ToString();
    ++executed[cls];
  }
  // All seven classes appear, roughly in mix proportion.
  EXPECT_EQ(executed.size(), 7u);
  EXPECT_GT(executed[workload::kGetSubData], 800);
  EXPECT_GT(executed[workload::kGetAccData], 800);
  EXPECT_GT(executed[workload::kUpdLocation], 250);
  EXPECT_GT(executed[workload::kGetNewDest], 150);
}

TEST_F(TatpProcsTest, MixLeavesNoActiveTransactions) {
  // Submit the mix pipelined, then Drain(): no transaction may still be in
  // flight, and every one must have completed exactly as a TATP success.
  Rng rng(7);
  std::vector<TxnFuture> futures;
  for (int i = 0; i < 500; ++i) {
    auto f = exec_->Submit(graphs_.Mix(rng));
    ASSERT_TRUE(f.ok());
    futures.push_back(f.take());
  }
  exec_->Drain();
  for (auto& f : futures) {
    ASSERT_TRUE(f.Done());
    EXPECT_TRUE(workload::TatpActionGraphs::CountsAsSuccess(f.status()))
        << f.status().ToString();
  }
}

}  // namespace
}  // namespace atrapos::engine
