// Tests of the unified observability subsystem (src/obs/): histogram
// binning and concurrent merge correctness, registry snapshot
// monotonicity under concurrent writers and readers, trace-ring wrap
// semantics, the trace-off zero-allocation guarantee, and the engine
// integration — Database::StatsSnapshot fields and the span
// nesting/ordering invariants of a dumped transaction trace.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "obs/histogram.h"
#include "obs/perf_counters.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "workload/micro.h"

// ---- allocation instrumentation (whole test binary) ------------------------
// Counts every operator-new in the process so the trace-off/metrics-off
// hot-path test can assert zero allocations across a recording loop. A
// thread that sets t_uncounted is left out, so a test can drive the
// engine from its own (allocating) client thread and still assert that
// the engine's worker threads allocate nothing.

namespace {
std::atomic<uint64_t> g_allocs{0};
thread_local bool t_uncounted = false;
}  // namespace

void* operator new(std::size_t n) {
  if (!t_uncounted) g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace atrapos::obs {
namespace {

using engine::ActionCtx;
using engine::ActionGraph;
using engine::Database;
using engine::DurabilityMode;
using engine::PartitionedExecutor;

// ---- histogram --------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesArePowersOfTwo) {
  EXPECT_EQ(BucketOf(0), 0);
  EXPECT_EQ(BucketOf(1), 1);
  EXPECT_EQ(BucketOf(2), 2);
  EXPECT_EQ(BucketOf(3), 2);
  EXPECT_EQ(BucketOf(4), 3);
  for (int b = 1; b < kHistogramBuckets - 1; ++b) {
    EXPECT_EQ(BucketOf(BucketLo(b)), b) << b;
    EXPECT_EQ(BucketOf(BucketHi(b) - 1), b) << b;
  }
}

TEST(HistogramTest, QuantilesBracketTheData) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Add(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_NEAR(static_cast<double>(h.Quantile(0.5)), 500.0, 260.0);
  EXPECT_GE(h.Quantile(0.99), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(1.0), 1024u);  // bucket upper bound
  EXPECT_NEAR(h.mean(), 500.5, 0.01);
}

TEST(HistogramTest, MergeAddsCountsAndWidensRange) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(AtomicHistogramTest, ConcurrentWritersMergeExactlyOnceQuiescent) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  AtomicHistogram h;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i)
        h.Record(static_cast<uint64_t>(t) * kPerThread + i + 1);
    });
  }
  for (auto& t : ts) t.join();
  Histogram merged = h.Snapshot();
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
  EXPECT_EQ(merged.min(), 1u);
  EXPECT_EQ(merged.max(), kThreads * kPerThread);
  uint64_t binned = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) binned += merged.bucket(b);
  EXPECT_EQ(binned, merged.count());
}

TEST(AtomicHistogramTest, LiveSnapshotNeverOvercountsOrTears) {
  AtomicHistogram h;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t v = 1;
    while (!stop.load(std::memory_order_relaxed)) h.Record(v++ % 4096);
  });
  uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    Histogram s = h.Snapshot();
    // Monotone between snapshots, and never more total than binned mass.
    EXPECT_GE(s.count(), last);
    last = s.count();
  }
  stop = true;
  writer.join();
}

// ---- registry ---------------------------------------------------------------

TEST(RegistryTest, CountersAndHistsMergeAcrossThreads) {
  Registry reg;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&reg] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.Count(CounterId::kTxnSubmitted);
        reg.RecordLatency(HistId::kCommitLatencyUs,
                          static_cast<uint64_t>(i % 1000));
      }
    });
  }
  for (auto& t : ts) t.join();
  StatsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.counter(CounterId::kTxnSubmitted),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.hist(HistId::kCommitLatencyUs).count(),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(RegistryTest, SnapshotsAreMonotoneUnderConcurrentWritersAndReaders) {
  Registry reg;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        reg.Count(CounterId::kTxnCommitted);
        reg.RecordLatency(HistId::kDrainBatchUs, 7);
      }
    });
  }
  // Two concurrent snapshotters each verify their own monotone view
  // (TSAN-relevant: snapshots race writers and each other by design).
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_count = 0, last_hist = 0, last_seq = 0;
      for (int i = 0; i < 300; ++i) {
        StatsSnapshot s = reg.Snapshot();
        EXPECT_GE(s.counter(CounterId::kTxnCommitted), last_count);
        EXPECT_GE(s.hist(HistId::kDrainBatchUs).count(), last_hist);
        EXPECT_GT(s.seq, last_seq);
        last_count = s.counter(CounterId::kTxnCommitted);
        last_hist = s.hist(HistId::kDrainBatchUs).count();
        last_seq = s.seq;
      }
    });
  }
  for (auto& r : readers) r.join();
  stop = true;
  for (auto& w : writers) w.join();
}

TEST(RegistryTest, ShardsRoundRobinPastTheCap) {
  Registry::Options opt;
  opt.max_shards = 2;
  Registry reg(opt);
  std::vector<std::thread> ts;
  for (int t = 0; t < 6; ++t) {
    ts.emplace_back([&reg] { reg.Count(CounterId::kTxnSubmitted); });
    ts.back().join();
  }
  EXPECT_LE(reg.num_shards(), 2u);
  EXPECT_EQ(reg.Snapshot().counter(CounterId::kTxnSubmitted), 6u);
}

TEST(RegistryTest, MetricsOffRecordsNothing) {
  Registry::Options opt;
  opt.metrics = false;
  Registry reg(opt);
  reg.Count(CounterId::kTxnSubmitted);
  reg.RecordLatency(HistId::kCommitLatencyUs, 5);
  StatsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.counter(CounterId::kTxnSubmitted), 0u);
  EXPECT_EQ(s.hist(HistId::kCommitLatencyUs).count(), 0u);
}

TEST(RegistryTest, DisabledPathsAllocateNothing) {
  Registry::Options opt;
  opt.metrics = false;
  Registry reg(opt);  // tracing off too
  // Warm up: thread-local caches, lazy anything.
  reg.Count(CounterId::kTxnSubmitted);
  reg.Trace(SpanId::kTxn, TracePhase::kBegin, 1);
  uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    reg.Count(CounterId::kTxnSubmitted);
    reg.RecordLatency(HistId::kCommitLatencyUs, 5);
    reg.Trace(SpanId::kTxn, TracePhase::kBegin, 1, 2);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before);
}

TEST(RegistryTest, GaugesAreLastWriteWins) {
  Registry reg;
  reg.SetGauge(GaugeId::kQueueDepthTotal, 42);
  reg.SetGauge(GaugeId::kQueueDepthTotal, 7);
  EXPECT_EQ(reg.gauge(GaugeId::kQueueDepthTotal), 7);
  EXPECT_EQ(reg.Snapshot().gauge(GaugeId::kQueueDepthTotal), 7);
}

TEST(RegistryTest, PrometheusExpositionNamesEveryMetric) {
  Registry reg;
  reg.Count(CounterId::kTxnCommitted, 3);
  reg.RecordLatency(HistId::kCommitLatencyUs, 100);
  StatsSnapshot s = reg.Snapshot();
  std::string text = s.ToPrometheus();
  EXPECT_NE(text.find("atrapos_txn_committed 3"), std::string::npos);
  EXPECT_NE(text.find("atrapos_commit_latency_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("atrapos_queue_depth_total"), std::string::npos);
  EXPECT_NE(text.find("atrapos_remote_traffic_ratio"), std::string::npos);
}

// ---- trace ring -------------------------------------------------------------

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 8u);
  EXPECT_EQ(TraceRing(9).capacity(), 16u);
  EXPECT_EQ(TraceRing(64).capacity(), 64u);
}

TEST(TraceRingTest, WrapKeepsNewestAndCountsDropped) {
  TraceRing ring(8);
  for (uint64_t i = 0; i < 20; ++i)
    ring.Record(/*ts_ns=*/i, SpanId::kAction, TracePhase::kComplete,
                /*txn=*/i, /*arg=*/i * 2);
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.Collect(/*shard=*/3, &out), 20u);
  ASSERT_EQ(out.size(), 8u);
  // Oldest first, newest last; the survivors are the last 8 records.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].ts_ns, 12 + i);
    EXPECT_EQ(out[i].txn, 12 + i);
    EXPECT_EQ(out[i].arg, (12 + i) * 2);
    EXPECT_EQ(out[i].span, SpanId::kAction);
    EXPECT_EQ(out[i].phase, TracePhase::kComplete);
    EXPECT_EQ(out[i].shard, 3);
  }
}

TEST(TraceRingTest, ConcurrentCollectWhileWritingIsRaceFree) {
  TraceRing ring(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed))
      ring.Record(i, SpanId::kDrain, TracePhase::kInstant, 0, i++);
  });
  for (int i = 0; i < 100; ++i) {
    std::vector<TraceEvent> out;
    ring.Collect(0, &out);  // best-effort near the wrap point, never a race
    EXPECT_LE(out.size(), ring.capacity());
  }
  stop = true;
  writer.join();
}

// ---- engine integration -----------------------------------------------------

std::unique_ptr<storage::Table> MicroTable(uint64_t rows,
                                           std::vector<uint64_t> bounds) {
  auto t = std::make_unique<storage::Table>(
      0, "T", workload::MicroTableSchema(), bounds);
  for (uint64_t k = 0; k < rows; ++k) {
    storage::Tuple row(&t->schema());
    row.SetInt(0, static_cast<int64_t>(k));
    row.SetInt(1, 100);
    (void)t->Insert(k, row);
  }
  return t;
}

core::Scheme OneTableScheme(uint64_t rows, size_t parts) {
  core::Scheme s;
  core::TableScheme ts;
  for (size_t p = 0; p < parts; ++p) {
    ts.boundaries.push_back(rows * p / parts);
    ts.placement.push_back(static_cast<hw::CoreId>(p));
  }
  s.tables.push_back(ts);
  return s;
}

ActionGraph AddDelta(int table, uint64_t key, int64_t delta) {
  ActionGraph g(0);
  g.Add(table, key, [key, delta](storage::Table* t, ActionCtx&) {
    storage::Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(key, &row));
    row.SetInt(1, row.GetInt(1) + delta);
    return t->Update(key, row);
  });
  return g;
}

/// Two-stage read-then-write graph: exercises the RVP fan-out so the
/// trace carries an RVP-resolve instant per stage.
ActionGraph TwoStageWrite(int table, uint64_t k1, uint64_t k2) {
  ActionGraph g(0);
  g.Add(table, k1, [k1](storage::Table* t, ActionCtx&) {
    storage::Tuple row;
    return t->Read(k1, &row);
  });
  g.Rvp();
  g.Add(table, k2, [k2](storage::Table* t, ActionCtx&) {
    storage::Tuple row;
    ATRAPOS_RETURN_NOT_OK(t->Read(k2, &row));
    row.SetInt(1, row.GetInt(1) + 1);
    return t->Update(k2, row);
  });
  return g;
}

TEST(EngineObsTest, StatsSnapshotExposesTheWiredFields) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  uint64_t rows = 64;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  PartitionedExecutor::Options o;
  o.durability = DurabilityMode::kGroup;
  {
    PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2), o);
    for (uint64_t k = 0; k < rows; ++k)
      ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
    exec.Drain();
    obs::StatsSnapshot s = db.StatsSnapshot();
    EXPECT_EQ(s.counter(CounterId::kTxnSubmitted), rows);
    EXPECT_EQ(s.counter(CounterId::kTxnCommitted), rows);
    EXPECT_EQ(s.counter(CounterId::kTxnAborted), 0u);
    // Commit latency is sampled 1-in-4 per completing thread (counters
    // above stay exact), so the hist holds between rows/4 rounded down
    // per thread and all of them.
    EXPECT_GE(s.hist(HistId::kCommitLatencyUs).count(), rows / 8);
    EXPECT_LE(s.hist(HistId::kCommitLatencyUs).count(), rows);
    EXPECT_GT(s.counter(CounterId::kBatchesDrained), 0u);
    EXPECT_EQ(s.counter(CounterId::kCommitMarkersAppended), rows);
    EXPECT_EQ(s.counter(CounterId::kDurableAcks), rows);
    EXPECT_GT(s.hist(HistId::kSubmitPublishUs).count(), 0u);
    // Executor source: one depth per partition, all drained to zero.
    ASSERT_EQ(s.queue_depths.size(), 2u);
    EXPECT_EQ(s.queue_depths[0] + s.queue_depths[1], 0u);
    EXPECT_EQ(s.executed_actions, rows);
    // Log source: records and bytes flowed, durable point advanced.
    EXPECT_GT(s.log_records, 0u);
    EXPECT_GT(s.log_bytes, 0u);
    EXPECT_GT(s.last_epoch, 0u);
    EXPECT_GT(s.log_bytes_per_commit(), 0.0);
    // Memory wire-in (single socket: no remote traffic).
    EXPECT_GE(s.remote_traffic_ratio, 0.0);
    EXPECT_LE(s.remote_traffic_ratio, 1.0);
    // Prometheus serialization carries the wired fields.
    std::string text = s.ToPrometheus();
    EXPECT_NE(text.find("atrapos_queue_depth{partition=\"1\"}"),
              std::string::npos);
    EXPECT_NE(text.find("atrapos_log_bytes"), std::string::npos);
  }
}

TEST(EngineObsTest, SteadyStateInterleavedDrainAllocatesNothing) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  const uint64_t rows = 2048;
  db.AddTable(MicroTable(rows, {0}));
  PartitionedExecutor::Options o;
  o.interleave_depth = 4;
  o.hw_counters = false;
  PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 1), o);
  // Single-stage no-op graphs: the worker's whole path is drain, K=4
  // warm pipelines (pooled coroutine frames), body and completion — no
  // RVP fan-out, no log.
  auto wave = [&](uint64_t base) {
    std::vector<ActionGraph> graphs;
    for (uint64_t i = 0; i < 64; ++i) {
      ActionGraph g;
      g.Add(0, (base + i * 31) % rows,
            [](storage::Table*, ActionCtx&) { return Status::OK(); });
      graphs.push_back(std::move(g));
    }
    auto fs = exec.SubmitBatch(graphs);
    ASSERT_TRUE(fs.ok());
    for (auto& f : fs.value()) ASSERT_TRUE(f.Wait().ok());
  };
  // Warm up: registry shards, frame and chunk pools, the slot ring.
  for (uint64_t w = 0; w < 20; ++w) wave(w);
  const uint64_t hops = db.StatsSnapshot().counter(
      CounterId::kInterleaveSuspensions);
  // Measured: this (client) thread's allocations are left out; any other
  // allocation in the window is the engine's.
  t_uncounted = true;
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (uint64_t w = 20; w < 60; ++w) wave(w);
  const uint64_t after = g_allocs.load(std::memory_order_relaxed);
  t_uncounted = false;
  EXPECT_EQ(after, before) << "steady-state K=4 drain allocated";
  EXPECT_GT(db.StatsSnapshot().counter(CounterId::kInterleaveSuspensions),
            hops)
      << "the measured waves did not take the interleaved path";
}

TEST(EngineObsTest, CommitLatencyQuantilesAreOrdered) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  uint64_t rows = 256;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2));
  for (uint64_t k = 0; k < rows; ++k)
    ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
  // Held in a local: `h` refers into the snapshot's histogram array.
  const StatsSnapshot snap = db.StatsSnapshot();
  const Histogram& h =
      snap.hists[static_cast<size_t>(HistId::kCommitLatencyUs)];
  EXPECT_GE(h.count(), rows / 8);  // sampled 1-in-4 per completing thread
  EXPECT_LE(h.count(), rows);
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.95));
  EXPECT_LE(h.Quantile(0.95), h.Quantile(0.99));
  EXPECT_LE(h.min(), h.max());
}

TEST(EngineObsTest, TraceSpansNestAndOrderPerTransaction) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database::Options dopt;
  dopt.topo = topo;
  dopt.obs.trace = true;
  Database db(dopt);
  uint64_t rows = 32;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  PartitionedExecutor::Options o;
  o.durability = DurabilityMode::kGroup;
  PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2), o);
  for (uint64_t k = 0; k + 1 < rows; k += 2)
    ASSERT_TRUE(exec.SubmitAndWait(TwoStageWrite(0, k, k + 1)).ok());
  exec.Drain();

  std::vector<TraceEvent> events = db.observability().CollectTrace();
  ASSERT_FALSE(events.empty());
  uint64_t txns_seen = 0;
  for (uint64_t txn = 1; txn <= rows / 2; ++txn) {
    uint64_t begin_ts = 0, end_ts = 0;
    bool has_begin = false, has_end = false;
    std::vector<uint64_t> action_ts, rvp_args;
    uint64_t markers = 0, acks = 0;
    for (const TraceEvent& e : events) {
      if (e.txn != txn) continue;
      switch (e.span) {
        case SpanId::kTxn:
          if (e.phase == TracePhase::kBegin) {
            has_begin = true;
            begin_ts = e.ts_ns;
          } else if (e.phase == TracePhase::kEnd) {
            has_end = true;
            end_ts = e.ts_ns;
          }
          break;
        case SpanId::kAction:
          action_ts.push_back(e.ts_ns);
          break;
        case SpanId::kRvpResolve:
          rvp_args.push_back(e.arg);
          break;
        case SpanId::kCommitMarker:
          ++markers;
          break;
        case SpanId::kDurableAck:
          ++acks;
          break;
        default:
          break;
      }
    }
    if (!has_begin) continue;  // ring wrap may have evicted old txns
    ++txns_seen;
    ASSERT_TRUE(has_end) << "txn " << txn;
    EXPECT_LE(begin_ts, end_ts);
    // Both stages ran, their action spans inside the txn span.
    EXPECT_EQ(action_ts.size(), 2u);
    for (uint64_t ts : action_ts) {
      EXPECT_GE(ts, begin_ts);
      EXPECT_LE(ts, end_ts);
    }
    // One RVP-resolve per stage, in stage order.
    ASSERT_EQ(rvp_args.size(), 2u);
    EXPECT_EQ(rvp_args[0], 0u);
    EXPECT_EQ(rvp_args[1], 1u);
    // Exactly one partition wrote → one marker, one durable ack, both
    // strictly before the transaction's end event.
    EXPECT_EQ(markers, 1u);
    EXPECT_EQ(acks, 1u);
  }
  EXPECT_GT(txns_seen, 0u);
}

TEST(EngineObsTest, DumpTraceWritesChromeLoadableJson) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database::Options dopt;
  dopt.topo = topo;
  dopt.obs.trace = true;
  Database db(dopt);
  uint64_t rows = 16;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  {
    PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2));
    for (uint64_t k = 0; k < rows; ++k)
      ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
  }
  std::string path = testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(db.DumpTrace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  std::string json = buf.str();
  while (!json.empty() && (json.back() == '\n' || json.back() == ' '))
    json.pop_back();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);  // txn begin
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);  // txn end
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // action/drain
  EXPECT_NE(json.find("\"cat\":\"txn\""), std::string::npos);
}

TEST(EngineObsTest, TracingOffByDefaultAndCheapToToggle) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  uint64_t rows = 16;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2));
  ASSERT_FALSE(db.observability().trace_enabled());
  ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, 1, 1)).ok());
  EXPECT_TRUE(db.observability().CollectTrace().empty());
  db.observability().SetTraceEnabled(true);
  ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, 2, 1)).ok());
  exec.Drain();
  EXPECT_FALSE(db.observability().CollectTrace().empty());
}

TEST(EngineObsTest, SnapshotsRaceTheRunningEngineSafely) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  uint64_t rows = 128;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2));
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::StatsSnapshot s = db.StatsSnapshot();
      EXPECT_GE(s.counter(CounterId::kTxnCommitted), last);
      last = s.counter(CounterId::kTxnCommitted);
      EXPECT_EQ(s.queue_depths.size(), 2u);
    }
  });
  for (int round = 0; round < 20; ++round) {
    std::vector<ActionGraph> graphs;
    for (uint64_t k = 0; k < rows; k += 4)
      graphs.push_back(AddDelta(0, k, 1));
    auto futures = exec.SubmitBatch(graphs);
    ASSERT_TRUE(futures.ok());
    for (auto& f : futures.value()) EXPECT_TRUE(f.Wait().ok());
  }
  stop = true;
  snapshotter.join();
  obs::StatsSnapshot s = db.StatsSnapshot();
  EXPECT_EQ(s.counter(CounterId::kTxnCommitted), 20u * (rows / 4));
}

// ---- metric-name grammar and exposition conformance -------------------------

bool MetricNameInGrammar(const std::string& n) {
  if (n.empty()) return false;
  for (size_t i = 0; i < n.size(); ++i) {
    char c = n[i];
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
              c == ':' || (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

TEST(RegistryTest, SanitizeMetricNameEnforcesTheGrammar) {
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("atrapos_ok:name_9"), "atrapos_ok:name_9");
  EXPECT_EQ(SanitizeMetricName("9lives"), "_lives");
  EXPECT_EQ(SanitizeMetricName("has space-dash.dot"), "has_space_dash_dot");
  EXPECT_TRUE(MetricNameInGrammar(SanitizeMetricName("日本語")));
}

TEST(RegistryTest, PrometheusExpositionIsGrammaticalAndDocumented) {
  // A snapshot with every optional section populated: trace drops, source
  // fields, fault sites (with an illegal-name site), hardware islands.
  Registry::Options opt;
  opt.trace = true;
  opt.trace_capacity = 8;
  Registry reg(opt);
  reg.Count(CounterId::kTxnCommitted, 7);
  reg.RecordLatency(HistId::kCommitLatencyUs, 42);
  reg.SetGauge(GaugeId::kQueueDepthTotal, 3);
  for (uint64_t i = 0; i < 32; ++i)
    reg.Trace(SpanId::kTxn, TracePhase::kInstant, i);
  StatsSnapshot s = reg.Snapshot();
  s.queue_depths = {0, 2};
  s.executed_actions = 9;
  s.log_records = 4;
  s.log_bytes = 128;
  s.durable_epoch = 2;
  s.last_epoch = 3;
  s.net_island_accepts = {1, 0};
  s.remote_traffic_ratio = 0.25;
  s.fault_site_fires = {{"log flush fault!", 3}};
  s.hw_available = true;
  HwCounterValues hv;
  for (size_t c = 0; c < kNumHwCounters; ++c) {
    hv.v[c] = 100 + c;
    hv.valid[c] = true;
  }
  s.hw_islands = {hv};

  std::string text = s.ToPrometheus();
  std::istringstream in(text);
  std::string line;
  std::set<std::string> helped, typed;
  size_t sample_lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      std::string rest = line.substr(7);
      std::string name = rest.substr(0, rest.find(' '));
      EXPECT_TRUE(MetricNameInGrammar(name)) << line;
      (line[2] == 'H' ? helped : typed).insert(name);
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    std::string name = line.substr(0, line.find_first_of("{ "));
    EXPECT_TRUE(MetricNameInGrammar(name)) << line;
    // Every sample line's metric was announced before it appeared. A
    // summary's _sum/_count samples ride under the base metric's header
    // (the exposition-format convention).
    for (const char* sfx : {"_sum", "_count"}) {
      size_t n = name.size(), m = std::strlen(sfx);
      if (n > m && name.compare(n - m, m, sfx) == 0 &&
          helped.count(name.substr(0, n - m)))
        name = name.substr(0, n - m);
    }
    EXPECT_TRUE(helped.count(name)) << "no # HELP before: " << line;
    EXPECT_TRUE(typed.count(name)) << "no # TYPE before: " << line;
    ++sample_lines;
  }
  EXPECT_GT(sample_lines, 20u);
  // The populated optional sections actually emitted.
  EXPECT_NE(text.find("atrapos_fault_injected_total{site="), std::string::npos);
  EXPECT_NE(text.find("atrapos_hw_cycles{island=\"0\"}"), std::string::npos);
  EXPECT_NE(text.find("atrapos_hw_remote_dram_ratio{island=\"0\"}"),
            std::string::npos);
}

TEST(RegistryTest, TraceDroppedTotalIsExposedPerShard) {
  Registry::Options opt;
  opt.trace = true;
  opt.trace_capacity = 8;
  Registry reg(opt);
  for (uint64_t i = 0; i < 100; ++i)
    reg.Trace(SpanId::kTxn, TracePhase::kInstant, i);
  StatsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.trace_events_recorded, 100u);
  EXPECT_EQ(s.trace_events_dropped, 100u - 8u);  // keep-newest past capacity
  ASSERT_FALSE(s.trace_dropped_per_shard.empty());
  uint64_t sum = 0;
  for (uint64_t d : s.trace_dropped_per_shard) sum += d;
  EXPECT_EQ(sum, s.trace_events_dropped);
  std::string text = s.ToPrometheus();
  EXPECT_NE(text.find("atrapos_trace_dropped_total 92"), std::string::npos);
  EXPECT_NE(text.find("atrapos_trace_dropped_total{shard=\"0\"}"),
            std::string::npos);
}

// ---- sampler ----------------------------------------------------------------

StatsSnapshot SyntheticSnapshot(uint64_t committed) {
  StatsSnapshot s;
  s.counters[static_cast<size_t>(CounterId::kTxnCommitted)] = committed;
  return s;
}

TEST(SamplerTest, NextTickIndexNeverDriftsAndSkipsMissedDeadlines) {
  const uint64_t kI = 100;  // interval_ns
  // Before or at the epoch the first tick is pending.
  EXPECT_EQ(Sampler::NextTickIndex(1000, 0, kI), 1u);
  EXPECT_EQ(Sampler::NextTickIndex(1000, 1000, kI), 1u);
  // Mid-interval stays on the upcoming deadline.
  EXPECT_EQ(Sampler::NextTickIndex(1000, 1001, kI), 1u);
  EXPECT_EQ(Sampler::NextTickIndex(1000, 1099, kI), 1u);
  // Finishing exactly on deadline k advances to k+1 (strictly after).
  EXPECT_EQ(Sampler::NextTickIndex(1000, 1100, kI), 2u);
  EXPECT_EQ(Sampler::NextTickIndex(1000, 1300, kI), 4u);
  // A stall skips the missed deadlines instead of bunching them: waking
  // anywhere inside interval k resumes at k+1, regardless of how many
  // deadlines passed.
  EXPECT_EQ(Sampler::NextTickIndex(1000, 1000 + 5 * kI + 37, kI), 6u);
  EXPECT_EQ(Sampler::NextTickIndex(0, 1'000'000, kI), 10'001u);
  // Zero interval is clamped, not a division fault.
  EXPECT_EQ(Sampler::NextTickIndex(0, 5, 0), 6u);
}

TEST(SamplerTest, ManualTicksAreDeterministicAndRingKeepsNewest) {
  Sampler::Options o;
  o.interval_ms = 10;
  o.capacity = 4;
  o.start_thread = false;
  uint64_t committed = 0;
  Sampler s([&] { return SyntheticSnapshot(committed); }, o);
  for (int i = 0; i < 10; ++i) {
    committed += 5;
    s.Tick();
  }
  EXPECT_EQ(s.samples(), 10u);
  EXPECT_EQ(s.ticks_missed(), 0u);
  Sampler::Collected c = s.Collect();
  EXPECT_EQ(c.interval_ms, 10u);
  EXPECT_EQ(c.samples, 10u);
  // Ring capacity 4 < 10 ticks: the newest 4 survive, stamped at the
  // deterministic manual-mode times k * interval_ms.
  ASSERT_EQ(c.t_ms.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(c.t_ms[i], (6 + i) * 10);
  ASSERT_FALSE(c.series.empty());
  const Sampler::Series* tc = nullptr;
  for (const Sampler::Series& ser : c.series) {
    EXPECT_EQ(ser.v.size(), c.t_ms.size()) << ser.name;  // all rings aligned
    if (ser.name == "txn_committed") tc = &ser;
  }
  ASSERT_NE(tc, nullptr);
  // Cumulative series: values at ticks 6..9 were 35,40,45,50.
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(tc->v[i], (7.0 + i) * 5.0);
}

TEST(SamplerTest, AddSeriesAfterTicksIsZeroBackfilledAndAligned) {
  Sampler::Options o;
  o.interval_ms = 5;
  o.capacity = 8;
  o.start_thread = false;
  Sampler s([] { return StatsSnapshot(); }, o);
  s.Tick();
  s.Tick();
  s.Tick();
  double x = 0.0;
  s.AddSeries("client_ok", [&x] { return ++x; });
  s.Tick();
  s.Tick();
  Sampler::Collected c = s.Collect();
  ASSERT_EQ(c.t_ms.size(), 5u);
  const Sampler::Series* cx = nullptr;
  for (const Sampler::Series& ser : c.series) {
    EXPECT_EQ(ser.v.size(), 5u) << ser.name;
    if (ser.name == "client_ok") cx = &ser;
  }
  ASSERT_NE(cx, nullptr);
  // Pre-registration ticks read as zero; live ticks follow.
  EXPECT_EQ(cx->v[0], 0.0);
  EXPECT_EQ(cx->v[1], 0.0);
  EXPECT_EQ(cx->v[2], 0.0);
  EXPECT_EQ(cx->v[3], 1.0);
  EXPECT_EQ(cx->v[4], 2.0);
}

TEST(SamplerTest, AnnotationsAreBoundedOldestWin) {
  Sampler::Options o;
  o.start_thread = false;
  Sampler s([] { return StatsSnapshot(); }, o);
  for (size_t i = 0; i < 3 * Sampler::kMaxAnnotations; ++i)
    s.Annotate("a" + std::to_string(i));
  Sampler::Collected c = s.Collect();
  ASSERT_EQ(c.annotations.size(), Sampler::kMaxAnnotations);
  EXPECT_EQ(c.annotations.front().second, "a0");
  EXPECT_EQ(c.annotations.back().second,
            "a" + std::to_string(Sampler::kMaxAnnotations - 1));
}

TEST(SamplerTest, JsonAndCsvCarryEverySeriesAligned) {
  Sampler::Options o;
  o.interval_ms = 20;
  o.capacity = 16;
  o.start_thread = false;
  uint64_t committed = 0;
  Sampler s([&] { return SyntheticSnapshot(committed); }, o);
  s.AddSeries("client_ok", [] { return 1.0; });
  for (int i = 0; i < 3; ++i) {
    committed += 2;
    s.Tick();
  }
  s.Annotate("island_kill");

  std::string j = s.ToJson();
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"interval_ms\":20"), std::string::npos);
  EXPECT_NE(j.find("\"samples\":3"), std::string::npos);
  EXPECT_NE(j.find("\"ticks_missed\":0"), std::string::npos);
  EXPECT_NE(j.find("\"t_ms\":[0,20,40]"), std::string::npos);
  EXPECT_NE(j.find("\"txn_committed\":[2,4,6]"), std::string::npos);
  EXPECT_NE(j.find("\"client_ok\":[1,1,1]"), std::string::npos);
  EXPECT_NE(j.find("\"label\":\"island_kill\""), std::string::npos);

  std::string csv = s.ToCsv();
  ASSERT_EQ(csv.rfind("t_ms,", 0), 0u);
  EXPECT_NE(csv.find(",txn_committed"), std::string::npos);
  EXPECT_NE(csv.find(",client_ok"), std::string::npos);
  size_t lines = 0;
  for (char ch : csv)
    if (ch == '\n') ++lines;
  EXPECT_EQ(lines, 1u + 3u);  // header + one row per retained tick
}

TEST(SamplerTest, BackgroundThreadTicksOnTheAbsoluteSchedule) {
  Sampler::Options o;
  o.interval_ms = 1;
  o.capacity = 4096;
  Sampler s([] { return StatsSnapshot(); }, o);
  s.Start();
  // Bounded wait: 1 ms ticks should accumulate fast; 5 s is the flake guard.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.samples() < 5 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  s.Stop();
  EXPECT_GE(s.samples(), 5u);
  Sampler::Collected c = s.Collect();
  ASSERT_EQ(c.t_ms.size(), c.samples <= 4096u ? c.samples : 4096u);
  // Absolute-deadline stamps: strictly increasing, never bunched.
  for (size_t i = 1; i < c.t_ms.size(); ++i)
    EXPECT_GT(c.t_ms[i], c.t_ms[i - 1]) << i;
}

TEST(SamplerTest, BackgroundThreadConsumesEveryDeadlineWithoutMisses) {
  // Regression: an off-by-one in Run()'s wake accounting made the thread
  // treat every on-time wake as having missed deadline k+1, so it ticked
  // at 2x the configured interval with ticks_missed ~= samples. A healthy
  // scrape (trivial snapshot fn, generous 50 ms interval) must consume
  // every deadline: no misses, one sample per elapsed interval.
  Sampler::Options o;
  o.interval_ms = 50;
  o.capacity = 4096;
  Sampler s([] { return StatsSnapshot(); }, o);
  auto t0 = std::chrono::steady_clock::now();
  s.Start();
  auto deadline = t0 + std::chrono::seconds(5);  // flake guard
  while (s.samples() < 5 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  s.Stop();
  auto elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  EXPECT_GE(s.samples(), 5u);
  EXPECT_EQ(s.ticks_missed(), 0u);
  // One tick per interval, not one per 2 intervals: samples can never
  // exceed elapsed/interval + 1, and with zero misses it tracks it.
  EXPECT_LE(s.samples(), elapsed_ms / o.interval_ms + 1);
}

TEST(SamplerTest, HwColumnsStayAlignedAsValidSetGrows) {
  // Workers open their perf groups asynchronously (and Repartition /
  // KillIsland change which islands have open groups), so the valid set
  // seen by later ticks can differ from the first hw_available snapshot.
  // The column set is fixed at first sighting — all islands x counters —
  // and a pair that turns valid later must fill its own column, never
  // shift values into a neighbor's.
  constexpr size_t kCyc = static_cast<size_t>(HwCounterId::kCycles);
  constexpr size_t kRem = static_cast<size_t>(HwCounterId::kNodeRemote);
  Sampler::Options o;
  o.interval_ms = 10;
  o.capacity = 8;
  o.start_thread = false;
  StatsSnapshot snap;
  Sampler s([&] { return snap; }, o);
  // First hw sighting: only island 0's cycles leader is open.
  snap.hw_available = true;
  snap.hw_islands.assign(2, HwCounterValues{});
  snap.hw_islands[0].v[kCyc] = 10;
  snap.hw_islands[0].valid[kCyc] = true;
  s.Tick();
  // Second tick: island 0 grew a remote-DRAM sibling, island 1 opened.
  snap.hw_islands[0].v[kCyc] = 20;
  snap.hw_islands[0].v[kRem] = 3;
  snap.hw_islands[0].valid[kRem] = true;
  snap.hw_islands[1].v[kCyc] = 7;
  snap.hw_islands[1].valid[kCyc] = true;
  s.Tick();
  Sampler::Collected c = s.Collect();
  ASSERT_EQ(c.t_ms.size(), 2u);
  auto find = [&](const std::string& name) -> const Sampler::Series* {
    for (const Sampler::Series& ser : c.series)
      if (ser.name == name) return &ser;
    return nullptr;
  };
  for (const Sampler::Series& ser : c.series)
    EXPECT_EQ(ser.v.size(), 2u) << ser.name;  // all rings stay aligned
  const Sampler::Series* cyc0 = find("hw_cycles_island0");
  const Sampler::Series* rem0 = find("hw_node_remote_dram_island0");
  const Sampler::Series* cyc1 = find("hw_cycles_island1");
  ASSERT_NE(cyc0, nullptr);
  ASSERT_NE(rem0, nullptr);
  ASSERT_NE(cyc1, nullptr);
  EXPECT_EQ(cyc0->v[0], 10.0);
  EXPECT_EQ(cyc0->v[1], 20.0);
  // Invalid-at-the-time pairs read zero, then pick up their own column.
  EXPECT_EQ(rem0->v[0], 0.0);
  EXPECT_EQ(rem0->v[1], 3.0);
  EXPECT_EQ(cyc1->v[0], 0.0);
  EXPECT_EQ(cyc1->v[1], 7.0);
}

TEST(EngineObsTest, DatabaseSamplerScrapesTheEngineAndDumps) {
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database::Options dopt;
  dopt.topo = topo;
  dopt.sampler.enabled = true;
  dopt.sampler.interval_ms = 10;
  dopt.sampler.start_thread = false;  // deterministic: we drive the ticks
  Database db(dopt);
  ASSERT_NE(db.sampler(), nullptr);
  uint64_t rows = 64;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  {
    PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2));
    db.sampler()->Tick();  // before any txn: committed reads 0
    for (uint64_t k = 0; k < rows; ++k)
      ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
    exec.Drain();
    db.sampler()->Tick();
  }
  Sampler::Collected c = db.sampler()->Collect();
  ASSERT_EQ(c.t_ms.size(), 2u);
  const Sampler::Series* tc = nullptr;
  for (const Sampler::Series& ser : c.series)
    if (ser.name == "txn_committed") tc = &ser;
  ASSERT_NE(tc, nullptr);
  EXPECT_EQ(tc->v[0], 0.0);
  EXPECT_EQ(tc->v[1], static_cast<double>(rows));

  std::string jpath = testing::TempDir() + "obs_series_test.json";
  std::string cpath = testing::TempDir() + "obs_series_test.csv";
  ASSERT_TRUE(db.DumpTimeSeries(jpath));
  ASSERT_TRUE(db.DumpTimeSeries(cpath));
  std::ifstream jin(jpath);
  std::stringstream jbuf;
  jbuf << jin.rdbuf();
  EXPECT_NE(jbuf.str().find("\"series\""), std::string::npos);
  EXPECT_NE(jbuf.str().find("\"txn_committed\""), std::string::npos);
  std::ifstream cin(cpath);
  std::string header;
  ASSERT_TRUE(std::getline(cin, header));
  EXPECT_EQ(header.rfind("t_ms,", 0), 0u);
}

// ---- hardware counters ------------------------------------------------------

/// Pins the capability probe to "unavailable" for a scope; restores the
/// real probe even when an assertion fails out of the test body.
struct ForcedPerfUnavailable {
  ForcedPerfUnavailable() { PerfCounters::ForceUnavailableForTest(true); }
  ~ForcedPerfUnavailable() { PerfCounters::ForceUnavailableForTest(false); }
};

TEST(PerfCountersTest, HwCounterValuesAccumulateRespectingValidity) {
  HwCounterValues a, b;
  b.v[static_cast<size_t>(HwCounterId::kCycles)] = 10;
  b.valid[static_cast<size_t>(HwCounterId::kCycles)] = true;
  b.v[static_cast<size_t>(HwCounterId::kNodeRemote)] = 3;
  b.valid[static_cast<size_t>(HwCounterId::kNodeRemote)] = true;
  a.Accumulate(b);
  a.Accumulate(b);
  EXPECT_TRUE(a.has(HwCounterId::kCycles));
  EXPECT_EQ(a[HwCounterId::kCycles], 20u);
  EXPECT_TRUE(a.has(HwCounterId::kNodeRemote));
  EXPECT_EQ(a[HwCounterId::kNodeRemote], 6u);
  EXPECT_FALSE(a.has(HwCounterId::kNodeLocal));
  EXPECT_FALSE(a.has(HwCounterId::kLlcMisses));
}

TEST(PerfCountersTest, ForcedUnavailableRefusesToOpen) {
  ForcedPerfUnavailable forced;
  EXPECT_FALSE(PerfCounters::Available());
  PerfCounters pc;
  EXPECT_FALSE(pc.OpenForCurrentThread());
  EXPECT_FALSE(pc.open());
  HwCounterValues v = pc.Read();
  for (size_t c = 0; c < kNumHwCounters; ++c) EXPECT_FALSE(v.valid[c]);
}

TEST(PerfCountersTest, EngineFallsBackCleanlyWithoutPerf) {
  ForcedPerfUnavailable forced;
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database db({.topo = topo});
  uint64_t rows = 32;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  {
    PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2));
    for (uint64_t k = 0; k < rows; ++k)
      ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
    obs::StatsSnapshot s = db.StatsSnapshot();
    // The engine keeps running and every software metric is intact...
    EXPECT_EQ(s.counter(CounterId::kTxnCommitted), rows);
    // ...while the hardware section degrades to absent, not garbage.
    EXPECT_FALSE(s.hw_available);
    EXPECT_TRUE(s.hw_islands.empty());
    EXPECT_EQ(s.hw_remote_dram_ratio(0), -1.0);
    EXPECT_EQ(s.ToPrometheus().find("atrapos_hw_"), std::string::npos);
  }
}

TEST(PerfCountersTest, SamplerAddsNoHwSeriesWithoutPerf) {
  ForcedPerfUnavailable forced;
  hw::Topology topo = hw::Topology::SingleSocket(2);
  Database::Options dopt;
  dopt.topo = topo;
  dopt.sampler.enabled = true;
  dopt.sampler.start_thread = false;
  Database db(dopt);
  uint64_t rows = 16;
  db.AddTable(MicroTable(rows, {0, rows / 2}));
  {
    PartitionedExecutor exec(&db, topo, OneTableScheme(rows, 2));
    for (uint64_t k = 0; k < rows; ++k)
      ASSERT_TRUE(exec.SubmitAndWait(AddDelta(0, k, 1)).ok());
    db.sampler()->Tick();
  }
  for (const Sampler::Series& ser : db.sampler()->Collect().series)
    EXPECT_EQ(ser.name.rfind("hw_", 0), std::string::npos) << ser.name;
}

}  // namespace
}  // namespace atrapos::obs
