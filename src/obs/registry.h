// obs::Registry — the unified observability substrate (ATraPos Table 2:
// monitoring is budgeted into every transaction and must stay ≪2%, so the
// hot path is one release-ordered fetch_add into a per-worker shard).
//
// Layout: the registry owns up to Options::max_shards metric shards; every
// thread that records is assigned its own shard on first use (workers,
// client submitters, and the group-commit flusher each get one;
// round-robin reuse past the cap). Writers touch only their shard —
// no cross-socket cache-line traffic on the record path, exactly the
// per-partition monitoring discipline of core::PartitionMonitor — and
// Snapshot() merges all shards with acquire loads, pairing with the
// writers' release adds so a snapshot observes everything that
// happened-before it. Counts are monotonically non-decreasing across
// snapshots.
//
// Three metric kinds:
//  - counters: shard-local fetch_add, summed at snapshot time
//  - gauges:   registry-global last-write cells (set on slow paths only:
//              flush passes, snapshot sources)
//  - latency histograms: obs::AtomicHistogram per shard, merged at
//              snapshot time (log-bucketed; quantiles on the merged view)
//
// Engine subsystems that own their own counters (PartitionedExecutor's
// executed-action count, log::LogManager's byte totals, mem::AllocStats'
// traffic matrix) are folded in at snapshot time through registered
// sources instead of double-counting on the hot path.
//
// Tracing (see trace.h) rides on the same shards: each shard owns a
// fixed-size TraceRing, toggled by SetTraceEnabled with one relaxed load
// when off.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"

namespace atrapos::obs {

enum class CounterId : uint16_t {
  kTxnSubmitted = 0,      ///< graphs accepted by Submit/SubmitBatch
  kTxnCommitted,          ///< futures completed OK
  kTxnAborted,            ///< futures completed with an error status
  kBatchesDrained,        ///< worker inbox drains (kDrainBatchSize sums tasks)
  kCommitMarkersAppended, ///< per-partition commit markers staged by workers
  kDurableAcks,           ///< commit acks delivered (group or async)
  kLogFlushes,            ///< group-commit passes over the shards
  kRepartitions,          ///< schemes applied by the adaptive manager
  // ---- wire tier (src/server/) -------------------------------------------
  kNetAccepts,            ///< connections accepted across all listeners
  kNetFramesIn,           ///< request frames decoded off sockets
  kNetFramesOut,          ///< response frames queued for write
  kNetBytesIn,            ///< request bytes read off sockets
  kNetBytesOut,           ///< response bytes written to sockets
  kNetTxnsShed,           ///< requests shed by admission control (OVERLOADED)
  kNetProtocolErrors,     ///< malformed/oversized frames, unknown opcodes
  // ---- fault tolerance (src/fault/, executor quarantine) ------------------
  kFaultIslandKills,      ///< islands fail-stopped (injected or KillIsland)
  kFaultPartitionsEvacuated, ///< partitions re-homed off a failed island
  kFaultTxnsUnavailable,  ///< actions failed kUnavailable by a quarantined worker
  // ---- interleaved execution (storage/interleave.h) -----------------------
  kInterleaveSuspensions, ///< warm-pipeline suspend/resume hops (flushed per batch)
  // ---- worker park/wake (one worker thread per placement core) -----------
  kWorkerParks,           ///< park episodes: a worker blocked after an empty pass
  kWorkerWakes,           ///< claimed wakes: producers that notified a parked worker
  kCount
};
const char* CounterName(CounterId c);

enum class GaugeId : uint16_t {
  kQueueDepthTotal = 0,  ///< tasks published, not yet drained (all inboxes)
  kDurableLagEpochs,     ///< last commit epoch minus durable epoch watermark
  kNetOpenConnections,   ///< wire-tier connections currently open
  kNetInflightTxns,      ///< wire-tier requests submitted, response not queued
  kInterleaveDepth,      ///< configured in-flight actions per worker (1 = serial)
  kCount
};
const char* GaugeName(GaugeId g);

// Convention for the drain-shape histograms: kDrainBatchSize and
// kActionAvgUs are both recorded on the *action* basis — commit-marker
// tasks (durability fan-out, ActionTask::act == nullptr) are excluded
// from the size exactly as they are excluded from the per-action divisor,
// so marker-heavy group-commit batches cannot skew size against average.
// Marker traffic is visible separately via kCommitMarkersAppended.
enum class HistId : uint16_t {
  kCommitLatencyUs = 0,  ///< submit → completion ack, per transaction
  kDrainBatchUs,         ///< one drained inbox batch, per batch
  kDrainBatchSize,       ///< actions per drained batch (markers excluded)
  kActionAvgUs,          ///< batch-average per-action cost, per batch
  kSubmitPublishUs,      ///< stage-0 bucket + publish wave, per wave
  kLogFlushUs,           ///< one group-commit pass over all active shards
  kWireLatencyUs,        ///< wire txn: decode/submit → response queued
  kEvacuationUs,         ///< KillIsland: quarantine → repartitioned onto survivors
  kCount
};
const char* HistName(HistId h);

/// Rewrites `name` to satisfy the Prometheus metric-name grammar
/// [a-zA-Z_:][a-zA-Z0-9_:]*, replacing every offending character with
/// '_' ("" becomes "_"). ToPrometheus routes every emitted name through
/// this, so the exposition can never go out of grammar even if a future
/// metric name slips in something illegal.
std::string SanitizeMetricName(const std::string& name);

inline constexpr size_t kNumCounters = static_cast<size_t>(CounterId::kCount);
inline constexpr size_t kNumGauges = static_cast<size_t>(GaugeId::kCount);
inline constexpr size_t kNumHists = static_cast<size_t>(HistId::kCount);

/// The merged, point-in-time view Database::StatsSnapshot() returns.
/// Counters/hists are merged from the shards; the engine-wired fields
/// below them are filled by registered sources (executor, log) and by
/// Database itself (memory traffic).
struct StatsSnapshot {
  uint64_t seq = 0;        ///< monotonically increasing snapshot number
  uint64_t uptime_ns = 0;  ///< since registry creation

  std::array<uint64_t, kNumCounters> counters{};
  std::array<int64_t, kNumGauges> gauges{};
  std::array<Histogram, kNumHists> hists;

  // ---- executor (source) --------------------------------------------------
  std::vector<uint64_t> queue_depths;  ///< per partition seq
  uint64_t executed_actions = 0;

  // ---- log (source) -------------------------------------------------------
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  uint64_t durable_epoch = 0;
  uint64_t last_epoch = 0;
  uint64_t durable_lag_epochs = 0;

  // ---- wire tier (source, when a server::Server is running) --------------
  std::vector<uint64_t> net_island_accepts;  ///< accepted conns per island

  // ---- memory (Database) --------------------------------------------------
  double remote_traffic_ratio = 0.0;  ///< AccessRemoteRatio (QPI/IMC analogue)
  double alloc_remote_ratio = 0.0;
  uint64_t migrated_bytes = 0;

  // ---- fault injection (process-global fault::Injector, when armed) -------
  /// (site name, fires) per armed injection site with at least one
  /// evaluation; emitted as atrapos_fault_injected_total{site="..."}.
  std::vector<std::pair<std::string, uint64_t>> fault_site_fires;

  // ---- hardware counters (executor source; perf_event_open groups) --------
  /// True when perf was available and at least one worker opened its
  /// group. False is the clean fallback (containers, paranoid kernels,
  /// CI) — hw_islands stays empty and no atrapos_hw_* line is emitted.
  bool hw_available = false;
  /// Per-island totals (live workers + totals retired across
  /// Repartition/KillIsland, so values are monotone), indexed by island.
  std::vector<HwCounterValues> hw_islands;
  /// Remote fraction of measured DRAM accesses on one island: the
  /// hardware ground truth for remote_traffic_ratio. -1 when the NODE
  /// events were unavailable or nothing was measured.
  double hw_remote_dram_ratio(size_t island) const {
    if (island >= hw_islands.size()) return -1.0;
    const HwCounterValues& hv = hw_islands[island];
    if (!hv.has(HwCounterId::kNodeLocal) || !hv.has(HwCounterId::kNodeRemote))
      return -1.0;
    uint64_t total =
        hv[HwCounterId::kNodeLocal] + hv[HwCounterId::kNodeRemote];
    if (total == 0) return -1.0;
    return static_cast<double>(hv[HwCounterId::kNodeRemote]) /
           static_cast<double>(total);
  }

  // ---- tracing ------------------------------------------------------------
  uint64_t trace_events_recorded = 0;
  uint64_t trace_events_dropped = 0;
  /// Ring-overwrite loss per writer shard (keep-newest eviction), so span
  /// loss is attributable instead of silent. Empty until tracing was
  /// enabled at least once.
  std::vector<uint64_t> trace_dropped_per_shard;

  uint64_t counter(CounterId c) const {
    return counters[static_cast<size_t>(c)];
  }
  int64_t gauge(GaugeId g) const { return gauges[static_cast<size_t>(g)]; }
  const Histogram& hist(HistId h) const {
    return hists[static_cast<size_t>(h)];
  }
  /// Mean log bytes per committed transaction (0 when nothing committed).
  double log_bytes_per_commit() const {
    uint64_t c = counter(CounterId::kTxnCommitted);
    return c ? static_cast<double>(log_bytes) / static_cast<double>(c) : 0.0;
  }

  /// Prometheus text exposition (counters, gauges, histogram quantiles,
  /// per-partition queue depths, the memory/log wire-ins).
  std::string ToPrometheus() const;
};

class Registry {
 public:
  struct Options {
    /// Metric recording (counters/hists). Off = every Record is one
    /// relaxed load + branch, for the overhead A/B in
    /// bench/table2_monitoring_overhead.
    bool metrics = true;
    /// Transaction lifecycle tracing (off by default; also toggleable at
    /// runtime with SetTraceEnabled).
    bool trace = false;
    /// Events per shard ring (rounded up to a power of two). Rings are
    /// only allocated once tracing is first enabled.
    uint32_t trace_capacity = 1u << 13;
    /// Distinct writer shards before round-robin reuse.
    size_t max_shards = 64;
  };

  /// One writer's slice: counters + histograms + its trace ring. Stable
  /// address for the registry's lifetime.
  struct Shard {
    std::array<std::atomic<uint64_t>, kNumCounters> counters{};
    std::array<AtomicHistogram, kNumHists> hists;
    std::atomic<TraceRing*> ring{nullptr};
  };

  Registry() : Registry(Options{}) {}
  explicit Registry(Options opt);
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  bool metrics_enabled() const {
    return metrics_on_.load(std::memory_order_relaxed);
  }
  bool trace_enabled() const {
    return trace_on_.load(std::memory_order_relaxed);
  }
  /// Enabling allocates the shard rings on first use (existing and future
  /// shards); disabling keeps recorded events for collection.
  void SetTraceEnabled(bool on);

  /// Steady-clock ns since the registry's creation (the trace epoch).
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// The calling thread's shard (assigned round-robin on first use;
  /// cached thread-locally, so the steady-state cost is two thread-local
  /// reads and a compare).
  Shard& Local();

  // ---- hot-path recording -------------------------------------------------

  void Count(CounterId c, uint64_t n = 1) {
    if (!metrics_enabled()) return;
    Local().counters[static_cast<size_t>(c)].fetch_add(
        n, std::memory_order_release);
  }
  void RecordLatency(HistId h, uint64_t v) {
    if (!metrics_enabled()) return;
    Local().hists[static_cast<size_t>(h)].Record(v);
  }
  /// Gauges are registry-global, last-write-wins; callers are slow paths
  /// (flush passes, snapshot sources).
  void SetGauge(GaugeId g, int64_t v) {
    gauges_[static_cast<size_t>(g)].store(v, std::memory_order_release);
  }
  int64_t gauge(GaugeId g) const {
    return gauges_[static_cast<size_t>(g)].load(std::memory_order_acquire);
  }

  /// Trace-event record: one relaxed load when tracing is off.
  void Trace(SpanId span, TracePhase phase, uint64_t txn, uint64_t arg = 0) {
    if (!trace_enabled()) return;
    TraceSlow(span, phase, txn, arg);
  }

  // ---- snapshotting -------------------------------------------------------

  /// Fills engine-owned fields of a snapshot (queue depths, log totals).
  /// Runs on the snapshotting thread; keep it lock-light.
  using Source = std::function<void(StatsSnapshot&)>;
  int AddSource(Source src);
  /// Blocks until no in-flight Snapshot() can still call the removed
  /// source, so the caller may destroy the captured state immediately
  /// afterwards (the executor removes its source in its destructor).
  void RemoveSource(int id);

  /// Merges every shard (acquire-paired with the writers' release adds)
  /// and runs the registered sources. Safe concurrently with writers and
  /// with other snapshotters; counts never decrease between snapshots.
  StatsSnapshot Snapshot();

  /// All trace events currently held in the shard rings, merged (and the
  /// per-ring overflow accounting via recorded/dropped in Snapshot()).
  /// Exact when writers are quiescent; best-effort around a live ring's
  /// wrap point.
  std::vector<TraceEvent> CollectTrace() const;

  /// CollectTrace + chrome://tracing JSON serialization.
  bool DumpChromeTrace(const std::string& path) const;

  size_t num_shards() const;

 private:
  Shard& AssignShard();
  void TraceSlow(SpanId span, TracePhase phase, uint64_t txn, uint64_t arg);

  Options opt_;
  const uint64_t id_;  ///< process-unique, keys the thread-local cache
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> metrics_on_;
  std::atomic<bool> trace_on_;
  std::array<std::atomic<int64_t>, kNumGauges> gauges_{};
  std::atomic<uint64_t> snapshot_seq_{0};

  mutable std::mutex mu_;                        // shards + rings + sources
  std::vector<std::unique_ptr<Shard>> shards_;   // stable pointers
  std::vector<std::unique_ptr<TraceRing>> rings_;
  size_t next_shard_ = 0;
  std::vector<std::pair<int, Source>> sources_;
  int next_source_ = 0;
  /// Snapshots currently running copied sources outside mu_; RemoveSource
  /// waits for this to drain so removal implies no further calls.
  int sources_running_ = 0;  // guarded by mu_
  std::condition_variable sources_cv_;
};

}  // namespace atrapos::obs
