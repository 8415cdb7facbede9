// Real-thread data-oriented (DORA/PLP-style) executor: logical partitions
// own their subtree of the multi-rooted B-trees and are placed on cores;
// one worker thread per distinct placement core drains every partition
// placed there. Transactions are submitted as ActionGraphs — staged DAGs
// of actions separated by rendezvous points — whose actions are routed to
// the owning partitions. Includes the ATraPos monitoring hooks and online
// repartitioning.
//
// This is the functional counterpart of simengine/dora.cc: same core logic
// (scheme, monitors, search, repartition planning), real threads and real
// data. The examples and integration tests run on it.
//
// Submission is asynchronous: Submit enqueues the graph's first stage and
// returns a TxnFuture, so a single client thread can keep many
// transactions in flight (the scale lever the simulator's
// drivers_per_core knob models). Actions enqueued to the same partition
// run in submission order; stages of one graph are separated by RVP
// barriers; the first failing action aborts the graph at its RVP and
// cancels all downstream stages.
//
// The submission path is the fast path (paper Table 2: monitoring and
// coordination must stay ≪2%): every partition owns a lock-free MPSC
// inbox of POD ActionTasks instead of a mutex + condition_variable +
// deque<std::function>. Producers — Submit, SubmitBatch, and RVP fan-out
// alike — group a stage's actions by destination partition and publish
// each group with a single enqueue plus a single coalesced wake (only a
// parked worker is notified, tracked by a per-worker `parked` flag, so a
// wave touching several partitions of one core wakes that core once).
// A worker makes round-robin passes over its partitions' inboxes, drains
// each non-empty inbox's whole batch per visit (so a continuously fed
// partition delays a same-core sibling by at most one batch), takes one
// timestamp per batch, and flushes monitoring and the executed-action
// counter once per batch. Inbox chunks come from a per-partition pool
// (mem::ChunkPool), so steady-state submission allocates nothing.
//
// Parking: a worker parks only after a full pass found every inbox empty,
// and — when it polls (below) — only after re-polling its inboxes for
// kWorkerPollWindow (100 µs, CpuRelax between probes, a yield every 16 so
// an unpinned thread woken on this CPU is not held off) found them still
// empty. While it polls its `parked` flag stays false, so a producer's
// Wake finds nothing to claim and neither side enters the kernel: on the
// in-process commit path the next wave usually lands within
// microseconds. A worker polls only when its BindCurrentThread succeeded
// (it owns a CPU) and the host has more CPUs than the executor has
// workers (PollBeforePark); otherwise it parks at once, as it always did.
// After the window the park protocol is unchanged: set `parked`, re-check
// every inbox and `stop` with seq_cst (the Dekker pair documented in
// mpsc_queue.h), then sleep on the worker's condvar until a producer
// claims the wake.
//
// Durability (Options::durability, src/log/): each partition owns a log
// shard on its island; workers stage each partition batch's after-images
// and append them with one reservation per batch, commit markers fan out
// through the partition inboxes, and TxnFuture completion is deferred
// until the transaction's markers reach the configured durability point
// (asynchronous acks — workers never block in a flush window, and the
// OnComplete-before-Wait ordering guarantee is preserved on the deferred
// path). A TxnFuture settles through one atomic completion word (see
// txn_future.h): completion takes no lock and makes a futex call only
// when a client is actually asleep in Wait(). Repartition() seals the shard generation and places fresh shards
// with the new partitions; log::Recover replays all generations.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/monitor.h"
#include "core/scheme.h"
#include "engine/action_graph.h"
#include "engine/database.h"
#include "engine/mpsc_queue.h"
#include "engine/txn_future.h"
#include "hw/topology.h"
#include "log/log_manager.h"
#include "mem/chunk_pool.h"
#include "obs/registry.h"
#include "util/status.h"

namespace atrapos::engine {

/// What a partition inbox carries: pointers only. The graph (and its
/// std::functions) lives in *st, which TxnState::self keeps alive until
/// the transaction completes — publishing an action allocates nothing and
/// copies no closure. A task with `act == nullptr` is a commit marker:
/// the owning worker appends st's commit record to the partition's shard,
/// which — because that worker serializes the shard's appends — lands
/// after every data record the transaction wrote there (the write-ahead
/// invariant, kept without any cross-shard lock).
struct ActionTask {
  internal::TxnState* st;
  ActionGraph::Action* act;
  storage::Table* table;
};

/// How long a worker whose pass found every inbox empty keeps polling them
/// before it parks. Long enough to span a closed-loop client's round trip
/// (collect acks, build and submit the next wave) on a cache-resident
/// workload; chosen by a window sweep on tatp-commit (see CHANGES.md).
inline constexpr std::chrono::microseconds kWorkerPollWindow{100};

/// Whether a worker polls before parking: only when its thread owns a CPU
/// (`bound` — hw::BindCurrentThread set OS affinity) and the host has a
/// CPU beyond the executor's `workers`, left for the submitters it waits
/// on. Otherwise a polling worker would steal the CPU from the very thread
/// that feeds it, and the worker parks at once as before.
constexpr bool PollBeforePark(bool bound, unsigned host_cpus, size_t workers) {
  return bound && host_cpus > workers;
}

/// How submitted transactions are made durable (see src/log/).
enum class DurabilityMode {
  kOff,    ///< no logging (the seed behavior)
  kAsync,  ///< log + commit markers; ack when the markers are appended
  kGroup,  ///< ack deferred until the markers are durable on every shard
};

class PartitionedExecutor : public Database::Drainable {
 public:
  struct Options {
    DurabilityMode durability = DurabilityMode::kOff;
    /// Tick of the log's idle flusher, which applies only while a flush
    /// is owed to it; with nothing owed the flusher sleeps. Per-partition
    /// group commits never owe it one — the worker that appends a commit
    /// marker leads the flush — so the tick only bounds async-mode
    /// durability lag, retries of short (faulted) flushes and flush
    /// requests a leader left.
    uint64_t log_flush_interval_us = 50;
    /// Log record serialization: kCompactDiffV2 (default) writes varint
    /// headers and diff-encodes updates as (offset, changed-range)
    /// records; kAfterImageV1 keeps the full after-image encoding with
    /// fixed headers — the baseline the log-bytes/txn comparison is
    /// measured against.
    log::WireFormat log_wire = log::WireFormat::kCompactDiffV2;
    /// Tests: no background flusher and no worker-led flushes — drive
    /// group commit with log_manager()->FlushAll() for deterministic
    /// durable points. kGroup commits only ack on an explicit flush then.
    bool log_manual_flush = false;
    /// Hardware-counter profiling (obs::PerfCounters): each worker opens
    /// a perf_event_open group on itself and the snapshot source
    /// aggregates per island (atrapos_hw_*). Gated by the capability
    /// probe — where perf is unavailable (containers, paranoid kernels)
    /// this silently degrades to hw_available=false. Off disables even
    /// the probe, for overhead A/B runs (bench/table2).
    bool hw_counters = true;
  };

  /// Observes every transaction completion (success or abort) on the
  /// completing worker thread. AdaptiveManager registers itself here so
  /// workload class counts flow from the completion path instead of from
  /// hand-reporting drivers.
  class TxnCompletionListener {
   public:
    virtual ~TxnCompletionListener() = default;
    virtual void OnTxnComplete(int txn_class, const Status& status) = 0;
  };

  PartitionedExecutor(Database* db, const hw::Topology& topo,
                      core::Scheme scheme);  // default Options
  PartitionedExecutor(Database* db, const hw::Topology& topo,
                      core::Scheme scheme, Options opt);
  ~PartitionedExecutor() override;

  PartitionedExecutor(const PartitionedExecutor&) = delete;
  PartitionedExecutor& operator=(const PartitionedExecutor&) = delete;

  /// Submits one transaction graph for pipelined execution and returns its
  /// completion future. Enqueues only the first stage; later stages are
  /// enqueued by workers as each RVP is reached. Returns InvalidArgument
  /// (instead of crashing) when an action names a table the scheme or the
  /// database does not know, or an empty graph; keys outside every
  /// partition's [lo, hi) range clamp to the nearest partition.
  Result<TxnFuture> Submit(ActionGraph graph);

  /// Batched submission: groups the stage-0 actions of *all* graphs by
  /// destination partition and publishes each group with one enqueue and
  /// at most one wake — the per-partition submission cost is paid per
  /// batch, not per transaction. Validation is all-or-nothing: if any
  /// graph is invalid (unknown table, empty graph), nothing is submitted
  /// and the error is returned. On success the graphs are consumed
  /// (moved from). Futures are returned in submission order;
  /// per-partition ordering across the batch follows graph order. An empty
  /// span yields an empty vector.
  Result<std::vector<TxnFuture>> SubmitBatch(std::span<ActionGraph> graphs);

  /// Convenience: Submit + Wait (the old blocking Execute behavior).
  Status SubmitAndWait(ActionGraph graph);

  /// Blocks until no submitted graph is in flight.
  void Drain() override;

  /// Seals intake permanently: Submit/SubmitBatch return Unavailable from
  /// here on. Part of the documented Database::Drain() shutdown sequence —
  /// sealing is ordered against every in-flight submission (it takes the
  /// scheme gate exclusively), so SealIntake(); Drain(); guarantees no
  /// TxnFuture completion fires afterwards.
  void SealIntake() override;
  bool sealed() const { return sealed_.load(std::memory_order_acquire); }

  /// Registers (or clears, with nullptr) the completion listener.
  /// Clearing blocks until every in-flight *listener call* returned (not
  /// until the executor is idle), so the previous listener can be
  /// destroyed safely immediately afterwards even while clients keep the
  /// submission pipeline full.
  void SetCompletionListener(TxnCompletionListener* l);

  /// Current scheme (copy).
  core::Scheme scheme() const;

  /// Harvests and resets the per-partition monitors into WorkloadStats
  /// (class counts must be supplied by the caller's own accounting).
  core::WorkloadStats HarvestStats(std::vector<double> class_counts,
                                   double window_seconds);

  /// Applies a new scheme: pauses intake, waits for in-flight graphs,
  /// drains workers, applies split/merge actions to every table's
  /// multi-rooted B-tree, migrates moved subtrees to their new owner
  /// island's arena, and restarts workers under the new routing. Returns
  /// the number of repartitioning actions applied. Placements naming a
  /// failed island's cores are silently re-homed onto survivors first
  /// (the adaptive manager needs no failure awareness); Unavailable when
  /// every island has failed.
  Result<size_t> Repartition(const core::Scheme& target);

  /// Fail-stops one hardware island (fault::kWorkerKill fires this through
  /// the sentinel; tests and benches call it directly). Every partition
  /// placed on the island is quarantined — its batches turn zombie:
  /// in-flight actions abort with kUnavailable (never hang, never complete
  /// twice) while commit markers still append, so already-decided deferred
  /// commits settle instead of stranding their futures. The quarantined
  /// partitions are then evacuated through the Repartition path onto the
  /// surviving islands (same boundaries, placements re-homed round-robin),
  /// which seals the log-shard generation and re-homes the shards —
  /// log::Recover stays crash-consistent across the failure. Returns the
  /// number of partitions evacuated; Unavailable when no island survives
  /// (the engine stays up, degraded: everything aborts kUnavailable).
  /// Must not be called from a worker thread (evacuation joins workers);
  /// workers use the sentinel.
  Result<size_t> KillIsland(int island);

  /// True while KillIsland is quarantining/evacuating. The server sheds
  /// load (kUnavailable, retryable) instead of queuing behind the scheme
  /// gate while this is set.
  bool quarantining() const {
    return quarantining_.load(std::memory_order_acquire);
  }
  /// Bitmask of fail-stopped islands (bit i = island i).
  uint64_t failed_islands() const {
    return failed_islands_.load(std::memory_order_acquire);
  }

  /// Actions accepted for execution, counted once per drained batch (a
  /// worker counts a batch *before* running it and always finishes a
  /// drained batch, so after Drain() this equals the actions actually
  /// executed). Commit-marker tasks are not actions and are not counted;
  /// neither are a zombie worker's aborted actions — a quarantined
  /// partition fails everything kUnavailable without executing, and
  /// counting those made a dead island look loaded (phantom load).
  uint64_t executed_actions() const {
    return executed_.load(std::memory_order_relaxed);
  }

  /// The durability subsystem, or nullptr when durability is kOff.
  /// Exposes the distributed durable point and SnapshotDurable() for
  /// log::Recover.
  log::LogManager* log_manager() { return log_ ? log_.get() : nullptr; }
  DurabilityMode durability() const { return opt_.durability; }

  /// The database's observability registry this executor records into
  /// (never null). AdaptiveManager uses it for repartition instants.
  obs::Registry* registry() const { return obs_; }

 private:
  using TaskQueue = MpscChunkQueue<ActionTask>;

  struct Worker;

  struct Partition {
    int table;
    uint64_t lo, hi;
    hw::CoreId core;
    size_t seq;  ///< global partition index (touched-bitmask bit, shard id)
    /// The thread draining this partition: the one worker of `core`.
    Worker* worker = nullptr;
    std::unique_ptr<core::PartitionMonitor> monitor;
    /// Backs the inbox chunks and this partition's log-shard buffers from
    /// the owner island's arena; shared so a sealed shard outlives the
    /// partition after Repartition.
    std::shared_ptr<mem::ChunkPool> pool;
    /// This partition's log shard (nullptr when durability is off).
    log::LogShard* shard = nullptr;
    /// Lock-free MPSC inbox, drained only by `worker`.
    TaskQueue inbox;
    /// Tasks published but not yet drained (producers add before Push,
    /// the worker subtracts after PopAll — never negative). Snapshot-time
    /// queue depth; per-partition because several producers feed one inbox.
    std::atomic<int64_t> pending{0};
    /// Island quarantine (KillIsland / fault::kWorkerKill): the worker
    /// keeps draining this partition but fails every action task with
    /// kUnavailable while still appending commit markers — no future ever
    /// hangs on a dead island. Set once, never cleared (evacuation
    /// replaces the partition).
    std::atomic<bool> failed{false};
  };

  /// One thread per distinct placement core: drains every partition
  /// placed on `core`. Partitions on one core share the core's island, so
  /// quarantine stays per partition while the thread is shared.
  struct Worker {
    hw::CoreId core{};
    std::vector<Partition*> parts;  ///< fixed before the thread starts
    /// True while the worker is (about to be) blocked on cv. Producers
    /// claim the wake with exchange(false), so a burst of publishes — to
    /// any of this worker's partitions — while it runs performs zero
    /// notifies (wake coalescing).
    std::atomic<bool> parked{false};
    std::atomic<bool> stop{false};
    /// Hardware counter group, opened by the worker on itself (perf
    /// requires the measured thread to be the opener); read cross-thread
    /// by the snapshot source once perf.open() is true.
    obs::PerfCounters perf;
    /// mu/cv exist only for parking an idle worker.
    std::mutex mu;
    std::condition_variable cv;
    std::thread thread;
  };

  /// Per-call scratch that buckets one publish wave's tasks by destination
  /// partition, so each partition sees one inbox push (chain of chunks for
  /// oversized groups) and at most one wake.
  class Publisher;

  void StartWorkers();
  void StopWorkers();
  void WorkerLoop(Worker* w);
  /// Runs one task; the stage's last finisher advances the graph (abort at
  /// RVP, next-stage fan-out, or completion). A quarantined partition's
  /// worker passes `zombie`: the action body is skipped and fails with
  /// kUnavailable, driving the graph through the normal abort-at-RVP path.
  void RunAction(const ActionTask& task, bool zombie);
  /// Worker-side kill handoff: a worker whose kWorkerKill fault fires
  /// cannot evacuate itself (Repartition joins its own thread), so it
  /// marks its partition failed and hands the island to the sentinel.
  void RequestKillIsland(int island);
  /// Processes queued kill requests (KillIsland) off the worker threads.
  void SentinelLoop();
  /// Notifies w iff it is parked (producer side of the Dekker pair
  /// documented in mpsc_queue.h); one claim per park episode.
  void Wake(Worker* w);
  /// Places every partition's subtree (and each table's heap) on the arena
  /// the database's placement policy selects for its owning island; called
  /// with workers stopped. Subtrees whose owner changed are migrated.
  void PlacePartitions();
  /// Routing: clamps out-of-range keys to the nearest partition. The table
  /// id must have been validated (see Submit).
  Partition* Route(int table, uint64_t key);
  /// InvalidArgument when the graph is empty or names an unknown table.
  Status ValidateGraph(const ActionGraph& graph) const;
  /// Buckets stage `idx` of *st into `pub`. Stage 0 is staged by
  /// Submit/SubmitBatch under the scheme gate; later stages by workers,
  /// which is safe without the gate because Repartition waits for
  /// in-flight graphs before mutating the scheme.
  void EnqueueStage(internal::TxnState* st, size_t idx, Publisher* pub);
  /// Exactly-once completion: listener, client-visible status, callback,
  /// in-flight accounting — in that order. Releases the executor's
  /// keep-alive reference (TxnState::self).
  void CompleteTxn(internal::TxnState* st, Status s);
  /// Durability-aware epilogue of RunAction: completes immediately when
  /// nothing was logged (or durability is off / the transaction failed,
  /// after appending abort markers), otherwise runs the commit protocol —
  /// publish one marker per touched partition and defer CompleteTxn to
  /// the commit ack.
  void FinishTxn(internal::TxnState* st, Status s);

  /// log::LogManager ack: cookie is the TxnState whose commit markers
  /// reached the configured durability point.
  class CommitAckSink;

  Database* db_;
  // Stored by value: workers read the topology from their own threads
  // (core binding, socket lookups), so the executor must not depend on the
  // lifetime of the caller's Topology object.
  hw::Topology topo_;
  Options opt_;
  /// The database's registry (owned by Database, outlives the executor).
  obs::Registry* obs_;
  int obs_source_ = -1;  ///< AddSource id of the queue-depth/log source
  std::unique_ptr<CommitAckSink> ack_sink_;
  std::unique_ptr<log::LogManager> log_;
  std::atomic<uint64_t> next_txn_id_{0};
  /// Partitions flattened by seq — marker publishing indexes it.
  std::vector<Partition*> flat_parts_;
  mutable std::shared_mutex scheme_mu_;  // shared: Submit; unique: Repartition
  core::Scheme scheme_;
  std::vector<std::vector<std::unique_ptr<Partition>>> parts_;
  /// One per distinct placement core, rebuilt with parts_.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> executed_{0};
  /// Hardware-counter totals of workers already joined (StopWorkers
  /// folds each dying worker's final reading into its island's slot
  /// here), so the per-island aggregation stays monotone across
  /// Repartition/KillIsland. Indexed by island; guarded by scheme_mu_
  /// (written under the exclusive gate, read under the shared one).
  std::vector<obs::HwCounterValues> hw_retired_;
  // Hot-path counters are lock-free; the mutex/cv pairs exist only for
  // the (rare) waiters: Drain/Repartition on inflight_, listener
  // unregistration on listener_active_.
  std::atomic<TxnCompletionListener*> listener_{nullptr};
  std::atomic<int> listener_active_{0};
  std::mutex listener_mu_;
  std::condition_variable listener_cv_;
  std::atomic<uint64_t> inflight_{0};
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  /// Set (under the exclusive scheme gate) by SealIntake; checked by
  /// Submit/SubmitBatch under the shared gate.
  std::atomic<bool> sealed_{false};

  // ---- island failure (KillIsland / fault::kWorkerKill) -------------------
  std::atomic<bool> quarantining_{false};
  std::atomic<uint64_t> failed_islands_{0};
  std::mutex evac_mu_;  ///< serializes concurrent KillIsland calls
  /// Kill requests from workers, drained by the sentinel thread.
  std::mutex kill_mu_;
  std::condition_variable kill_cv_;
  std::vector<int> kill_requests_;  // guarded by kill_mu_
  bool sentinel_stop_ = false;      // guarded by kill_mu_
  std::thread sentinel_;
};

}  // namespace atrapos::engine
