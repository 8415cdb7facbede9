#include "engine/partitioned_executor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <optional>
#include <vector>

#include "core/repartitioner.h"
#include "fault/injector.h"
#include "hw/binding.h"
#include "log/shard_writer.h"
#include "util/spin.h"

namespace atrapos::engine {

// One partition pool serves both the inbox chunks and the log shard's
// buffers (ROADMAP "inbox chunk pooling").
static_assert(sizeof(MpscChunkQueue<ActionTask>::Chunk) <=
                  mem::kPartitionChunkBytes,
              "partition chunk pool must fit an inbox chunk");

namespace {

/// Thread-local mutation observer a durability-enabled worker installs
/// before each batch of the partition it belongs to: every successful
/// insert/update/delete on this thread becomes a staged log record, and
/// the transaction's touched-partition bit is set for the commit
/// protocol. Against a kCompactDiffV2 shard, updates are diff-encoded —
/// only the contiguous byte range that changed (plus its offset in the
/// row) is logged instead of the full after-image. Rows are identified by
/// key; no Rid is logged.
class WorkerLogObserver : public storage::MutationObserver {
 public:
  WorkerLogObserver(log::ShardWriter* writer, size_t seq, bool diff_updates)
      : writer_(writer), seq_(seq), diff_updates_(diff_updates) {}

  /// The transaction whose action is currently running on this worker.
  void set_txn(internal::TxnState* st) { st_ = st; }

  void OnInsert(storage::TableId table, uint64_t key, storage::Rid,
                const storage::Tuple& row) override {
    if (!Touch()) return;
    writer_->Add(st_->txn_id, log::LogType::kInsert,
                 static_cast<uint32_t>(table), key, row.data(), row.size());
  }
  void OnUpdate(storage::TableId table, uint64_t key, storage::Rid,
                const uint8_t* before, const storage::Tuple& after) override {
    if (!Touch()) return;
    if (!diff_updates_) {
      writer_->Add(st_->txn_id, log::LogType::kUpdate,
                   static_cast<uint32_t>(table), key, after.data(),
                   after.size());
      return;
    }
    // Contiguous changed range [lo, hi). An unchanged row still logs a
    // zero-length diff: the record keeps the transaction in the commit
    // protocol and replay validates-then-patches nothing.
    uint32_t n = after.size();
    const uint8_t* now = after.data();
    uint32_t lo = 0;
    while (lo < n && before[lo] == now[lo]) ++lo;
    uint32_t hi = n;
    while (hi > lo && before[hi - 1] == now[hi - 1]) --hi;
    writer_->AddDiff(st_->txn_id, static_cast<uint32_t>(table), key,
                     static_cast<uint16_t>(lo), now + lo,
                     static_cast<uint16_t>(hi - lo));
  }
  void OnDelete(storage::TableId table, uint64_t key,
                storage::Rid) override {
    if (!Touch()) return;
    writer_->Add(st_->txn_id, log::LogType::kDelete,
                 static_cast<uint32_t>(table), key, nullptr, 0);
  }
  bool WantsBeforeImage() const override { return diff_updates_; }

 private:
  /// Marks this partition touched; false when the mutation happened
  /// outside an action (e.g. load).
  bool Touch() {
    if (st_ == nullptr) return false;
    st_->touched[seq_ >> 6].fetch_or(uint64_t{1} << (seq_ & 63),
                                     std::memory_order_relaxed);
    return true;
  }

  log::ShardWriter* const writer_;
  const size_t seq_;
  const bool diff_updates_;
  internal::TxnState* st_ = nullptr;
};

}  // namespace

/// log::LogManager commit ack: the cookie is the TxnState whose markers
/// reached the configured durability point; completion was deferred in
/// FinishTxn and runs here (the flush leader in group mode, the appending
/// worker in async mode). pending_status is ordered by the marker-publish
/// / ticket-atomics chain.
class PartitionedExecutor::CommitAckSink : public log::LogManager::CommitSink {
 public:
  explicit CommitAckSink(PartitionedExecutor* ex) : ex_(ex) {}
  void OnCommitAcked(uint64_t epoch, void* cookie) override {
    auto* st = static_cast<internal::TxnState*>(cookie);
    ex_->obs_->Count(obs::CounterId::kDurableAcks);
    ex_->obs_->Trace(obs::SpanId::kDurableAck, obs::TracePhase::kInstant,
                     st->trace_id, epoch);
    ex_->CompleteTxn(st, st->pending_status);
  }

 private:
  PartitionedExecutor* const ex_;
};

/// Buckets one publish wave (a graph stage, a whole SubmitBatch's stage-0
/// actions, or a commit's marker fan-out) by destination partition.
/// PublishAll then performs one inbox push per chunk — one per partition
/// for groups of up to a chunk's capacity — and at most one wake per
/// destination worker, regardless of how many tasks (and partitions of
/// that worker's core) the wave carried. Chunks come from the destination
/// partition's pool, so steady-state publishing allocates nothing.
class PartitionedExecutor::Publisher {
 public:
  Publisher() { groups_.reserve(8); }

  ~Publisher() {
    // PublishAll always runs on every code path; free defensively anyway.
    for (auto& g : groups_)
      for (auto* c : g.chunks) g.part->inbox.ReleaseChunk(c);
  }

  void Add(Partition* p, ActionTask t) {
    for (auto& g : groups_) {
      if (g.part == p) {
        if (g.chunks.back()->full())
          g.chunks.push_back(p->inbox.AllocChunk());
        g.chunks.back()->Append(t);
        ++g.n;
        return;
      }
    }
    groups_.emplace_back();
    Group& g = groups_.back();
    g.part = p;
    g.chunks.push_back(p->inbox.AllocChunk());
    g.chunks.back()->Append(t);
    ++g.n;
  }

  void PublishAll(PartitionedExecutor* ex) {
    for (auto& g : groups_) {
      // Queue-depth credit lands before the tasks become visible, the
      // worker's debit after it popped them — the pending gauge never
      // goes negative.
      g.part->pending.fetch_add(static_cast<int64_t>(g.n),
                                std::memory_order_relaxed);
      // FIFO push order: the inbox's drain-and-reverse restores it.
      for (auto* c : g.chunks) g.part->inbox.Push(c);
    }
    // Wake after every push, once per distinct worker: a worker woken by
    // its first partition's group finds the whole wave already published,
    // so the wave costs one claimed wake per core, not per partition.
    for (size_t i = 0; i < groups_.size(); ++i) {
      Worker* w = groups_[i].part->worker;
      bool seen = false;
      for (size_t j = 0; j < i && !seen; ++j)
        seen = groups_[j].part->worker == w;
      if (!seen) ex->Wake(w);
    }
    groups_.clear();
  }

 private:
  struct Group {
    Partition* part = nullptr;
    uint64_t n = 0;  ///< tasks bucketed for this partition
    std::vector<TaskQueue::Chunk*> chunks;  ///< FIFO; usually exactly one
  };
  std::vector<Group> groups_;
};

PartitionedExecutor::PartitionedExecutor(Database* db,
                                         const hw::Topology& topo,
                                         core::Scheme scheme)
    : PartitionedExecutor(db, topo, std::move(scheme), Options{}) {}

PartitionedExecutor::PartitionedExecutor(Database* db,
                                         const hw::Topology& topo,
                                         core::Scheme scheme, Options opt)
    : db_(db),
      topo_(topo),
      opt_(opt),
      obs_(&db->observability()),
      scheme_(std::move(scheme)) {
  if (opt_.durability != DurabilityMode::kOff) {
    log::LogManager::Options lopt;
    lopt.flush_interval_us = opt_.log_flush_interval_us;
    lopt.start_flusher = !opt_.log_manual_flush;
    lopt.wire = opt_.log_wire;
    lopt.registry = obs_;
    log_ = std::make_unique<log::LogManager>(lopt);
    ack_sink_ = std::make_unique<CommitAckSink>(this);
    log_->SetCommitSink(ack_sink_.get());
  }
  StartWorkers();
  // The kill sentinel runs evacuations off the worker threads (a worker
  // cannot join itself); idle when no worker-kill fault ever fires.
  sentinel_ = std::thread([this] { SentinelLoop(); });
  db_->RegisterDrainable(this);
  // Snapshot-time source: per-partition queue depths and the executor/log
  // totals the registry should not double-count on the hot path. Runs on
  // the snapshotting thread under the shared scheme gate (so flat_parts_
  // is stable); removed before teardown.
  obs_source_ = obs_->AddSource([this](obs::StatsSnapshot& s) {
    std::shared_lock gate(scheme_mu_);
    s.queue_depths.clear();
    s.queue_depths.reserve(flat_parts_.size());
    int64_t total = 0;
    for (Partition* p : flat_parts_) {
      int64_t d = p->pending.load(std::memory_order_relaxed);
      s.queue_depths.push_back(d > 0 ? static_cast<uint64_t>(d) : 0);
      total += d > 0 ? d : 0;
    }
    s.gauges[static_cast<size_t>(obs::GaugeId::kQueueDepthTotal)] = total;
    obs_->SetGauge(obs::GaugeId::kQueueDepthTotal, total);
    s.executed_actions = executed_.load(std::memory_order_relaxed);
    if (log_ != nullptr) {
      s.log_records = log_->num_records();
      s.log_bytes = log_->bytes_logged();
      s.durable_epoch = log_->durable_epoch();
      s.last_epoch = log_->last_epoch();
      s.durable_lag_epochs = s.last_epoch > s.durable_epoch
                                 ? s.last_epoch - s.durable_epoch
                                 : 0;
    }
    // Hardware counters, aggregated per island: live workers' groups
    // plus the totals retired by StopWorkers (hw_retired_ is written
    // under the exclusive gate, so the shared gate above suffices).
    if (opt_.hw_counters && obs::PerfCounters::Available()) {
      size_t islands = static_cast<size_t>(topo_.num_sockets());
      s.hw_islands.assign(islands, obs::HwCounterValues{});
      bool any = false;
      for (size_t i = 0; i < hw_retired_.size() && i < islands; ++i) {
        s.hw_islands[i].Accumulate(hw_retired_[i]);
        for (bool v : hw_retired_[i].valid) any |= v;
      }
      for (const auto& w : workers_) {
        if (!w->perf.open()) continue;
        size_t island = static_cast<size_t>(topo_.socket_of(w->core));
        if (island < islands) {
          s.hw_islands[island].Accumulate(w->perf.Read());
          any = true;  // only data that actually landed in hw_islands
        }
      }
      s.hw_available = any;
      if (!any) s.hw_islands.clear();
    }
  });
}

PartitionedExecutor::~PartitionedExecutor() {
  // Leave the database's drain set before teardown so a concurrent
  // Database::Drain() cannot reach into a dying executor.
  db_->UnregisterDrainable(this);
  // Source next: a snapshot racing teardown must not walk dying
  // partitions (RemoveSource waits out in-flight source calls).
  if (obs_source_ >= 0) obs_->RemoveSource(obs_source_);
  // Sentinel before the final drain: a mid-flight evacuation runs to
  // completion under the join; queued requests are processed, new ones
  // are no longer accepted. Zombies left unevacuated (e.g. every island
  // failed) still drain below — they complete everything kUnavailable.
  {
    std::lock_guard lk(kill_mu_);
    sentinel_stop_ = true;
  }
  kill_cv_.notify_all();
  if (sentinel_.joinable()) sentinel_.join();
  // In-flight graphs must finish before workers stop: a worker reaching an
  // RVP enqueues the next stage onto sibling workers, which only drain
  // their inboxes while alive — and deferred commits complete only once
  // their markers are appended (workers) and flushed (LogManager, which
  // outlives the partitions by member order).
  Drain();
  StopWorkers();
}

void PartitionedExecutor::PlacePartitions() {
  mem::IslandAllocator& alloc = db_->memory();
  uint64_t seq = 0;
  for (size_t t = 0; t < scheme_.tables.size(); ++t) {
    const core::TableScheme& ts = scheme_.tables[t];
    if (ts.num_partitions() == 0) continue;
    storage::Table* table = db_->table(static_cast<int>(t));
    storage::MultiRootedBTree& index = table->index();
    size_t n = std::min(ts.num_partitions(), index.num_partitions());
    for (size_t p = 0; p < n; ++p, ++seq) {
      hw::SocketId owner = topo_.socket_of(ts.placement[p]);
      mem::Arena* arena = alloc.arena(alloc.ResolveSeq(owner, seq));
      // MigratePartition is a no-op when the subtree already lives there.
      index.MigratePartition(p, arena);
      // The partition's heap follows the same island: tuple pages migrate
      // with ownership exactly like subtrees (ROADMAP "Per-partition heap
      // files" — closed).
      if (table->heap(p).arena() != arena) table->heap(p).MigrateTo(arena);
    }
  }
}

void PartitionedExecutor::StartWorkers() {
  PlacePartitions();
  parts_.clear();
  flat_parts_.clear();
  workers_.clear();
  mem::IslandAllocator& alloc = db_->memory();
  if (log_ != nullptr) {
    size_t total = 0;
    for (const auto& ts : scheme_.tables) total += ts.num_partitions();
    if (total > internal::kMaxLogPartitions) {
      std::fprintf(stderr,
                   "PartitionedExecutor: %zu partitions exceed the "
                   "durability limit of %zu\n",
                   total, internal::kMaxLogPartitions);
      std::abort();
    }
    if (log_->num_active_shards() > 0) {
      // Repartition: log shards move with their partitions — seal the old
      // generation (kept for recovery) and place fresh shards below.
      log_->BeginGeneration();
    }
  }
  parts_.resize(scheme_.tables.size());
  size_t seq = 0;
  for (size_t t = 0; t < scheme_.tables.size(); ++t) {
    const core::TableScheme& ts = scheme_.tables[t];
    uint64_t rows = db_->table(static_cast<int>(t))->num_rows();
    for (size_t p = 0; p < ts.num_partitions(); ++p, ++seq) {
      auto part = std::make_unique<Partition>();
      part->table = static_cast<int>(t);
      part->lo = ts.boundaries[p];
      part->hi = p + 1 < ts.num_partitions() ? ts.boundaries[p + 1]
                                             : std::max(rows, part->lo + 1);
      part->core = ts.placement[p];
      part->seq = seq;
      part->monitor =
          std::make_unique<core::PartitionMonitor>(part->lo, part->hi);
      hw::SocketId owner = topo_.socket_of(ts.placement[p]);
      mem::Arena* arena = alloc.arena(alloc.ResolveSeq(owner, seq));
      part->pool =
          std::make_shared<mem::ChunkPool>(mem::kPartitionChunkBytes, arena);
      part->inbox.SetPool(part->pool.get());
      if (log_ != nullptr)
        part->shard = log_->shard(log_->AddShard(part->pool, arena));
      // Invariant: a partition placed on a failed island is born
      // quarantined (reachable when a repartition rollback restores a
      // pre-failure scheme) — its worker drains it as a zombie, so
      // nothing routed there can hang.
      if ((failed_islands_.load(std::memory_order_relaxed) >> owner) & 1u)
        part->failed.store(true, std::memory_order_relaxed);
      flat_parts_.push_back(part.get());
      parts_[t].push_back(std::move(part));
    }
  }
  // One worker per distinct placement core, owning its partitions in seq
  // order. Threads start only once every worker's partition list is final.
  for (Partition* p : flat_parts_) {
    Worker* w = nullptr;
    for (auto& cand : workers_) {
      if (cand->core == p->core) {
        w = cand.get();
        break;
      }
    }
    if (w == nullptr) {
      workers_.push_back(std::make_unique<Worker>());
      w = workers_.back().get();
      w->core = p->core;
    }
    w->parts.push_back(p);
    p->worker = w;
  }
  for (auto& w : workers_) {
    Worker* raw = w.get();
    w->thread = std::thread([this, raw] { WorkerLoop(raw); });
  }
}

void PartitionedExecutor::WorkerLoop(Worker* w) {
  const bool poll = PollBeforePark(hw::BindCurrentThread(topo_, w->core),
                                   util::HostCpus(), workers_.size());
  // Hardware counters must be opened by the measured thread itself
  // (perf_event_open with pid=0); the capability probe inside makes this
  // a no-op where perf is unavailable. Read cross-thread by the
  // snapshot source once perf.open() flips.
  if (opt_.hw_counters) w->perf.OpenForCurrentThread();
  // Per-partition drain state, private to this thread. Each partition
  // keeps its own monitor tally and — under durability — its own shard
  // writer and mutation observer, installed before each of its batches:
  // a worker shared by several partitions attributes load and log
  // records exactly as a dedicated one would. The staged batch's records
  // (and the commit markers routed to the partition) are appended to its
  // shard with one reservation per batch. A deque keeps each observer's
  // writer pointer stable.
  struct Lane {
    explicit Lane(Partition* part) : p(part), tally(*part->monitor) {}
    Partition* p;
    core::PartitionMonitor::BatchTally tally;
    std::optional<log::ShardWriter> writer;
    std::optional<WorkerLogObserver> observer;
  };
  std::deque<Lane> lanes;
  for (Partition* p : w->parts) {
    Lane& l = lanes.emplace_back(p);
    if (log_ != nullptr) {
      l.writer.emplace(log_.get(), p->shard);
      l.observer.emplace(&*l.writer, p->seq,
                         opt_.log_wire == log::WireFormat::kCompactDiffV2);
    }
  }
  uint64_t drain_tick = 0;  // 1-in-8 sampling stride for the drain hists
  // Set when a drained batch appended a group-mode commit marker. The
  // worker requests one group flush per pass over its partitions, after
  // every lane appended its markers, so a commit whose markers landed on
  // two of this worker's partitions is made durable by a single pass.
  bool group_flush_owed = false;

  // Drains one grabbed chain of lane l's partition. Nothing in the
  // per-batch body depends on how many partitions share this thread.
  auto drain = [&](Lane& l, TaskQueue::Chunk* chain) {
    Partition* p = l.p;
    if (l.observer) storage::SetThreadMutationObserver(&*l.observer);
    // Count the batch *before* running it: a completion a client observed
    // then can never precede its action's executed_ credit, so after
    // Drain() the counter equals the actions actually executed.
    // Commit-marker tasks (act == nullptr) are not actions — they only
    // exist when durability is on, so the off path keeps the cheap
    // per-chunk count.
    uint64_t total = 0;
    for (TaskQueue::Chunk* c = chain; c != nullptr; c = c->next)
      total += c->count;
    uint64_t n = total;
    if (log_ != nullptr) {
      n = 0;
      for (TaskQueue::Chunk* c = chain; c != nullptr; c = c->next)
        for (uint32_t i = 0; i < c->count; ++i)
          if (c->items[i].act != nullptr) ++n;
    }
    // Queue-depth debit for everything just popped (markers included —
    // the publisher credited them too).
    p->pending.fetch_sub(static_cast<int64_t>(total),
                         std::memory_order_relaxed);
    // Island death (fault::kWorkerKill), checked once per drained batch:
    // this partition's island fail-stops. The partition itself turns
    // zombie — the whole batch below fails kUnavailable — and the
    // sentinel quarantines the siblings and runs the evacuation (a worker
    // cannot evacuate itself: Repartition joins its own thread).
    bool zombie = p->failed.load(std::memory_order_acquire);
    if (!zombie && fault::Should(fault::SiteId::kWorkerKill)) {
      p->failed.store(true, std::memory_order_release);
      zombie = true;
      RequestKillIsland(static_cast<int>(topo_.socket_of(p->core)));
    }
    // A zombie's actions never execute — they abort kUnavailable — so
    // they are phantom load: crediting them to executed_ (or Touch-ing
    // them into the monitor below) made the dead island look busy to
    // PartitionMonitor/AdaptiveManager during evacuation and could steer
    // repartitioning back toward it. Zombie batches keep only the
    // queue-depth debit and the marker appends.
    if (!zombie && n > 0) executed_.fetch_add(n, std::memory_order_relaxed);
    // One timestamp pair and one monitor flush per drained batch: each
    // action is charged the batch-average microseconds (clamped by the
    // monitor so bins never look idle), keeping monitoring cost per-batch
    // as the paper's Table 2 budget demands.
    auto t0 = std::chrono::steady_clock::now();
    while (chain != nullptr) {
      TaskQueue::Chunk* c = chain;
      chain = chain->next;
      for (uint32_t i = 0; i < c->count; ++i) {
        const ActionTask& task = c->items[i];
        if (task.act == nullptr) {
          // This partition's commit marker for task.st: staged behind the
          // transaction's data records in this partition's append order,
          // so the shard's LSN order encodes write-ahead.
          l.writer->AddCommitMarker(task.st->txn_id, task.st->commit_epoch,
                                    task.st->marker_expected,
                                    task.st->ticket);
          obs_->Count(obs::CounterId::kCommitMarkersAppended);
          obs_->Trace(obs::SpanId::kCommitMarker, obs::TracePhase::kInstant,
                      task.st->trace_id, p->seq);
          continue;
        }
        // The observer is pointed at the task's txn immediately before
        // its body runs, so every record the body logs is attributed to it.
        if (l.observer) l.observer->set_txn(task.st);
        if (!zombie) l.tally.Touch(task.act->key);
        RunAction(task, zombie);
      }
      p->inbox.ReleaseChunk(c);
    }
    // One shard reservation per batch.
    if (l.writer && l.writer->Flush()) group_flush_owed = true;
    if (n > 0) {
      double us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      // Zombie batches executed nothing: no monitor load, no drain-shape
      // samples (they would record near-zero abort costs).
      if (!zombie)
        p->monitor->RecordBatch(&l.tally, us / static_cast<double>(n));
      // Per-batch registry flush, same discipline as the monitor: the
      // observability cost scales with drains, not actions (Table 2).
      // The drain histograms are additionally sampled 1-in-8: when the
      // worker outpaces the client, drains are tiny and frequent, and
      // three histogram records per drain (cold shard lines each time)
      // were the single largest obs cost on the TATP hot path. The
      // batch counter stays exact; the first drain always samples.
      if (obs_->metrics_enabled()) {
        obs_->Count(obs::CounterId::kBatchesDrained);
        if (!zombie && (drain_tick++ & 7u) == 0) {
          obs_->RecordLatency(obs::HistId::kDrainBatchUs,
                              static_cast<uint64_t>(us));
          // Recorded on the action basis (n, markers excluded) — the
          // same basis kActionAvgUs divides by; see obs/registry.h.
          obs_->RecordLatency(obs::HistId::kDrainBatchSize, n);
          obs_->RecordLatency(
              obs::HistId::kActionAvgUs,
              static_cast<uint64_t>(us / static_cast<double>(n)));
        }
      }
      obs_->Trace(obs::SpanId::kDrain, obs::TracePhase::kComplete, 0,
                  static_cast<uint64_t>(us * 1000.0));
    }
  };

  for (;;) {
    // One round-robin pass: every partition's inbox is grabbed once and
    // its whole chain drained, so a continuously fed partition delays a
    // same-core sibling by at most one batch. The plain load skips the
    // exchange on idle inboxes; this thread is the only consumer, so a
    // non-empty inbox always yields a chain.
    bool drained = false;
    for (Lane& l : lanes) {
      if (l.p->inbox.Empty()) continue;
      drained = true;
      drain(l, l.p->inbox.PopAll());
    }
    if (group_flush_owed) {
      group_flush_owed = false;
      log_->RequestFlush();  // lead the flush, or leave it to the leader
    }
    if (drained) continue;
    // Callers stop workers only after Drain(), so a pass that found
    // every inbox empty with stop set means no task can ever arrive
    // again.
    if (w->stop.load(std::memory_order_acquire)) break;
    // Poll before parking: the next wave usually lands within
    // microseconds, and while `parked` stays false its producer's Wake
    // finds nothing to notify — no futex on either side.
    if (poll && util::PollFor(kWorkerPollWindow, [&] {
          if (w->stop.load(std::memory_order_relaxed)) return true;
          for (const Lane& l : lanes)
            if (!l.p->inbox.Empty()) return true;
          return false;
        }))
      continue;
    // Park protocol (consumer side of the Dekker pair, see
    // mpsc_queue.h): declare intent, re-check every inbox and stop with
    // seq_cst, only then sleep. Producers that published before the
    // re-check are seen; producers that publish after it see
    // parked == true and wake us.
    w->parked.store(true, std::memory_order_seq_cst);
    bool ready = w->stop.load(std::memory_order_seq_cst);
    for (const Lane& l : lanes) ready = ready || !l.p->inbox.Empty();
    if (ready) {
      w->parked.store(false, std::memory_order_relaxed);
      continue;
    }
    obs_->Count(obs::CounterId::kWorkerParks);
    std::unique_lock lk(w->mu);
    w->cv.wait(lk, [w] {
      return !w->parked.load(std::memory_order_relaxed) ||
             w->stop.load(std::memory_order_relaxed);
    });
    w->parked.store(false, std::memory_order_relaxed);
  }
  if (log_ != nullptr) storage::SetThreadMutationObserver(nullptr);
}

void PartitionedExecutor::Wake(Worker* w) {
  // Claim the wake: only one producer per park episode notifies, and
  // publishes onto a running worker — to any of its partitions — notify
  // nobody.
  if (w->parked.exchange(false, std::memory_order_seq_cst)) {
    {
      // Empty critical section: the worker is either before its
      // predicate check (it will see parked == false) or inside wait
      // (the notify reaches it).
      std::lock_guard lk(w->mu);
    }
    w->cv.notify_one();
    obs_->Count(obs::CounterId::kWorkerWakes);
  }
}

void PartitionedExecutor::StopWorkers() {
  for (auto& w : workers_) {
    w->stop.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard lk(w->mu);  // close the check-then-wait window
    }
    w->cv.notify_all();
  }
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
  // Retire the joined workers' counter totals per island so Repartition
  // (which destroys these Worker objects) doesn't lose hardware history.
  // Callers hold the exclusive scheme gate (or run after RemoveSource), so
  // no snapshot source reads hw_retired_ concurrently.
  for (auto& w : workers_) {
    if (!w->perf.open()) continue;
    size_t island = static_cast<size_t>(topo_.socket_of(w->core));
    if (hw_retired_.size() <= island) hw_retired_.resize(island + 1);
    hw_retired_[island].Accumulate(w->perf.Read());
  }
}

PartitionedExecutor::Partition* PartitionedExecutor::Route(int table,
                                                           uint64_t key) {
  auto& tp = parts_[static_cast<size_t>(table)];
  const core::TableScheme& ts = scheme_.tables[static_cast<size_t>(table)];
  size_t p = ts.PartitionOf(key);
  // Clamp to the nearest materialized partition: PartitionOf already maps
  // keys below the first boundary to partition 0 and keys past the last
  // fence to the final slot, but a scheme may carry more boundaries than
  // the executor materialized workers for.
  if (p >= tp.size()) p = tp.size() - 1;
  return tp[p].get();
}

Status PartitionedExecutor::ValidateGraph(const ActionGraph& graph) const {
  if (graph.empty()) return Status::InvalidArgument("empty action graph");
  for (const auto& stage : graph.stages_) {
    for (const auto& a : stage) {
      if (a.table < 0 ||
          static_cast<size_t>(a.table) >= scheme_.tables.size() ||
          static_cast<size_t>(a.table) >= db_->num_tables() ||
          parts_[static_cast<size_t>(a.table)].empty()) {
        return Status::InvalidArgument("unknown table id " +
                                       std::to_string(a.table));
      }
    }
  }
  return Status::OK();
}

Result<TxnFuture> PartitionedExecutor::Submit(ActionGraph graph) {
  std::shared_lock gate(scheme_mu_);
  if (sealed_.load(std::memory_order_acquire))
    return Status::Unavailable("executor intake sealed (shutting down)");
  Status v = ValidateGraph(graph);
  if (!v.ok()) return v;
  const bool metrics = obs_->metrics_enabled();
  const bool tracing = obs_->trace_enabled();
  const uint64_t t0 = (metrics || tracing) ? obs_->NowNs() : 0;
  auto st = std::make_shared<internal::TxnState>(std::move(graph));
  st->self = st;
  if (log_ != nullptr || tracing)
    st->txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Trace correlation: a caller-stamped graph id (the wire tier's
  // req-id-derived WireTraceId) wins over the engine txn id, so one
  // chrome dump links the whole client-send → durable-ack chain.
  st->trace_id = st->graph.trace_id() != 0 ? st->graph.trace_id() : st->txn_id;
  st->submit_ts_ns = t0;
  inflight_.fetch_add(1, std::memory_order_relaxed);
  if (metrics) obs_->Count(obs::CounterId::kTxnSubmitted);
  if (tracing)
    obs_->Trace(obs::SpanId::kTxn, obs::TracePhase::kBegin, st->trace_id);
  Publisher pub;
  EnqueueStage(st.get(), 0, &pub);
  pub.PublishAll(this);
  if (metrics || tracing) {
    uint64_t dt = obs_->NowNs() - t0;
    if (metrics)
      obs_->RecordLatency(obs::HistId::kSubmitPublishUs, dt / 1000);
    if (tracing)
      obs_->Trace(obs::SpanId::kSubmitPublish, obs::TracePhase::kComplete,
                  st->trace_id, dt);
  }
  return TxnFuture(st);
}

Result<std::vector<TxnFuture>> PartitionedExecutor::SubmitBatch(
    std::span<ActionGraph> graphs) {
  std::shared_lock gate(scheme_mu_);
  if (sealed_.load(std::memory_order_acquire))
    return Status::Unavailable("executor intake sealed (shutting down)");
  // All-or-nothing: validate every graph before publishing anything.
  for (const ActionGraph& g : graphs) {
    Status v = ValidateGraph(g);
    if (!v.ok()) return v;
  }
  const bool metrics = obs_->metrics_enabled();
  const bool tracing = obs_->trace_enabled();
  const uint64_t t0 = (metrics || tracing) ? obs_->NowNs() : 0;
  std::vector<TxnFuture> futures;
  futures.reserve(graphs.size());
  Publisher pub;
  for (ActionGraph& g : graphs) {
    auto st = std::make_shared<internal::TxnState>(std::move(g));
    st->self = st;
    if (log_ != nullptr || tracing)
      st->txn_id = next_txn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    st->trace_id =
        st->graph.trace_id() != 0 ? st->graph.trace_id() : st->txn_id;
    st->submit_ts_ns = t0;
    inflight_.fetch_add(1, std::memory_order_relaxed);
    if (tracing)
      obs_->Trace(obs::SpanId::kTxn, obs::TracePhase::kBegin, st->trace_id);
    EnqueueStage(st.get(), 0, &pub);
    futures.emplace_back(TxnFuture(st));
  }
  // One push (or a few chunk pushes for oversized groups) and at most one
  // wake per destination partition for the whole batch.
  pub.PublishAll(this);
  if (metrics || tracing) {
    const uint64_t dt = obs_->NowNs() - t0;
    if (metrics) {
      obs_->Count(obs::CounterId::kTxnSubmitted, graphs.size());
      // One submit-publish sample per wave (not per graph): the wave is
      // the unit the batched path amortizes.
      obs_->RecordLatency(obs::HistId::kSubmitPublishUs, dt / 1000);
    }
    // One complete event per wave (arg = duration, like every kComplete).
    if (tracing)
      obs_->Trace(obs::SpanId::kSubmitPublish, obs::TracePhase::kComplete,
                  0, dt);
  }
  return futures;
}

Status PartitionedExecutor::SubmitAndWait(ActionGraph graph) {
  auto f = Submit(std::move(graph));
  if (!f.ok()) return f.status();
  return f.value().Wait();
}

void PartitionedExecutor::EnqueueStage(internal::TxnState* st, size_t idx,
                                       Publisher* pub) {
  auto& stage = st->graph.stages_[idx];
  st->next_stage = idx + 1;
  // Set before anything is published: an earlier-published sibling could
  // otherwise finish and advance the graph off an uninitialized count.
  st->stage_remaining.store(stage.size(), std::memory_order_relaxed);
  for (auto& a : stage)
    pub->Add(Route(a.table, a.key), ActionTask{st, &a, db_->table(a.table)});
}

void PartitionedExecutor::RunAction(const ActionTask& task, bool zombie) {
  internal::TxnState* st = task.st;
  ActionGraph::Action* act = task.act;
  // Per-action spans only exist under tracing — the metrics path keeps
  // its one-clock-pair-per-batch discipline (WorkerLoop).
  const bool tracing = obs_->trace_enabled();
  const uint64_t a0 = tracing ? obs_->NowNs() : 0;
  Status s;
  if (zombie) {
    // Quarantined partition: the action never runs — fail it so the
    // graph aborts through the normal RVP machinery, and every stage,
    // callback, and future settles exactly as on any other abort.
    s = Status::Unavailable("island failed: partition quarantined");
    obs_->Count(obs::CounterId::kFaultTxnsUnavailable);
  } else {
    ActionCtx ctx(act->id, &st->payloads);
    s = act->fn ? act->fn(task.table, ctx) : Status::OK();
  }
  if (tracing)
    obs_->Trace(obs::SpanId::kAction, obs::TracePhase::kComplete, st->trace_id,
                obs_->NowNs() - a0);
  // The first failure claims `failed` and records its status; the
  // fetch_sub below releases the write to the stage's last finisher.
  if (!s.ok() && !st->failed.exchange(true, std::memory_order_relaxed))
    st->first_error = std::move(s);
  // The last action of a stage advances the graph: abort at the RVP on
  // the first failure, fan out the next stage (grouped publish, one
  // enqueue + one wake per destination partition), or finalize.
  if (st->stage_remaining.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return;
  if (tracing)
    obs_->Trace(obs::SpanId::kRvpResolve, obs::TracePhase::kInstant,
                st->trace_id, st->next_stage - 1);
  if (st->failed.load(std::memory_order_relaxed)) {
    FinishTxn(st, std::move(st->first_error));
  } else if (st->next_stage < st->graph.stages_.size() &&
             !st->graph.stages_[st->next_stage].empty()) {
    Publisher pub;
    EnqueueStage(st, st->next_stage, &pub);
    pub.PublishAll(this);
  } else {
    Status fin = st->graph.finalizer_ ? st->graph.finalizer_(st->payloads)
                                      : Status::OK();
    FinishTxn(st, std::move(fin));
  }
}

namespace {
/// Calls fn(seq) for every partition whose worker logged data records for
/// this transaction. The stage-completion release/acquire pair ordered
/// every bit before this read.
template <typename Fn>
void ForEachTouchedPartition(const internal::TxnState* st, Fn fn) {
  for (size_t w = 0; w < std::size(st->touched); ++w) {
    uint64_t bits = st->touched[w].load(std::memory_order_relaxed);
    while (bits != 0) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}
}  // namespace

void PartitionedExecutor::FinishTxn(internal::TxnState* st, Status s) {
  if (log_ == nullptr) {
    CompleteTxn(st, std::move(s));
    return;
  }
  int expected = 0;
  for (const auto& word : st->touched)
    expected += std::popcount(word.load(std::memory_order_relaxed));
  if (expected == 0) {
    // Read-only commit: nothing to force — real group commit skips the
    // log entirely here too.
    CompleteTxn(st, std::move(s));
    return;
  }
  if (!s.ok()) {
    // Abort markers decide the transaction at recovery (its data records
    // are discarded, wherever the crash cut fell) and need no durability
    // ack. Appended directly: order against still-buffered data records
    // does not matter for an abort decision.
    log::PendingRecord r;
    r.txn = st->txn_id;
    r.type = log::LogType::kAbort;
    ForEachTouchedPartition(st, [&](size_t seq) {
      flat_parts_[seq]->shard->AppendOne(r, nullptr, nullptr);
    });
    CompleteTxn(st, std::move(s));
    return;
  }
  // Per-partition commit: one marker per touched partition, routed
  // through that partition's inbox so its owning worker appends it after
  // the transaction's data records. Completion is deferred to the commit
  // ack — append-fired in async mode, durable-fired (flush leader) in group
  // mode. Workers never block on a flush window.
  st->pending_status = std::move(s);
  log::CommitTicket* ticket = log_->BeginCommit(
      expected, st, /*fire_on_append=*/opt_.durability == DurabilityMode::kAsync);
  st->ticket = ticket;
  st->commit_epoch = ticket->epoch;
  st->marker_expected = static_cast<uint16_t>(expected);
  Publisher pub;
  ForEachTouchedPartition(st, [&](size_t seq) {
    pub.Add(flat_parts_[seq], ActionTask{st, nullptr, nullptr});
  });
  pub.PublishAll(this);
}

void PartitionedExecutor::CompleteTxn(internal::TxnState* st, Status s) {
  // Take over the executor's keep-alive reference: *st stays alive through
  // this call even if the client already dropped its future, and dies with
  // `keep` otherwise. Only the unique stage-finishing worker (or, for a
  // deferred durable commit, the unique ack) reaches here, so the move is
  // unsynchronized by design.
  std::shared_ptr<internal::TxnState> keep = std::move(st->self);
  if (st->completed.exchange(true)) return;  // exactly once
  if (obs_->metrics_enabled()) {
    // Commit latency is sampled 1-in-4 per completing thread (the first
    // completion always samples); the outcome counters stay exact. The
    // per-transaction clock read + histogram record were a measurable
    // slice of the TATP hot path, and the quantile estimate does not
    // need every commit.
    thread_local uint64_t commit_tick = 0;
    if (st->submit_ts_ns != 0 && (commit_tick++ & 3u) == 0)
      obs_->RecordLatency(obs::HistId::kCommitLatencyUs,
                          (obs_->NowNs() - st->submit_ts_ns) / 1000);
    obs_->Count(s.ok() ? obs::CounterId::kTxnCommitted
                       : obs::CounterId::kTxnAborted);
  }
  if (st->trace_id != 0)
    obs_->Trace(obs::SpanId::kTxn, obs::TracePhase::kEnd, st->trace_id);
  // Listener first: once Wait() returns, the workload class has been
  // reported (AdaptiveManager's counts are populated from here). The
  // active-call count must be raised *before* loading the pointer so
  // SetCompletionListener(nullptr) either sees this call in flight or this
  // load sees the cleared pointer (seq_cst on both sides).
  listener_active_.fetch_add(1, std::memory_order_seq_cst);
  if (auto* l = listener_.load(std::memory_order_seq_cst))
    l->OnTxnComplete(st->graph.txn_class(), s);
  if (listener_active_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    std::lock_guard lk(listener_mu_);
    listener_cv_.notify_all();
  }
  // Completion-word publish (see TxnState): the callback runs after
  // kCompleting and before kDone, so it returns strictly before Wait()
  // does; an OnComplete that loses the race to kCompleting runs the
  // callback on the registering thread. `keep` holds *st alive through
  // the notify even if the woken client drops its future at once.
  using S = internal::TxnState;
  st->status = s;
  if (st->word.fetch_or(S::kCompleting, std::memory_order_acq_rel) &
      S::kCallback) {
    std::function<void(const Status&)> cb = std::move(st->callback);
    cb(s);
  }
  if (st->word.fetch_or(S::kDone, std::memory_order_acq_rel) & S::kWaiter)
    st->word.notify_all();
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard lk(inflight_mu_);
    inflight_cv_.notify_all();
  }
}

void PartitionedExecutor::SetCompletionListener(TxnCompletionListener* l) {
  listener_.store(l, std::memory_order_seq_cst);
  if (l != nullptr) return;
  // Quiesce only the listener calls (not the whole executor): a client may
  // legitimately keep the pipeline full while the listener unregisters.
  std::unique_lock lk(listener_mu_);
  listener_cv_.wait(lk, [this] {
    return listener_active_.load(std::memory_order_seq_cst) == 0;
  });
}

void PartitionedExecutor::Drain() {
  std::unique_lock lk(inflight_mu_);
  inflight_cv_.wait(lk, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

void PartitionedExecutor::SealIntake() {
  // The exclusive gate orders the seal against every Submit/SubmitBatch:
  // a submission either incremented inflight_ under the shared gate before
  // we acquired it (Drain will wait it out) or observes sealed_ and
  // returns Unavailable without creating a future.
  std::unique_lock gate(scheme_mu_);
  sealed_.store(true, std::memory_order_release);
}

core::Scheme PartitionedExecutor::scheme() const {
  std::shared_lock lk(scheme_mu_);
  return scheme_;
}

core::WorkloadStats PartitionedExecutor::HarvestStats(
    std::vector<double> class_counts, double window_seconds) {
  std::shared_lock gate(scheme_mu_);
  core::MonitorAggregator agg(parts_.size(), class_counts.size());
  for (size_t t = 0; t < parts_.size(); ++t) {
    for (auto& p : parts_[t]) {
      agg.AddPartition(static_cast<int>(t), *p->monitor);
      p->monitor->Reset();
    }
  }
  for (size_t c = 0; c < class_counts.size(); ++c)
    agg.AddClassCount(static_cast<int>(c), class_counts[c]);
  return agg.Build(window_seconds);
}

namespace {
/// Re-homes every placement on a failed island onto surviving islands'
/// cores, round-robin. The caller has verified a survivor exists. Returns
/// the number of placements changed.
size_t RemapFailedPlacements(core::Scheme* s, const hw::Topology& topo,
                             uint64_t failed_mask) {
  std::vector<hw::CoreId> survivors;
  for (int c = 0; c < topo.num_cores(); ++c) {
    if (((failed_mask >> topo.socket_of(c)) & 1u) == 0)
      survivors.push_back(static_cast<hw::CoreId>(c));
  }
  if (survivors.empty()) return 0;
  size_t moved = 0;
  size_t rr = 0;
  for (auto& ts : s->tables) {
    for (auto& core : ts.placement) {
      if ((failed_mask >> topo.socket_of(core)) & 1u) {
        core = survivors[rr++ % survivors.size()];
        ++moved;
      }
    }
  }
  return moved;
}

bool AnyIslandAlive(const hw::Topology& topo, uint64_t failed_mask) {
  for (int s = 0; s < topo.num_sockets(); ++s)
    if (((failed_mask >> s) & 1u) == 0) return true;
  return false;
}
}  // namespace

Result<size_t> PartitionedExecutor::Repartition(const core::Scheme& target) {
  // Pause intake: regular actions and repartitioning never interleave
  // (paper §V-D). Waiting Submit() calls resume under the new scheme.
  std::unique_lock gate(scheme_mu_);
  // Sanitize against fail-stopped islands: a caller (the adaptive
  // manager, a replayed plan) may name cores on a dead island; re-home
  // those placements onto survivors so no new worker is ever placed —
  // and silently quarantined — on failed hardware.
  core::Scheme applied = target;
  if (uint64_t mask = failed_islands_.load(std::memory_order_acquire)) {
    if (!AnyIslandAlive(topo_, mask))
      return Status::Unavailable("every island has failed");
    RemapFailedPlacements(&applied, topo_, mask);
  }
  // In-flight graphs advance stages without the scheme gate; wait them out
  // before touching routing state. No new graph can enter: Submit
  // increments the in-flight count under the shared gate we now hold.
  // (Deferred durable commits count as in flight, so shards quiesce too.)
  Drain();
  StopWorkers();  // inboxes are empty: every in-flight graph completed
  auto plan = core::PlanRepartition(scheme_, applied);
  for (size_t t = 0; t < scheme_.tables.size(); ++t) {
    // Table-level actions: heap records move (and get re-Rid'd) with their
    // index subtrees, so the new owner island receives *all* the
    // partition's state when PlacePartitions runs in StartWorkers.
    Status s = core::ApplyToTable(db_->table(static_cast<int>(t)),
                                  static_cast<int>(t), plan);
    if (!s.ok()) {
      // Restart workers under the old scheme before reporting failure.
      StartWorkers();
      return s;
    }
  }
  scheme_ = applied;
  StartWorkers();
  return plan.size();
}

Result<size_t> PartitionedExecutor::KillIsland(int island) {
  if (island < 0 || island >= topo_.num_sockets())
    return Status::InvalidArgument("no such island: " + std::to_string(island));
  std::lock_guard evac_lk(evac_mu_);  // one evacuation at a time
  const uint64_t bit = uint64_t{1} << island;
  const uint64_t mask = failed_islands_.load(std::memory_order_relaxed) | bit;
  const bool first_kill =
      (failed_islands_.load(std::memory_order_relaxed) & bit) == 0;
  quarantining_.store(true, std::memory_order_release);
  // Phase 1 — quarantine, under the *shared* gate so it lands promptly
  // even while submitters stream in: every partition on the island turns
  // zombie. Its in-flight actions abort kUnavailable through the normal
  // RVP machinery, its commit markers still append (already-decided
  // deferred commits settle), so no future hangs and none completes twice.
  {
    std::shared_lock gate(scheme_mu_);
    for (Partition* p : flat_parts_) {
      if (topo_.socket_of(p->core) == island) {
        p->failed.store(true, std::memory_order_release);
        Wake(p->worker);
      }
    }
  }
  failed_islands_.store(mask, std::memory_order_release);
  if (first_kill) obs_->Count(obs::CounterId::kFaultIslandKills);
  if (!AnyIslandAlive(topo_, mask)) {
    // Nothing to evacuate onto. Stay up, degraded: every current and
    // future transaction aborts kUnavailable; the caller decides whether
    // that is an outage or a restart.
    quarantining_.store(false, std::memory_order_release);
    return Status::Unavailable("no surviving island to evacuate onto");
  }
  // Phase 2 — evacuate through the regular repartition path: same
  // boundaries, failed placements re-homed round-robin onto survivors.
  // Repartition drains in-flight graphs (zombies guarantee progress),
  // seals the log-shard generation, migrates subtrees/heaps, and places
  // fresh shards with the re-homed partitions — recovery replays the
  // sealed generation exactly as after any repartition.
  const uint64_t t0 = obs_->NowNs();
  core::Scheme target;
  size_t moved = 0;
  {
    std::shared_lock gate(scheme_mu_);
    target = scheme_;
    moved = RemapFailedPlacements(&target, topo_, mask);
  }
  Result<size_t> applied = Repartition(target);
  quarantining_.store(false, std::memory_order_release);
  if (!applied.ok()) return applied.status();
  obs_->Count(obs::CounterId::kFaultPartitionsEvacuated, moved);
  obs_->RecordLatency(obs::HistId::kEvacuationUs, (obs_->NowNs() - t0) / 1000);
  return moved;
}

void PartitionedExecutor::RequestKillIsland(int island) {
  {
    std::lock_guard lk(kill_mu_);
    for (int queued : kill_requests_)
      if (queued == island) return;  // coalesce duplicate worker reports
    kill_requests_.push_back(island);
  }
  kill_cv_.notify_one();
}

void PartitionedExecutor::SentinelLoop() {
  for (;;) {
    int island;
    {
      std::unique_lock lk(kill_mu_);
      kill_cv_.wait(lk, [this] {
        return sentinel_stop_ || !kill_requests_.empty();
      });
      // Stop only once queued requests are processed: a kill reported just
      // before teardown still gets its partitions quarantined.
      if (kill_requests_.empty()) return;
      island = kill_requests_.front();
      kill_requests_.erase(kill_requests_.begin());
    }
    // The outcome (evacuated count, degraded-no-survivor) is recorded in
    // the registry; there is no caller to return it to.
    (void)KillIsland(island);
  }
}

}  // namespace atrapos::engine
