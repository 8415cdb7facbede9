// LogManager: the island-partitioned durability subsystem's front door.
//
// Owns one LogShard per partition, placed on the partition's island.
//
// Group commit is committer-led (Aether's flush pipelining): a worker
// whose batch appended a group-mode commit marker calls RequestFlush().
// One caller at a time wins the leader flag and runs FlushAll() passes
// for everyone — advancing every shard's durable LSN and settling commit
// tickets — while the others return at once, their request folded into
// the leader's next pass. No committer waits for a timer and no worker
// ever blocks on a flush.
//
// A background idle flusher, under the same leader flag, serves only the
// flushes no committer leads. Each is noted owed (NoteFlushOwed): an
// async-mode commit marker's append, a window a kLogShortFlush fault cut
// short and a request a leader left at its pass bound. The flusher sleeps on a condvar while nothing is
// owed, so an idle or committer-led log costs no wake-ups. Once woken it
// ticks every flush_interval_us, passing at each tick that finds a flush
// owed, and goes back to sleep after kQuietTicks ticks with nothing owed;
// a steady stream of owed work therefore sees the same tick as before.
// Only the not-owed → owed edge notifies it.
//
// Commit acks are asynchronous: the flush leader (group mode) or the
// appending worker (async mode) notifies the registered CommitSink.
//
// The durable point is distributed: a vector of per-shard LSNs plus a
// commit-epoch watermark. Epochs are drawn from one global counter at
// commit time (an atomic increment — the only shared write on the commit
// path, vs a central log's mutex per record); the watermark advances
// once every transaction with a smaller epoch is durable on every shard
// it touched.
//
// Repartitioning seals the current generation's shards (they stay
// readable for recovery) and opens a new generation whose shards are
// placed with the new partitions. log::Recover replays all generations.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "log/log_record.h"
#include "log/log_shard.h"

namespace atrapos::obs {
class Registry;
}  // namespace atrapos::obs

namespace atrapos::log {

class LogManager {
 public:
  struct Options {
    /// Tick of the background idle flusher while a flush is owed to it
    /// (NoteFlushOwed); it sleeps otherwise. Group commits do not wait
    /// for it: the committing worker requests the flush (RequestFlush).
    uint64_t flush_interval_us = 50;
    /// false = manual mode: no background flusher and RequestFlush() is a
    /// no-op, so tests drive every flush pass with FlushAll().
    bool start_flusher = true;
    /// Chunk payload for shards the manager creates its own pool for.
    size_t chunk_payload_bytes = mem::kPartitionChunkBytes;
    /// Serialization of every shard this manager creates. kCompactDiffV2
    /// (default) writes the slim varint + diff records; kAfterImageV1
    /// keeps the fixed-header after-image encoding for the log-bytes
    /// comparison.
    WireFormat wire = WireFormat::kCompactDiffV2;
    /// Observability registry for flush latency, flush count, and the
    /// durable-lag gauge (nullptr = no recording). Must outlive the
    /// manager; the executor passes its database's registry.
    obs::Registry* registry = nullptr;
  };

  /// Receives commit acks. Group mode: called on the thread running the
  /// flush pass (a leading worker or the idle flusher) once the
  /// transaction's markers are durable on every shard it touched.
  /// Async mode: called on the worker appending the last marker.
  class CommitSink {
   public:
    virtual ~CommitSink() = default;
    virtual void OnCommitAcked(uint64_t epoch, void* cookie) = 0;
  };

  LogManager();  // default Options
  explicit LogManager(Options opt);
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // ---- shard topology (workers must be stopped) ---------------------------

  /// Adds a shard to the current generation and returns its stable id.
  /// `pool` may be null (the manager creates a heap-backed pool); `arena`
  /// may be null (no island accounting).
  int AddShard(std::shared_ptr<mem::ChunkPool> pool, mem::Arena* arena);

  /// Seals every active shard (final flush; kept for recovery) and opens
  /// a new generation for subsequent AddShard calls.
  void BeginGeneration();

  /// Any shard, sealed or active, by stable id.
  LogShard* shard(int id);
  size_t num_shards() const;       ///< all generations
  size_t num_active_shards() const;
  int generation() const;

  // ---- commit protocol ----------------------------------------------------

  void SetCommitSink(CommitSink* sink) { sink_ = sink; }

  /// Draws the next commit epoch and builds the ticket that tracks the
  /// transaction's markers across `expected` shards. The caller threads
  /// the ticket through the marker records it stages. The manager frees
  /// the ticket when the last marker is durable.
  CommitTicket* BeginCommit(int expected, void* cookie, bool fire_on_append);

  /// Ack path for append-fired tickets: the worker that appended a batch
  /// passes the tickets its shard reported (LogShard::AppendBatch). Must
  /// be called outside any shard lock.
  void OnMarkersAppended(std::span<CommitTicket* const> tickets);

  // ---- flushing / durability ---------------------------------------------

  /// One group-commit pass over every shard: advances durable LSNs,
  /// settles tickets (acks group-mode commits, advances the epoch
  /// watermark, frees tickets). Flush leaders and the idle flusher call
  /// this; manual-mode tests call it directly.
  void FlushAll();

  /// Committer-led group commit: asks for a FlushAll pass covering every
  /// record appended before the call. The caller either becomes the
  /// leader and runs at most kMaxLeaderPasses passes, or returns at once
  /// when another thread leads (that leader, or failing that the idle
  /// flusher, runs the pass). Never blocks. A no-op in manual mode and
  /// after Stop().
  void RequestFlush();

  /// Stops the flusher after a final FlushAll; the durable point no longer
  /// advances afterwards. Idempotent; also run by the destructor.
  void Stop();

  DurablePoint durable_point() const;
  uint64_t durable_epoch() const {
    return durable_epoch_.load(std::memory_order_acquire);
  }
  uint64_t last_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  // ---- recovery -----------------------------------------------------------

  /// The durable prefix of every shard, all generations — what a crash at
  /// this instant would leave for log::Recover.
  std::vector<ShardSnapshot> SnapshotDurable() const;

  // ---- totals -------------------------------------------------------------

  uint64_t num_records() const;    ///< summed over all shards
  uint64_t bytes_logged() const;   ///< headers + payloads, all shards
  WireFormat wire() const { return opt_.wire; }

 private:
  /// Bounds the flush work one RequestFlush caller does for others, so a
  /// worker returns to its own inbox; leftovers go to the idle flusher.
  static constexpr int kMaxLeaderPasses = 2;

  /// Ticks without an owed flush after which the idle flusher sleeps.
  static constexpr int kQuietTicks = 2;

  /// The idle flusher: sleeps until a flush is owed, then ticks every
  /// flush_interval_us, leading a pass at each tick that finds one owed,
  /// until kQuietTicks ticks in a row found none.
  void FlusherLoop();
  /// Hands a flush pass no committer leads to the idle flusher: it will
  /// flush every record appended before the call within about one
  /// flush_interval_us. Wakes the flusher only when nothing was owed yet.
  /// A no-op in manual mode. Called for append-acked markers, short
  /// writes and requests left at the leader's pass bound.
  void NoteFlushOwed();
  /// Runs FlushAll passes while a request is pending, as leader, at most
  /// kMaxLeaderPasses; returns at once when another thread leads.
  void LeadFlushes();
  /// Settles tickets whose last marker became durable: group-mode ack,
  /// epoch watermark, free. Runs on the FlushAll caller.
  void SettleDurable(const std::vector<CommitTicket*>& tickets);
  void MarkEpochDurable(uint64_t epoch);

  Options opt_;
  std::atomic<CommitSink*> sink_{nullptr};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> durable_epoch_{0};

  mutable std::mutex shards_mu_;
  std::vector<std::unique_ptr<LogShard>> shards_;  // stable ids, all gens
  std::vector<LogShard*> active_;                  // by partition seq
  int generation_ = 0;

  /// Out-of-order durable epochs waiting for the watermark to reach them.
  std::mutex epoch_mu_;
  std::vector<uint64_t> durable_out_of_order_;  // min-heap

  /// Leader/follower handshake. A requester sets flush_requested_ and
  /// then tries to take flush_leader_; a leader releases flush_leader_
  /// and then re-reads flush_requested_. Both pairs are seq_cst (the
  /// Dekker pair of the worker park protocol), so a request that loses
  /// the leader race is always seen by the leader that beat it.
  std::atomic<bool> flush_requested_{false};
  std::atomic<bool> flush_leader_{false};

  /// A pass is owed to the idle flusher. Set by NoteFlushOwed, cleared
  /// by the flusher just before each of its passes (seq_cst both).
  std::atomic<bool> flush_owed_{false};

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::mutex tick_mu_;  ///< pairs with both flusher condvars
  std::condition_variable idle_cv_;  ///< flusher sleeps here while not owed
  std::condition_variable tick_cv_;  ///< the tick wait; cut short by Stop()
  std::thread flusher_;
};

}  // namespace atrapos::log
