// LogManager: the island-partitioned durability subsystem's front door.
//
// Owns one LogShard per partition (the executor's default configuration)
// or a single centralized shard (PartitionedExecutor::Options::log_shards
// = 1, the shared-log baseline of the paper's Fig. 4 logging slice). A
// background group-commit flusher advances every shard's durable LSN each
// window and settles commit tickets; commit acks are asynchronous — the
// flusher (group mode) or the appending worker (async mode) notifies the
// registered CommitSink, and no per-partition worker ever blocks on a
// flush window.
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
    /// Group-commit window of the background flusher.
    uint64_t flush_interval_us = 50;
    /// Tests drive flushing manually with FlushAll() when false.
    bool start_flusher = true;
    /// Chunk payload for shards the manager creates its own pool for.
    size_t chunk_payload_bytes = mem::kPartitionChunkBytes;
    /// Serialization of every shard this manager creates. kCompactDiffV2
    /// (default) writes the slim Rid+diff records; kAfterImageV1 keeps the
    /// PR 4 after-image encoding for the log-bytes comparison.
    WireFormat wire = WireFormat::kCompactDiffV2;
    /// Observability registry for flush latency, flush count, and the
    /// durable-lag gauge (nullptr = no recording). Must outlive the
    /// manager; the executor passes its database's registry.
    obs::Registry* registry = nullptr;
  };

  /// Receives commit acks. Group mode: called on the flusher thread once
  /// the transaction's markers are durable on every shard it touched.
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

  /// The active shard serving partition `seq` of the current generation
  /// (clamped: the centralized configuration routes everything to its one
  /// shard).
  LogShard* ActiveShard(size_t seq);
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
  /// watermark, frees tickets). The background flusher calls this every
  /// window; manual-mode tests call it directly.
  void FlushAll();

  /// Stops the flusher after a final FlushAll and freezes every shard's
  /// durable point; a post-stop LogShard::WaitDurable returns the last
  /// durable LSN immediately. Idempotent; also run by the destructor.
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

  // ---- centralized configuration -----------------------------------------

  /// Ensures the centralized 1-shard configuration exists (id 0). Called
  /// by the executor under log_shards = 1; a no-op when shards were
  /// already added.
  void EnsureCentralShard(mem::Arena* arena);

  // ---- totals -------------------------------------------------------------

  uint64_t num_records() const;    ///< summed over all shards
  uint64_t bytes_logged() const;   ///< headers + payloads, all shards
  WireFormat wire() const { return opt_.wire; }

 private:
  void FlusherLoop();
  /// Settles tickets whose last marker became durable: group-mode ack,
  /// epoch watermark, free. Runs on the flusher (or FlushAll caller).
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

  std::atomic<bool> stop_{false};
  std::atomic<bool> stopped_{false};
  std::thread flusher_;
};

}  // namespace atrapos::log
