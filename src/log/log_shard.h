// One partition's write-ahead log shard.
//
// The buffer is a chain of fixed-size chunks drawn from the partition's
// ChunkPool (arena-backed on the owner island, charged to mem::AllocStats
// like B-tree nodes), standing in for a memory-mapped log disk. Inserts
// are lock-minimized in the spirit of mpsc_queue.h: a worker stages the
// records of a whole drained batch locally (ShardWriter) and appends them
// with ONE mutex acquisition — one LSN-range reservation per batch, not
// per record.
//
// Durability is per shard: LogManager's group-commit passes (led by
// committing workers, or by its idle flusher) advance `durable_lsn` and
// collect the commit tickets of markers that just became durable. Nothing
// blocks on a shard: commit acks reach the executor through those tickets.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "log/log_record.h"
#include "mem/chunk_pool.h"

namespace atrapos::mem {
class Arena;
}  // namespace atrapos::mem

namespace atrapos::log {

class LogShard {
 public:
  /// `pool` backs the chunk chain (shared with the partition's inbox so a
  /// sealed shard keeps its blocks alive after the partition is gone);
  /// `arena` — when non-null — charges append traffic to the owner island;
  /// `wire` selects the serialization (see WireFormat).
  LogShard(int id, int generation, std::shared_ptr<mem::ChunkPool> pool,
           mem::Arena* arena,
           WireFormat wire = WireFormat::kCompactDiffV2);
  ~LogShard();

  LogShard(const LogShard&) = delete;
  LogShard& operator=(const LogShard&) = delete;

  /// Appends `n` staged records under one lock acquisition (one LSN-range
  /// reservation per drained batch). `images` is the writer's side buffer
  /// the records' image offsets index into. Commit markers decrement their
  /// ticket's `remaining_append`; tickets that hit zero are pushed onto
  /// `append_fired` (cleared first) for the caller to ack OUTSIDE the
  /// lock. Returns the first LSN of the batch (0 when n == 0).
  Lsn AppendBatch(const PendingRecord* recs, size_t n, const uint8_t* images,
                  std::vector<CommitTicket*>* append_fired);

  /// Single-record convenience: the executor's abort markers.
  Lsn AppendOne(const PendingRecord& rec, const uint8_t* image,
                std::vector<CommitTicket*>* append_fired);

  /// Group commit: advances the durable LSN to the current tail and
  /// appends (never clears) the tickets of commit markers that just
  /// became durable to `durable_fired` for the caller to settle outside
  /// the lock. Under an armed kLogShortFlush fault the durable LSN
  /// advances only part-way (a short write); the next flush pass
  /// completes the window, so group commit degrades to higher latency,
  /// never to a lost ack. Returns false when the write was short (a later
  /// pass is owed).
  bool Flush(std::vector<CommitTicket*>* durable_fired);

  /// Final flush + no further appends (asserted). Sealed shards stay
  /// readable for recovery; Repartition seals a generation's shards when
  /// their partitions are reassigned.
  void Seal(std::vector<CommitTicket*>* durable_fired);

  /// Drains the not-yet-durable commit tickets (markers appended after the
  /// final flush); the manager's destructor reclaims them.
  std::vector<CommitTicket*> TakeUnsettledWaiters();

  /// The durable prefix as recovery would see it after a crash: every
  /// record with LSN <= durable_lsn, parsed out of the chunk chain. When a
  /// kLogTornTail fault fired during an append, the shard carries a torn
  /// cut — a byte offset mid-record where the modeled disk write stopped —
  /// and the snapshot ends there instead, with `torn`/`torn_lsn`/
  /// `torn_cut_byte` reporting the cut point. The live engine never sees
  /// the tear; only recovery does, exactly like a crash mid-write.
  ShardSnapshot SnapshotDurable() const;

  /// The injected torn-tail cut in bytes (0 = none).
  uint64_t torn_cut_byte() const;

  int id() const { return id_; }
  int generation() const { return generation_; }
  WireFormat wire() const { return wire_; }
  bool sealed() const;
  Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }
  Lsn tail_lsn() const;
  uint64_t num_records() const {
    return num_records_.load(std::memory_order_relaxed);
  }
  /// Bytes appended so far (headers + images).
  uint64_t bytes_logged() const {
    return bytes_logged_.load(std::memory_order_relaxed);
  }

 private:
  struct Buf {
    uint8_t* data = nullptr;
    uint32_t used = 0;
  };

  /// Serialized size of one staged record under this shard's wire format.
  size_t WireSize(const PendingRecord& r) const;
  /// Copies one record into the chunk chain and returns its wire size;
  /// caller holds mu_.
  size_t WriteLocked(const PendingRecord& r, Lsn lsn, const uint8_t* image);
  /// Ensures the chunk chain can take `need` contiguous bytes; caller
  /// holds mu_. Returns the write position.
  uint8_t* ReserveLocked(size_t need);
  /// Flush body; `allow_fault` gates the kLogShortFlush site (Seal's final
  /// flush must complete, or sealed shards would strand commit tickets).
  bool FlushInternal(std::vector<CommitTicket*>* durable_fired,
                     bool allow_fault);

  const int id_;
  const int generation_;
  const WireFormat wire_;
  const std::shared_ptr<mem::ChunkPool> pool_;
  mem::Arena* const arena_;

  mutable std::mutex mu_;
  std::vector<Buf> bufs_;           // the chunk chain (the "disk")
  Lsn next_lsn_ = 1;                // guarded by mu_
  bool sealed_ = false;             // guarded by mu_
  /// Commit markers awaiting durability, in LSN order (appended in LSN
  /// order under mu_; Flush pops the durable prefix).
  std::vector<std::pair<Lsn, CommitTicket*>> waiters_;
  size_t waiters_head_ = 0;

  /// Injected torn tail: byte offset (in cumulative record-wire bytes)
  /// where the modeled disk write stopped, and the first LSN it cuts.
  /// Guarded by mu_; 0 = no tear.
  uint64_t torn_cut_byte_ = 0;
  Lsn torn_lsn_ = 0;

  std::atomic<Lsn> durable_lsn_{0};
  std::atomic<uint64_t> num_records_{0};
  std::atomic<uint64_t> bytes_logged_{0};
};

}  // namespace atrapos::log
