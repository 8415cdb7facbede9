// ShardWriter: a partition worker's staging buffer for its log shard.
//
// The worker stages every record its drained batch produces — data
// after-images and the commit markers routed to it through its inbox — and
// Flush() appends them with one shard-lock acquisition, preserving the
// order the worker executed them in (the write-ahead invariant: a
// transaction's marker is staged by the owning worker, so it always lands
// after the transaction's data records).
// Staging reuses the same vectors forever, so the logging fast path
// allocates nothing in steady state.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "log/log_manager.h"
#include "log/log_record.h"
#include "log/log_shard.h"

namespace atrapos::log {

class ShardWriter {
 public:
  ShardWriter(LogManager* mgr, LogShard* shard) : mgr_(mgr), shard_(shard) {
    pending_.reserve(64);
    images_.reserve(4096);
  }

  LogShard* shard() const { return shard_; }

  /// Stages one data record (after-image copied into the side buffer).
  void Add(TxnId txn, LogType type, uint32_t table, uint64_t key,
           const uint8_t* image, uint32_t image_size) {
    PendingRecord r;
    r.txn = txn;
    r.type = type;
    r.table = table;
    r.key = key;
    r.image_offset = static_cast<uint32_t>(images_.size());
    r.image_size = image_size;
    if (image_size > 0) images_.insert(images_.end(), image, image + image_size);
    pending_.push_back(r);
  }

  /// Stages a diff-encoded update: only the `len` changed bytes at
  /// `offset` within the row are copied (len 0 is a valid no-op update —
  /// the record still decides commit protocol membership). Requires a
  /// kCompactDiffV2 shard.
  void AddDiff(TxnId txn, uint32_t table, uint64_t key, uint16_t offset,
               const uint8_t* bytes, uint16_t len) {
    PendingRecord r;
    r.txn = txn;
    r.type = LogType::kUpdate;
    r.table = table;
    r.key = key;
    r.is_diff = true;
    r.diff_offset = offset;
    r.image_offset = static_cast<uint32_t>(images_.size());
    r.image_size = len;
    if (len > 0) images_.insert(images_.end(), bytes, bytes + len);
    pending_.push_back(r);
  }

  /// Stages this partition's commit marker for `txn`.
  void AddCommitMarker(TxnId txn, uint64_t epoch, uint16_t expected,
                       CommitTicket* ticket) {
    PendingRecord r;
    r.txn = txn;
    r.type = LogType::kCommit;
    r.epoch = epoch;
    r.marker_expected = expected;
    r.image_offset = static_cast<uint32_t>(images_.size());
    r.ticket = ticket;
    if (ticket != nullptr && !ticket->fire_on_append) group_marker_ = true;
    pending_.push_back(r);
  }

  /// One reservation for everything staged since the last flush; acks
  /// append-fired (async-mode) tickets afterwards, outside the shard lock.
  /// Returns true when the batch appended a group-mode commit marker: the
  /// caller then owes a LogManager::RequestFlush() (committer-led group
  /// commit), which a worker issues once per pass over its partitions.
  bool Flush() {
    if (pending_.empty()) return false;
    shard_->AppendBatch(pending_.data(), pending_.size(), images_.data(),
                        &append_fired_);
    pending_.clear();
    images_.clear();
    if (!append_fired_.empty()) mgr_->OnMarkersAppended(append_fired_);
    return std::exchange(group_marker_, false);
  }

 private:
  LogManager* const mgr_;
  LogShard* const shard_;
  std::vector<PendingRecord> pending_;
  std::vector<uint8_t> images_;
  std::vector<CommitTicket*> append_fired_;
  bool group_marker_ = false;  ///< a staged marker awaits a group flush
};

}  // namespace atrapos::log
