// Record and commit-protocol types of the island-partitioned durability
// subsystem (src/log/).
//
// The subsystem replaces a single mutex-serialized write-ahead log — the
// last centralized structure in a shared-everything engine, whose
// contention the paper measures as the logging slice of Fig. 4 — with one
// LogShard per partition, placed on the owning island. Shard records are
// self-contained for recovery: inserts carry the row's after-image,
// updates the bytes that changed and their offset, and commit markers
// carry the transaction's commit epoch and the number of partitions it
// touched, so replay can decide transaction fate without any central LSN.
//
// Commit protocol (Aether-style consolidated group commit, asynchronous
// acks): the completing worker draws a global commit epoch, then publishes
// one commit marker per touched partition *through that partition's
// inbox*, so every marker is appended by the shard's owning worker after
// the transaction's data records (per-shard LSN order encodes the
// write-ahead invariant). A CommitTicket counts markers across shards; the
// transaction is acknowledged when the ticket fires — at marker append
// (async mode) or when every marker is durable (group mode). In group
// mode the worker that appends a marker also requests the flush
// (LogManager::RequestFlush, Aether's flush pipelining): committers drive
// group commit, no timer does, and no worker ever blocks on a flush.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace atrapos::log {

/// A record's position in its shard's log (per-shard, dense from 1).
using Lsn = uint64_t;
/// Transaction id as the log records it.
using TxnId = uint64_t;

/// Record type. The numeric values are part of the record encoding.
enum class LogType : uint8_t {
  kBegin,
  kUpdate,
  kInsert,
  kDelete,
  kCommit,
  kAbort,
};

/// One commit's cross-shard completion state. Created by
/// LogManager::BeginCommit; each appended marker decrements
/// `remaining_append`, each flushed marker decrements `remaining_durable`.
/// The ack fires at append-zero (fire_on_append, async mode) or
/// durable-zero (group mode); the ticket is freed — and its epoch folded
/// into the durable-epoch watermark — at durable-zero, which always
/// happens last.
struct CommitTicket {
  std::atomic<int> remaining_append;
  std::atomic<int> remaining_durable;
  /// Lifetime: one reference per marker occurrence (released when the
  /// flush pass settles it — or the manager's destructor reclaims it) plus
  /// one for the append-side ack path, so neither side can free the
  /// ticket under the other.
  std::atomic<int> remaining_release;
  uint64_t epoch;
  void* cookie;        ///< opaque ack payload (engine: TxnState*); may be null
  bool fire_on_append; ///< async commit: ack when appended, not when durable

  CommitTicket(int expected, uint64_t e, void* c, bool on_append)
      : remaining_append(expected),
        remaining_durable(expected),
        remaining_release(expected + 1),
        epoch(e),
        cookie(c),
        fire_on_append(on_append) {}
};

/// Drops one reference; frees the ticket on the last. Returns true when
/// it was freed.
inline bool ReleaseCommitTicket(CommitTicket* t) {
  if (t->remaining_release.fetch_sub(1, std::memory_order_acq_rel) != 1)
    return false;
  delete t;
  return true;
}

/// A staged record, owned by a ShardWriter until its batch is appended.
/// Image bytes live in the writer's side buffer (`image_offset` indexes
/// it) so staging a record never allocates. For diff-encoded updates the
/// side-buffer bytes are the changed range and `diff_offset` locates it
/// within the record (`is_diff` set); otherwise they are the full image.
struct PendingRecord {
  TxnId txn = 0;
  LogType type = LogType::kBegin;
  uint32_t table = 0;
  uint64_t key = 0;
  uint64_t epoch = 0;             ///< commit markers only
  uint16_t marker_expected = 0;   ///< commit markers: #touched partitions
  uint16_t diff_offset = 0;       ///< diff records: byte offset in the row
  bool is_diff = false;           ///< image bytes are a partial-row diff
  uint32_t image_offset = 0;
  uint32_t image_size = 0;
  CommitTicket* ticket = nullptr; ///< commit markers only; may be null
};

// Record encoding (Aether-style log slimming). The log lives in process
// memory and is never read by another process, so the encoding carries no
// version.
//
// Every record starts with one byte holding its LogType and, for data
// records, the kRecFlagDiff bit; the remaining header fields are LEB128
// varints, so small ids cost one byte each:
//   data:   table, txn, key, [diff offset when kRecFlagDiff], payload
//           size, then the payload — updates log only the bytes that
//           changed;
//   marker: expected, txn, epoch (commit and abort; no payload).
// No Rid is logged: replay resolves rows by key, since a logged Rid goes
// stale once a repartition generation re-homes the row. LSNs are
// implicit (records are parsed back in append order), which is what a
// per-shard sequential log gives for free.

/// Type-byte flag: the data record's payload is a partial-row diff.
inline constexpr uint8_t kRecFlagDiff = 0x80;

/// True for the record types serialized as markers.
inline bool IsMarkerType(LogType t) {
  return t == LogType::kCommit || t == LogType::kAbort;
}

/// A parsed record, as recovery sees it.
struct RecoveredRecord {
  Lsn lsn = 0;
  TxnId txn = 0;
  LogType type = LogType::kBegin;
  uint32_t table = 0;
  uint64_t key = 0;
  uint64_t epoch = 0;
  uint32_t marker_expected = 0;
  uint16_t diff_offset = 0;
  bool is_diff = false;           ///< `image` is a partial-row diff
  std::vector<uint8_t> image;
};

/// The durable prefix of one shard — what a crash would leave on disk.
struct ShardSnapshot {
  int shard_id = 0;
  int generation = 0;  ///< repartition seals a generation; replay merges
  std::vector<RecoveredRecord> records;
  /// Injected torn tail (fault::kLogTornTail): the shard's parse stopped
  /// mid-record at `torn_cut_byte`; `torn_lsn` is the first LSN lost to
  /// the tear. Recovery treats the cut like any crash cut and reports it.
  bool torn = false;
  Lsn torn_lsn = 0;
  uint64_t torn_cut_byte = 0;
};

/// Distributed durable point: per-shard durable LSNs plus the commit-epoch
/// watermark (every transaction with epoch <= `epoch` is durable on every
/// shard it touched). Replaces the retired WAL's single scalar LSN.
struct DurablePoint {
  std::vector<Lsn> shard_lsns;  ///< indexed by stable shard id
  uint64_t epoch = 0;
};

}  // namespace atrapos::log
