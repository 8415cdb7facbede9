// Crash recovery: rebuild table state from the durable prefixes of the
// log shards, merged by generation and commit epoch.
//
// Transaction fate is decided per shard-set: a transaction is COMMITTED
// when every one of its commit markers is durable (the marker carries how
// many partitions it touched, so a missing marker is detectable — no torn
// transactions across shards), ABORTED when an abort marker is present,
// and UNDECIDED otherwise (in flight at the crash).
//
// Replay applies the data records of committed transactions in per-shard
// LSN order (each key lives in exactly one shard of its generation, so
// per-shard order is per-key order). After-image records go through the
// table's insert/update path; diff-encoded records (kRecFlagDiff) are
// applied IN PLACE — the key resolves the row's current Rid through the
// index (the logged Rid goes stale across repartition generations) and
// the changed byte range is patched directly in the heap, with no
// re-insert and no full-tuple rebuild. Because partition workers execute
// without 2PL, a transaction may have observed the writes of an earlier
// transaction on the same partition whose commit did not survive the
// crash; including it would smuggle the lost write back in through the
// after-image. Recovery therefore closes the committed set under
// per-shard precedence: once an excluded (undecided or epoch-truncated)
// transaction's data record is passed in a shard, every later transaction
// writing in that shard is excluded too ("poisoned"), iterated to a
// fixpoint across shards. In steady state only the tail of the last
// group-commit window is affected. The surviving set is dependency-closed,
// so the rebuilt state equals a serial application of exactly those
// transactions — the property tests/log_recovery_test.cc asserts.
//
// Aborted transactions skip replay but do not poison. This is a
// deliberate asymmetry with a known consequence: the engine does not
// roll back, so an aborted transaction that wrote before failing (e.g.
// TATP's UpdateSubscriberData, whose Subscriber update can succeed in
// the same stage whose SpecialFacility update misses) leaves its effect
// in the live tables but is — correctly, by durability semantics —
// discarded at recovery, and a later committed transaction that read
// the aborted write replays it back in through its after-image. The
// recovered state therefore equals the serial application of the
// reported set only up to such dirty-read embeddings; poisoning on
// aborts instead would cascade-discard every later transaction in the
// shard for the lifetime of the log, which is far worse. The property
// tests pin the exact guarantee (and tests/log_recovery_test.cc's TATP
// test documents the bit1 divergence).
#pragma once

#include <cstdint>
#include <vector>

#include "log/log_record.h"

namespace atrapos::storage {
class Table;
}  // namespace atrapos::storage

namespace atrapos::log {

struct RecoveryOptions {
  /// Prefix-by-epoch replay: only transactions with commit epoch <= this
  /// are applied (with closure under per-shard precedence). Default:
  /// everything durable.
  uint64_t max_epoch = UINT64_MAX;
};

struct RecoveryReport {
  /// Committed transactions actually applied, sorted by commit epoch.
  std::vector<std::pair<TxnId, uint64_t>> applied;
  uint64_t records_applied = 0;
  /// Data records skipped because they carried no after-image (a
  /// key-only record; the executor always logs one, so any nonzero
  /// count means the log lost information).
  uint64_t records_without_image = 0;
  /// Diff records applied in place (subset of records_applied).
  uint64_t records_diff_applied = 0;
  /// Diff records whose key did not resolve (the row's creating insert was
  /// excluded) or whose range did not fit — skipped, not fatal.
  uint64_t records_diff_missed = 0;
  uint64_t txns_undecided = 0;      ///< in flight at the crash
  uint64_t txns_epoch_truncated = 0;///< committed, epoch > max_epoch
  uint64_t txns_poisoned = 0;       ///< excluded by precedence closure
  uint64_t txns_aborted = 0;
  uint64_t max_epoch_applied = 0;
  /// Torn-tail cut points ((shard_id, first LSN lost), one per shard whose
  /// snapshot ended mid-record on an injected torn write).
  std::vector<std::pair<int, Lsn>> torn_cuts;
};

/// Replays `shards` (from LogManager::SnapshotDurable) into `tables`,
/// indexed by the logged table id. Tables must hold the pre-run state
/// (the load phase is not logged). Unknown table ids and image-less data
/// records are counted, not fatal; replay is idempotent-friendly
/// (insert-on-existing applies as update, delete-on-missing is a no-op).
RecoveryReport Recover(const std::vector<ShardSnapshot>& shards,
                       const std::vector<storage::Table*>& tables,
                       const RecoveryOptions& opt = {});

}  // namespace atrapos::log
