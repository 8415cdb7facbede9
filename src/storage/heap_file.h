// Heap file: an append-friendly collection of slotted pages. Memory
// resident, matching the paper's setup ("memory mapped disks for both data
// and log files"). Thread safety: a heap file is protected by one
// shared_mutex; partitioned engines give each partition its own heap so the
// latch is never contended in the critical path.
//
// Since the per-partition split (ROADMAP "Per-partition heap files"), a
// heap file carries a table-stable `heap id` — the partition bits of every
// Rid it hands out — and every access is validated against it, so a stale
// Rid (wrong heap, out-of-range page, vacated slot) returns NotFound
// instead of reading another partition's bytes.
//
// When an arena is attached, new page frames come from it (placing the heap
// on the arena's island) and every record access is charged to the
// requesting thread's socket in the arena's AllocStats — the traffic signal
// behind the paper's Table I QPI/IMC ratios.
#pragma once

#include <memory>
#include <shared_mutex>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace atrapos::storage {

class HeapFile {
 public:
  /// `heap_id` becomes the partition bits of every Rid this file returns.
  explicit HeapFile(uint32_t heap_id = 0, mem::Arena* arena = nullptr)
      : heap_id_(heap_id), arena_(arena) {}

  uint32_t heap_id() const { return heap_id_; }

  /// Appends a record, returning its Rid (partition bits = heap id).
  Result<Rid> Insert(const uint8_t* data, uint32_t len);

  /// Copies the record into `out` (must hold `len` bytes). NotFound if gone
  /// or the Rid names another heap / an out-of-range page.
  Status Read(Rid rid, uint8_t* out, uint32_t len) const;

  /// Migration-path variants of Read/Insert: identical behavior but the
  /// copy is NOT charged to the steady-state access matrix — callers
  /// charge AllocStats::RecordMigration instead, keeping one-off
  /// repartition traffic out of the remote-ratio signal (Table I).
  Status ReadForMigration(Rid rid, uint8_t* out, uint32_t len) const;
  Result<Rid> InsertForMigration(const uint8_t* data, uint32_t len);

  /// In-place overwrite (fixed-size records).
  Status Update(Rid rid, const uint8_t* data, uint32_t len);

  /// Update that first copies the pre-update bytes into `before` (must
  /// hold `len` bytes) — one latch acquisition for the diff-encoding
  /// read-modify-write instead of a Read + Update round-trip.
  Status UpdateCapturingBefore(Rid rid, const uint8_t* data, uint32_t len,
                               uint8_t* before);

  /// In-place partial overwrite of `len` bytes at `offset` within the
  /// record — the replay primitive of diff-encoded log records.
  /// InvalidArgument when the range exceeds the stored record.
  Status ApplyDelta(Rid rid, uint32_t offset, const uint8_t* data,
                    uint32_t len);

  Status Delete(Rid rid);

  /// Future pages allocate from `arena` (existing pages stay put; use
  /// MigrateTo to move them).
  void SetArena(mem::Arena* arena);
  mem::Arena* arena() const;

  /// Reseats every page frame into `arena` and adopts it for future pages —
  /// the physical page move of an island-to-island partition migration.
  void MigrateTo(mem::Arena* arena);

  /// Frees every page (a retired heap after Merge/Repartition moved its
  /// records away). The heap id stays valid; subsequent reads of old Rids
  /// return NotFound.
  void Reset();

  uint64_t num_records() const;
  size_t num_pages() const;

 private:
  /// NotFound unless `rid` names this heap and an existing page; caller
  /// holds mu_.
  Status CheckRid(Rid rid) const;
  Result<Rid> InsertImpl(const uint8_t* data, uint32_t len, bool charge);
  Status ReadImpl(Rid rid, uint8_t* out, uint32_t len, bool charge) const;

  const uint32_t heap_id_;
  mutable std::shared_mutex mu_;
  mem::Arena* arena_ = nullptr;
  std::vector<std::unique_ptr<Page>> pages_;
  size_t insert_hint_ = 0;  // page most likely to have space
};

}  // namespace atrapos::storage
