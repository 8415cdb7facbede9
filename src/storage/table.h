// A table: schema + one heap file per partition + multi-rooted primary
// index. The logical partitioning lives in the index's fence keys; the
// engine maps partitions to worker threads/cores. Tuple pages live in the
// owning partition's heap, so heap storage migrates with partition
// ownership exactly like B-tree subtrees do (paper §II-B: *all* partition
// state on the owning island).
//
// Heap ids are table-stable: every Rid's partition bits name the heap file
// that created it, and splits/merges allocate or retire heap ids without
// renumbering the survivors — only records that physically move between
// heaps get new Rids (and their index values are rewritten in the same
// repartitioning action).
#pragma once

#include <memory>
#include <string>

#include "storage/heap_file.h"
#include "storage/mrbtree.h"
#include "storage/schema.h"
#include "util/status.h"

namespace atrapos::storage {

using TableId = int32_t;

/// Observes successful mutations on the calling thread. The durability
/// subsystem registers one per partition worker (thread-local, so the
/// storage layer needs no per-table wiring and pays one branch when no
/// observer is installed) and turns every insert/update/delete into a log
/// record. Updates carry the Rid plus the before-image so the observer can
/// emit a diff-encoded record instead of a full after-image (see src/log/).
class MutationObserver {
 public:
  virtual ~MutationObserver() = default;
  virtual void OnInsert(TableId table, uint64_t key, Rid rid,
                        const Tuple& row) = 0;
  /// `before` points at a copy of the pre-update bytes (same length as
  /// `after`), valid only for the duration of the call.
  virtual void OnUpdate(TableId table, uint64_t key, Rid rid,
                        const uint8_t* before, const Tuple& after) = 0;
  virtual void OnDelete(TableId table, uint64_t key, Rid rid) = 0;
};

/// Installs `obs` for the calling thread (nullptr uninstalls).
void SetThreadMutationObserver(MutationObserver* obs);
MutationObserver* ThreadMutationObserver();

class Table {
 public:
  Table(TableId id, std::string name, Schema schema,
        std::vector<uint64_t> boundaries = {0});

  TableId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  MultiRootedBTree& index() { return index_; }
  const MultiRootedBTree& index() const { return index_; }

  size_t num_partitions() const { return index_.num_partitions(); }
  /// Partition ordinal p's heap file (valid until the next Split/Merge/
  /// Repartition changes the partitioning).
  HeapFile& heap(size_t p) { return *heaps_[part_heap_[p]]; }
  const HeapFile& heap(size_t p) const { return *heaps_[part_heap_[p]]; }
  /// Live records summed over every partition heap.
  uint64_t num_heap_records() const;

  /// Inserts a row under primary key `key` (heap of the owning partition).
  Status Insert(uint64_t key, const Tuple& row);

  /// Reads the row with primary key `key` into `out`.
  Status Read(uint64_t key, Tuple* out) const;

  /// Replaces the row with primary key `key`.
  Status Update(uint64_t key, const Tuple& row);

  Status Delete(uint64_t key);

  /// In-place partial overwrite of the row with primary key `key` — the
  /// replay primitive for diff-encoded log records. The Rid is resolved
  /// through the index (logged Rids go stale across repartition
  /// generations), then the bytes are patched directly in the heap: no
  /// re-insert, no full-tuple rebuild.
  Status ApplyDiff(uint64_t key, uint32_t offset, const uint8_t* data,
                   uint32_t len);

  // ---- Repartitioning (index + heap move together) ------------------------
  // Callers must have quiesced concurrent access (the executor runs these
  // with workers stopped, as for the index-only actions before).

  /// Splits partition p at `key`: the new right partition gets a fresh
  /// heap and its records move there (index values rewritten).
  Status Split(size_t p, uint64_t key);

  /// Merges partition p with p+1: p+1's records move into p's heap and its
  /// heap is retired (id recycled once empty).
  Status Merge(size_t p);

  /// Replaces the whole partitioning, redistributing index entries and
  /// heap records. Linear in total rows, like the index-only counterpart.
  void Repartition(const std::vector<uint64_t>& boundaries);

  uint64_t num_rows() const { return index_.total_size(); }

 private:
  /// The heap a (validated) rid lives in, or nullptr for a stale id.
  HeapFile* HeapOf(Rid rid);
  const HeapFile* HeapOf(Rid rid) const;
  /// Allocates a heap id (recycling retired ones) and creates its file.
  uint32_t NewHeap(mem::Arena* arena);
  /// Moves every record of partition ordinal `p` into heap `dst_id`,
  /// rewriting the index values. Records already in `dst_id` stay put.
  void MoveRecords(size_t p, uint32_t dst_id);
  /// Resets heap `id` and returns it to the free list.
  void RetireHeap(uint32_t id);

  TableId id_;
  std::string name_;
  Schema schema_;
  MultiRootedBTree index_;
  std::vector<std::unique_ptr<HeapFile>> heaps_;  ///< by stable heap id
  std::vector<uint32_t> part_heap_;  ///< partition ordinal -> heap id
  std::vector<uint32_t> free_heap_ids_;
};

}  // namespace atrapos::storage
