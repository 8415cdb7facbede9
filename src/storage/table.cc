#include "storage/table.h"

#include "mem/arena.h"

namespace atrapos::storage {

namespace {
thread_local MutationObserver* t_observer = nullptr;

/// Reusable pre-image buffer for the observer's diff encoding; records are
/// small and fixed-size, so one thread-local vector never reallocates in
/// steady state.
thread_local std::vector<uint8_t> t_before;
}  // namespace

void SetThreadMutationObserver(MutationObserver* obs) { t_observer = obs; }
MutationObserver* ThreadMutationObserver() { return t_observer; }

Table::Table(TableId id, std::string name, Schema schema,
             std::vector<uint64_t> boundaries)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      index_(std::move(boundaries)) {
  part_heap_.reserve(index_.num_partitions());
  for (size_t p = 0; p < index_.num_partitions(); ++p)
    part_heap_.push_back(NewHeap(nullptr));
}

uint32_t Table::NewHeap(mem::Arena* arena) {
  if (!free_heap_ids_.empty()) {
    uint32_t id = free_heap_ids_.back();
    free_heap_ids_.pop_back();
    heaps_[id] = std::make_unique<HeapFile>(id, arena);
    return id;
  }
  uint32_t id = static_cast<uint32_t>(heaps_.size());
  if (id > Rid::kMaxPartition) {
    std::fprintf(stderr, "Table %s: heap id space exhausted (%u heaps)\n",
                 name_.c_str(), id);
    std::abort();
  }
  heaps_.push_back(std::make_unique<HeapFile>(id, arena));
  return id;
}

void Table::RetireHeap(uint32_t id) {
  heaps_[id]->Reset();
  free_heap_ids_.push_back(id);
}

HeapFile* Table::HeapOf(Rid rid) {
  return rid.partition < heaps_.size() ? heaps_[rid.partition].get() : nullptr;
}

const HeapFile* Table::HeapOf(Rid rid) const {
  return rid.partition < heaps_.size() ? heaps_[rid.partition].get() : nullptr;
}

uint64_t Table::num_heap_records() const {
  uint64_t n = 0;
  for (size_t p = 0; p < num_partitions(); ++p) n += heap(p).num_records();
  return n;
}

Status Table::Insert(uint64_t key, const Tuple& row) {
  HeapFile& h = heap(index_.PartitionOf(key));
  auto rid = h.Insert(row.data(), row.size());
  if (!rid.ok()) return rid.status();
  Status s = index_.Insert(key, rid.value().Encode());
  if (!s.ok()) {
    // Roll the heap insert back so the table stays consistent.
    (void)h.Delete(rid.value());
    return s;
  }
  if (t_observer != nullptr)
    t_observer->OnInsert(id_, key, rid.value(), row);
  return Status::OK();
}

Status Table::Read(uint64_t key, Tuple* out) const {
  auto v = index_.Get(key);
  if (!v) return Status::NotFound("no such key");
  Rid rid = Rid::Decode(*v);
  const HeapFile* h = HeapOf(rid);
  if (h == nullptr) return Status::NotFound("stale heap id");
  *out = Tuple(&schema_);
  return h->Read(rid, out->mutable_data(), out->size());
}

Status Table::Update(uint64_t key, const Tuple& row) {
  auto v = index_.Get(key);
  if (!v) return Status::NotFound("no such key");
  Rid rid = Rid::Decode(*v);
  HeapFile* h = HeapOf(rid);
  if (h == nullptr) return Status::NotFound("stale heap id");
  if (t_observer != nullptr) {
    // Capture the before-image (one latch round-trip, same acquisition as
    // the write) so the observer can diff-encode the log record.
    t_before.resize(row.size());
    ATRAPOS_RETURN_NOT_OK(h->UpdateCapturingBefore(rid, row.data(),
                                                   row.size(),
                                                   t_before.data()));
    t_observer->OnUpdate(id_, key, rid, t_before.data(), row);
    return Status::OK();
  }
  return h->Update(rid, row.data(), row.size());
}

Status Table::Delete(uint64_t key) {
  auto v = index_.Get(key);
  if (!v) return Status::NotFound("no such key");
  Rid rid = Rid::Decode(*v);
  HeapFile* h = HeapOf(rid);
  if (h == nullptr) return Status::NotFound("stale heap id");
  ATRAPOS_RETURN_NOT_OK(h->Delete(rid));
  ATRAPOS_RETURN_NOT_OK(index_.Delete(key));
  if (t_observer != nullptr) t_observer->OnDelete(id_, key, rid);
  return Status::OK();
}

Status Table::ApplyDiff(uint64_t key, uint32_t offset, const uint8_t* data,
                        uint32_t len) {
  auto v = index_.Get(key);
  if (!v) return Status::NotFound("no such key");
  Rid rid = Rid::Decode(*v);
  HeapFile* h = HeapOf(rid);
  if (h == nullptr) return Status::NotFound("stale heap id");
  return h->ApplyDelta(rid, offset, data, len);
}

void Table::MoveRecords(size_t p, uint32_t dst_id) {
  // Collect first: rewriting index values while scanning the same subtree
  // would invalidate the iteration.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  entries.reserve(index_.partition_size(p));
  index_.subtree(p).Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
    entries.emplace_back(k, v);
    return true;
  });
  HeapFile& dst = *heaps_[dst_id];
  std::vector<uint8_t> buf(schema_.record_size());
  for (auto [k, v] : entries) {
    Rid old = Rid::Decode(v);
    if (old.partition == dst_id) continue;  // already home
    HeapFile* src = HeapOf(old);
    // Migration-path copies: charged to the migration channel below, not
    // the steady-state access matrix the remote-traffic ratio reads. A
    // failure here is an invariant violation (the index references a
    // committed row we cannot re-home) — the caller may retire the source
    // heap next, so dropping the record silently would be data loss.
    Status moved_s = src == nullptr
                         ? Status::NotFound("stale heap id")
                         : src->ReadForMigration(old, buf.data(),
                                                 schema_.record_size());
    Result<Rid> moved = moved_s.ok()
                            ? dst.InsertForMigration(buf.data(),
                                                     schema_.record_size())
                            : Result<Rid>(moved_s);
    if (!moved.ok()) {
      std::fprintf(stderr,
                   "Table %s: cannot migrate key %llu between heaps: %s\n",
                   name_.c_str(), static_cast<unsigned long long>(k),
                   moved.status().ToString().c_str());
      std::abort();
    }
    (void)src->Delete(old);
    (void)index_.subtree(p).Update(k, moved.value().Encode());
    if (dst.arena() != nullptr && dst.arena()->stats() != nullptr) {
      mem::Arena* sa = src->arena();
      dst.arena()->stats()->RecordMigration(
          sa != nullptr ? sa->home_socket() : dst.arena()->home_socket(),
          dst.arena()->home_socket(), schema_.record_size());
    }
  }
}

Status Table::Split(size_t p, uint64_t key) {
  ATRAPOS_RETURN_NOT_OK(index_.Split(p, key));
  // The new right partition starts on its parent's island (like the
  // subtree); the engine re-places it once ownership is known.
  uint32_t h = NewHeap(heaps_[part_heap_[p]]->arena());
  part_heap_.insert(part_heap_.begin() + static_cast<long>(p) + 1, h);
  MoveRecords(p + 1, h);
  return Status::OK();
}

Status Table::Merge(size_t p) {
  if (p + 1 >= part_heap_.size()) return Status::OutOfRange("no right neighbor");
  uint32_t keep = part_heap_[p];
  uint32_t retire = part_heap_[p + 1];
  ATRAPOS_RETURN_NOT_OK(index_.Merge(p));
  part_heap_.erase(part_heap_.begin() + static_cast<long>(p) + 1);
  MoveRecords(p, keep);
  RetireHeap(retire);
  return Status::OK();
}

void Table::Repartition(const std::vector<uint64_t>& boundaries) {
  // Each new partition claims the heap of the old partition that served
  // its start key (first claimant wins), so records whose partition
  // assignment is unchanged keep their heap — and their Rids. Resolved
  // through the index *before* it is repartitioned.
  std::vector<uint32_t> old_heaps = std::move(part_heap_);
  std::vector<bool> claimed(old_heaps.size(), false);
  part_heap_.clear();
  for (uint64_t start : boundaries) {
    size_t op = index_.PartitionOf(start);
    if (!claimed[op]) {
      claimed[op] = true;
      part_heap_.push_back(old_heaps[op]);
    } else {
      // A fresh heap, starting on the island that served its start key
      // (like MultiRootedBTree::Repartition does for subtrees).
      part_heap_.push_back(NewHeap(heaps_[old_heaps[op]]->arena()));
    }
  }
  index_.Repartition(boundaries);
  // Records that changed partitions are re-homed; unclaimed heaps are
  // retired once emptied.
  for (size_t p = 0; p < part_heap_.size(); ++p) MoveRecords(p, part_heap_[p]);
  for (size_t i = 0; i < old_heaps.size(); ++i)
    if (!claimed[i]) RetireHeap(old_heaps[i]);
}

}  // namespace atrapos::storage
