#include "storage/heap_file.h"

#include <mutex>

#include "mem/arena.h"

namespace atrapos::storage {

namespace {
/// Charges `len` bytes of traffic to the page's home island, if placed.
inline void ChargeAccess(const Page& page, uint32_t len) {
  if (mem::Arena* a = page.arena()) a->RecordAccess(len);
}
}  // namespace

Result<Rid> HeapFile::Insert(const uint8_t* data, uint32_t len) {
  return InsertImpl(data, len, /*charge=*/true);
}

Result<Rid> HeapFile::InsertForMigration(const uint8_t* data, uint32_t len) {
  return InsertImpl(data, len, /*charge=*/false);
}

Result<Rid> HeapFile::InsertImpl(const uint8_t* data, uint32_t len,
                                 bool charge) {
  std::unique_lock lk(mu_);
  if (insert_hint_ < pages_.size()) {
    auto r = pages_[insert_hint_]->Insert(data, len);
    if (r.ok()) {
      if (charge) ChargeAccess(*pages_[insert_hint_], len);
      return Rid{heap_id_, static_cast<uint32_t>(insert_hint_), r.value()};
    }
  }
  if (pages_.size() > Rid::kMaxPage) {
    // Rid page bits would overflow into the partition/version fields —
    // refuse loudly instead of corrupting the encoding.
    return Status::ResourceExhausted("heap page-id space exhausted");
  }
  pages_.push_back(std::make_unique<Page>(arena_));
  insert_hint_ = pages_.size() - 1;
  auto r = pages_.back()->Insert(data, len);
  if (!r.ok()) return r.status();  // record larger than a page
  if (charge) ChargeAccess(*pages_.back(), len);
  return Rid{heap_id_, static_cast<uint32_t>(insert_hint_), r.value()};
}

Status HeapFile::CheckRid(Rid rid) const {
  // Stale Rids are reachable input once partition bits exist (a crash-cut
  // log replayed against a repartitioned table, a corrupt index value):
  // every lookup validates heap id and page range before touching pages_.
  if (rid.partition != heap_id_) return Status::NotFound("wrong heap");
  if (rid.page >= pages_.size()) return Status::NotFound("bad page");
  return Status::OK();
}

Status HeapFile::Read(Rid rid, uint8_t* out, uint32_t len) const {
  return ReadImpl(rid, out, len, /*charge=*/true);
}

Status HeapFile::ReadForMigration(Rid rid, uint8_t* out, uint32_t len) const {
  return ReadImpl(rid, out, len, /*charge=*/false);
}

Status HeapFile::ReadImpl(Rid rid, uint8_t* out, uint32_t len,
                          bool charge) const {
  std::shared_lock lk(mu_);
  ATRAPOS_RETURN_NOT_OK(CheckRid(rid));
  uint32_t stored = 0;
  const uint8_t* p = pages_[rid.page]->Get(rid.slot, &stored);
  if (!p) return Status::NotFound("empty slot");
  std::memcpy(out, p, std::min(len, stored));
  if (charge) ChargeAccess(*pages_[rid.page], std::min(len, stored));
  return Status::OK();
}

Status HeapFile::Update(Rid rid, const uint8_t* data, uint32_t len) {
  std::unique_lock lk(mu_);
  ATRAPOS_RETURN_NOT_OK(CheckRid(rid));
  Status s = pages_[rid.page]->Update(rid.slot, data, len);
  if (s.ok()) ChargeAccess(*pages_[rid.page], len);  // failed writes touch nothing
  return s;
}

Status HeapFile::UpdateCapturingBefore(Rid rid, const uint8_t* data,
                                       uint32_t len, uint8_t* before) {
  std::unique_lock lk(mu_);
  ATRAPOS_RETURN_NOT_OK(CheckRid(rid));
  uint32_t stored = 0;
  const uint8_t* p = pages_[rid.page]->Get(rid.slot, &stored);
  if (!p) return Status::NotFound("empty slot");
  std::memcpy(before, p, std::min(len, stored));
  Status s = pages_[rid.page]->Update(rid.slot, data, len);
  // One charge for the read-modify-write pair, like Update.
  if (s.ok()) ChargeAccess(*pages_[rid.page], len);
  return s;
}

Status HeapFile::ApplyDelta(Rid rid, uint32_t offset, const uint8_t* data,
                            uint32_t len) {
  std::unique_lock lk(mu_);
  ATRAPOS_RETURN_NOT_OK(CheckRid(rid));
  Status s = pages_[rid.page]->UpdateRange(rid.slot, offset, data, len);
  if (s.ok() && len > 0) ChargeAccess(*pages_[rid.page], len);
  return s;
}

Status HeapFile::Delete(Rid rid) {
  std::unique_lock lk(mu_);
  ATRAPOS_RETURN_NOT_OK(CheckRid(rid));
  return pages_[rid.page]->Delete(rid.slot);
}

void HeapFile::SetArena(mem::Arena* arena) {
  std::unique_lock lk(mu_);
  arena_ = arena;
}

mem::Arena* HeapFile::arena() const {
  std::shared_lock lk(mu_);
  return arena_;
}

void HeapFile::MigrateTo(mem::Arena* arena) {
  std::unique_lock lk(mu_);
  arena_ = arena;
  for (auto& p : pages_) p->Reseat(arena);
}

void HeapFile::Reset() {
  std::unique_lock lk(mu_);
  pages_.clear();
  insert_hint_ = 0;
}

uint64_t HeapFile::num_records() const {
  std::shared_lock lk(mu_);
  uint64_t n = 0;
  for (const auto& p : pages_) n += p->live_records();
  return n;
}

size_t HeapFile::num_pages() const {
  std::shared_lock lk(mu_);
  return pages_.size();
}

}  // namespace atrapos::storage
