#include "log/log_shard.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "fault/injector.h"
#include "mem/arena.h"

namespace atrapos::log {

LogShard::LogShard(int id, int generation,
                   std::shared_ptr<mem::ChunkPool> pool, mem::Arena* arena,
                   WireFormat wire)
    : id_(id), generation_(generation), wire_(wire), pool_(std::move(pool)),
      arena_(arena) {}

LogShard::~LogShard() {
  for (Buf& b : bufs_) pool_->Put(b.data);
}

namespace {

// ---- v2 varint codec ----------------------------------------------------

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

uint8_t* PutVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Decodes one varint from [*p, end); false when it runs past `end` or
/// past 64 bits (a cut or corrupt header).
bool GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  uint64_t out = 0;
  for (unsigned shift = 0; shift < 64 && *p < end; shift += 7) {
    uint8_t b = *(*p)++;
    out |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *v = out;
      return true;
    }
  }
  return false;
}

/// Parses one v2 header at [p, end) into `r` (everything but lsn and
/// image) and its payload size; returns the header length, 0 when the
/// header does not fit.
size_t ParseHeaderV2(const uint8_t* p, const uint8_t* end,
                     RecoveredRecord* r, uint64_t* image_size) {
  const uint8_t* const start = p;
  const uint8_t tag = *p++;
  r->type = static_cast<LogType>(tag & ~kRecFlagDiff);
  uint64_t a = 0, txn = 0, c = 0;
  if (!GetVarint(&p, end, &a) || !GetVarint(&p, end, &txn) ||
      !GetVarint(&p, end, &c))
    return 0;
  r->txn = txn;
  *image_size = 0;
  if (IsMarkerType(r->type)) {
    r->marker_expected = static_cast<uint32_t>(a);
    r->epoch = c;
    return static_cast<size_t>(p - start);
  }
  r->table = static_cast<uint32_t>(a);
  r->key = c;
  r->is_diff = (tag & kRecFlagDiff) != 0;
  uint64_t offset = 0;
  if (r->is_diff && !GetVarint(&p, end, &offset)) return 0;
  r->diff_offset = static_cast<uint16_t>(offset);
  if (!GetVarint(&p, end, image_size)) return 0;
  return static_cast<size_t>(p - start);
}

}  // namespace

size_t LogShard::WireSize(const PendingRecord& r) const {
  if (wire_ == WireFormat::kAfterImageV1)
    return sizeof(RecordHeader) + r.image_size;
  if (IsMarkerType(r.type))
    return 1 + VarintSize(r.marker_expected) + VarintSize(r.txn) +
           VarintSize(r.epoch);
  return 1 + VarintSize(r.table) + VarintSize(r.txn) + VarintSize(r.key) +
         (r.is_diff ? VarintSize(r.diff_offset) : 0) +
         VarintSize(r.image_size) + r.image_size;
}

uint8_t* LogShard::ReserveLocked(size_t need) {
  size_t cap = pool_->payload_bytes();
  if (need > cap) {
    // Records never span chunks; every workload's fixed-width tuples are
    // far below a chunk, so an oversized image is a programming error.
    std::fprintf(stderr, "LogShard: record of %zu bytes exceeds chunk %zu\n",
                 need, cap);
    std::abort();
  }
  if (bufs_.empty() || cap - bufs_.back().used < need) {
    bufs_.push_back(Buf{static_cast<uint8_t*>(pool_->Get()), 0});
  }
  uint8_t* p = bufs_.back().data + bufs_.back().used;
  bufs_.back().used += static_cast<uint32_t>(need);
  return p;
}

size_t LogShard::WriteLocked(const PendingRecord& r, Lsn lsn,
                             const uint8_t* image) {
  size_t need = WireSize(r);
  uint8_t* p = ReserveLocked(need);
  if (wire_ == WireFormat::kAfterImageV1) {
    // Diff payloads require the v2 headers that carry the diff offset; a
    // diff staged against a v1 shard would serialize as a corrupt
    // partial after-image and silently vanish at recovery — fail loudly
    // (release builds included, like oversized records).
    if (r.is_diff) {
      std::fprintf(stderr, "LogShard: diff record staged against a v1 "
                           "after-image shard\n");
      std::abort();
    }
    RecordHeader h;
    h.lsn = lsn;
    h.txn = r.txn;
    h.key = r.key;
    h.epoch = r.epoch;
    h.table = r.table;
    h.type = static_cast<uint16_t>(r.type);
    h.marker_expected = r.marker_expected;
    h.image_size = r.image_size;
    std::memcpy(p, &h, sizeof(h));
    p += sizeof(h);
  } else if (IsMarkerType(r.type)) {
    *p++ = static_cast<uint8_t>(r.type);
    p = PutVarint(p, r.marker_expected);
    p = PutVarint(p, r.txn);
    p = PutVarint(p, r.epoch);
  } else {
    *p++ = static_cast<uint8_t>(static_cast<uint8_t>(r.type) |
                                (r.is_diff ? kRecFlagDiff : 0));
    p = PutVarint(p, r.table);
    p = PutVarint(p, r.txn);
    p = PutVarint(p, r.key);
    if (r.is_diff) p = PutVarint(p, r.diff_offset);
    p = PutVarint(p, r.image_size);
  }
  if (r.image_size > 0) std::memcpy(p, image, r.image_size);
  bytes_logged_.fetch_add(need, std::memory_order_relaxed);
  return need;
}

Lsn LogShard::AppendBatch(const PendingRecord* recs, size_t n,
                          const uint8_t* images,
                          std::vector<CommitTicket*>* append_fired) {
  if (append_fired != nullptr) append_fired->clear();
  if (n == 0) return 0;
  Lsn first;
  uint64_t bytes = 0;
  {
    std::lock_guard lk(mu_);
    assert(!sealed_ && "append to a sealed shard");
    first = next_lsn_;
    for (size_t i = 0; i < n; ++i) {
      const PendingRecord& r = recs[i];
      Lsn lsn = next_lsn_++;
      if (torn_cut_byte_ == 0 &&
          fault::Should(fault::SiteId::kLogTornTail)) {
        // Torn tail: the modeled disk write stops mid-record. The live
        // chunk chain still gets the full record (the engine is not
        // crashing), but SnapshotDurable — the recovery view — cuts here.
        torn_cut_byte_ = bytes_logged_.load(std::memory_order_relaxed) +
                         WireSize(r) / 2;
        torn_lsn_ = lsn;
      }
      bytes += WriteLocked(r, lsn, images + r.image_offset);
      if (r.ticket != nullptr) {
        waiters_.emplace_back(lsn, r.ticket);
        if (r.ticket->remaining_append.fetch_sub(
                1, std::memory_order_acq_rel) == 1) {
          // Last marker appended. The append-side reference either rides
          // out to the caller (async tickets fire their ack outside the
          // lock via OnMarkersAppended, which releases it) or is dropped
          // here, where the ticket is still safely alive.
          if (r.ticket->fire_on_append && append_fired != nullptr) {
            append_fired->push_back(r.ticket);
          } else {
            ReleaseCommitTicket(r.ticket);
          }
        }
      }
    }
  }
  num_records_.fetch_add(n, std::memory_order_relaxed);
  // Log traffic shows up in the island traffic matrix like any other
  // partition-state access (local: the shard sits on its partition's
  // island).
  if (arena_ != nullptr) arena_->RecordAccess(bytes);
  return first;
}

Lsn LogShard::AppendOne(const PendingRecord& rec, const uint8_t* image,
                        std::vector<CommitTicket*>* append_fired) {
  PendingRecord r = rec;
  r.image_offset = 0;
  return AppendBatch(&r, 1, image, append_fired);
}

bool LogShard::Flush(std::vector<CommitTicket*>* durable_fired) {
  return FlushInternal(durable_fired, /*allow_fault=*/true);
}

bool LogShard::FlushInternal(std::vector<CommitTicket*>* durable_fired,
                             bool allow_fault) {
  Lsn tail;
  bool whole = true;
  {
    std::lock_guard lk(mu_);
    tail = next_lsn_ - 1;
    Lsn cur = durable_lsn_.load(std::memory_order_relaxed);
    if (allow_fault && tail > cur &&
        fault::Should(fault::SiteId::kLogShortFlush)) {
      // Short write: only part of the window reached the disk. The rest
      // stays buffered for the next flush pass.
      tail = cur + (tail - cur + 1) / 2;
      whole = false;
    }
    if (tail > durable_lsn_.load(std::memory_order_relaxed)) {
      // The "flush": with a memory-mapped log disk this is a memcpy plus
      // fence; the group-commit window batches whatever accumulated.
      durable_lsn_.store(tail, std::memory_order_release);
    }
    while (waiters_head_ < waiters_.size() &&
           waiters_[waiters_head_].first <= tail) {
      if (durable_fired != nullptr)
        durable_fired->push_back(waiters_[waiters_head_].second);
      ++waiters_head_;
    }
    if (waiters_head_ == waiters_.size() && waiters_head_ > 0) {
      waiters_.clear();
      waiters_head_ = 0;
    }
  }
  return whole;
}

void LogShard::Seal(std::vector<CommitTicket*>* durable_fired) {
  FlushInternal(durable_fired, /*allow_fault=*/false);
  std::lock_guard lk(mu_);
  sealed_ = true;
}

std::vector<CommitTicket*> LogShard::TakeUnsettledWaiters() {
  std::lock_guard lk(mu_);
  std::vector<CommitTicket*> out;
  out.reserve(waiters_.size() - waiters_head_);
  for (size_t i = waiters_head_; i < waiters_.size(); ++i)
    out.push_back(waiters_[i].second);
  waiters_.clear();
  waiters_head_ = 0;
  return out;
}

bool LogShard::sealed() const {
  std::lock_guard lk(mu_);
  return sealed_;
}

uint64_t LogShard::torn_cut_byte() const {
  std::lock_guard lk(mu_);
  return torn_cut_byte_;
}

Lsn LogShard::tail_lsn() const {
  std::lock_guard lk(mu_);
  return next_lsn_ - 1;
}

ShardSnapshot LogShard::SnapshotDurable() const {
  ShardSnapshot snap;
  snap.shard_id = id_;
  snap.generation = generation_;
  Lsn durable = durable_lsn_.load(std::memory_order_acquire);
  std::lock_guard lk(mu_);
  // The injected torn tail: cumulative record bytes written before the
  // modeled disk stopped. A record crossing it is unreadable — its header
  // fields would be garbage on a real device — so the parse ends there.
  const uint64_t cut =
      torn_cut_byte_ == 0 ? UINT64_MAX : torn_cut_byte_;
  uint64_t pos = 0;
  // v2 LSNs are implicit: records were written in LSN order starting at 1,
  // so the parse position IS the LSN (what a sequential log disk encodes
  // by construction).
  Lsn next = 1;
  for (const Buf& b : bufs_) {
    uint32_t off = 0;
    while (off < b.used) {
      RecoveredRecord r;
      uint32_t image_size = 0;
      size_t header = 0;
      if (wire_ == WireFormat::kAfterImageV1) {
        if (off + sizeof(RecordHeader) > b.used) break;
        RecordHeader h;
        std::memcpy(&h, b.data + off, sizeof(h));
        if (h.lsn == 0 || h.lsn > durable) return snap;  // crash cut
        r.lsn = h.lsn;
        r.txn = h.txn;
        r.type = static_cast<LogType>(h.type);
        r.table = h.table;
        r.key = h.key;
        r.epoch = h.epoch;
        r.marker_expected = h.marker_expected;
        image_size = h.image_size;
        header = sizeof(h);
      } else {
        if (next > durable) return snap;  // crash cut
        uint64_t size = 0;
        header = ParseHeaderV2(b.data + off, b.data + b.used, &r, &size);
        if (header == 0 || header + size > b.used - off) break;
        r.lsn = next;
        image_size = static_cast<uint32_t>(size);
      }
      if (pos + header + image_size > cut) {
        snap.torn = true;
        snap.torn_lsn = torn_lsn_;
        snap.torn_cut_byte = cut;
        return snap;
      }
      pos += header + image_size;
      ++next;
      if (image_size > 0) {
        const uint8_t* img = b.data + off + header;
        r.image.assign(img, img + image_size);
      }
      snap.records.push_back(std::move(r));
      off += static_cast<uint32_t>(header + image_size);
    }
  }
  return snap;
}

}  // namespace atrapos::log
