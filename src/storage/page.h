// Slotted data page. Fixed 8 KiB frames; records are fixed-size per table
// (see Schema) but the slot directory keeps the page format general.
//
// Layout:  [header][slot directory ...] ... free ... [records grow down]
//
// Frames are allocated from a mem::Arena when one is supplied, so a page
// physically lives on the hardware island that owns its partition (paper
// §II-B); without an arena the frame comes from the global heap.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <vector>

#include "util/status.h"

namespace atrapos::mem {
class Arena;
}  // namespace atrapos::mem

namespace atrapos::storage {

constexpr uint32_t kPageSize = 8192;

/// Record identifier: heap id (the "partition bits" — a table-stable id of
/// the per-partition heap file the record lives in), page number within
/// that heap, and slot index within the page.
///
/// Encode() packs all three into the 64-bit value stored in the primary
/// index, tagged with a version so a stale encoding from the pre-partition
/// layout (page<<32|slot, version bits 00) fails loudly instead of being
/// misread as a (partition, page, slot) triple:
///
///   bits 63-62  version (0b01)
///   bits 61-48  partition / heap id   (14 bits, 16383 heaps per table)
///   bits 47-24  page                  (24 bits, 128 GiB per heap)
///   bits 23-0   slot                  (24 bits)
struct Rid {
  static constexpr uint32_t kPartitionBits = 14;
  static constexpr uint32_t kPageBits = 24;
  static constexpr uint32_t kSlotBits = 24;
  static constexpr uint32_t kMaxPartition = (1u << kPartitionBits) - 1;
  static constexpr uint32_t kMaxPage = (1u << kPageBits) - 1;
  static constexpr uint32_t kMaxSlot = (1u << kSlotBits) - 1;
  static constexpr uint64_t kVersion = 1;
  static constexpr uint32_t kVersionShift = 62;

  uint32_t partition = 0;
  uint32_t page = 0;
  uint32_t slot = 0;

  bool operator==(const Rid&) const = default;

  uint64_t Encode() const {
    return (kVersion << kVersionShift) |
           (static_cast<uint64_t>(partition) << (kPageBits + kSlotBits)) |
           (static_cast<uint64_t>(page) << kSlotBits) |
           static_cast<uint64_t>(slot);
  }

  /// Version-checked decode: nullopt when `v` does not carry the current
  /// version tag (e.g. a pre-partition page<<32|slot encoding).
  static std::optional<Rid> TryDecode(uint64_t v) {
    if ((v >> kVersionShift) != kVersion) return std::nullopt;
    return Rid{
        static_cast<uint32_t>((v >> (kPageBits + kSlotBits)) & kMaxPartition),
        static_cast<uint32_t>((v >> kSlotBits) & kMaxPage),
        static_cast<uint32_t>(v & kMaxSlot)};
  }

  /// Decode that fails loudly: a version mismatch is a corrupted index
  /// value or a stale pre-partition encoding — aborting beats silently
  /// dereferencing the wrong (partition, page, slot).
  static Rid Decode(uint64_t v) {
    std::optional<Rid> r = TryDecode(v);
    if (!r.has_value()) {
      std::fprintf(stderr,
                   "Rid::Decode: value %#llx lacks version tag %llu "
                   "(stale or corrupt encoding)\n",
                   static_cast<unsigned long long>(v),
                   static_cast<unsigned long long>(kVersion));
      std::abort();
    }
    return *r;
  }
};

/// A single slotted page. Not thread-safe; callers latch externally.
class Page {
 public:
  /// Allocates the frame from `arena` when given, else from the heap.
  explicit Page(mem::Arena* arena = nullptr);
  ~Page();

  Page(const Page&) = delete;
  Page& operator=(const Page&) = delete;

  /// Inserts a record; returns the slot index or ResourceExhausted when the
  /// page cannot fit it.
  Result<uint32_t> Insert(const uint8_t* data, uint32_t len);

  /// Reads the record in `slot`; nullptr if the slot is empty/invalid.
  const uint8_t* Get(uint32_t slot, uint32_t* len = nullptr) const;

  /// Overwrites a record in place (same length only — fixed-size records).
  Status Update(uint32_t slot, const uint8_t* data, uint32_t len);

  /// Overwrites `len` bytes at `offset` within the record — the in-place
  /// application of a diff-encoded log record. InvalidArgument when the
  /// range does not fit the stored record; len 0 is a validated no-op.
  Status UpdateRange(uint32_t slot, uint32_t offset, const uint8_t* data,
                     uint32_t len);

  /// Deletes the record (slot becomes reusable tombstone).
  Status Delete(uint32_t slot);

  /// Moves the frame into `arena` (copying its contents and freeing the old
  /// frame) — the physical half of migrating a partition to a new island.
  void Reseat(mem::Arena* arena);

  mem::Arena* arena() const { return arena_; }
  uint32_t num_slots() const { return num_slots_; }
  uint32_t live_records() const { return live_; }
  uint32_t free_space() const;

 private:
  struct Slot {
    uint32_t off = 0;
    uint32_t len = 0;  // 0 => tombstone
  };
  void FreeFrame();

  // The 8 KiB frame holds the record heap, mirroring the on-disk layout of
  // Shore-MT pages; the slot directory is kept aside as plain metadata.
  mem::Arena* arena_ = nullptr;
  uint8_t* frame_ = nullptr;
  std::vector<Slot> slots_;
  uint32_t num_slots_ = 0;
  uint32_t live_ = 0;
  uint32_t heap_top_ = kPageSize;  // records grow down from the end
};

}  // namespace atrapos::storage
