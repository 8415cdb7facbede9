// TATP — Telecom Application Transaction Processing benchmark (§VI-A).
//
// Four tables, perfectly partitionable on SubscriberID; seven transactions
// in three classes (single-table read, multi-table read, update). The
// standard mix is GetSubscriberData 35%, GetNewDestination 10%,
// GetAccessData 35%, UpdateSubscriberData 2%, UpdateLocation 14%,
// InsertCallForwarding 2%, DeleteCallForwarding 2%.
#pragma once

#include <memory>
#include <vector>

#include "core/flow_graph.h"
#include "core/scheme.h"
#include "storage/table.h"
#include "util/rng.h"

namespace atrapos::workload {

/// Table indices in the TATP spec.
enum TatpTable : int {
  kSubscriber = 0,
  kAccessInfo = 1,
  kSpecialFacility = 2,
  kCallForwarding = 3,
};

/// Transaction class indices in the TATP spec.
enum TatpTxn : int {
  kGetSubData = 0,
  kGetNewDest = 1,
  kGetAccData = 2,
  kUpdSubData = 3,
  kUpdLocation = 4,
  kInsCallFwd = 5,
  kDelCallFwd = 6,
};

// Column indices of the four tables (see BuildTatpTables schemas), used by
// the ActionGraph builders and by tests that read rows back directly.
enum SubCol : int { kSubId = 0, kSubNbr, kBit1, kHex1, kByte2, kMscLoc, kVlrLoc };
enum AiCol : int { kAiSId = 0, kAiType, kAiData1, kAiData2, kAiData3, kAiData4 };
enum SfCol : int { kSfSId = 0, kSfType, kSfActive, kSfErr, kSfDataA, kSfDataB };
enum CfCol : int { kCfSId = 0, kCfType, kCfStart, kCfEnd, kCfNumber };

/// The TATP workload spec with the standard mix and `subscribers` rows.
core::WorkloadSpec TatpSpec(uint64_t subscribers = 800000);

/// A spec restricted to a single transaction class at weight 1 (the
/// per-transaction bars of Fig. 8 and the phase workloads of Figs. 10-13).
core::WorkloadSpec TatpSingleTxnSpec(TatpTxn txn,
                                     uint64_t subscribers = 800000);

/// Builds and populates the four real TATP tables (for the real engine and
/// the examples). Row counts follow the spec ratios: ~2.5 AccessInfo and
/// ~2.5 SpecialFacility rows per subscriber, ~1.5 CallForwarding per SF.
/// Composite keys are encoded into the 48-bit key space via
/// TatpEncode{Ai,Sf,Cf}Key.
std::vector<std::unique_ptr<storage::Table>> BuildTatpTables(
    uint64_t subscribers, std::vector<uint64_t> boundaries = {0},
    uint64_t seed = 42);

/// Composite-key encodings (sub-id in high bits keeps partitioning aligned
/// with the Subscriber key domain).
constexpr uint64_t TatpEncodeAiKey(uint64_t s_id, uint64_t ai_type) {
  return s_id * 4 + (ai_type & 3);
}
constexpr uint64_t TatpEncodeSfKey(uint64_t s_id, uint64_t sf_type) {
  return s_id * 4 + (sf_type & 3);
}
constexpr uint64_t TatpEncodeCfKey(uint64_t s_id, uint64_t sf_type,
                                   uint64_t start_time) {
  return s_id * 32 + (sf_type & 3) * 8 + (start_time / 8 % 8);
}

/// Range partitioning of all four tables into `partitions` equal
/// subscriber ranges, partition p on core p. Each table's boundary p is
/// the encoded key of subscriber boundary `subscribers * p / partitions`,
/// so every row of a subscriber lands in that subscriber's partition.
core::Scheme TatpScheme(uint64_t subscribers, int partitions);

}  // namespace atrapos::workload
