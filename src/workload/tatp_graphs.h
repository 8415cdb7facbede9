// The seven TATP stored procedures decomposed into routed transaction flow
// graphs (engine::ActionGraph) for the partitioned executor.
//
// Each builder mirrors the static TxnClass of workload::TatpSpec (same
// class indices, same table sets — asserted by ActionGraph::MatchesClass),
// so one workload description drives the simulator (simengine/dora.cc
// consumes the spec) and the real engine (the executor runs these graphs).
// Actions touch storage::Table directly: the owning partition worker
// serializes all access to its key range, so no 2PL is needed on this path
// (DORA's thread-to-data model, paper §III).
#pragma once

#include <memory>
#include <string>

#include "engine/action_graph.h"
#include "util/rng.h"
#include "workload/tatp.h"

namespace atrapos::workload {

class TatpActionGraphs {
 public:
  explicit TatpActionGraphs(uint64_t subscribers)
      : subscribers_(subscribers) {}

  // Output parameters are shared_ptrs captured by the graph's actions —
  // read them only after the returned graph's TxnFuture is Done. All may
  // be null when the caller only needs the Status.

  // ---- read-only, single table ------------------------------------------
  engine::ActionGraph GetSubscriberData(
      uint64_t s_id, std::shared_ptr<storage::Tuple> out = nullptr) const;
  engine::ActionGraph GetAccessData(
      uint64_t s_id, uint64_t ai_type,
      std::shared_ptr<int64_t> data1 = nullptr) const;

  // ---- read-only, multi table: SF probe, RVP, CF window probes ----------
  /// Completes NotFound when the SpecialFacility is inactive (aborting at
  /// the RVP, so the CallForwarding stage never runs) or when no
  /// forwarding window covers [start_time, end_time) — the spec's ~76.5%
  /// hit rate appears as the OK fraction.
  engine::ActionGraph GetNewDestination(
      uint64_t s_id, uint64_t sf_type, uint64_t start_time, uint64_t end_time,
      std::shared_ptr<std::string> numberx = nullptr) const;

  // ---- updates ----------------------------------------------------------
  /// Two parallel update actions (Subscriber + SpecialFacility) joined at
  /// the final RVP.
  engine::ActionGraph UpdateSubscriberData(uint64_t s_id, int64_t bit,
                                           uint64_t sf_type,
                                           int64_t data_a) const;
  engine::ActionGraph UpdateLocation(uint64_t s_id,
                                     int64_t vlr_location) const;
  /// Reads Subscriber + SpecialFacility in stage 1; inserts the
  /// CallForwarding row in stage 2 (cancelled when either read misses).
  engine::ActionGraph InsertCallForwarding(uint64_t s_id, uint64_t sf_type,
                                           uint64_t start_time,
                                           uint64_t end_time,
                                           std::string numberx) const;
  /// Reads Subscriber in stage 1; deletes the CallForwarding row in
  /// stage 2.
  engine::ActionGraph DeleteCallForwarding(uint64_t s_id, uint64_t sf_type,
                                           uint64_t start_time) const;

  /// Draws one transaction from the standard TATP mix
  /// (35/10/35/2/14/2/2). The returned graph's txn_class() identifies the
  /// class drawn (TatpTxn); spec-conformant misses surface as NotFound /
  /// AlreadyExists statuses, which callers should count as success.
  engine::ActionGraph Mix(Rng& rng) const;
  /// Same mix but against a caller-chosen subscriber — drivers use this to
  /// apply skew to every transaction class, not just to reads.
  engine::ActionGraph Mix(Rng& rng, uint64_t s_id) const;

  /// True for the statuses a TATP driver counts as successful execution
  /// (OK plus the spec's expected misses).
  static bool CountsAsSuccess(const Status& s) {
    return s.ok() || s.code() == StatusCode::kNotFound ||
           s.code() == StatusCode::kAlreadyExists;
  }

  uint64_t subscribers() const { return subscribers_; }

 private:
  uint64_t subscribers_;
};

}  // namespace atrapos::workload
