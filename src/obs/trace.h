// Transaction lifecycle tracing: fixed-size per-worker ring buffers of
// epoch-stamped trace events, written at the span boundaries
//
//   submit → inbox-publish → drain → action-execute → RVP-resolve →
//   commit-marker-append → durable-ack
//
// plus instants for repartition decisions and group-commit flushes.
// Tracing is toggled per Database::Options (obs::Registry::Options) and
// costs one relaxed atomic load when off — no clock read, no allocation.
//
// Each ring is single-writer (the owning worker/thread) and fixed-size:
// recording is three relaxed atomic stores plus a release head publish,
// and on overflow the oldest events are overwritten (total_recorded tracks
// how many were dropped). Readers collect concurrently with relaxed loads
// — a live dump is best-effort around the wrap point (slots being
// overwritten can carry a mix of old and new fields, never a data race);
// a quiescent dump (Drain() first) is exact.
//
// DumpChromeTrace serializes the merged rings as a chrome://tracing /
// Perfetto-loadable JSON array: the submit→durable-ack lifetime of each
// transaction is an async span keyed by txn id, worker-local work (drain
// batches, individual actions) are complete ("X") events with durations,
// and RVP resolution, marker appends, durable acks, and repartitions are
// instants.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace atrapos::obs {

enum class SpanId : uint8_t {
  kTxn = 0,           ///< async: submit (begin) → completion ack (end)
  kSubmitPublish,     ///< X on the client thread: stage-0 bucket + publish
  kDrain,             ///< X on a worker: one drained inbox batch
  kAction,            ///< X on a worker: one action body
  kRvpResolve,        ///< instant: stage finisher advanced the graph
  kCommitMarker,      ///< instant: worker appended this txn's marker
  kDurableAck,        ///< instant: commit ack (durable or append-fired)
  kRepartition,       ///< instant: AdaptiveManager applied a new scheme
  kLogFlush,          ///< X on the flush leader: one group-commit pass
  // Wire tier: these carry the wire trace id (req id | 1<<62, see
  // server::WireTraceId) so a remote transaction's client-send →
  // durable-ack chain links up in one chrome dump.
  kClientSend,        ///< instant: client wrote the TXN request frame
  kWireDecode,        ///< instant: server decoded + admitted the request
  kWireAck,           ///< instant: server queued the response frame
  kCount
};
const char* SpanName(SpanId s);

enum class TracePhase : uint8_t {
  kBegin = 0,   ///< async begin ("b")
  kEnd,         ///< async end ("e")
  kInstant,     ///< instant ("i"); arg = small payload
  kComplete,    ///< complete ("X"); arg = duration in ns
};

/// One decoded event. `arg` is the duration in ns for kComplete spans and
/// a span-specific payload otherwise (batch size for kSubmitPublish /
/// kDrain instants, stage index for kRvpResolve, actions applied for
/// kRepartition).
struct TraceEvent {
  uint64_t ts_ns = 0;  ///< steady-clock ns since the registry's epoch
  uint64_t txn = 0;    ///< engine txn id (0 = not transaction-scoped)
  uint64_t arg = 0;
  SpanId span = SpanId::kTxn;
  TracePhase phase = TracePhase::kInstant;
  uint16_t shard = 0;  ///< writer shard ("tid" in the chrome dump)
};

/// Single-writer ring of trace events. All slot fields are relaxed
/// atomics so concurrent collection is race-free by construction.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  explicit TraceRing(uint32_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Writer side (one thread). arg is packed to 48 bits.
  void Record(uint64_t ts_ns, SpanId span, TracePhase phase, uint64_t txn,
              uint64_t arg);

  /// Appends the ring's events (oldest first) to `out`, tagging them with
  /// `shard`. Returns the number of events ever recorded (so
  /// `recorded - min(recorded, capacity)` is the overwritten count).
  uint64_t Collect(uint16_t shard, std::vector<TraceEvent>* out) const;

  uint32_t capacity() const { return cap_; }
  uint64_t recorded() const { return head_.load(std::memory_order_acquire); }
  uint64_t dropped() const {
    uint64_t n = recorded();
    return n > cap_ ? n - cap_ : 0;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> ts{0};
    std::atomic<uint64_t> txn{0};
    std::atomic<uint64_t> meta{0};  ///< arg:48 | span:8 | phase:8
  };

  uint32_t cap_;       // power of two
  uint32_t mask_;
  std::atomic<uint64_t> head_{0};
  std::unique_ptr<Slot[]> slots_;
};

/// Serializes events (any order; sorted internally by timestamp) as a
/// chrome://tracing JSON array. Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path,
                      std::vector<TraceEvent> events);

}  // namespace atrapos::obs
