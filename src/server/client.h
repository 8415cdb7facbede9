// server::Client — the in-process loopback client of the wire tier.
//
// A deliberately simple single-threaded multiplexer over N blocking
// sockets: Submit() buffers transaction requests per connection and flushes
// them as TXN_BATCH frames once `Options::batch` accumulate (the
// round-trip-amortization knob the server's wave submission is built for);
// Poll() reads whatever acks arrived and fires the registered callbacks.
// Tests and perfbench's tatp-wire workload drive it; it is not a
// production client.
//
// Window discipline: with enforce_window (default) Submit blocks in Poll()
// until a slot frees, implementing a well-behaved closed loop. Disable it
// to deliberately overrun the server's granted window and observe
// kOverloaded sheds (the backpressure tests do).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/registry.h"
#include "server/wire_protocol.h"
#include "util/status.h"

namespace atrapos::server {

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    int connections = 1;
    /// Requested per-connection window (HELLO); the server may grant less.
    uint32_t window = 64;
    /// Transactions buffered per connection before a TXN_BATCH frame is
    /// written. 1 = one TXN frame per request (the unbatched contrast).
    size_t batch = 1;
    /// Block in Submit() until a window slot frees. Off = requests go out
    /// regardless, so the server's admission control does the shedding.
    bool enforce_window = true;
    /// Per-request deadline for every blocking wait (handshake, window
    /// gate, Call, QueryStats). 0 = no deadline (block forever, the
    /// pre-fault-tolerance behavior). On expiry the wait returns
    /// kDeadlineExceeded and the abandoned request's callback is
    /// unregistered — a late ack is silently dropped, never double-fired.
    int64_t deadline_ms = 0;
    /// Call() retry budget for kOverloaded/kUnavailable answers (transient
    /// shed / island evacuation in flight). kShutdown is never retried —
    /// the server is going away for good. Each retry is a fresh request id
    /// separated by util::Backoff's jittered exponential delay.
    int retries = 0;
    uint64_t backoff_base_us = 200;
    uint64_t backoff_cap_us = 50'000;
    uint64_t backoff_seed = 1;
    /// When set, every submitted transaction records a kClientSend instant
    /// tagged WireTraceId(req_id) into this registry — the first link of
    /// the client→durable-ack span chain. Loopback harnesses pass the
    /// server database's registry; no-op while its tracing is off.
    obs::Registry* trace = nullptr;
  };

  /// Call()'s cumulative outcome counters (single-threaded, like the
  /// client itself). `attempts` counts wire round trips, so
  /// attempts - calls = total retries taken.
  struct CallStats {
    uint64_t calls = 0;                ///< Call() invocations
    uint64_t attempts = 0;             ///< round trips (first try + retries)
    uint64_t retries = 0;              ///< re-submissions after a shed
    uint64_t retries_overloaded = 0;   ///< ...answered kOverloaded
    uint64_t retries_unavailable = 0;  ///< ...answered kUnavailable
    uint64_t deadline_exceeded = 0;    ///< Call() returns kDeadlineExceeded
    uint64_t failures = 0;             ///< Call() returns any non-OK Status
  };

  /// Fired by Poll() when the TXN_ACK for a submitted request arrives.
  using TxnCallback = std::function<void(WireStatus)>;
  using PkRows = std::vector<std::pair<WireStatus, int64_t>>;
  using PkCallback = std::function<void(const PkRows&)>;

  explicit Client(Options opt);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and handshakes every connection.
  Status Connect();

  int connections() const { return static_cast<int>(conns_.size()); }
  /// The window HELLO_ACK granted connection `conn`.
  uint32_t granted_window(int conn) const;
  uint16_t num_islands() const { return num_islands_; }
  uint64_t subscribers() const { return subscribers_; }
  /// Requests submitted whose ack has not arrived (all connections).
  size_t outstanding() const { return outstanding_; }
  bool alive(int conn) const;

  /// This client's request-id salt: ids are allocated sequentially as
  /// req_id_base() + 1, + 2, ... The base carries a process-wide
  /// per-Client nonce in bits 32..61 so concurrent Client instances
  /// never reuse each other's ids — and WireTraceId chains from
  /// different clients never merge in a trace dump.
  uint64_t req_id_base() const { return req_id_base_; }

  /// Buffers one transaction on connection `conn`; flushes the batch frame
  /// once Options::batch accumulated. `cb` fires from Poll().
  Status Submit(int conn, const TxnRequest& req, TxnCallback cb);
  /// One batched-pk-read frame (always flushed immediately).
  Status PkRead(int conn, uint8_t table, uint8_t column,
                const std::vector<uint64_t>& keys, PkCallback cb);

  /// Writes out every partially-filled batch.
  void FlushAll();

  /// Reads available acks and fires their callbacks. timeout_ms < 0 blocks
  /// until at least one connection is readable. Returns callbacks fired.
  size_t Poll(int timeout_ms);

  /// Synchronous convenience: Submit + flush + Poll until this request's
  /// ack arrived (callbacks of other in-flight requests fire meanwhile).
  /// Honors Options::deadline_ms (kDeadlineExceeded on expiry) and retries
  /// kOverloaded/kUnavailable answers up to Options::retries times with
  /// jittered exponential backoff.
  Result<WireStatus> Call(int conn, const TxnRequest& req);

  /// STATS round trip: the server's Prometheus text exposition.
  Result<std::string> QueryStats(int conn = 0);

  /// STATS_SERIES round trip: the server sampler's time-series JSON
  /// (obs::Sampler::ToJson; "{}" when the server samples nothing).
  Result<std::string> QuerySeries(int conn = 0);

  const CallStats& call_stats() const { return call_stats_; }

  /// Test hook: writes raw bytes straight to the socket (malformed-frame
  /// and mid-frame-disconnect tests).
  Status SendRaw(int conn, const void* p, size_t n);
  /// Test hook: abrupt close, no GOODBYE (mid-frame disconnect).
  void Kill(int conn);

  /// GOODBYE on every live connection, then close all sockets. Pending
  /// callbacks are dropped.
  void CloseAll();

 private:
  struct Conn {
    int fd = -1;
    bool dead = true;
    uint32_t window = 0;
    std::vector<uint8_t> in;
    std::vector<uint64_t> pending_ids;
    std::vector<TxnRequest> pending_reqs;
    std::unordered_map<uint64_t, TxnCallback> txn_cbs;
    std::unordered_map<uint64_t, PkCallback> pk_cbs;
    /// Last STATS_ACK payload (QueryStats consumes it).
    std::string stats;
    bool stats_ready = false;
    /// Last STATS_SERIES_ACK payload (QuerySeries consumes it).
    std::string series;
    bool series_ready = false;
  };

  Status WriteAll(Conn* c, const uint8_t* p, size_t n);
  Status FlushBatch(Conn* c);
  /// Submit + report the request id allocated (Call's retry/abandon path
  /// needs it; Submit passes nullptr). May fire other callbacks if the
  /// batch boundary triggers the window gate's internal Poll.
  Status SubmitWithId(int conn, const TxnRequest& req, TxnCallback cb,
                      uint64_t* id_out);
  /// Drops an abandoned request: unregisters the callback and unbuffers
  /// the request if still unsent. No-op if the ack already fired.
  void AbandonTxn(Conn* c, uint64_t id);
  /// FlushBatch behind the window gate: with enforce_window, parks in
  /// Poll until the buffered batch fits under the granted window.
  Status GatedFlush(Conn* c);
  /// Drains one readable socket into c->in and dispatches completed
  /// frames. Returns callbacks fired; marks the connection dead on EOF
  /// (pending callbacks fire with kError so no caller hangs).
  size_t DrainConn(Conn* c);
  size_t DispatchFrames(Conn* c);
  void FailPending(Conn* c);
  Conn* conn(int i);

  Options opt_;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint16_t num_islands_ = 0;
  uint64_t subscribers_ = 0;
  uint64_t req_id_base_ = 0;  // per-client nonce << 32 (set in ctor)
  uint64_t next_req_id_ = 1;
  size_t outstanding_ = 0;
  CallStats call_stats_;
};

}  // namespace atrapos::server
