// server::Server — the networked transaction service front-end.
//
// One listener/worker thread per island, each owning its own epoll set and
// its own SO_REUSEPORT listen socket on the shared port (the kernel
// spreads incoming connections across them), optionally bound to a core of
// its island so a connection's decode → submit path stays island-local
// ("OLTP on Hardware Islands": topology-blind placement squanders
// locality). The thread reads non-blocking sockets, decodes the
// length-prefixed frames of wire_protocol.h, translates every transaction
// request of one epoll wave into a workload::TatpActionGraphs graph, and
// hands the whole wave to PartitionedExecutor::SubmitBatch — one inbox
// publish per destination partition per wave, so a network round trip
// carrying a TXN_BATCH amortizes exactly like an in-process batched
// submission.
//
// Completions never block engine workers: TxnFuture::OnComplete runs on
// the completing worker, encodes the TXN_ACK into the connection's
// outgoing buffer under a short mutex, and pokes the owning I/O thread's
// eventfd; the I/O thread writes the socket.
//
// Admission control (see wire_protocol.h for the handshake): bounded
// per-connection outstanding requests (window granted in HELLO_ACK), a
// global in-flight cap, shed-on-overload with WireStatus::kOverloaded, and
// kShutdown while draining. Stop() is a graceful drain: stop accepting,
// answer new requests with kShutdown, wait until every submitted
// transaction's response is queued, flush, close — then the owner runs
// Database::Drain() before destroying the executor (the documented
// shutdown sequence in engine/database.h).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "server/wire_protocol.h"
#include "workload/tatp_graphs.h"

namespace atrapos::server {

class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 = ephemeral; read the bound port with port() after Start().
    uint16_t port = 0;
    /// Listener/worker threads per island (each gets its own epoll +
    /// SO_REUSEPORT listen socket).
    int listeners_per_island = 1;
    /// Per-connection outstanding-request cap; HELLO_ACK grants
    /// min(requested, max_window).
    uint32_t max_window = 256;
    /// Global in-flight transaction cap across all connections; requests
    /// beyond it are shed with kOverloaded.
    uint64_t max_inflight = 8192;
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Bind each listener thread to a core of its island.
    bool bind_listeners = true;
  };

  /// The server does not own db/exec; both must outlive it (destroy the
  /// server — or call Stop() — first). `subscribers` sizes the TATP graph
  /// builders and is echoed in HELLO_ACK.
  Server(engine::Database* db, engine::PartitionedExecutor* exec,
         uint64_t subscribers, Options opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, spawns the per-island I/O threads. Registers the wire
  /// tier's snapshot source (per-island accepts, open connections) with
  /// the database's obs::Registry.
  Status Start();

  /// Graceful drain (idempotent): stop accepting, answer further requests
  /// with kShutdown, wait for in-flight transactions, flush responses,
  /// close connections, join the I/O threads.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  uint64_t open_connections() const {
    return open_conns_.load(std::memory_order_relaxed);
  }
  uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }
  /// Connections accepted by island `i`'s listeners.
  uint64_t accepts(int island) const;

 private:
  struct Conn;
  struct IoThread;

  Status StartListener(IoThread* t);
  void IoLoop(IoThread* t);
  void AcceptReady(IoThread* t);
  /// Reads everything available; decodes frames; buckets the wave's
  /// transaction graphs for one SubmitBatch per loop pass. Returns false
  /// when the connection died (closed by peer or protocol error).
  bool ReadConn(IoThread* t, const std::shared_ptr<Conn>& c);
  void HandleFrame(IoThread* t, const std::shared_ptr<Conn>& c,
                   const uint8_t* payload, size_t n);
  void HandlePkRead(const std::shared_ptr<Conn>& c, DecodedPkRead pk);
  /// Submits the wave buffered by ReadConn/HandleFrame and attaches the
  /// completion-to-response callbacks.
  void SubmitWave(IoThread* t);
  /// Encodes one response frame straight into c's outgoing buffer —
  /// `encode(std::vector<uint8_t>*)` appends it, under the per-connection
  /// buffer mutex — and schedules the owning I/O thread to flush it. Safe
  /// from any thread; never blocks beyond that mutex and the owner's
  /// dirty-list mutex, so build large payloads before the call.
  template <typename Encode>
  void QueueResponse(const std::shared_ptr<Conn>& c, Encode&& encode);
  void QueueTxnAck(const std::shared_ptr<Conn>& c, uint64_t req_id,
                   WireStatus ws);
  using PkRows = std::vector<std::pair<WireStatus, int64_t>>;
  /// The answer to one admitted wave request: a PK_READ ack carrying
  /// `pk_rows`, or a TXN ack with status `ws` when `pk_rows` is null.
  void QueueAck(const std::shared_ptr<Conn>& c, uint64_t req_id,
                const PkRows* pk_rows, WireStatus ws);
  /// I/O-thread only: writes c's buffered output to the socket; arms
  /// EPOLLOUT on a partial write. Returns false when the connection died.
  bool FlushConn(IoThread* t, const std::shared_ptr<Conn>& c);
  /// Flushes every connection queued by QueueResponse since the last pass.
  void FlushDirty(IoThread* t);
  void CloseConn(IoThread* t, const std::shared_ptr<Conn>& c);
  void ReleaseInflight(uint64_t n);

  engine::Database* db_;
  engine::PartitionedExecutor* exec_;
  workload::TatpActionGraphs graphs_;
  Options opt_;
  obs::Registry* obs_;
  int obs_source_ = -1;
  uint16_t port_ = 0;
  bool started_ = false;

  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> island_accepts_;

  std::atomic<uint64_t> open_conns_{0};
  /// Transactions submitted into the executor whose response is not yet
  /// queued. Admission control's global cap; Stop() waits for 0.
  std::atomic<uint64_t> inflight_{0};
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;

  /// Draining: new transaction requests answered with kShutdown.
  std::atomic<bool> draining_{false};
  /// Terminal: I/O threads flush, close and exit.
  std::atomic<bool> stop_{false};
};

}  // namespace atrapos::server
