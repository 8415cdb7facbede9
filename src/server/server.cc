#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>

#include "fault/injector.h"
#include "hw/binding.h"
#include "server/net_io.h"

namespace atrapos::server {

namespace {

/// Per-key result board of one in-flight PK_READ: every action writes only
/// its own slot, the graph's completion orders the writes before the
/// encoding callback reads them (same discipline as the payload board).
struct PkState {
  std::vector<std::pair<WireStatus, int64_t>> rows;
};

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Most bytes one read() call takes off a connection.
constexpr size_t kReadChunk = 64 * 1024;

uint32_t ReadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

/// One accepted connection. The owning I/O thread is the only toucher of
/// fd/in/saw_goodbye/writing; `out` is the cross-thread handoff buffer
/// engine workers append responses to under out_mu.
struct Server::Conn {
  int fd = -1;
  IoThread* owner = nullptr;

  // ---- I/O-thread-only state ---------------------------------------------
  std::vector<uint8_t> in;       ///< unparsed request bytes
  std::vector<uint8_t> writing;  ///< response bytes being written
  size_t writing_off = 0;
  bool want_write = false;  ///< EPOLLOUT armed
  bool saw_goodbye = false;
  bool proto_error = false;  ///< close after the current read pass
  uint32_t window = 0;
  bool handshaken = false;

  // ---- shared state -------------------------------------------------------
  std::mutex out_mu;
  std::vector<uint8_t> out;  ///< responses queued, not yet picked up
  bool queued = false;       ///< in owner's dirty list (guarded by out_mu)
  /// Admission window: requests holding one of the `window` slots. A slot
  /// is released just *before* its response is queued, so a client that
  /// reuses it the moment it reads the ack is never shed kOverloaded.
  std::atomic<uint32_t> window_used{0};
  /// Drain accounting: requests admitted, response not yet queued.
  /// Decremented only *after* QueueResponse — Stop() and the GOODBYE
  /// close in FlushConn rely on 0 meaning "every answer is queued".
  std::atomic<uint32_t> outstanding{0};
  std::atomic<bool> closed{false};
};

/// An island's listener/worker: its own SO_REUSEPORT listen socket, epoll
/// set, eventfd wake channel, connection table, and the wave buffers one
/// epoll pass fills before the single SubmitBatch.
struct Server::IoThread {
  int island = 0;
  int listen_fd = -1;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::unordered_map<int, std::shared_ptr<Conn>> conns;

  std::mutex dirty_mu;
  std::vector<std::shared_ptr<Conn>> dirty;  ///< have queued output

  /// One decoded-request wave (cleared after every SubmitBatch).
  struct WaveItem {
    std::shared_ptr<Conn> conn;
    uint64_t req_id = 0;
    uint64_t t0_ns = 0;
    std::shared_ptr<PkState> pk;  ///< null for plain transactions
    uint64_t trace_id = 0;        ///< WireTraceId(req_id) when tracing
  };
  std::vector<engine::ActionGraph> wave_graphs;
  std::vector<WaveItem> wave_items;
  /// Landing buffer of every read() on this thread's connections:
  /// ReadConn appends only the bytes a read returned to the connection's
  /// `in`, instead of growing `in` by a value-initialized chunk per call.
  std::vector<uint8_t> read_buf = std::vector<uint8_t>(kReadChunk);
};

template <typename Encode>
void Server::QueueResponse(const std::shared_ptr<Conn>& c, Encode&& encode) {
  if (c->closed.load(std::memory_order_acquire)) return;  // response dropped
  obs_->Count(obs::CounterId::kNetFramesOut);
  bool enqueue = false;
  {
    std::lock_guard lk(c->out_mu);
    encode(&c->out);
    if (!c->queued) {
      c->queued = true;
      enqueue = true;
    }
  }
  if (!enqueue) return;
  IoThread* t = c->owner;
  bool wake;
  {
    std::lock_guard lk(t->dirty_mu);
    // A non-empty list already has a wake pending: the I/O thread takes
    // the whole list (FlushDirty) after it reads the eventfd.
    wake = t->dirty.empty();
    t->dirty.push_back(c);
  }
  if (wake) net::EventfdSignal(t->wake_fd);
}

void Server::QueueTxnAck(const std::shared_ptr<Conn>& c, uint64_t req_id,
                         WireStatus ws) {
  QueueResponse(c, [&](std::vector<uint8_t>* out) {
    EncodeTxnAck(out, req_id, ws);
  });
}

void Server::QueueAck(const std::shared_ptr<Conn>& c, uint64_t req_id,
                      const PkRows* pk_rows, WireStatus ws) {
  if (pk_rows == nullptr) {
    QueueTxnAck(c, req_id, ws);
    return;
  }
  QueueResponse(c, [&](std::vector<uint8_t>* out) {
    EncodePkReadAck(out, req_id, *pk_rows);
  });
}

Server::Server(engine::Database* db, engine::PartitionedExecutor* exec,
               uint64_t subscribers, Options opt)
    : db_(db),
      exec_(exec),
      graphs_(subscribers),
      opt_(std::move(opt)),
      obs_(&db->observability()) {
  if (opt_.max_window == 0) opt_.max_window = 1;
  if (opt_.listeners_per_island < 1) opt_.listeners_per_island = 1;
}

Server::~Server() { Stop(); }

uint64_t Server::accepts(int island) const {
  if (island < 0 || static_cast<size_t>(island) >= island_accepts_.size())
    return 0;
  return island_accepts_[static_cast<size_t>(island)]->load(
      std::memory_order_relaxed);
}

Status Server::StartListener(IoThread* t) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every listener binds the same port; the kernel spreads incoming
  // connections across the per-island sockets.
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    ::close(fd);
    return Errno("setsockopt(SO_REUSEPORT)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, opt_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host " + opt_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Errno("bind");
  }
  if (port_ == 0) {  // first listener chose the ephemeral port
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      return Errno("getsockname");
    }
    port_ = ntohs(addr.sin_port);
  }
  if (::listen(fd, 512) != 0) {
    ::close(fd);
    return Errno("listen");
  }
  t->listen_fd = fd;

  t->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  t->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (t->epoll_fd < 0 || t->wake_fd < 0) return Errno("epoll/eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = t->listen_fd;
  ::epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, t->listen_fd, &ev);
  ev.data.fd = t->wake_fd;
  ::epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, t->wake_fd, &ev);
  return Status::OK();
}

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  port_ = opt_.port;
  const int islands = db_->num_sockets();
  island_accepts_.clear();
  for (int i = 0; i < islands; ++i)
    island_accepts_.push_back(std::make_unique<std::atomic<uint64_t>>(0));
  draining_.store(false, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  for (int i = 0; i < islands; ++i) {
    for (int l = 0; l < opt_.listeners_per_island; ++l) {
      auto t = std::make_unique<IoThread>();
      t->island = i;
      Status s = StartListener(t.get());
      if (!s.ok()) {
        io_threads_.push_back(std::move(t));  // so Stop() reaps the fds
        Stop();
        return s;
      }
      io_threads_.push_back(std::move(t));
    }
  }
  for (auto& t : io_threads_)
    t->thread = std::thread([this, tp = t.get()] { IoLoop(tp); });
  obs_source_ = obs_->AddSource([this](obs::StatsSnapshot& s) {
    s.net_island_accepts.clear();
    for (const auto& a : island_accepts_)
      s.net_island_accepts.push_back(a->load(std::memory_order_relaxed));
    int64_t open = static_cast<int64_t>(open_conns_.load());
    int64_t inflight = static_cast<int64_t>(inflight_.load());
    s.gauges[static_cast<size_t>(obs::GaugeId::kNetOpenConnections)] = open;
    s.gauges[static_cast<size_t>(obs::GaugeId::kNetInflightTxns)] = inflight;
    obs_->SetGauge(obs::GaugeId::kNetOpenConnections, open);
    obs_->SetGauge(obs::GaugeId::kNetInflightTxns, inflight);
  });
  started_ = true;
  return Status::OK();
}

void Server::Stop() {
  if (started_) {
    // Phase 1: drain. Listeners close, new requests answer kShutdown, and
    // every admitted transaction's response gets queued (engine callbacks
    // release inflight_ only after QueueResponse).
    draining_.store(true, std::memory_order_release);
    for (auto& t : io_threads_) net::EventfdSignal(t->wake_fd);
    {
      std::unique_lock lk(inflight_mu_);
      inflight_cv_.wait(lk, [this] {
        return inflight_.load(std::memory_order_acquire) == 0;
      });
    }
    // Phase 2: stop. I/O threads flush what is queued, close, exit.
    stop_.store(true, std::memory_order_release);
    for (auto& t : io_threads_) net::EventfdSignal(t->wake_fd);
  }
  for (auto& t : io_threads_) {
    if (t->thread.joinable()) t->thread.join();
    if (t->listen_fd >= 0) ::close(t->listen_fd);
    if (t->wake_fd >= 0) ::close(t->wake_fd);
    if (t->epoll_fd >= 0) ::close(t->epoll_fd);
    t->listen_fd = t->wake_fd = t->epoll_fd = -1;
  }
  io_threads_.clear();
  if (obs_source_ >= 0) {
    obs_->RemoveSource(obs_source_);
    obs_source_ = -1;
  }
  started_ = false;
}

void Server::IoLoop(IoThread* t) {
  if (opt_.bind_listeners) {
    const hw::Topology& topo = db_->topology();
    int cps = topo.num_cores() / topo.num_sockets();
    hw::BindCurrentThread(topo, t->island * cps);
  }
  std::vector<epoll_event> evs(128);
  while (!stop_.load(std::memory_order_acquire)) {
    // A draining server stops accepting: deregister + close the listener.
    if (draining_.load(std::memory_order_acquire) && t->listen_fd >= 0) {
      ::epoll_ctl(t->epoll_fd, EPOLL_CTL_DEL, t->listen_fd, nullptr);
      ::close(t->listen_fd);
      t->listen_fd = -1;
    }
    int n = ::epoll_wait(t->epoll_fd, evs.data(),
                         static_cast<int>(evs.size()), 100);
    for (int i = 0; i < n; ++i) {
      int fd = evs[i].data.fd;
      if (fd == t->wake_fd) {
        uint64_t drain = 0;
        while (::read(t->wake_fd, &drain, sizeof(drain)) > 0 ||
               errno == EINTR) {
        }
        continue;
      }
      if (fd == t->listen_fd) {
        AcceptReady(t);
        continue;
      }
      auto it = t->conns.find(fd);
      if (it == t->conns.end()) continue;
      std::shared_ptr<Conn> c = it->second;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(t, c);
        continue;
      }
      if ((evs[i].events & EPOLLIN) && !ReadConn(t, c)) {
        CloseConn(t, c);
        continue;
      }
      if ((evs[i].events & EPOLLOUT) && !FlushConn(t, c)) CloseConn(t, c);
    }
    // One SubmitBatch for everything this pass decoded — the wire tier's
    // counterpart of the executor's one-publish-per-partition batching.
    SubmitWave(t);
    FlushDirty(t);
  }
  // Terminal flush: anything still queued (e.g. shutdown acks) goes out
  // best-effort, then every connection closes.
  FlushDirty(t);
  std::vector<std::shared_ptr<Conn>> remaining;
  remaining.reserve(t->conns.size());
  for (auto& [fd, c] : t->conns) remaining.push_back(c);
  for (auto& c : remaining) {
    FlushConn(t, c);
    CloseConn(t, c);
  }
}

void Server::AcceptReady(IoThread* t) {
  for (;;) {
    int fd = static_cast<int>(
        net::Accept4(t->listen_fd, SOCK_NONBLOCK | SOCK_CLOEXEC));
    if (fd < 0 && errno == ECONNABORTED) continue;  // peer reset mid-handshake
    if (fd < 0) return;  // EAGAIN or a transient error; epoll re-arms
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    c->owner = t;
    t->conns[fd] = c;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(t->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    open_conns_.fetch_add(1, std::memory_order_relaxed);
    island_accepts_[static_cast<size_t>(t->island)]->fetch_add(
        1, std::memory_order_relaxed);
    obs_->Count(obs::CounterId::kNetAccepts);
  }
}

bool Server::ReadConn(IoThread* t, const std::shared_ptr<Conn>& c) {
  // Peer closed: still parse the complete frames that arrived before the
  // close below — a protocol error from a hit-and-run client must be
  // counted (and a valid last request processed) whether or not the close
  // raced our read — then drop the connection.
  bool eof = false;
  for (;;) {
    uint8_t* buf = t->read_buf.data();
    ssize_t n = net::ReadSome(c->fd, buf, t->read_buf.size());
    if (n > 0) {
      c->in.insert(c->in.end(), buf, buf + n);
      obs_->Count(obs::CounterId::kNetBytesIn, static_cast<uint64_t>(n));
      continue;
    }
    if (n == 0) {  // possibly mid-frame: the partial tail stays unparsed
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  size_t off = 0;
  while (c->in.size() - off >= kFrameHeaderBytes) {
    uint32_t len = ReadLE32(c->in.data() + off);
    if (len > opt_.max_frame_bytes) {
      obs_->Count(obs::CounterId::kNetProtocolErrors);
      return false;  // oversized frame: close, don't try to resync
    }
    if (c->in.size() - off - kFrameHeaderBytes < len) break;  // partial
    obs_->Count(obs::CounterId::kNetFramesIn);
    HandleFrame(t, c, c->in.data() + off + kFrameHeaderBytes, len);
    off += kFrameHeaderBytes + len;
    if (c->proto_error) return false;
  }
  c->in.erase(c->in.begin(), c->in.begin() + static_cast<ptrdiff_t>(off));
  return !eof;
}

void Server::HandleFrame(IoThread* t, const std::shared_ptr<Conn>& c,
                         const uint8_t* payload, size_t n) {
  DecodedFrame f = DecodeRequestFrame(payload, n);
  if (f.kind == DecodedFrame::Kind::kBad ||
      (!c->handshaken && f.kind != DecodedFrame::Kind::kHello) ||
      (c->handshaken && f.kind == DecodedFrame::Kind::kHello)) {
    // Malformed frame, unknown opcode, or handshake-order violation: a
    // per-connection error. Close this connection; everyone else is
    // untouched, and any in-flight transactions of this connection still
    // release their admission slots through their completion callbacks.
    obs_->Count(obs::CounterId::kNetProtocolErrors);
    c->proto_error = true;
    return;
  }
  const bool draining = draining_.load(std::memory_order_acquire);
  switch (f.kind) {
    case DecodedFrame::Kind::kHello: {
      c->window = std::min(std::max(f.requested_window, 1u), opt_.max_window);
      c->handshaken = true;
      QueueResponse(c, [&](std::vector<uint8_t>* out) {
        EncodeHelloAck(out, c->window,
                       static_cast<uint16_t>(db_->num_sockets()),
                       graphs_.subscribers());
      });
      return;
    }
    case DecodedFrame::Kind::kTxns: {
      for (DecodedTxn& txn : f.txns) {
        if (draining) {
          QueueTxnAck(c, txn.req_id, WireStatus::kShutdown);
          continue;
        }
        // Island quarantine in flight: shed, don't queue. Admitting now
        // would park this I/O thread on the executor's scheme gate behind
        // the evacuation — every connection on this island would stall.
        // kUnavailable tells the client to back off and retry.
        if (exec_->quarantining()) {
          obs_->Count(obs::CounterId::kNetTxnsShed);
          QueueTxnAck(c, txn.req_id, WireStatus::kUnavailable);
          continue;
        }
        // Admission control. window_used counts admitted requests whose
        // answer is not yet on its way, so a whole burst beyond the window
        // sheds deterministically: nothing admitted in this wave can
        // complete before the wave is submitted.
        if (c->window_used.load(std::memory_order_acquire) >= c->window) {
          obs_->Count(obs::CounterId::kNetTxnsShed);
          QueueTxnAck(c, txn.req_id, WireStatus::kOverloaded);
          continue;
        }
        if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
            opt_.max_inflight) {
          ReleaseInflight(1);
          obs_->Count(obs::CounterId::kNetTxnsShed);
          QueueTxnAck(c, txn.req_id, WireStatus::kOverloaded);
          continue;
        }
        auto g = BuildGraph(graphs_, txn.req);
        if (!g.ok()) {
          ReleaseInflight(1);
          QueueTxnAck(c, txn.req_id, WireStatus::kError);
          continue;
        }
        c->window_used.fetch_add(1, std::memory_order_acq_rel);
        c->outstanding.fetch_add(1, std::memory_order_acq_rel);
        engine::ActionGraph graph = g.take();
        uint64_t trace_id = 0;
        if (obs_->trace_enabled()) {
          // Stamp the request's wire trace id on the graph so every engine
          // span of this transaction correlates back to the client req_id,
          // and mark the decode+admit instant on the server timeline.
          trace_id = WireTraceId(txn.req_id);
          graph.set_trace_id(trace_id);
          obs_->Trace(obs::SpanId::kWireDecode, obs::TracePhase::kInstant,
                      trace_id);
        }
        t->wave_graphs.push_back(std::move(graph));
        t->wave_items.push_back(
            {c, txn.req_id, obs_->NowNs(), nullptr, trace_id});
      }
      return;
    }
    case DecodedFrame::Kind::kPkRead:
      HandlePkRead(c, std::move(f.pk));
      return;
    case DecodedFrame::Kind::kStats: {
      const std::string text = db_->StatsSnapshot().ToPrometheus();
      QueueResponse(c, [&](std::vector<uint8_t>* out) {
        EncodeStatsAck(out, text);
      });
      return;
    }
    case DecodedFrame::Kind::kStatsSeries: {
      const obs::Sampler* sampler = db_->sampler();
      const std::string json =
          sampler != nullptr ? sampler->ToJson() : std::string("{}");
      QueueResponse(c, [&](std::vector<uint8_t>* out) {
        EncodeStatsSeriesAck(out, json);
      });
      return;
    }
    case DecodedFrame::Kind::kGoodbye:
      c->saw_goodbye = true;  // FlushConn closes once outstanding drains
      return;
    case DecodedFrame::Kind::kBad:
      return;  // handled above
  }
}

void Server::HandlePkRead(const std::shared_ptr<Conn>& c, DecodedPkRead pk) {
  auto answer_all = [&](WireStatus ws) {
    std::vector<std::pair<WireStatus, int64_t>> rows(pk.keys.size(),
                                                     {ws, 0});
    QueueResponse(c, [&](std::vector<uint8_t>* out) {
      EncodePkReadAck(out, pk.req_id, rows);
    });
  };
  if (draining_.load(std::memory_order_acquire)) {
    answer_all(WireStatus::kShutdown);
    return;
  }
  if (exec_->quarantining()) {  // shed during evacuation, as for TXN
    obs_->Count(obs::CounterId::kNetTxnsShed);
    answer_all(WireStatus::kUnavailable);
    return;
  }
  // One window slot and one global in-flight slot per PK_READ frame, no
  // matter how many keys it batches — the batch is the amortization unit.
  if (c->window_used.load(std::memory_order_acquire) >= c->window) {
    obs_->Count(obs::CounterId::kNetTxnsShed);
    answer_all(WireStatus::kOverloaded);
    return;
  }
  if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
      opt_.max_inflight) {
    ReleaseInflight(1);
    obs_->Count(obs::CounterId::kNetTxnsShed);
    answer_all(WireStatus::kOverloaded);
    return;
  }
  const int table = pk.table;
  const size_t column = pk.column;
  bool valid = table >= 0 && static_cast<size_t>(table) < db_->num_tables();
  if (valid) {
    const storage::Schema& schema = db_->table(table)->schema();
    valid = column < schema.num_columns() &&
            schema.column(column).type == storage::ColumnType::kInt64;
  }
  if (!valid) {
    ReleaseInflight(1);
    answer_all(WireStatus::kError);
    return;
  }
  auto state = std::make_shared<PkState>();
  state->rows.assign(pk.keys.size(), {WireStatus::kError, 0});
  engine::ActionGraph g;
  for (size_t i = 0; i < pk.keys.size(); ++i) {
    uint64_t key = pk.keys[i];
    g.Add(table, key,
          [state, i, key, column](storage::Table* tb, engine::ActionCtx&) {
            storage::Tuple row;
            Status s = tb->Read(key, &row);
            (*state).rows[i] = s.ok()
                                   ? std::make_pair(WireStatus::kOk,
                                                    row.GetInt(column))
                                   : std::make_pair(WireStatus::kNotFound,
                                                    int64_t{0});
            return Status::OK();  // per-key misses are per-row statuses
          });
  }
  c->window_used.fetch_add(1, std::memory_order_acq_rel);
  c->outstanding.fetch_add(1, std::memory_order_acq_rel);
  c->owner->wave_graphs.push_back(std::move(g));
  c->owner->wave_items.push_back({c, pk.req_id, obs_->NowNs(), state});
}

void Server::SubmitWave(IoThread* t) {
  if (t->wave_graphs.empty()) return;
  // A quarantine that started after this wave's requests were admitted:
  // answer locally instead of submitting. SubmitBatch would block on the
  // scheme gate until the evacuation's Repartition finishes, freezing this
  // I/O thread (and every connection it owns) for the whole outage.
  bool unavailable = exec_->quarantining();
  if (unavailable) {
    obs_->Count(obs::CounterId::kNetTxnsShed,
                static_cast<uint64_t>(t->wave_items.size()));
  }
  Result<std::vector<engine::TxnFuture>> futures =
      unavailable
          ? Result<std::vector<engine::TxnFuture>>(
                Status::Unavailable("island quarantine in progress"))
          : exec_->SubmitBatch(t->wave_graphs);
  if (!futures.ok()) {
    // Sealed executor, quarantine, or a validation surprise: answer every
    // admitted request and release its slots — nothing leaks.
    WireStatus ws = ToWireStatus(futures.status());
    for (IoThread::WaveItem& item : t->wave_items) {
      if (item.pk) {
        for (auto& row : item.pk->rows) row = {ws, 0};
      }
      item.conn->window_used.fetch_sub(1, std::memory_order_acq_rel);
      QueueAck(item.conn, item.req_id, item.pk ? &item.pk->rows : nullptr,
               ws);
      item.conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
      ReleaseInflight(1);
    }
  } else {
    auto& fs = futures.value();
    for (size_t i = 0; i < fs.size(); ++i) {
      // Runs on the completing engine worker (for a group commit, the
      // worker leading the flush): encode into the connection's buffer,
      // poke the I/O thread — never block.
      fs[i].OnComplete([this, item = std::move(t->wave_items[i])](
                           const Status& s) mutable {
        obs_->RecordLatency(obs::HistId::kWireLatencyUs,
                            (obs_->NowNs() - item.t0_ns) / 1000);
        if (item.trace_id != 0)
          obs_->Trace(obs::SpanId::kWireAck, obs::TracePhase::kInstant,
                      item.trace_id);
        // Window slot first: the client may reuse it as soon as the ack
        // is readable. The drain counters follow the queued answer.
        item.conn->window_used.fetch_sub(1, std::memory_order_acq_rel);
        QueueAck(item.conn, item.req_id, item.pk ? &item.pk->rows : nullptr,
                 ToWireStatus(s));
        item.conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
        ReleaseInflight(1);
      });
    }
  }
  t->wave_graphs.clear();
  t->wave_items.clear();
}

bool Server::FlushConn(IoThread* t, const std::shared_ptr<Conn>& c) {
  if (c->closed.load(std::memory_order_relaxed)) return true;
  for (;;) {
    if (c->writing_off == c->writing.size()) {
      c->writing.clear();
      c->writing_off = 0;
      std::lock_guard lk(c->out_mu);
      if (c->out.empty()) {
        c->queued = false;
        break;
      }
      c->writing.swap(c->out);
    }
    // Injected stall: pretend the socket would block. The connection is
    // actually writable and EPOLLOUT is level-triggered, so the next epoll
    // pass completes the flush — a delay, never a loss. Exercises the
    // re-arm path that only congested peers hit organically.
    ssize_t w;
    if (fault::Should(fault::SiteId::kNetStall)) {
      w = -1;
      errno = EAGAIN;
    } else {
      w = net::WriteSome(c->fd, c->writing.data() + c->writing_off,
                         c->writing.size() - c->writing_off);
    }
    if (w > 0) {
      c->writing_off += static_cast<size_t>(w);
      obs_->Count(obs::CounterId::kNetBytesOut, static_cast<uint64_t>(w));
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c->want_write) {
        c->want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = c->fd;
        ::epoll_ctl(t->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
      }
      return true;
    }
    return false;  // EPIPE / reset: the close path releases nothing extra
  }
  if (c->want_write) {
    c->want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = c->fd;
    ::epoll_ctl(t->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }
  // GOODBYE drain: close once every admitted request answered and the
  // answers are written. `outstanding` is decremented only after the
  // response was queued, so 0 + empty buffers means fully answered.
  if (c->saw_goodbye &&
      c->outstanding.load(std::memory_order_acquire) == 0) {
    bool empty;
    {
      std::lock_guard lk(c->out_mu);
      empty = c->out.empty() && c->writing.empty();
    }
    if (empty) CloseConn(t, c);
  }
  return true;
}

void Server::FlushDirty(IoThread* t) {
  std::vector<std::shared_ptr<Conn>> dirty;
  {
    std::lock_guard lk(t->dirty_mu);
    dirty.swap(t->dirty);
  }
  for (auto& c : dirty) {
    if (c->closed.load(std::memory_order_relaxed)) continue;
    if (!FlushConn(t, c)) CloseConn(t, c);
  }
}

void Server::CloseConn(IoThread* t, const std::shared_ptr<Conn>& c) {
  if (c->closed.exchange(true, std::memory_order_acq_rel)) return;
  ::epoll_ctl(t->epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  t->conns.erase(c->fd);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  // In-flight transactions of this connection keep running; their
  // completion callbacks see `closed`, drop the response bytes, and still
  // release the window + global slots — no leak on mid-frame disconnect.
}

void Server::ReleaseInflight(uint64_t n) {
  if (inflight_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lk(inflight_mu_);
    inflight_cv_.notify_all();
  }
}

}  // namespace atrapos::server
