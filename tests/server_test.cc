// Wire-tier tests: handshake + transaction round trips over real sockets,
// batched submission, batched pk-reads, deterministic admission-control
// backpressure (per-connection window and global in-flight cap), protocol
// hardening (malformed/truncated/oversized frames, unknown opcodes,
// mid-frame disconnects — fuzzed), the GOODBYE drain, the STATS round
// trip, and the documented shutdown ordering (engine-level Drain() race
// regression plus server-stop-under-churn).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

namespace atrapos::server {
namespace {

core::Scheme TatpScheme(uint64_t subscribers, int partitions) {
  core::Scheme scheme;
  for (int t = 0; t < 4; ++t) {
    uint64_t factor = t == 0 ? 1 : (t == 3 ? 32 : 4);
    core::TableScheme ts;
    for (int p = 0; p < partitions; ++p) {
      ts.boundaries.push_back(subscribers * factor *
                              static_cast<uint64_t>(p) /
                              static_cast<uint64_t>(partitions));
      ts.placement.push_back(p);
    }
    scheme.tables.push_back(ts);
  }
  return scheme;
}

/// A small TATP database + executor + running server, torn down in the
/// documented order: server.Stop(), db.Drain(), destroy executor, db.
struct Service {
  static constexpr uint64_t kSubscribers = 2000;

  explicit Service(Server::Options sopt = {},
                   hw::Topology topo = hw::Topology::Cube(1, 1),
                   engine::Database::Options dopt = {},
                   engine::PartitionedExecutor::Options eopt = {}) {
    dopt.topo = topo;
    db = std::make_unique<engine::Database>(dopt);
    std::vector<uint64_t> bounds;
    for (int p = 0; p < topo.num_cores(); ++p)
      bounds.push_back(kSubscribers * static_cast<uint64_t>(p) /
                       static_cast<uint64_t>(topo.num_cores()));
    for (auto& t : workload::BuildTatpTables(kSubscribers, bounds, 42))
      db->AddTable(std::move(t));
    exec = std::make_unique<engine::PartitionedExecutor>(
        db.get(), topo, TatpScheme(kSubscribers, topo.num_cores()), eopt);
    sopt.bind_listeners = false;  // CI machines are small
    server = std::make_unique<Server>(db.get(), exec.get(), kSubscribers,
                                      sopt);
    EXPECT_TRUE(server->Start().ok());
  }

  ~Service() {
    server->Stop();
    db->Drain();
    server.reset();
    exec.reset();
    db.reset();
  }

  Client::Options ClientOpts() {
    Client::Options o;
    o.port = server->port();
    return o;
  }

  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::PartitionedExecutor> exec;
  std::unique_ptr<Server> server;
};

TEST(ServerTest, StartStopIdempotent) {
  Service s;
  EXPECT_NE(s.server->port(), 0);
  s.server->Stop();
  s.server->Stop();  // idempotent
  EXPECT_EQ(s.server->open_connections(), 0u);
}

TEST(ServerTest, HandshakeGrantsCappedWindow) {
  Server::Options sopt;
  sopt.max_window = 16;
  Service s(sopt);
  Client::Options copt = s.ClientOpts();
  copt.window = 1000;  // ask for more than the server grants
  Client c(copt);
  ASSERT_TRUE(c.Connect().ok());
  EXPECT_EQ(c.granted_window(0), 16u);
  EXPECT_EQ(c.num_islands(), static_cast<uint16_t>(s.db->num_sockets()));
  EXPECT_EQ(c.subscribers(), Service::kSubscribers);
}

TEST(ServerTest, AllTxnClassesRoundTrip) {
  Service s;
  Client c(s.ClientOpts());
  ASSERT_TRUE(c.Connect().ok());
  Rng rng(7);
  int per_class[7] = {0};
  // Draw from the mix until every class executed at least once; each
  // must come back with a TATP-success status over the wire.
  for (int i = 0; i < 400; ++i) {
    TxnRequest req = DrawTatpMix(rng, Service::kSubscribers);
    auto ws = c.Call(0, req);
    ASSERT_TRUE(ws.ok()) << ws.status().ToString();
    EXPECT_TRUE(WireCountsAsSuccess(ws.value()))
        << "class " << int(req.txn_class) << ": "
        << WireStatusName(ws.value());
    per_class[req.txn_class]++;
  }
  for (int k = 0; k < 7; ++k) EXPECT_GT(per_class[k], 0) << "class " << k;
}

TEST(ServerTest, BatchedSubmissionOverManyConnections) {
  Service s(Server::Options{}, hw::Topology::Cube(1, 2));
  Client::Options copt = s.ClientOpts();
  copt.connections = 4;
  copt.batch = 16;
  copt.window = 64;
  Client c(copt);
  ASSERT_TRUE(c.Connect().ok());
  Rng rng(11);
  std::atomic<int> acked{0}, bad{0};
  constexpr int kPerConn = 200;
  for (int i = 0; i < kPerConn; ++i) {
    for (int conn = 0; conn < 4; ++conn) {
      ASSERT_TRUE(c.Submit(conn, DrawTatpMix(rng, Service::kSubscribers),
                           [&](WireStatus ws) {
                             ++acked;
                             if (!WireCountsAsSuccess(ws)) ++bad;
                           })
                      .ok());
    }
  }
  c.FlushAll();
  while (c.outstanding() > 0) c.Poll(-1);
  EXPECT_EQ(acked.load(), 4 * kPerConn);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ServerTest, PkReadBatchHitsMissesAndValidation) {
  Service s;
  Client c(s.ClientOpts());
  ASSERT_TRUE(c.Connect().ok());
  // Two hits + one definite miss against Subscriber.vlr_location; values
  // must equal a direct table read.
  std::vector<uint64_t> keys = {5, 17, Service::kSubscribers + 999};
  Client::PkRows rows;
  bool done = false;
  ASSERT_TRUE(c.PkRead(0, workload::kSubscriber, workload::kVlrLoc, keys,
                       [&](const Client::PkRows& r) {
                         rows = r;
                         done = true;
                       })
                  .ok());
  while (!done) c.Poll(-1);
  ASSERT_EQ(rows.size(), 3u);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(rows[size_t(i)].first, WireStatus::kOk);
    storage::Tuple row;
    ASSERT_TRUE(
        s.db->table(workload::kSubscriber)->Read(keys[size_t(i)], &row).ok());
    EXPECT_EQ(rows[size_t(i)].second, row.GetInt(workload::kVlrLoc));
  }
  EXPECT_EQ(rows[2].first, WireStatus::kNotFound);

  // Unknown table and out-of-range column: every row answers kError, the
  // connection stays usable.
  for (auto [table, column] : {std::pair<uint8_t, uint8_t>{200, 0},
                               std::pair<uint8_t, uint8_t>{0, 99}}) {
    done = false;
    ASSERT_TRUE(c.PkRead(0, table, column, {1, 2}, [&](const Client::PkRows& r) {
                  rows = r;
                  done = true;
                }).ok());
    while (!done) c.Poll(-1);
    ASSERT_EQ(rows.size(), 2u);
    for (auto& [st, v] : rows) EXPECT_EQ(st, WireStatus::kError);
  }
  Rng rng(3);
  auto ws = c.Call(0, DrawTatpMix(rng, Service::kSubscribers));
  ASSERT_TRUE(ws.ok());
}

TEST(ServerTest, WindowOverrunShedsDeterministically) {
  Server::Options sopt;
  sopt.max_window = 8;
  Service s(sopt);
  Client::Options copt = s.ClientOpts();
  copt.window = 8;
  copt.batch = 20;            // one TXN_BATCH frame of 20
  copt.enforce_window = false;  // deliberately overrun
  Client c(copt);
  ASSERT_TRUE(c.Connect().ok());
  Rng rng(5);
  std::atomic<int> ok{0}, shed{0}, other{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(c.Submit(0, DrawTatpMix(rng, Service::kSubscribers),
                         [&](WireStatus ws) {
                           if (ws == WireStatus::kOverloaded)
                             ++shed;
                           else if (WireCountsAsSuccess(ws))
                             ++ok;
                           else
                             ++other;
                         })
                    .ok());
  }
  c.FlushAll();
  while (c.outstanding() > 0) c.Poll(-1);
  // The whole frame is decoded before the wave is submitted, so nothing
  // admitted can complete mid-frame: exactly window are admitted, the
  // rest shed with kOverloaded.
  EXPECT_EQ(ok.load(), 8);
  EXPECT_EQ(shed.load(), 12);
  EXPECT_EQ(other.load(), 0);
  obs::StatsSnapshot snap = s.db->StatsSnapshot();
  EXPECT_EQ(snap.counter(obs::CounterId::kNetTxnsShed), 12u);
}

TEST(ServerTest, ClientHoldingExactlyItsWindowIsNeverShed) {
  // A client that reuses a window slot the moment it reads the ack must
  // find the slot free on the server: the server releases the slot before
  // queueing the response, not after. Several clients on several
  // connections keep exactly the granted window in flight while the
  // engine repartitions underneath them; not one request may be shed.
  Server::Options sopt;
  sopt.max_window = 2;
  Service s(sopt, hw::Topology::Cube(1, 2));
  constexpr int kClients = 4;
  constexpr int kPerConn = 1500;
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int i = 0; !done.load(); ++i) {
      core::Scheme target = TatpScheme(Service::kSubscribers, 2);
      if (i % 2 == 0)
        for (auto& ts : target.tables) ts.placement = {1, 0};
      ASSERT_TRUE(s.exec->Repartition(target).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::vector<std::thread> clients;
  for (int id = 0; id < kClients; ++id) {
    clients.emplace_back([&, id] {
      Client::Options copt = s.ClientOpts();
      copt.connections = 2;
      copt.window = 2;  // exactly the grant
      copt.batch = 1;
      Client c(copt);
      ASSERT_TRUE(c.Connect().ok());
      ASSERT_EQ(c.granted_window(0), 2u);
      Rng rng(static_cast<uint64_t>(id) + 21);
      for (int i = 0; i < kPerConn; ++i) {
        for (int conn = 0; conn < 2; ++conn) {
          ASSERT_TRUE(c.Submit(conn, DrawTatpMix(rng, Service::kSubscribers),
                               [&](WireStatus ws) {
                                 if (ws == WireStatus::kOverloaded)
                                   ++shed;
                                 else if (WireCountsAsSuccess(ws))
                                   ++ok;
                                 else
                                   ++other;
                               })
                          .ok());
        }
      }
      c.FlushAll();
      while (c.outstanding() > 0) c.Poll(-1);
    });
  }
  for (auto& t : clients) t.join();
  done = true;
  churn.join();
  EXPECT_EQ(shed.load(), 0);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load(), kClients * 2 * kPerConn);
  EXPECT_EQ(s.db->StatsSnapshot().counter(obs::CounterId::kNetTxnsShed), 0u);
}

TEST(ServerTest, GlobalInflightCapShedsInsteadOfQueueing) {
  Server::Options sopt;
  sopt.max_window = 256;
  sopt.max_inflight = 4;
  Service s(sopt);
  Client::Options copt = s.ClientOpts();
  copt.window = 256;
  copt.batch = 20;
  copt.enforce_window = false;
  Client c(copt);
  ASSERT_TRUE(c.Connect().ok());
  Rng rng(5);
  std::atomic<int> ok{0}, shed{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(c.Submit(0, DrawTatpMix(rng, Service::kSubscribers),
                         [&](WireStatus ws) {
                           if (ws == WireStatus::kOverloaded)
                             ++shed;
                           else if (WireCountsAsSuccess(ws))
                             ++ok;
                         })
                    .ok());
  }
  c.FlushAll();
  while (c.outstanding() > 0) c.Poll(-1);
  EXPECT_EQ(ok.load(), 4);
  EXPECT_EQ(shed.load(), 16);
  // Shed, not queued: once drained nothing is left in flight. A completion
  // releases its slot just after queueing the ack (Stop() relies on that
  // order), so the client can read the last ack a moment before the
  // release; a slot that is never released still fails here.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.server->inflight() != 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  EXPECT_EQ(s.server->inflight(), 0u);
}

TEST(ServerTest, ProtocolHardeningSurvivesMalformedInput) {
  Service s;
  auto probe_alive = [&] {
    Client c(s.ClientOpts());
    ASSERT_TRUE(c.Connect().ok());
    Rng rng(1);
    auto ws = c.Call(0, DrawTatpMix(rng, Service::kSubscribers));
    ASSERT_TRUE(ws.ok());
    EXPECT_TRUE(WireCountsAsSuccess(ws.value()));
  };

  // Handcrafted attacks, each on its own connection: the server must
  // close that connection only and keep serving everyone else.
  {
    // Oversized length prefix.
    Client c(s.ClientOpts());
    ASSERT_TRUE(c.Connect().ok());
    uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_TRUE(c.SendRaw(0, huge, sizeof(huge)).ok());
  }
  {
    // Unknown opcode.
    Client c(s.ClientOpts());
    ASSERT_TRUE(c.Connect().ok());
    uint8_t frame[5] = {1, 0, 0, 0, 0xee};
    ASSERT_TRUE(c.SendRaw(0, frame, sizeof(frame)).ok());
  }
  {
    // Truncated TXN payload (claims a body it doesn't carry).
    Client c(s.ClientOpts());
    ASSERT_TRUE(c.Connect().ok());
    uint8_t frame[7] = {3, 0, 0, 0,
                        static_cast<uint8_t>(Op::kTxn), 1, 2};
    ASSERT_TRUE(c.SendRaw(0, frame, sizeof(frame)).ok());
  }
  {
    // Mid-frame disconnect: half a frame header, then an abrupt close.
    Client c(s.ClientOpts());
    ASSERT_TRUE(c.Connect().ok());
    uint8_t partial[2] = {40, 0};
    ASSERT_TRUE(c.SendRaw(0, partial, sizeof(partial)).ok());
    c.Kill(0);
  }
  {
    // TXN before HELLO (handshake-order violation).
    Client::Options raw = s.ClientOpts();
    Client c(raw);
    // Bypass Connect's handshake by connecting a socket manually through
    // Connect and then... simplest: Connect (handshakes), then a second
    // HELLO — also an order violation the server must reject.
    ASSERT_TRUE(c.Connect().ok());
    std::vector<uint8_t> hello;
    EncodeHello(&hello, 4);
    ASSERT_TRUE(c.SendRaw(0, hello.data(), hello.size()).ok());
  }
  probe_alive();

  // Randomized fuzz: garbage frames with plausible small lengths. The
  // server must never crash and never leak an outstanding-txn slot.
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    Client c(s.ClientOpts());
    ASSERT_TRUE(c.Connect().ok());
    std::vector<uint8_t> junk;
    uint32_t len = static_cast<uint32_t>(rng.Uniform(64));
    PutU32(&junk, len);
    for (uint32_t b = 0; b < len; ++b)
      PutU8(&junk, static_cast<uint8_t>(rng.Uniform(256)));
    // Sometimes truncate mid-frame, sometimes send it whole.
    size_t n = rng.Chance(0.5) ? junk.size() : junk.size() / 2;
    (void)c.SendRaw(0, junk.data(), n);
    if (rng.Chance(0.5)) c.Kill(0);
  }
  probe_alive();
  // Every admitted request was answered: nothing left in flight.
  for (int spin = 0; s.server->inflight() != 0 && spin < 1000; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(s.server->inflight(), 0u);
  obs::StatsSnapshot snap = s.db->StatsSnapshot();
  EXPECT_GT(snap.counter(obs::CounterId::kNetProtocolErrors), 0u);
}

TEST(ServerTest, StatsRoundTripExposesWireMetrics) {
  Service s;
  Client c(s.ClientOpts());
  ASSERT_TRUE(c.Connect().ok());
  Rng rng(2);
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(c.Call(0, DrawTatpMix(rng, Service::kSubscribers)).ok());
  auto stats = c.QueryStats(0);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().find("atrapos_net_frames_in"), std::string::npos);
  EXPECT_NE(stats.value().find("atrapos_net_accepts"), std::string::npos);
  EXPECT_NE(stats.value().find("atrapos_net_island_accepts"),
            std::string::npos);
}

TEST(ServerTest, GoodbyeDrainsAndClosesConnection) {
  Service s;
  {
    Client::Options copt = s.ClientOpts();
    copt.batch = 8;
    Client c(copt);
    ASSERT_TRUE(c.Connect().ok());
    Rng rng(3);
    for (int i = 0; i < 8; ++i)
      ASSERT_TRUE(
          c.Submit(0, DrawTatpMix(rng, Service::kSubscribers), nullptr).ok());
    c.CloseAll();  // flushes the batch, sends GOODBYE, closes
  }
  // The server reaps the connection (the peer closed right after GOODBYE)
  // and every admitted transaction still releases its slot through its
  // completion callback — connection teardown and engine completion are
  // independently asynchronous, so wait out both.
  for (int spin = 0; (s.server->open_connections() != 0 ||
                      s.server->inflight() != 0) &&
                     spin < 2000;
       ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(s.server->open_connections(), 0u);
  EXPECT_EQ(s.server->inflight(), 0u);
}

// ---- shutdown ordering (satellite 1) ---------------------------------------

// Engine-level regression for the documented Database::Drain() sequence:
// submitter threads race Drain(); no completion callback may fire after
// Drain() returned, and post-drain submissions fail with Unavailable.
TEST(ServerShutdownTest, NoCompletionFiresAfterDatabaseDrain) {
  constexpr uint64_t kSubs = 2000;
  hw::Topology topo = hw::Topology::Cube(1, 1);
  engine::Database db({.topo = topo});
  std::vector<uint64_t> bounds;
  for (int p = 0; p < topo.num_cores(); ++p)
    bounds.push_back(kSubs * static_cast<uint64_t>(p) /
                     static_cast<uint64_t>(topo.num_cores()));
  for (auto& t : workload::BuildTatpTables(kSubs, bounds, 42))
    db.AddTable(std::move(t));
  engine::PartitionedExecutor exec(&db, topo,
                                   TatpScheme(kSubs, topo.num_cores()));
  workload::TatpActionGraphs graphs(kSubs);

  std::atomic<bool> drain_returned{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> late_completions{0};
  std::atomic<uint64_t> submitted{0}, rejected{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      const auto self = std::this_thread::get_id();
      while (!stop.load(std::memory_order_relaxed)) {
        auto f = exec.Submit(graphs.Mix(rng));
        if (!f.ok()) {
          EXPECT_EQ(f.status().code(), StatusCode::kUnavailable);
          ++rejected;
          continue;
        }
        ++submitted;
        f.value().OnComplete([&, self](const Status&) {
          // OnComplete on an already-complete future fires inline on the
          // registering (client) thread — documented, and legal after
          // Drain() when this thread was preempted between Submit() and
          // here. Late means the *engine* (a worker or the log flusher)
          // ran a completion after Drain() returned.
          if (drain_returned.load(std::memory_order_acquire) &&
              std::this_thread::get_id() != self)
            ++late_completions;
        });
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  db.Drain();  // races the submitters
  drain_returned.store(true, std::memory_order_release);
  stop.store(true, std::memory_order_relaxed);
  for (auto& c : clients) c.join();

  // Sealed-before-drained: every engine-side completion for an accepted
  // submission ran inside Drain()'s wait; none after.
  EXPECT_EQ(late_completions.load(), 0u);
  EXPECT_GT(submitted.load(), 0u);
  // Post-drain submission deterministically refused.
  Rng post_rng(1);
  auto f = exec.Submit(graphs.Mix(post_rng));
  ASSERT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kUnavailable);
}

// Wire-level: connect/submit churn racing Server::Stop() + Database::
// Drain() — every client unwinds (ack, kShutdown, or a closed socket),
// nothing crashes, nothing stays in flight.
TEST(ServerShutdownTest, StopUnderChurnDrainsCleanly) {
  auto s = std::make_unique<Service>(Server::Options{},
                                     hw::Topology::Cube(1, 2));
  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  for (int t = 0; t < 4; ++t) {
    churn.emplace_back([&, t] {
      Rng rng(200 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        Client::Options copt = s->ClientOpts();
        copt.batch = 4;
        copt.window = 16;
        Client c(copt);
        if (!c.Connect().ok()) continue;  // draining server refuses
        for (int i = 0; i < 40 && !stop.load(std::memory_order_relaxed);
             ++i) {
          if (!c.Submit(0, DrawTatpMix(rng, Service::kSubscribers), nullptr)
                   .ok())
            break;
          c.Poll(0);
        }
        c.FlushAll();
        for (int spin = 0; c.outstanding() > 0 && spin < 100; ++spin)
          c.Poll(10);
        if (rng.Chance(0.3)) c.Kill(0);  // some leave abruptly
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  s->server->Stop();  // graceful drain while clients churn
  EXPECT_EQ(s->server->inflight(), 0u);
  s->db->Drain();
  stop.store(true, std::memory_order_relaxed);
  for (auto& c : churn) c.join();
  s.reset();  // full teardown repeats Stop()/Drain(): both idempotent
}

// ---- client fault tolerance: deadlines, retries, island failure ------------

/// A scripted wire peer for the deadline/retry tests: accepts one
/// connection, optionally answers HELLO, then answers successive TXN
/// requests from a fixed status script (kOk once exhausted) — or stays
/// silent, for the deadline tests. Blocking I/O on its own thread.
class FakeServer {
 public:
  struct Options {
    bool answer_hello = true;
    bool answer_txns = true;
    std::vector<WireStatus> script;
  };

  explicit FakeServer(Options opt) : opt_(std::move(opt)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(listen_fd_, 1);
    th_ = std::thread([this] { Run(); });
  }

  ~FakeServer() {
    stop_.store(true, std::memory_order_relaxed);
    th_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }
  size_t txns_seen() const { return txns_seen_.load(); }

 private:
  bool WaitReadable(int fd) {
    while (!stop_.load(std::memory_order_relaxed)) {
      pollfd p{fd, POLLIN, 0};
      if (::poll(&p, 1, 20) > 0) return true;
    }
    return false;
  }

  void Run() {
    if (!WaitReadable(listen_fd_)) return;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::vector<uint8_t> buf;
    uint8_t tmp[4096];
    size_t next = 0;
    while (WaitReadable(fd)) {
      ssize_t n = ::read(fd, tmp, sizeof(tmp));
      if (n <= 0) break;
      buf.insert(buf.end(), tmp, tmp + n);
      while (buf.size() >= kFrameHeaderBytes) {
        uint32_t flen = static_cast<uint32_t>(buf[0]) |
                        static_cast<uint32_t>(buf[1]) << 8 |
                        static_cast<uint32_t>(buf[2]) << 16 |
                        static_cast<uint32_t>(buf[3]) << 24;
        if (buf.size() < kFrameHeaderBytes + flen) break;
        DecodedFrame f =
            DecodeRequestFrame(buf.data() + kFrameHeaderBytes, flen);
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<ptrdiff_t>(kFrameHeaderBytes + flen));
        std::vector<uint8_t> out;
        if (f.kind == DecodedFrame::Kind::kHello && opt_.answer_hello) {
          EncodeHelloAck(&out, f.requested_window, 1, 100);
        } else if (f.kind == DecodedFrame::Kind::kTxns) {
          txns_seen_.fetch_add(f.txns.size());
          if (opt_.answer_txns) {
            for (const auto& t : f.txns) {
              WireStatus ws = next < opt_.script.size() ? opt_.script[next]
                                                        : WireStatus::kOk;
              ++next;
              EncodeTxnAck(&out, t.req_id, ws);
            }
          }
        } else if (f.kind == DecodedFrame::Kind::kGoodbye) {
          ::close(fd);
          return;
        }
        if (!out.empty()) {
          ssize_t w = ::write(fd, out.data(), out.size());
          (void)w;
        }
      }
    }
    ::close(fd);
  }

  Options opt_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> txns_seen_{0};
  std::thread th_;
};

TxnRequest AnyTxn() {
  TxnRequest req;
  req.txn_class = 0;  // kGetSubData
  req.s_id = 1;
  return req;
}

TEST(ClientFaultTest, CallDeadlineAgainstSilentServer) {
  FakeServer fs({.answer_txns = false});
  Client::Options o;
  o.port = fs.port();
  o.deadline_ms = 200;
  Client c(o);
  ASSERT_TRUE(c.Connect().ok());
  auto t0 = std::chrono::steady_clock::now();
  Result<WireStatus> r = c.Call(0, AnyTxn());
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(ms, 150);
  EXPECT_LT(ms, 5'000) << "deadline must bound the wait";
  // The abandoned request's callback is unregistered — the client is not
  // waiting on anything any more and a late ack would be dropped.
  EXPECT_EQ(c.outstanding(), 0u);
  c.CloseAll();
}

TEST(ClientFaultTest, ConnectDeadlineWhenHandshakeUnanswered) {
  FakeServer fs({.answer_hello = false});
  Client::Options o;
  o.port = fs.port();
  o.deadline_ms = 150;
  Client c(o);
  Status s = c.Connect();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
}

TEST(ClientFaultTest, CallRetriesTransientStatuses) {
  FakeServer fs({.script = {WireStatus::kOverloaded, WireStatus::kUnavailable,
                            WireStatus::kOk}});
  Client::Options o;
  o.port = fs.port();
  o.deadline_ms = 2'000;
  o.retries = 3;
  o.backoff_base_us = 100;
  o.backoff_cap_us = 2'000;
  Client c(o);
  ASSERT_TRUE(c.Connect().ok());
  Result<WireStatus> r = c.Call(0, AnyTxn());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), WireStatus::kOk);
  EXPECT_EQ(fs.txns_seen(), 3u);  // two shed answers retried, third landed
  c.CloseAll();
}

TEST(ClientFaultTest, ShutdownIsNeverRetried) {
  FakeServer fs({.script = {WireStatus::kShutdown, WireStatus::kOk}});
  Client::Options o;
  o.port = fs.port();
  o.retries = 5;
  o.backoff_base_us = 100;
  Client c(o);
  ASSERT_TRUE(c.Connect().ok());
  Result<WireStatus> r = c.Call(0, AnyTxn());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), WireStatus::kShutdown);
  EXPECT_EQ(fs.txns_seen(), 1u) << "the server is going away: do not retry";
  c.CloseAll();
}

TEST(ClientFaultTest, ExhaustedRetriesReturnLastAnswer) {
  FakeServer fs({.script = {WireStatus::kUnavailable, WireStatus::kUnavailable,
                            WireStatus::kUnavailable}});
  Client::Options o;
  o.port = fs.port();
  o.retries = 2;
  o.backoff_base_us = 100;
  o.backoff_cap_us = 1'000;
  Client c(o);
  ASSERT_TRUE(c.Connect().ok());
  Result<WireStatus> r = c.Call(0, AnyTxn());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), WireStatus::kUnavailable);
  EXPECT_EQ(fs.txns_seen(), 3u);  // initial attempt + 2 retries
  c.CloseAll();
}

// End-to-end graceful degradation: an island fail-stops under a live
// client mid-call stream; the server sheds kUnavailable during the
// quarantine/evacuation window and the client's retry budget carries
// every request through — no call fails, no call hangs.
TEST(ServerFaultTest, IslandKillShedsAndClientRetriesThrough) {
  Service s({}, hw::Topology::Cube(1, 2));
  Client::Options copt = s.ClientOpts();
  copt.deadline_ms = 10'000;
  copt.retries = 100;
  copt.backoff_base_us = 200;
  copt.backoff_cap_us = 10'000;
  Client c(copt);
  ASSERT_TRUE(c.Connect().ok());
  Rng rng(9);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto moved = s.exec->KillIsland(1);
    EXPECT_TRUE(moved.ok()) << moved.status().ToString();
  });
  for (int i = 0; i < 300; ++i) {
    Result<WireStatus> r =
        c.Call(0, DrawTatpMix(rng, Service::kSubscribers));
    ASSERT_TRUE(r.ok()) << "call " << i << ": " << r.status().ToString();
    EXPECT_TRUE(WireCountsAsSuccess(r.value()))
        << "call " << i << ": " << WireStatusName(r.value());
  }
  killer.join();
  EXPECT_EQ(s.exec->failed_islands(), 0b10u);
  EXPECT_FALSE(s.exec->quarantining());
  c.CloseAll();
}

// ---- time-series over the wire (STATS_SERIES) -------------------------------

TEST(ServerSeriesTest, StatsSeriesRoundTripExposesSamplerJson) {
  engine::Database::Options dopt;
  dopt.sampler.enabled = true;
  dopt.sampler.interval_ms = 5;
  Service s({}, hw::Topology::Cube(1, 1), dopt);
  Client c(s.ClientOpts());
  ASSERT_TRUE(c.Connect().ok());
  Rng rng(4);
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(c.Call(0, DrawTatpMix(rng, Service::kSubscribers)).ok());
  // Bounded wait for the 5 ms sampler thread to take at least one tick.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (s.db->sampler()->samples() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_GT(s.db->sampler()->samples(), 0u);
  auto r = c.QuerySeries(0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string& j = r.value();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"t_ms\""), std::string::npos);
  EXPECT_NE(j.find("\"series\""), std::string::npos);
  EXPECT_NE(j.find("\"txn_committed\""), std::string::npos);
  EXPECT_NE(j.find("\"net_inflight_txns\""), std::string::npos);
  // The wire answer is exactly the sampler's serialization contract.
  EXPECT_NE(j.find("\"interval_ms\":5"), std::string::npos);
}

TEST(ServerSeriesTest, StatsSeriesWithoutSamplerAnswersEmptyObject) {
  Service s;  // no sampler configured
  ASSERT_EQ(s.db->sampler(), nullptr);
  Client c(s.ClientOpts());
  ASSERT_TRUE(c.Connect().ok());
  auto r = c.QuerySeries(0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), "{}");
}

TEST(ServerSeriesTest, StatsSeriesWithTrailingBytesIsAProtocolError) {
  Service s;
  {
    // STATS_SERIES carries an empty body; a trailing byte must close the
    // connection, not be silently accepted.
    Client c(s.ClientOpts());
    ASSERT_TRUE(c.Connect().ok());
    std::vector<uint8_t> junk;
    PutU32(&junk, 2);
    PutU8(&junk, static_cast<uint8_t>(Op::kStatsSeries));
    PutU8(&junk, 0x5a);
    ASSERT_TRUE(c.SendRaw(0, junk.data(), junk.size()).ok());
    auto r = c.QuerySeries(0);
    EXPECT_FALSE(r.ok()) << "server must drop the connection";
  }
  obs::StatsSnapshot snap = s.db->StatsSnapshot();
  EXPECT_GT(snap.counter(obs::CounterId::kNetProtocolErrors), 0u);
  // Everyone else keeps being served.
  Client probe(s.ClientOpts());
  ASSERT_TRUE(probe.Connect().ok());
  auto r = probe.QuerySeries(0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "{}");
}

// ---- wire-to-commit trace propagation ---------------------------------------

// The tentpole end-to-end assertion: one transaction submitted through a
// real socket leaves a single trace-id chain from the client's send
// instant to the durable ack — every hop in one chrome://tracing dump.
TEST(ServerTraceTest, WireTxnSpanChainClientSendToDurableAck) {
  engine::Database::Options dopt;
  dopt.obs.trace = true;
  engine::PartitionedExecutor::Options eopt;
  eopt.durability = engine::DurabilityMode::kGroup;
  Service s({}, hw::Topology::Cube(1, 1), dopt, eopt);
  Client::Options copt = s.ClientOpts();
  copt.trace = &s.db->observability();  // loopback: client taps the same registry
  Client c(copt);
  ASSERT_TRUE(c.Connect().ok());
  // Must be a WRITE: only writers append a commit marker and earn a
  // durable ack, the tail links of the chain.
  TxnRequest req;
  req.txn_class = workload::kUpdLocation;
  req.s_id = 1;
  req.a = 12345;  // new vlr_location
  auto ws = c.Call(0, req);
  ASSERT_TRUE(ws.ok()) << ws.status().ToString();
  EXPECT_TRUE(WireCountsAsSuccess(ws.value()));
  s.exec->Drain();  // flush group commit so the durable-ack span landed

  // First request id this client allocated (req ids are salted with a
  // per-Client nonce so concurrent clients' trace chains never merge).
  const uint64_t tid = WireTraceId(c.req_id_base() + 1);
  std::vector<obs::TraceEvent> events = s.db->observability().CollectTrace();
  uint64_t t_send = 0, t_decode = 0, t_begin = 0, t_end = 0, t_ack = 0;
  bool send = false, decode = false, begin = false, end = false;
  bool marker = false, durable = false, ack = false;
  for (const obs::TraceEvent& e : events) {
    if (e.txn != tid) continue;
    switch (e.span) {
      case obs::SpanId::kClientSend:
        send = true;
        t_send = e.ts_ns;
        break;
      case obs::SpanId::kWireDecode:
        decode = true;
        t_decode = e.ts_ns;
        break;
      case obs::SpanId::kTxn:
        if (e.phase == obs::TracePhase::kBegin) {
          begin = true;
          t_begin = e.ts_ns;
        } else if (e.phase == obs::TracePhase::kEnd) {
          end = true;
          t_end = e.ts_ns;
        }
        break;
      case obs::SpanId::kCommitMarker:
        marker = true;
        break;
      case obs::SpanId::kDurableAck:
        durable = true;
        break;
      case obs::SpanId::kWireAck:
        ack = true;
        t_ack = e.ts_ns;
        break;
      default:
        break;
    }
  }
  // Every hop present under ONE id...
  EXPECT_TRUE(send) << "client_send missing";
  EXPECT_TRUE(decode) << "wire_decode missing";
  EXPECT_TRUE(begin) << "txn begin missing";
  EXPECT_TRUE(end) << "txn end missing";
  EXPECT_TRUE(marker) << "commit_marker missing";
  EXPECT_TRUE(durable) << "durable_ack missing";
  EXPECT_TRUE(ack) << "wire_ack missing";
  // ...in causal order along the wire path.
  EXPECT_LE(t_send, t_decode);
  EXPECT_LE(t_decode, t_begin);
  EXPECT_LE(t_begin, t_end);
  EXPECT_LE(t_end, t_ack);

  // And the one dump is chrome://tracing-loadable with the chain visible.
  std::string path = testing::TempDir() + "wire_trace_chain.json";
  ASSERT_TRUE(s.db->DumpTrace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string json = buf.str();
  while (!json.empty() && (json.back() == '\n' || json.back() == ' '))
    json.pop_back();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("client_send"), std::string::npos);
  EXPECT_NE(json.find("wire_decode"), std::string::npos);
  EXPECT_NE(json.find("wire_ack"), std::string::npos);
  EXPECT_NE(json.find("durable_ack"), std::string::npos);
}

TEST(ServerTraceTest, TraceOffLeavesWireIdsUnassigned) {
  Service s;  // tracing off (the default)
  Client::Options copt = s.ClientOpts();
  copt.trace = &s.db->observability();  // registered but disabled: no-op
  Client c(copt);
  ASSERT_TRUE(c.Connect().ok());
  ASSERT_TRUE(c.Call(0, AnyTxn()).ok());
  EXPECT_TRUE(s.db->observability().CollectTrace().empty());
}

// ---- client call-outcome counters -------------------------------------------

TEST(ClientFaultTest, CallStatsCountRetriesByCause) {
  FakeServer fs({.script = {WireStatus::kOverloaded, WireStatus::kUnavailable,
                            WireStatus::kOk}});
  Client::Options o;
  o.port = fs.port();
  o.deadline_ms = 5'000;
  o.retries = 3;
  o.backoff_base_us = 100;
  o.backoff_cap_us = 1'000;
  Client c(o);
  ASSERT_TRUE(c.Connect().ok());
  Result<WireStatus> r = c.Call(0, AnyTxn());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Client::CallStats& cs = c.call_stats();
  EXPECT_EQ(cs.calls, 1u);
  EXPECT_EQ(cs.attempts, 3u);  // attempts - calls == retries taken
  EXPECT_EQ(cs.retries, 2u);
  EXPECT_EQ(cs.retries_overloaded, 1u);
  EXPECT_EQ(cs.retries_unavailable, 1u);
  EXPECT_EQ(cs.deadline_exceeded, 0u);
  EXPECT_EQ(cs.failures, 0u);
  c.CloseAll();
}

TEST(ClientFaultTest, CallStatsCountDeadlineExpiryAsFailure) {
  FakeServer fs({.answer_txns = false});
  Client::Options o;
  o.port = fs.port();
  o.deadline_ms = 150;
  Client c(o);
  ASSERT_TRUE(c.Connect().ok());
  Result<WireStatus> r = c.Call(0, AnyTxn());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  const Client::CallStats& cs = c.call_stats();
  EXPECT_EQ(cs.calls, 1u);
  EXPECT_EQ(cs.attempts, 1u);
  EXPECT_EQ(cs.retries, 0u);
  EXPECT_EQ(cs.deadline_exceeded, 1u);
  EXPECT_EQ(cs.failures, 1u);
  c.CloseAll();
}

}  // namespace
}  // namespace atrapos::server
