// Minimal wire-tier walkthrough: start the networked front-end over a
// small TATP database, run a handful of transactions and a batched
// pk-read through the loopback client, print the server's Prometheus
// stats, and shut down in the documented order (Server::Stop, then
// Database::Drain, then destroy).
//
//   cmake -B build && cmake --build build --target wire_quickstart
//   ./build/examples/wire_quickstart
#include <cstdio>
#include <memory>

#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

using namespace atrapos;

int main() {
  constexpr uint64_t kSubscribers = 5000;
  hw::Topology topo = hw::Topology::Cube(1, 2);  // 2 islands × 2 cores

  // Database + TATP tables partitioned across all cores.
  engine::Database db({.topo = topo});
  std::vector<uint64_t> bounds;
  for (int p = 0; p < topo.num_cores(); ++p)
    bounds.push_back(kSubscribers * static_cast<uint64_t>(p) /
                     static_cast<uint64_t>(topo.num_cores()));
  for (auto& t : workload::BuildTatpTables(kSubscribers, bounds, 42))
    db.AddTable(std::move(t));
  engine::PartitionedExecutor exec(
      &db, topo, workload::TatpScheme(kSubscribers, topo.num_cores()));

  // The wire tier: one epoll listener thread per island, ephemeral port.
  server::Server::Options sopt;
  sopt.bind_listeners = false;
  server::Server server(&db, &exec, kSubscribers, sopt);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wire tier listening on 127.0.0.1:%u (%d islands)\n\n",
              server.port(), db.num_sockets());

  // Loopback client: handshake, then a few transactions from the TATP
  // mix — one TXN_BATCH frame carries all of them.
  server::Client::Options copt;
  copt.port = server.port();
  copt.batch = 8;
  server::Client client(copt);
  if (Status s = client.Connect(); !s.ok()) {
    std::fprintf(stderr, "connect failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("handshake: window %u, %u islands, %llu subscribers\n",
              client.granted_window(0), client.num_islands(),
              static_cast<unsigned long long>(client.subscribers()));

  Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    server::TxnRequest req = server::DrawTatpMix(rng, kSubscribers);
    (void)client.Submit(0, req, [req](server::WireStatus ws) {
      std::printf("  txn class %d -> %s\n", int(req.txn_class),
                  server::WireStatusName(ws));
    });
  }
  client.FlushAll();
  while (client.outstanding() > 0) client.Poll(-1);

  // Batched pk-read: Subscriber.vlr_location for three keys in one frame
  // (the last key does not exist — a per-row NotFound, not an error).
  bool done = false;
  (void)client.PkRead(
      0, workload::kSubscriber, workload::kVlrLoc,
      {1, 2, kSubscribers + 1}, [&](const server::Client::PkRows& rows) {
        for (size_t i = 0; i < rows.size(); ++i)
          std::printf("  pk_read[%zu]: %s value=%lld\n", i,
                      server::WireStatusName(rows[i].first),
                      static_cast<long long>(rows[i].second));
        done = true;
      });
  while (!done) client.Poll(-1);

  // The server's own observability, over the wire.
  auto stats = client.QueryStats(0);
  if (stats.ok()) {
    std::printf("\n--- Prometheus snapshot (wire-tier lines) ---\n");
    const std::string& text = stats.value();
    for (size_t pos = 0; pos < text.size();) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      std::string line = text.substr(pos, eol - pos);
      if (line.find("atrapos_net_") != std::string::npos ||
          line.find("wire_latency") != std::string::npos)
        std::printf("%s\n", line.c_str());
      pos = eol + 1;
    }
  }

  // Shutdown in the documented order (engine/database.h).
  client.CloseAll();
  server.Stop();
  db.Drain();
  std::printf("\ndrained; bye\n");
  return 0;
}
