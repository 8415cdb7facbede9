// Table I on the *real-thread* engine: per-socket throughput under the
// island memory-placement policies, plus the measured remote-traffic ratio
// from mem::AllocStats — the functional counterpart of the simulator's
// table1_memory_policy.
//
// Setup mirrors the paper's per-socket Shore-MT instances: one table per
// socket, partitioned across that socket's cores, clients of socket s
// reading `txn_reads` random rows of table s per transaction. The memory
// policy decides which island's arena serves each table's pages and B-tree
// nodes; every record access is charged (requesting socket, serving
// socket), so the printed ratio is measured, not modeled.
//
// Hosts without real NUMA can't show a hardware latency difference, so the
// arena layer optionally emulates interconnect latency (--emulate_ns per
// hop per record access, applied only to off-island accesses). Expected
// shape: Local fastest with ratio ~0; Central fast only for the hosting
// socket; Remote slowest with the highest ratio.
#include <atomic>
#include <chrono>
#include <thread>

#include "bench/bench_common.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "util/rng.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;

namespace {

std::unique_ptr<storage::Table> LoadTable(int id, uint64_t rows,
                                          std::vector<uint64_t> bounds) {
  auto t = std::make_unique<storage::Table>(id, "T" + std::to_string(id),
                                            workload::MicroTableSchema(),
                                            std::move(bounds));
  for (uint64_t k = 0; k < rows; ++k) {
    storage::Tuple row(&t->schema());
    row.SetInt(0, static_cast<int64_t>(k));
    row.SetInt(1, 100);
    (void)t->Insert(k, row);
  }
  return t;
}

std::string FmtRatio(double r) {
  if (r > 99.0) return ">99";
  return TablePrinter::Num(r, 2);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int sockets = static_cast<int>(flags.GetInt("sockets", 2));
  int cores = static_cast<int>(flags.GetInt("cores", 2));
  uint64_t rows = static_cast<uint64_t>(flags.GetInt("rows", 20000));
  int txn_reads = static_cast<int>(flags.GetInt("txn_reads", 100));
  double duration = flags.GetDouble("duration", 0.4);
  uint32_t emulate_ns =
      static_cast<uint32_t>(flags.GetInt("emulate_ns", 5000));
  std::string json_path = flags.GetString("json", "");
  flags.RejectUnknown();

  hw::Topology topo = [&] {
    switch (sockets) {
      case 1: return hw::Topology::SingleSocket(cores);
      case 2: return hw::Topology::Cube(1, cores);
      case 4: return hw::Topology::Cube(2, cores);
      default: return hw::Topology::Cube(3, cores);
    }
  }();

  PrintHeader("table1_real_engine",
              "Table I — real-thread engine, island memory policies");
  std::printf("%d sockets x %d cores, %llu rows/socket-instance, "
              "%d reads/txn, emulated interconnect latency %u ns/hop\n\n",
              topo.num_sockets(), topo.cores_per_socket(),
              static_cast<unsigned long long>(rows), txn_reads, emulate_ns);

  std::vector<mem::PlacementPolicy> policies = {
      mem::PlacementPolicy::kLocal, mem::PlacementPolicy::kCentral,
      mem::PlacementPolicy::kRemote, mem::PlacementPolicy::kInterleaved,
      mem::PlacementPolicy::kFirstTouch};

  std::vector<std::string> header = {"Policy"};
  for (int s = 0; s < topo.num_sockets(); ++s)
    header.push_back("Socket" + std::to_string(s + 1));
  header.push_back("TotalTPS");
  header.push_back("RemoteRatio");
  TablePrinter tp(header);
  JsonValue json_rows = JsonValue::Array();

  for (mem::PlacementPolicy pol : policies) {
    engine::Database db({.topo = topo,
                         .mem = {.policy = pol,
                                 .central_socket = 0,
                                 .emulate_ns_per_hop = emulate_ns}});
    // One "instance" per socket: table s partitioned over socket s's cores.
    core::Scheme scheme;
    for (int s = 0; s < topo.num_sockets(); ++s) {
      std::vector<uint64_t> bounds;
      core::TableScheme ts;
      for (int c = 0; c < topo.cores_per_socket(); ++c) {
        uint64_t b = rows * static_cast<uint64_t>(c) /
                     static_cast<uint64_t>(topo.cores_per_socket());
        bounds.push_back(b);
        ts.boundaries.push_back(b);
        ts.placement.push_back(topo.first_core(s) + c);
      }
      (void)db.AddTable(LoadTable(s, rows, bounds));
      scheme.tables.push_back(std::move(ts));
    }
    engine::PartitionedExecutor exec(&db, topo, scheme);
    db.memory().stats().Reset();  // measure steady state, not the load

    // One client per socket, issuing read-`txn_reads` transactions against
    // its own instance's table.
    std::atomic<bool> stop{false};
    std::vector<uint64_t> committed(static_cast<size_t>(topo.num_sockets()));
    std::vector<std::thread> clients;
    for (int s = 0; s < topo.num_sockets(); ++s) {
      clients.emplace_back([&, s] {
        Rng rng(static_cast<uint64_t>(s) + 17);
        uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          engine::ActionGraph g;
          for (int i = 0; i < txn_reads; ++i) {
            uint64_t k = rng.Uniform(rows);
            g.Add(s, k, [k](storage::Table* t, engine::ActionCtx&) {
              storage::Tuple row;
              return t->Read(k, &row);
            });
          }
          (void)exec.SubmitAndWait(std::move(g));
          ++n;
        }
        committed[static_cast<size_t>(s)] = n;
      });
    }
    auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int>(duration * 1000)));
    stop = true;
    for (auto& c : clients) c.join();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    const mem::AllocStats& stats = db.memory().stats();
    // Hardware ground truth next to the software ratio: the per-island
    // node-local/node-remote DRAM split from the workers' perf groups,
    // when the host lets us open them (paper Table I's IMC counters).
    obs::StatsSnapshot snap = db.StatsSnapshot();
    JsonValue hw_islands = JsonValue::Array();
    if (snap.hw_available) {
      for (size_t i = 0; i < snap.hw_islands.size(); ++i) {
        const obs::HwCounterValues& v = snap.hw_islands[i];
        JsonValue o = JsonValue::Object();
        o.Add("island", static_cast<long long>(i));
        if (v.has(obs::HwCounterId::kNodeLocal))
          o.Add("dram_local",
                static_cast<long long>(v[obs::HwCounterId::kNodeLocal]));
        if (v.has(obs::HwCounterId::kNodeRemote))
          o.Add("dram_remote",
                static_cast<long long>(v[obs::HwCounterId::kNodeRemote]));
        double ratio = snap.hw_remote_dram_ratio(i);
        if (ratio >= 0) o.Add("hw_remote_dram_ratio", ratio);
        hw_islands.Push(std::move(o));
        if (ratio >= 0)
          std::printf("  %s island %zu: hw remote-DRAM ratio %.3f\n",
                      mem::ToString(pol), i, ratio);
      }
    }
    std::vector<std::string> row = {mem::ToString(pol)};
    JsonValue socket_tps = JsonValue::Array();
    uint64_t total = 0;
    for (int s = 0; s < topo.num_sockets(); ++s) {
      uint64_t c = committed[static_cast<size_t>(s)];
      total += c;
      double tps = static_cast<double>(c) / secs;
      row.push_back(TablePrinter::Int(static_cast<long long>(tps)));
      socket_tps.Push(JsonValue::Object().Add("tps", tps));
    }
    double total_tps = static_cast<double>(total) / secs;
    row.push_back(TablePrinter::Int(static_cast<long long>(total_tps)));
    row.push_back(FmtRatio(stats.AccessRemoteRatio()));
    tp.AddRow(row);
    json_rows.Push(JsonValue::Object()
                       .Add("policy", std::string(mem::ToString(pol)))
                       .Add("tps", total_tps)
                       .Add("remote_ratio", stats.AccessRemoteRatio())
                       .Add("hw_available",
                            static_cast<long long>(snap.hw_available ? 1 : 0))
                       .Add("hw_islands", hw_islands)
                       .Add("per_socket", socket_tps));
  }
  tp.Print();
  std::printf(
      "\nRemoteRatio = remote/local access bytes measured by mem::AllocStats"
      "\n(the software analogue of the paper's QPI/IMC ratio).\n");
  if (!json_path.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Add("bench", std::string("table1_real_engine"))
        .Add("schema", std::string("BENCH_submission"))
        .Add("config",
             JsonValue::Object()
                 .Add("sockets", static_cast<long long>(topo.num_sockets()))
                 .Add("cores", static_cast<long long>(cores))
                 .Add("rows", static_cast<long long>(rows))
                 .Add("txn_reads", static_cast<long long>(txn_reads))
                 .Add("emulate_ns", static_cast<long long>(emulate_ns))
                 .Add("duration_s", duration))
        .Add("rows", json_rows);
    if (!doc.WriteTo(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
