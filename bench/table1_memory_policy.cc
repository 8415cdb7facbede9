// Table I: per-instance throughput (TPS) under the Local / Central / Remote
// memory-allocation policies, one Shore-MT instance per socket, each
// transaction reading 100 random rows of a 1 M-row table; plus QPI/IMC
// traffic ratios.
//
// Expected shape: Local instances within ~1% of each other; Central loses
// a few percent except on the hosting node; Remote loses 3-7%. QPI/IMC
// ratio near 0 for Local and >1 for Central/Remote.
#include "bench/bench_common.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.05);
  flags.RejectUnknown();
  PrintHeader("table1_memory_policy",
              "Table I — Throughput under memory-allocation policies");

  hw::Topology topo = TopoFor(8);
  auto spec = workload::Read100Spec(1000000);

  struct Policy {
    const char* name;
    std::function<hw::SocketId(hw::SocketId)> fn;
  };
  std::vector<Policy> policies = {
      {"Local", [](hw::SocketId s) { return s; }},
      {"Central", [&](hw::SocketId) {
         return static_cast<hw::SocketId>(topo.num_sockets() - 1);
       }},
      {"Remote", [&](hw::SocketId s) {
         return static_cast<hw::SocketId>((s + 1) % topo.num_sockets());
       }},
  };

  std::vector<std::string> header = {"Policy"};
  for (int s = 0; s < topo.num_sockets(); ++s)
    header.push_back("Socket" + std::to_string(s + 1));
  header.push_back("QPI/IMC");
  TablePrinter tp(header);

  for (const auto& pol : policies) {
    SharedNothingOptions opt;
    opt.run.duration_s = duration;
    opt.per_socket_instances = true;
    opt.mem_policy = pol.fn;
    RunMetrics r = RunSharedNothing(topo, sim::CostParams{}, spec, opt);
    std::vector<std::string> row = {pol.name};
    for (uint64_t c : r.per_instance_committed)
      row.push_back(TablePrinter::Int(
          static_cast<long long>(static_cast<double>(c) / r.seconds)));
    row.push_back(TablePrinter::Num(r.qpi_imc_ratio, 2));
    tp.AddRow(row);
  }
  tp.Print();
  return 0;
}
