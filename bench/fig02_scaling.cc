// Fig. 2: throughput (MTPS) of extreme shared-nothing, centralized, and PLP
// as sockets grow, on the perfectly partitionable read-one-row workload.
//
// Expected shape: shared-nothing scales linearly (~6.5 MTPS at 8 sockets);
// centralized is low and declines; PLP is competitive on one socket and
// degrades across sockets.
#include "bench/bench_common.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.004);
  flags.RejectUnknown();
  PrintHeader("fig02_scaling",
              "Fig. 2 — Throughput of shared-nothing, centralized, PLP");

  TablePrinter tp(
      {"sockets", "extreme-SN (MTPS)", "centralized (MTPS)", "PLP (MTPS)"});
  for (int sockets : {1, 2, 4, 8}) {
    hw::Topology topo = TopoFor(sockets);
    auto spec = workload::ReadOneSpec(800000);

    SharedNothingOptions sn;
    sn.run.duration_s = duration;
    RunMetrics rsn = RunSharedNothing(topo, sim::CostParams{}, spec, sn);

    CentralizedOptions ce;
    ce.run.duration_s = duration;
    RunMetrics rce = RunCentralized(topo, sim::CostParams{}, spec, ce);

    DoraOptions plp;
    plp.run.duration_s = duration;
    RunMetrics rplp = RunPlp(topo, sim::CostParams{}, spec, plp);

    tp.AddRow({TablePrinter::Int(sockets), TablePrinter::Num(rsn.mtps, 3),
               TablePrinter::Num(rce.mtps, 3),
               TablePrinter::Num(rplp.mtps, 3)});
  }
  tp.Print();
  return 0;
}
