// Fig. 1: instructions retired per cycle (IPC) for extreme shared-nothing,
// centralized shared-everything, and PLP at 1/2/4/8 sockets on the
// perfectly partitionable read-one-row microbenchmark.
//
// Expected shape: shared-nothing constant ~0.5; centralized *rises* beyond
// 1 with more sockets (cores spin at high IPC on contended lock words
// while doing no useful work); PLP collapses (cores stall on cross-socket
// CAS, retiring almost nothing).
#include "bench/bench_common.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.004);
  flags.RejectUnknown();
  PrintHeader("fig01_ipc", "Fig. 1 — Instructions retired per cycle");

  TablePrinter tp({"sockets", "extreme-SN", "centralized", "PLP"});
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

    tp.AddRow({TablePrinter::Int(sockets), TablePrinter::Num(rsn.ipc, 3),
               TablePrinter::Num(rce.ipc, 3), TablePrinter::Num(rplp.ipc, 3)});
  }
  tp.Print();
  return 0;
}
