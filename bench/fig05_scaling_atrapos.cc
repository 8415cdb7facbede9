// Fig. 5: the Fig. 2 sweep extended with coarse shared-nothing and ATraPos.
//
// Expected shape: ATraPos scales like the shared-nothing designs on the
// perfectly partitionable workload (the paper's contribution #2); PLP stays
// flat or worse beyond one socket.
#include "bench/bench_common.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.004);
  flags.RejectUnknown();
  PrintHeader("fig05_scaling_atrapos",
              "Fig. 5 — Throughput of a perfectly partitionable workload");

  TablePrinter tp({"sockets", "extreme-SN", "coarse-SN", "ATraPos", "PLP"});
  for (int sockets : {1, 2, 4, 8}) {
    hw::Topology topo = TopoFor(sockets);
    auto spec = workload::ReadOneSpec(800000);

    SharedNothingOptions ext;
    ext.run.duration_s = duration;
    RunMetrics rext = RunSharedNothing(topo, sim::CostParams{}, spec, ext);

    SharedNothingOptions coarse = ext;
    coarse.per_socket_instances = true;
    RunMetrics rcoarse =
        RunSharedNothing(topo, sim::CostParams{}, spec, coarse);

    DoraOptions atr;
    atr.run.duration_s = duration;
    RunMetrics ratr = RunAtrapos(topo, sim::CostParams{}, spec, atr);

    DoraOptions plp;
    plp.run.duration_s = duration;
    RunMetrics rplp = RunPlp(topo, sim::CostParams{}, spec, plp);

    tp.AddRow({TablePrinter::Int(sockets), TablePrinter::Num(rext.mtps, 3),
               TablePrinter::Num(rcoarse.mtps, 3),
               TablePrinter::Num(ratr.mtps, 3),
               TablePrinter::Num(rplp.mtps, 3)});
  }
  tp.Print();
  return 0;
}
