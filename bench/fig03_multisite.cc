// Fig. 3: throughput (KTPS) as the percentage of multi-site update
// transactions grows from 0 to 100, for extreme shared-nothing, coarse
// shared-nothing, and centralized shared-everything on the 8-socket box.
//
// Expected shape: both shared-nothing variants start high and fall steeply
// (distributed transactions run 2PC); centralized is flat and low; the
// curves cross somewhere in the low-multi-site-percentage range.
#include "bench/bench_common.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.01);
  flags.RejectUnknown();
  PrintHeader("fig03_multisite",
              "Fig. 3 — Throughput vs % multi-site transactions");

  hw::Topology topo = TopoFor(8);
  TablePrinter tp({"% multi-site", "extreme-SN (KTPS)", "coarse-SN (KTPS)",
                   "centralized (KTPS)"});
  for (int pct : {0, 20, 40, 60, 80, 100}) {
    auto spec = workload::MultisiteUpdateSpec(pct, 800000);

    SharedNothingOptions ext;
    ext.run.duration_s = duration;
    ext.lock_reads = true;  // update workload: locking enabled everywhere
    RunMetrics rext = RunSharedNothing(topo, sim::CostParams{}, spec, ext);

    SharedNothingOptions coarse = ext;
    coarse.per_socket_instances = true;
    RunMetrics rcoarse =
        RunSharedNothing(topo, sim::CostParams{}, spec, coarse);

    CentralizedOptions ce;
    ce.run.duration_s = duration;
    RunMetrics rce = RunCentralized(topo, sim::CostParams{}, spec, ce);

    tp.AddRow({TablePrinter::Int(pct), TablePrinter::Num(rext.tps / 1e3, 1),
               TablePrinter::Num(rcoarse.tps / 1e3, 1),
               TablePrinter::Num(rce.tps / 1e3, 1)});
  }
  tp.Print();
  return 0;
}
