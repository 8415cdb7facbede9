// Fig. 4: per-transaction time breakdown (µs) for the coarse shared-nothing
// configuration as the multi-site percentage grows: transaction management,
// execution, communication, locking, logging.
//
// Expected shape: total time per transaction grows several-fold toward 100%
// multi-site, with communication and logging growing fastest.
#include "bench/bench_common.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.01);
  flags.RejectUnknown();
  PrintHeader("fig04_breakdown",
              "Fig. 4 — Time breakdown, coarse shared-nothing (us/txn)");

  hw::Topology topo = TopoFor(8);
  TablePrinter tp({"% multi-site", "xct mgmt", "xct exec", "communication",
                   "locking", "logging", "total"});
  for (int pct : {0, 20, 40, 60, 80, 100}) {
    auto spec = workload::MultisiteUpdateSpec(pct, 800000);
    SharedNothingOptions opt;
    opt.run.duration_s = duration;
    opt.per_socket_instances = true;
    RunMetrics r = RunSharedNothing(topo, sim::CostParams{}, spec, opt);
    double n = r.committed ? static_cast<double>(r.committed) : 1.0;
    auto us = [&](sim::Tick t) {
      return TablePrinter::Num(sim::CyclesToUs(t) / n, 1);
    };
    tp.AddRow({TablePrinter::Int(pct), us(r.breakdown.xct_mgmt),
               us(r.breakdown.xct_exec), us(r.breakdown.communication),
               us(r.breakdown.locking), us(r.breakdown.logging),
               us(r.breakdown.total())});
  }
  tp.Print();
  return 0;
}
