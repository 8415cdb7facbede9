// Fig. 6: throughput of the simple two-table dependent-read transaction
// under increasingly informed partitioning/placement:
//   Centralized, PLP, HW-aware (naive: one partition of each table per core
//   -> oversaturation), Workload-aware (balanced partition counts, spread
//   placement), ATraPos (Algorithm 2 co-locates dependent partitions).
//
// Expected shape: HW-aware ~1.7-2x over the baselines; removing
// oversaturation buys ~2x more; hardware-aware placement adds ~10%.
#include "bench/bench_common.h"
#include "core/search.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

namespace {

/// Balanced partitioning: half the cores for each table's partitions.
core::Scheme BalancedScheme(const hw::Topology& topo, uint64_t rows,
                            bool co_locate) {
  core::Scheme s;
  auto cores = topo.AvailableCores();
  size_t half = cores.size() / 2;
  core::TableScheme ta, tb;
  for (size_t i = 0; i < half; ++i) {
    ta.boundaries.push_back(rows * i / half);
    tb.boundaries.push_back(rows * i / half);
    if (co_locate) {
      // ATraPos placement: partition i of A next to partition i of B on the
      // same socket (adjacent cores).
      ta.placement.push_back(cores[2 * i]);
      tb.placement.push_back(cores[2 * i + 1]);
    } else {
      // Hardware-oblivious spread: A on the first half of the machine, B on
      // the second; dependent partitions usually on different sockets.
      ta.placement.push_back(cores[i]);
      tb.placement.push_back(cores[half + i]);
    }
  }
  s.tables = {ta, tb};
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.006);
  flags.RejectUnknown();
  PrintHeader("fig06_partition_strategies",
              "Fig. 6 — Simple transaction, partitioning/placement variants");

  hw::Topology topo = TopoFor(8);
  uint64_t rows = 800000;
  auto spec = workload::SimpleTwoTableSpec(rows);
  sim::CostParams params;

  TablePrinter tp({"configuration", "throughput (KTPS)"});

  CentralizedOptions ce;
  ce.run.duration_s = duration;
  RunMetrics rce = RunCentralized(topo, params, spec, ce);
  tp.AddRow({"Centralized", TablePrinter::Num(rce.tps / 1e3, 1)});

  DoraOptions plp;
  plp.run.duration_s = duration;
  RunMetrics rplp = RunPlp(topo, params, spec, plp);  // naive + PLP state
  tp.AddRow({"PLP", TablePrinter::Num(rplp.tps / 1e3, 1)});

  DoraOptions hw;
  hw.run.duration_s = duration;
  RunMetrics rhw = RunAtrapos(topo, params, spec, hw);  // naive scheme
  tp.AddRow({"HW-aware (naive)", TablePrinter::Num(rhw.tps / 1e3, 1)});

  DoraOptions wl;
  wl.run.duration_s = duration;
  wl.initial = BalancedScheme(topo, rows, /*co_locate=*/false);
  RunMetrics rwl = RunAtrapos(topo, params, spec, wl);
  tp.AddRow({"Workload-aware", TablePrinter::Num(rwl.tps / 1e3, 1)});

  DoraOptions at;
  at.run.duration_s = duration;
  at.initial = BalancedScheme(topo, rows, /*co_locate=*/true);
  RunMetrics rat = RunAtrapos(topo, params, spec, at);
  tp.AddRow({"ATraPos", TablePrinter::Num(rat.tps / 1e3, 1)});

  tp.Print();
  std::printf("\nATraPos vs Centralized: %.1fx;  vs HW-aware: %.2fx;  vs "
              "Workload-aware: %+.1f%%\n",
              rat.tps / rce.tps, rat.tps / rhw.tps,
              (rat.tps / rwl.tps - 1.0) * 100.0);
  return 0;
}
