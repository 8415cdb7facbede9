// Fig. 7: the transaction flow graph of the TPC-C NewOrder transaction —
// actions (R/I/U on tables, with the x(5-15) variable part) and the four
// synchronization points — plus the static workload information ATraPos
// derives from it (paper §V-A).
#include "bench/bench_common.h"
#include "workload/tpcc.h"

using namespace atrapos;
using namespace atrapos::bench;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  flags.RejectUnknown();
  PrintHeader("fig07_flowgraph", "Fig. 7 — TPC-C NewOrder flow graph");

  auto spec = workload::TpccSpec(80);
  const auto& cls = spec.classes[workload::kNewOrderTxn];
  std::printf("%s\n", core::RenderFlowGraph(spec, cls).c_str());

  std::printf("static workload information derived from the graph:\n");
  auto per_table = cls.ActionsPerTable(static_cast<int>(spec.tables.size()));
  TablePrinter tp({"table", "actions", "rows/txn (avg)"});
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    double rows = 0;
    for (const auto& a : cls.actions)
      if (a.table == static_cast<int>(t)) rows += a.rows * a.AvgRepeat();
    tp.AddRow({spec.tables[t].name, TablePrinter::Int(per_table[t]),
               TablePrinter::Num(rows, 1)});
  }
  tp.Print();
  std::printf("\nsynchronization points: %zu (all but s1 involve a variable "
              "number of partitions)\n",
              cls.sync_points.size());
  return 0;
}
