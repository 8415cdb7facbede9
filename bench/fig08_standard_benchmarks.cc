// Fig. 8: ATraPos throughput normalized over PLP (y = ATraPos/PLP) on the
// standard benchmarks: TATP (GetSubData, GetNewDest, UpdSubData, TATP-Mix)
// and TPC-C (StockLevel, OrderStatus, TPCC-Mix).
//
// PLP runs the standard partitioning (one partition of each table per
// core). ATraPos runs NUMA-aware state plus the scheme chosen by its own
// cost-model search (Algorithms 1+2) from the workload's static flow
// graphs and expected load.
//
// Expected shape: large gains for short perfectly partitionable
// transactions (paper: GetSubData 6.7x), moderate for multi-table reads
// (GetNewDest 3.2x) and TPC-C (StockLevel 2.7x, OrderStatus 1.4x).
#include "bench/bench_common.h"
#include "core/search.h"
#include "workload/tatp.h"
#include "workload/tpcc.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

namespace {

/// Expected-load statistics derived from the spec (uniform keys): what the
/// monitor would converge to on a steady workload.
core::WorkloadStats AnalyticStats(const core::WorkloadSpec& spec,
                                  size_t bins) {
  core::WorkloadStats w;
  w.tables.resize(spec.tables.size());
  std::vector<double> load(spec.tables.size(), 0.0);
  double total_weight = spec.TotalWeight();
  for (const auto& c : spec.classes) {
    double share = total_weight > 0 ? c.weight / total_weight : 0;
    for (const auto& a : c.actions) {
      double op_cost = a.op == core::OpType::kRead ? 1.0 : 2.0;
      load[static_cast<size_t>(a.table)] +=
          share * a.rows * a.AvgRepeat() * op_cost;
    }
  }
  for (size_t t = 0; t < spec.tables.size(); ++t) {
    uint64_t rows = spec.tables[t].num_rows;
    for (size_t b = 0; b < bins; ++b) {
      w.tables[t].sub_starts.push_back(rows * b / bins);
      w.tables[t].sub_cost.push_back(load[t] * 1000.0 /
                                     static_cast<double>(bins));
    }
  }
  for (const auto& c : spec.classes) w.class_counts.push_back(c.weight * 10);
  return w;
}

double RunPair(const hw::Topology& topo, const core::WorkloadSpec& spec,
               double duration, double* plp_tps, double* atr_tps) {
  sim::CostParams params;
  DoraOptions plp;
  plp.run.duration_s = duration;
  RunMetrics rplp = RunPlp(topo, params, spec, plp);

  core::CostModel model(&topo, &spec);
  core::WorkloadStats stats = AnalyticStats(spec, 160);
  DoraOptions atr;
  atr.run.duration_s = duration;
  atr.initial = core::ChooseScheme(model, stats);
  RunMetrics ratr = RunAtrapos(topo, params, spec, atr);

  *plp_tps = rplp.tps;
  *atr_tps = ratr.tps;
  return rplp.tps > 0 ? ratr.tps / rplp.tps : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.004);
  flags.RejectUnknown();
  PrintHeader("fig08_standard_benchmarks",
              "Fig. 8 — ATraPos/PLP normalized throughput, TATP & TPC-C");

  hw::Topology topo = TopoFor(8);
  TablePrinter tp({"workload", "PLP (KTPS)", "ATraPos (KTPS)",
                   "ATraPos/PLP"});

  struct Entry {
    std::string name;
    core::WorkloadSpec spec;
  };
  std::vector<Entry> entries;
  entries.push_back({"GetSubData",
                     workload::TatpSingleTxnSpec(workload::kGetSubData)});
  entries.push_back({"GetNewDest",
                     workload::TatpSingleTxnSpec(workload::kGetNewDest)});
  entries.push_back({"UpdSubData",
                     workload::TatpSingleTxnSpec(workload::kUpdSubData)});
  entries.push_back({"TATP-Mix", workload::TatpSpec()});
  entries.push_back({"StockLevel",
                     workload::TpccSingleTxnSpec(workload::kStockLevel)});
  entries.push_back({"OrderStatus",
                     workload::TpccSingleTxnSpec(workload::kOrderStatus)});
  entries.push_back({"TPCC-Mix", workload::TpccSpec()});

  for (auto& e : entries) {
    double plp = 0, atr = 0;
    double ratio = RunPair(topo, e.spec, duration, &plp, &atr);
    tp.AddRow({e.name, TablePrinter::Num(plp / 1e3, 1),
               TablePrinter::Num(atr / 1e3, 1), TablePrinter::Num(ratio, 2)});
  }
  tp.Print();
  return 0;
}
