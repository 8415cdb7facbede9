// Ablation of the simulator's key modeling choices and of ATraPos design
// parameters (not a paper figure; supports DESIGN.md §4-5):
//
//  1. cas_queue_penalty — the CAS retry-storm term: without it, PLP's
//     centralized lines never convoy and the paper's Figs. 1/2/5 shapes
//     disappear.
//  2. NUMA-aware state split — which of ATraPos' two §IV structures
//     (per-socket transaction lists vs partitioned volume lock) carries the
//     win for perfectly partitionable workloads.
//  3. Sub-partitions per partition — the monitoring resolution the paper
//     fixes at 10 (§V-D): resolution vs repartitioning granularity.
#include "bench/bench_common.h"
#include "core/search.h"
#include "workload/micro.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.003);
  flags.RejectUnknown();
  PrintHeader("ablation_model",
              "Ablations: convoy term, state split, monitor resolution");

  hw::Topology topo = TopoFor(8);
  auto spec = workload::ReadOneSpec(800000);

  // ---- 1. CAS queue penalty ------------------------------------------------
  std::printf("1) cas_queue_penalty (PLP on 8 sockets; 21 = calibrated):\n");
  TablePrinter t1({"penalty (cycles)", "PLP (MTPS)", "ATraPos (MTPS)"});
  for (sim::Tick penalty : {0ULL, 7ULL, 21ULL, 63ULL}) {
    sim::CostParams p;
    p.cas_queue_penalty = penalty;
    DoraOptions opt;
    opt.run.duration_s = duration;
    RunMetrics plp = RunPlp(topo, p, spec, opt);
    RunMetrics atr = RunAtrapos(topo, p, spec, opt);
    t1.AddRow({TablePrinter::Int(static_cast<long long>(penalty)),
               TablePrinter::Num(plp.mtps, 3), TablePrinter::Num(atr.mtps, 3)});
  }
  t1.Print();

  // ---- 2. Which NUMA-aware structure matters -------------------------------
  // numa_aware_state toggles both structures together in the engine; the
  // single-socket run isolates how much of PLP's loss is multisocket CAS.
  std::printf("\n2) state split (read-one-row):\n");
  TablePrinter t2({"configuration", "MTPS (8 sockets)", "MTPS (1 socket)"});
  {
    DoraOptions opt;
    opt.run.duration_s = duration;
    auto one = hw::Topology::SingleSocket(10);
    RunMetrics plp8 = RunPlp(topo, sim::CostParams{}, spec, opt);
    RunMetrics plp1 = RunPlp(one, sim::CostParams{}, spec, opt);
    RunMetrics atr8 = RunAtrapos(topo, sim::CostParams{}, spec, opt);
    RunMetrics atr1 = RunAtrapos(one, sim::CostParams{}, spec, opt);
    t2.AddRow({"centralized state (PLP)", TablePrinter::Num(plp8.mtps, 3),
               TablePrinter::Num(plp1.mtps, 3)});
    t2.AddRow({"per-socket state (ATraPos)", TablePrinter::Num(atr8.mtps, 3),
               TablePrinter::Num(atr1.mtps, 3)});
  }
  t2.Print();
  std::printf("   (equal on 1 socket, far apart on 8: the win is entirely "
              "cross-socket state locality)\n");

  // ---- 3. Monitoring sub-partitions ----------------------------------------
  std::printf("\n3) sub-partitions per partition (search quality under "
              "skew; paper uses 10):\n");
  TablePrinter t3({"subs/partition", "RU imbalance after search"});
  auto topo4 = hw::Topology::Cube(2, 4);
  auto spec4 = workload::ReadOneSpec(16000);
  for (int subs : {2, 5, 10, 20}) {
    core::CostModel model(&topo4, &spec4);
    // Build stats as the monitor would: 16 partitions x `subs` bins, with a
    // hot first quarter.
    core::WorkloadStats stats;
    stats.tables.resize(1);
    size_t bins = 16 * static_cast<size_t>(subs);
    for (size_t b = 0; b < bins; ++b) {
      stats.tables[0].sub_starts.push_back(16000 * b / bins);
      stats.tables[0].sub_cost.push_back(b < bins / 4 ? 4.0 : 1.0);
    }
    stats.class_counts = {100.0};
    core::Scheme s = core::ChooseScheme(model, stats);
    t3.AddRow({TablePrinter::Int(subs),
               TablePrinter::Num(model.ResourceImbalance(s, stats), 2)});
  }
  t3.Print();
  std::printf("   (resolution interacts with boundary snapping — more subs "
              "give Algorithm 1 finer moves at linearly higher trace cost; "
              "the paper settles on 10 as the size/agility trade-off)\n");
  return 0;
}
