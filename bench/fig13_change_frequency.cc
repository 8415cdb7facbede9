// Fig. 13: adapting to frequent workload changes. Workloads A (GetNewDest)
// and B (TATP-Mix) alternate with shrinking phases: A 0-60, B 60-90,
// A 90-120, B 120-140, A 140-160, B 160-180. The monitoring interval
// stretches from 1 s to 8 s while the workload is stable and snaps back to
// 1 s after each repartition.
#include "bench/timeline_common.h"
#include "workload/tatp.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  TimelineSetup tl;
  tl.scale = flags.GetDouble("scale", 0.004);
  flags.RejectUnknown();
  tl.duration_paper_s = 180;
  PrintHeader("fig13_change_frequency",
              "Fig. 13 — Adapting to frequent changes (A=GetNewDest, "
              "B=TATP-Mix)");

  hw::Topology topo = TopoFor(8);
  auto spec = workload::TatpSpec(800000);
  size_t n_classes = spec.classes.size();
  double scale = tl.scale;

  // Phase boundaries in paper seconds; phases alternate A, B, A, B, ...
  const double shifts[] = {60, 90, 120, 140, 160, 1e9};
  auto phase_of = [&](double t) {
    int i = 0;
    while (t >= shifts[i]) ++i;
    return i;  // even = A, odd = B
  };
  auto weights_fn = [&, scale](Tick now) {
    double t = sim::CyclesToSec(now) / scale;
    std::vector<double> w(n_classes, 0.0);
    if (phase_of(t) % 2 == 0) {
      w[workload::kGetNewDest] = 1.0;
    } else {
      for (size_t c = 0; c < n_classes; ++c) w[c] = spec.classes[c].weight;
    }
    return w;
  };

  DoraOptions adapt;
  ApplyTimelineScaling(tl, &adapt);
  adapt.run.weights_fn = weights_fn;
  adapt.monitoring = true;
  adapt.adaptive = true;
  RunMetrics r = RunAtrapos(topo, sim::CostParams{}, spec, adapt);

  TablePrinter tp({"t (s)", "phase", "ATraPos (KTPS)"});
  for (size_t i = 0; i < r.timeline_tps.size(); ++i) {
    double t = r.timeline_t[i] / tl.scale;
    tp.AddRow({TablePrinter::Int(static_cast<long long>(t + 0.5)),
               phase_of(t) % 2 == 0 ? "A" : "B",
               TablePrinter::Num(r.timeline_tps[i] / 1e3, 1)});
  }
  tp.Print();

  std::printf("\nmonitoring interval over time (paper seconds):\n");
  TablePrinter ti({"t (s)", "interval (s)"});
  for (size_t i = 0; i < r.interval_t.size(); ++i) {
    ti.AddRow({TablePrinter::Num(r.interval_t[i] / tl.scale, 1),
               TablePrinter::Num(r.interval_s[i] / tl.scale, 2)});
  }
  ti.Print();
  std::printf("\nrepartitions: %llu\n",
              static_cast<unsigned long long>(r.repartitions));
  return 0;
}
