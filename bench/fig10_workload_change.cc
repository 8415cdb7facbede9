// Fig. 10: adapting to workload changes. TATP; every 30 s the transaction
// type switches: UpdSubData (0-30 s) -> GetNewDest (30-60 s) -> TATP-Mix
// (60-90 s). Static (monitoring/adaptation disabled) vs ATraPos.
//
// Expected shape: after each switch ATraPos detects the change within a few
// seconds, repartitions, and runs measurably above the static system.
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
  tl.duration_paper_s = 90;
  PrintHeader("fig10_workload_change",
              "Fig. 10 — Adapting to workload changes (TATP, 30 s phases)");

  hw::Topology topo = TopoFor(8);
  auto spec = workload::TatpSpec(800000);
  size_t n_classes = spec.classes.size();
  double scale = tl.scale;

  auto weights_fn = [n_classes, scale, &spec](Tick now) {
    double t = sim::CyclesToSec(now) / scale;  // paper seconds
    std::vector<double> w(n_classes, 0.0);
    if (t < 30) {
      w[workload::kUpdSubData] = 1.0;
    } else if (t < 60) {
      w[workload::kGetNewDest] = 1.0;
    } else {
      for (size_t c = 0; c < n_classes; ++c) w[c] = spec.classes[c].weight;
    }
    return w;
  };

  DoraOptions stat;
  ApplyTimelineScaling(tl, &stat);
  stat.run.weights_fn = weights_fn;
  RunMetrics rstat = RunAtrapos(topo, sim::CostParams{}, spec, stat);

  DoraOptions adapt = stat;
  adapt.monitoring = true;
  adapt.adaptive = true;
  RunMetrics radapt = RunAtrapos(topo, sim::CostParams{}, spec, adapt);

  PrintTimeline(tl, rstat, radapt, "KTPS", 1e3);
  return 0;
}
