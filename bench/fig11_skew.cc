// Fig. 11: adapting to sudden workload skew. TATP GetSubData with uniform
// keys; at t = 20 s, 50% of the requests start hitting 20% of the data.
//
// Expected shape: heavy throughput drop at the skew onset for both systems;
// ATraPos detects the change, repartitions the hot range across more cores,
// and ends up a multiple of the static system's throughput.
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
  tl.duration_paper_s = 50;
  PrintHeader("fig11_skew", "Fig. 11 — Adapting to sudden workload skew");

  hw::Topology topo = TopoFor(8);
  auto spec = workload::TatpSingleTxnSpec(workload::kGetSubData, 800000);
  double scale = tl.scale;

  auto routing_fn = [scale](Rng& rng, Tick now, uint64_t rows) {
    double t = sim::CyclesToSec(now) / scale;
    if (t >= 20.0 && rng.Chance(0.5)) return rng.Uniform(rows / 5);
    return rng.Uniform(rows);
  };

  DoraOptions stat;
  ApplyTimelineScaling(tl, &stat);
  stat.run.routing_fn = routing_fn;
  RunMetrics rstat = RunAtrapos(topo, sim::CostParams{}, spec, stat);

  DoraOptions adapt = stat;
  adapt.monitoring = true;
  adapt.adaptive = true;
  RunMetrics radapt = RunAtrapos(topo, sim::CostParams{}, spec, adapt);

  PrintTimeline(tl, rstat, radapt, "MTPS", 1e6);
  return 0;
}
