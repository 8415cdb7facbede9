// Fig. 12: adapting to hardware failures. TATP GetSubData; at t = 20 s one
// 10-core socket fails. The static system's partitions migrate onto one
// surviving socket (overloading it); ATraPos detects the topology change
// and repartitions to one partition per surviving core.
//
// Expected shape: both drop at the failure; ATraPos recovers ~10% above the
// static system by removing the overload.
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
  PrintHeader("fig12_hw_failure", "Fig. 12 — Adapting to hardware failures");

  hw::Topology topo = TopoFor(8);
  auto spec = workload::TatpSingleTxnSpec(workload::kGetSubData, 800000);

  DoraOptions stat;
  ApplyTimelineScaling(tl, &stat);
  stat.fail_socket_at_s = 20.0 * tl.scale;
  stat.fail_socket = 3;
  RunMetrics rstat = RunAtrapos(topo, sim::CostParams{}, spec, stat);

  DoraOptions adapt = stat;
  adapt.monitoring = true;
  adapt.adaptive = true;
  RunMetrics radapt = RunAtrapos(topo, sim::CostParams{}, spec, adapt);

  PrintTimeline(tl, rstat, radapt, "MTPS", 1e6);

  // Post-failure averages (t > 30 s, past the adaptation window).
  auto avg_after = [&](const RunMetrics& r) {
    double sum = 0;
    int n = 0;
    for (size_t i = 0; i < r.timeline_tps.size(); ++i) {
      if (r.timeline_t[i] / tl.scale > 30.0) {
        sum += r.timeline_tps[i];
        ++n;
      }
    }
    return n ? sum / n : 0.0;
  };
  double s = avg_after(rstat), a = avg_after(radapt);
  std::printf("\npost-failure steady state: static %.2f MTPS, ATraPos %.2f "
              "MTPS (%+.1f%%)\n",
              s / 1e6, a / 1e6, s > 0 ? (a / s - 1.0) * 100.0 : 0.0);
  return 0;
}
