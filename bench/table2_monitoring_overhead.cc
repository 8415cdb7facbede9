// Table II: throughput of ATraPos with monitoring disabled vs enabled for
// TATP transactions; the paper reports at most 3.32% overhead (GetSubData,
// the shortest transaction, is the worst case).
//
// Two modes:
//   default      — the deterministic simulator sweep (DoraOptions.monitoring),
//                  the original Table II shape.
//   --real       — the same question asked of the real-thread engine: TATP
//                  ActionGraphs at --depth/--batch with the obs registry
//                  (src/obs/) fully off, metrics-on/tracing-off (the
//                  production configuration), metrics+tracing, and
//                  metrics+sampler(+hw), in --reps paired rounds whose
//                  run order alternates (forward, then reversed). The
//                  verdict is each configuration's median per-round TPS
//                  ratio vs obs-off, reported with its IQR.
//                  --max_overhead_pct=<p> exits 2 when the metrics-on or
//                  the sampler configuration loses more than p% TPS, and
//                  requires --reps >= 15 (fewer paired rounds leave the
//                  median inside the host's drift);
//                  --trace_out=<path> dumps a chrome://tracing JSON from the
//                  tracing rep; --json=<path> writes the measured rows.
#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>

#include "bench/bench_common.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "util/rng.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

using namespace atrapos;
using namespace atrapos::bench;
using namespace atrapos::simengine;

namespace {

core::Scheme TatpScheme(uint64_t subscribers, int partitions) {
  core::Scheme scheme;
  for (int t = 0; t < 4; ++t) {
    uint64_t factor = t == 0 ? 1 : (t == 3 ? 32 : 4);
    core::TableScheme ts;
    for (int p = 0; p < partitions; ++p) {
      ts.boundaries.push_back(subscribers * factor *
                              static_cast<uint64_t>(p) /
                              static_cast<uint64_t>(partitions));
      ts.placement.push_back(p);
    }
    scheme.tables.push_back(ts);
  }
  return scheme;
}

struct RealResult {
  double tps = 0;
  uint64_t commit_p50_us = 0;
  uint64_t commit_p95_us = 0;
  uint64_t commit_p99_us = 0;
  uint64_t trace_recorded = 0;
  uint64_t trace_dropped = 0;
  uint64_t sampler_ticks = 0;
  bool hw_available = false;
};

/// One TATP measurement on the real partitioned executor. No adaptive
/// manager and no durability: the run isolates the cost the registry,
/// tracer, sampler thread, and hardware counter groups add to the
/// submit → drain → complete path itself.
RealResult RunReal(const hw::Topology& topo, uint64_t subscribers,
                   size_t depth, size_t batch, double duration, uint64_t seed,
                   bool metrics, bool trace, const std::string& trace_out,
                   bool sampler = false, bool hw = false,
                   const std::string& series_out = "") {
  engine::Database::Options dopt;
  dopt.topo = topo;
  dopt.obs.metrics = metrics;
  dopt.obs.trace = trace;
  dopt.sampler.enabled = sampler;
  // A few ticks even on CI's 0.3s smokes. 50 ms is the cadence the 5%
  // gate was calibrated at: a full StatsSnapshot per tick is not free on
  // a saturated 2-core smoke host, and halving the interval pushes the
  // sampler configuration's overhead into the gate's noise band.
  dopt.sampler.interval_ms = 50;
  engine::Database db(dopt);
  std::vector<uint64_t> bounds;
  for (int p = 0; p < topo.num_cores(); ++p)
    bounds.push_back(subscribers * static_cast<uint64_t>(p) /
                     static_cast<uint64_t>(topo.num_cores()));
  for (auto& t : workload::BuildTatpTables(subscribers, bounds, seed))
    db.AddTable(std::move(t));
  engine::PartitionedExecutor::Options eopt;
  eopt.hw_counters = hw;  // the A/B baselines must not pay for perf groups
  engine::PartitionedExecutor exec(&db, topo,
                                   TatpScheme(subscribers, topo.num_cores()),
                                   eopt);

  workload::TatpActionGraphs graphs(subscribers);
  Rng rng(seed);
  std::deque<engine::TxnFuture> window;
  std::vector<engine::ActionGraph> wave;
  uint64_t done = 0;
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::duration<double>(duration);
  while (std::chrono::steady_clock::now() < deadline) {
    if (batch <= 1) {
      auto f = exec.Submit(graphs.Mix(rng));
      if (!f.ok()) continue;
      window.push_back(f.take());
    } else {
      wave.clear();
      for (size_t i = 0; i < batch; ++i) wave.push_back(graphs.Mix(rng));
      auto fs = exec.SubmitBatch(wave);
      if (!fs.ok()) continue;
      for (auto& f : fs.value()) window.push_back(std::move(f));
    }
    while (window.size() >= depth) {
      (void)window.front().Wait();
      window.pop_front();
      ++done;
    }
  }
  while (!window.empty()) {
    (void)window.front().Wait();
    window.pop_front();
    ++done;
  }
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RealResult out;
  out.tps = static_cast<double>(done) / secs;
  obs::StatsSnapshot snap = db.StatsSnapshot();
  const obs::Histogram& lat = snap.hist(obs::HistId::kCommitLatencyUs);
  out.commit_p50_us = lat.Quantile(0.5);
  out.commit_p95_us = lat.Quantile(0.95);
  out.commit_p99_us = lat.Quantile(0.99);
  out.trace_recorded = snap.trace_events_recorded;
  out.trace_dropped = snap.trace_events_dropped;
  out.hw_available = snap.hw_available;
  if (db.sampler() != nullptr) out.sampler_ticks = db.sampler()->samples();
  if (trace && !trace_out.empty() && db.DumpTrace(trace_out))
    std::printf("wrote trace %s (%llu events recorded, %llu dropped)\n",
                trace_out.c_str(),
                static_cast<unsigned long long>(out.trace_recorded),
                static_cast<unsigned long long>(out.trace_dropped));
  if (sampler && !series_out.empty() && db.DumpTimeSeries(series_out))
    std::printf("wrote time series %s\n", series_out.c_str());
  return out;
}

/// Fewest paired rounds the overhead gate accepts: with fewer, the
/// median ratio is narrower than the host's minute-scale drift and the 5%
/// verdict flips between runs of the same code.
constexpr int kMinGateRounds = 15;

/// Runs every configuration once per round, `reps` rounds, alternating
/// the order within a round (off, on, trace, ...; then ..., trace, on,
/// off) so frequency scaling, warm-up and a drifting neighbor hit every
/// configuration from both sides instead of always favoring whichever ran
/// first. Returns one row per round per configuration: rounds[i][c].
std::vector<std::vector<RealResult>> RunRounds(
    int reps, const std::vector<std::function<RealResult(bool)>>& runs) {
  std::vector<std::vector<RealResult>> rounds;
  const size_t n = runs.size();
  for (int i = 0; i < reps; ++i) {
    std::vector<RealResult> row(n);
    for (size_t k = 0; k < n; ++k) {
      size_t c = i % 2 == 0 ? k : n - 1 - k;
      row[c] = runs[c](/*last_round=*/i + 1 == reps);
    }
    rounds.push_back(std::move(row));
  }
  return rounds;
}

/// Quartiles of the per-round TPS ratios config[c] / config[0]. Pairing
/// each configuration against the baseline measured in the *same* round
/// cancels the machine's slow drift (thermal/frequency/noisy neighbors);
/// the median discards rounds where one side hit a scheduler hiccup, and
/// the IQR says how wide the paired ratios spread.
struct RatioQuartiles {
  double q1 = 1.0, median = 1.0, q3 = 1.0;
};

RatioQuartiles RatioVsBaseline(const std::vector<std::vector<RealResult>>& r,
                               size_t c) {
  std::vector<double> ratios;
  for (const auto& round : r)
    if (round[0].tps > 0) ratios.push_back(round[c].tps / round[0].tps);
  if (ratios.empty()) return {};
  std::sort(ratios.begin(), ratios.end());
  // Linear interpolation between closest ranks (numpy's default).
  auto at = [&](double q) {
    double pos = q * static_cast<double>(ratios.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, ratios.size() - 1);
    return ratios[lo] + (pos - static_cast<double>(lo)) * (ratios[hi] - ratios[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  double duration = flags.GetDouble("duration", 0.006);
  bool real = flags.GetBool("real", false);
  PrintHeader("table2_monitoring_overhead",
              "Table II — ATraPos monitoring overhead (TATP)");

  if (!real) {
    flags.RejectUnknown();
    hw::Topology topo = TopoFor(8);
    TablePrinter tp({"Workload", "No monitoring (TPS)", "Monitoring (TPS)",
                     "Overhead (%)"});

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

    for (auto& e : entries) {
      DoraOptions off;
      off.run.duration_s = duration;
      RunMetrics roff = RunAtrapos(topo, sim::CostParams{}, e.spec, off);
      DoraOptions on = off;
      on.monitoring = true;
      RunMetrics ron = RunAtrapos(topo, sim::CostParams{}, e.spec, on);
      double overhead = roff.tps > 0 ? (1.0 - ron.tps / roff.tps) * 100.0 : 0;
      tp.AddRow({e.name, TablePrinter::Num(roff.tps, 1),
                 TablePrinter::Num(ron.tps, 1),
                 TablePrinter::Num(overhead, 2)});
    }
    tp.Print();
    return 0;
  }

  // ---- real-engine mode -----------------------------------------------
  uint64_t subscribers =
      static_cast<uint64_t>(flags.GetInt("subscribers", 20000));
  int cores = static_cast<int>(flags.GetInt("cores", 4));
  size_t depth = static_cast<size_t>(flags.GetInt("depth", 32));
  size_t batch = static_cast<size_t>(flags.GetInt("batch", 32));
  double real_duration = flags.GetDouble("real_duration", 0.5);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  int reps = static_cast<int>(flags.GetInt("reps", 3));
  double max_overhead_pct = flags.GetDouble("max_overhead_pct", 0);
  std::string trace_out = flags.GetString("trace_out", "");
  std::string series_out = flags.GetString("series_out", "");
  std::string json_path = flags.GetString("json", "");
  flags.RejectUnknown();

  if (max_overhead_pct > 0 && reps < kMinGateRounds) {
    std::fprintf(stderr,
                 "FAIL: --max_overhead_pct needs --reps >= %d paired rounds "
                 "(got %d)\n",
                 kMinGateRounds, reps);
    return 2;
  }

  hw::Topology topo = hw::Topology::SingleSocket(cores);
  std::printf("real engine: %llu subscribers, %d partitions, depth %zu, "
              "batch %zu, %.1fs x %d paired rounds\n\n",
              static_cast<unsigned long long>(subscribers), cores, depth,
              batch, real_duration, reps);

  // Warm-up run (discarded): first-touch page faults, frequency ramp.
  (void)RunReal(topo, subscribers, depth, batch, real_duration, seed,
                /*metrics=*/false, /*trace=*/false, "");
  std::vector<std::vector<RealResult>> rounds = RunRounds(
      reps,
      {[&](bool) {
         return RunReal(topo, subscribers, depth, batch, real_duration, seed,
                        /*metrics=*/false, /*trace=*/false, "");
       },
       [&](bool) {
         return RunReal(topo, subscribers, depth, batch, real_duration, seed,
                        /*metrics=*/true, /*trace=*/false, "");
       },
       [&](bool last_round) {
         // The chrome://tracing dump rides on the final round only.
         return RunReal(topo, subscribers, depth, batch, real_duration, seed,
                        /*metrics=*/true, /*trace=*/true,
                        last_round ? trace_out : std::string());
       },
       [&](bool last_round) {
         // The full-telemetry configuration: metrics + sampler thread +
         // hardware counter groups (probe-gated — identical to metrics-on
         // where perf is unavailable, which is what the gate then checks).
         return RunReal(topo, subscribers, depth, batch, real_duration, seed,
                        /*metrics=*/true, /*trace=*/false, "",
                        /*sampler=*/true, /*hw=*/true,
                        last_round ? series_out : std::string());
       }});
  // Table rows show each configuration's best rep; the overhead verdict
  // uses the median same-round ratio vs the obs-off baseline.
  auto best_of = [&](size_t c) {
    RealResult best;
    for (const auto& round : rounds)
      if (round[c].tps > best.tps) best = round[c];
    return best;
  };
  RealResult off = best_of(0);
  RealResult on = best_of(1);
  RealResult tr = best_of(2);
  RealResult sm = best_of(3);
  const RatioQuartiles on_ratio = RatioVsBaseline(rounds, 1);
  const RatioQuartiles tr_ratio = RatioVsBaseline(rounds, 2);
  const RatioQuartiles sm_ratio = RatioVsBaseline(rounds, 3);
  double on_overhead = (1.0 - on_ratio.median) * 100.0;
  double tr_overhead = (1.0 - tr_ratio.median) * 100.0;
  double sm_overhead = (1.0 - sm_ratio.median) * 100.0;
  TablePrinter tp({"Config", "TPS", "Overhead (%)", "Ratio IQR", "P50us",
                   "P95us", "P99us"});
  auto iqr = [](const RatioQuartiles& q) {
    return TablePrinter::Num(q.q1, 3) + "-" + TablePrinter::Num(q.q3, 3);
  };
  tp.AddRow({"obs off", TablePrinter::Num(off.tps, 0),
             TablePrinter::Num(0.0, 2), "-", "-", "-", "-"});
  tp.AddRow({"metrics on", TablePrinter::Num(on.tps, 0),
             TablePrinter::Num(on_overhead, 2), iqr(on_ratio),
             TablePrinter::Int(static_cast<long long>(on.commit_p50_us)),
             TablePrinter::Int(static_cast<long long>(on.commit_p95_us)),
             TablePrinter::Int(static_cast<long long>(on.commit_p99_us))});
  tp.AddRow({"metrics+trace", TablePrinter::Num(tr.tps, 0),
             TablePrinter::Num(tr_overhead, 2), iqr(tr_ratio),
             TablePrinter::Int(static_cast<long long>(tr.commit_p50_us)),
             TablePrinter::Int(static_cast<long long>(tr.commit_p95_us)),
             TablePrinter::Int(static_cast<long long>(tr.commit_p99_us))});
  tp.AddRow({sm.hw_available ? "metrics+sampler+hw" : "metrics+sampler",
             TablePrinter::Num(sm.tps, 0), TablePrinter::Num(sm_overhead, 2),
             iqr(sm_ratio),
             TablePrinter::Int(static_cast<long long>(sm.commit_p50_us)),
             TablePrinter::Int(static_cast<long long>(sm.commit_p95_us)),
             TablePrinter::Int(static_cast<long long>(sm.commit_p99_us))});
  tp.Print();
  std::printf("\nTPS = best round per configuration; Overhead = 1 - median "
              "of the per-round\npaired TPS ratios vs obs-off (IQR of those "
              "ratios alongside). Paper\nbudget: <= 3.32%% (Table II worst "
              "case). The metrics-on row is the\nproduction "
              "configuration.\n");

  if (!json_path.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Add("bench", std::string("table2_monitoring_overhead"))
        .Add("schema", std::string("BENCH_submission"))
        .Add("config",
             JsonValue::Object()
                 .Add("subscribers", static_cast<long long>(subscribers))
                 .Add("cores", static_cast<long long>(cores))
                 .Add("depth", static_cast<long long>(depth))
                 .Add("batch", static_cast<long long>(batch))
                 .Add("duration_s", real_duration)
                 .Add("reps", static_cast<long long>(reps))
                 .Add("seed", static_cast<long long>(seed)))
        .Add("off_tps", off.tps)
        .Add("metrics_tps", on.tps)
        .Add("metrics_overhead_pct", on_overhead)
        .Add("metrics_ratio_median", on_ratio.median)
        .Add("metrics_ratio_q1", on_ratio.q1)
        .Add("metrics_ratio_q3", on_ratio.q3)
        .Add("trace_tps", tr.tps)
        .Add("trace_overhead_pct", tr_overhead)
        .Add("trace_ratio_median", tr_ratio.median)
        .Add("trace_ratio_q1", tr_ratio.q1)
        .Add("trace_ratio_q3", tr_ratio.q3)
        .Add("commit_p50_us", static_cast<long long>(on.commit_p50_us))
        .Add("commit_p95_us", static_cast<long long>(on.commit_p95_us))
        .Add("commit_p99_us", static_cast<long long>(on.commit_p99_us))
        .Add("trace_events_recorded",
             static_cast<long long>(tr.trace_recorded))
        .Add("trace_events_dropped",
             static_cast<long long>(tr.trace_dropped))
        .Add("sampler_tps", sm.tps)
        .Add("sampler_overhead_pct", sm_overhead)
        .Add("sampler_ratio_median", sm_ratio.median)
        .Add("sampler_ratio_q1", sm_ratio.q1)
        .Add("sampler_ratio_q3", sm_ratio.q3)
        .Add("sampler_ticks", static_cast<long long>(sm.sampler_ticks))
        .Add("hw_available", static_cast<long long>(sm.hw_available ? 1 : 0));
    if (!doc.WriteTo(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (max_overhead_pct > 0 && on_overhead > max_overhead_pct) {
    std::fprintf(stderr,
                 "FAIL: metrics-on overhead %.2f%% exceeds "
                 "--max_overhead_pct=%g\n",
                 on_overhead, max_overhead_pct);
    return 2;
  }
  if (max_overhead_pct > 0 && sm_overhead > max_overhead_pct) {
    std::fprintf(stderr,
                 "FAIL: metrics+sampler+hw overhead %.2f%% exceeds "
                 "--max_overhead_pct=%g\n",
                 sm_overhead, max_overhead_pct);
    return 2;
  }
  return 0;
}
