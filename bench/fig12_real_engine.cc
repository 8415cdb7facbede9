// Fig. 12 on the real engine: island-failure graceful degradation.
//
// The simulator version (fig12_hw_failure.cc) models the throughput
// timeline around a hardware-island failure; this harness measures it on
// the real-thread partitioned executor. TATP runs under group-commit
// durability with closed-loop client threads (depth 32, batch 32 — the
// load shape of perfbench's TATP workloads); at --kill_at of the run one of
// the two hardware islands fail-stops via KillIsland: its in-flight
// transactions abort kUnavailable (never hang), its partitions are
// evacuated onto the survivor through the Repartition path, and the log
// shards seal + re-home so recovery stays crash-consistent.
//
// Reported, per 25ms timeline bucket: completed TPS; plus the derived
// robustness metrics —
//   pre_kill_tps     steady throughput before the kill
//   dip_min_tps      the deepest bucket after the kill
//   time_to_recover  kill instant → first sustained window back at
//                    --min_recovery_frac of pre-kill throughput
//   evacuation_ms    KillIsland wall time (quarantine + evacuation)
// and the correctness gates: zero lost committed transactions (live
// state equals log::Recover of the post-run crash cut), zero hung
// futures, zero non-OK/non-kUnavailable failures.
//
// --json=<path> writes BENCH_fig12.json; --max_recover_s and
// --min_recovery_frac gate CI (exit 2 on violation, exit 3 on a
// correctness violation).
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "bench/bench_common.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/recovery.h"
#include "util/rng.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

using namespace atrapos;
using namespace atrapos::bench;

namespace {

constexpr int kBucketMs = 25;

struct FigResult {
  /// The sampler's view of the run: cumulative client_ok per 25ms tick
  /// (the timeline source) plus the island_kill annotation.
  obs::Sampler::Collected series;
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t unavailable = 0;  ///< aborted by the quarantine (expected)
  uint64_t other = 0;        ///< anything else (must stay 0)
  uint64_t hung = 0;         ///< futures that never settled (must stay 0)
  uint64_t sheds = 0;        ///< Submit itself refused (evacuation window)
  double kill_s = 0;         ///< kill instant, seconds into the run
  double evacuation_ms = 0;  ///< KillIsland wall time
  uint64_t moved = 0;        ///< partitions evacuated
  bool lost_commits = false;
  uint64_t evacuation_us_obs = 0;  ///< the obs histogram's view
};

FigResult RunOnce(const hw::Topology& topo, uint64_t subscribers, int clients,
                  double duration, double kill_at, uint64_t seed,
                  engine::PartitionedExecutor::Options exec_opt,
                  const std::string& series_out) {
  // Declared before the database: the sampler thread reads `ok` through
  // its registered series until the database (declared below, destroyed
  // first) shuts it down.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> submitted{0}, ok{0}, unavailable{0}, other{0},
      hung{0}, sheds{0};

  engine::Database::Options dopt;
  dopt.topo = topo;
  dopt.sampler.enabled = true;
  dopt.sampler.interval_ms = kBucketMs;
  dopt.sampler.capacity =
      static_cast<uint32_t>(duration * 1000.0 / kBucketMs) + 256;
  engine::Database db(std::move(dopt));
  // Client-observed successful completions, cumulative — the sampler
  // differences adjacent ticks into the TPS timeline.
  db.sampler()->AddSeries("client_ok", [&ok] {
    return static_cast<double>(ok.load(std::memory_order_relaxed));
  });
  std::vector<uint64_t> bounds;
  for (int p = 0; p < topo.num_cores(); ++p)
    bounds.push_back(subscribers * static_cast<uint64_t>(p) /
                     static_cast<uint64_t>(topo.num_cores()));
  for (auto& t : workload::BuildTatpTables(subscribers, bounds, seed))
    db.AddTable(std::move(t));
  engine::PartitionedExecutor exec(
      &db, topo, workload::TatpScheme(subscribers, topo.num_cores()),
      exec_opt);

  workload::TatpActionGraphs graphs(subscribers);

  auto start = std::chrono::steady_clock::now();

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 31 + static_cast<uint64_t>(c));
      std::deque<engine::TxnFuture> window;
      std::vector<engine::ActionGraph> wave;
      constexpr size_t kDepth = 32, kBatch = 32;
      auto settle_front = [&] {
        // Bounded wait: a hung future is a reported gate failure, not a
        // wedged benchmark.
        auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!window.front().Done()) {
          if (std::chrono::steady_clock::now() > give_up) {
            hung.fetch_add(1, std::memory_order_relaxed);
            window.pop_front();
            return;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        Status s = window.front().Wait();
        window.pop_front();
        // TATP misses (NotFound / AlreadyExists) are successful executions
        // per the spec — only kUnavailable (quarantine) and real errors
        // are outages.
        if (workload::TatpActionGraphs::CountsAsSuccess(s)) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (s.code() == StatusCode::kUnavailable) {
          unavailable.fetch_add(1, std::memory_order_relaxed);
        } else {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      };
      while (!stop.load(std::memory_order_relaxed)) {
        wave.clear();
        for (size_t i = 0; i < kBatch; ++i)
          wave.push_back(graphs.Mix(rng));
        auto fs = exec.SubmitBatch(wave);
        if (!fs.ok()) {
          // Evacuation in progress: back off instead of hammering the gate.
          sheds.fetch_add(kBatch, std::memory_order_relaxed);
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        submitted.fetch_add(kBatch, std::memory_order_relaxed);
        for (auto& f : fs.value()) window.push_back(std::move(f));
        while (window.size() >= kDepth) settle_front();
      }
      while (!window.empty()) settle_front();
    });
  }

  FigResult out;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(duration * kill_at * 1000)));
  out.kill_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
  db.sampler()->Annotate("island_kill");
  auto t0 = std::chrono::steady_clock::now();
  auto moved = exec.KillIsland(1);
  out.evacuation_ms =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count() *
      1000.0;
  if (moved.ok()) out.moved = moved.value();
  std::this_thread::sleep_for(std::chrono::milliseconds(
      static_cast<int>(duration * (1.0 - kill_at) * 1000)));
  stop = true;
  for (auto& t : threads) t.join();

  out.submitted = submitted.load();
  out.ok = ok.load();
  out.unavailable = unavailable.load();
  out.other = other.load();
  out.hung = hung.load();
  out.sheds = sheds.load();

  // Zero lost committed transactions: recover the post-run crash cut into
  // a fresh load and compare the TATP invariants against the live tables.
  exec.Drain();
  exec.log_manager()->FlushAll();
  auto cut = exec.log_manager()->SnapshotDurable();
  auto fresh = workload::BuildTatpTables(subscribers, bounds, seed);
  std::vector<storage::Table*> raw;
  for (auto& t : fresh) raw.push_back(t.get());
  log::RecoveryReport report = log::Recover(cut, raw);
  auto sum_vlr = [&](storage::Table* t) {
    long long sum = 0;
    for (uint64_t s = 0; s < subscribers; ++s) {
      storage::Tuple row;
      if (t->Read(s, &row).ok()) sum += row.GetInt(workload::kVlrLoc);
    }
    return sum;
  };
  long long live = sum_vlr(db.table(workload::kSubscriber));
  long long rec = sum_vlr(raw[workload::kSubscriber]);
  if (live != rec || report.txns_undecided != 0 || report.txns_poisoned != 0 ||
      db.table(workload::kCallForwarding)->num_rows() !=
          raw[workload::kCallForwarding]->num_rows()) {
    std::fprintf(stderr,
                 "fig12: LOST COMMITS — vlr sum %lld (live) vs %lld "
                 "(recovered), %llu undecided, %llu poisoned\n",
                 live, rec,
                 static_cast<unsigned long long>(report.txns_undecided),
                 static_cast<unsigned long long>(report.txns_poisoned));
    out.lost_commits = true;
  }
  obs::StatsSnapshot snap = db.StatsSnapshot();
  out.evacuation_us_obs =
      snap.hist(obs::HistId::kEvacuationUs).Quantile(0.5);
  out.series = db.sampler()->Collect();
  if (!series_out.empty() && db.DumpTimeSeries(series_out))
    std::printf("wrote %s\n", series_out.c_str());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  uint64_t subscribers =
      static_cast<uint64_t>(flags.GetInt("subscribers", 20000));
  int cores_per_socket = static_cast<int>(flags.GetInt("cores_per_socket", 2));
  int clients = static_cast<int>(flags.GetInt("clients", 2));
  double duration = flags.GetDouble("duration", 2.0);
  double kill_at = flags.GetDouble("kill_at", 0.4);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  double max_recover_s = flags.GetDouble("max_recover_s", 2.0);
  double min_recovery_frac = flags.GetDouble("min_recovery_frac", 0.7);
  std::string json_path = flags.GetString("json", "");
  std::string series_out = flags.GetString("series_out", "");

  engine::PartitionedExecutor::Options exec_opt;
  exec_opt.durability = engine::DurabilityMode::kGroup;
  exec_opt.log_flush_interval_us =
      static_cast<uint64_t>(flags.GetInt("log_flush_interval_us", 50));
  flags.RejectUnknown();

  hw::Topology topo = hw::Topology::Cube(1, cores_per_socket);
  PrintHeader("fig12_real_engine",
              "Fig. 12 — island failure on the real engine: quarantine, "
              "evacuation, throughput dip and recovery");
  std::printf("%llu subscribers, 2 islands x %d cores, %d client thread(s), "
              "%.1fs run, island 1 killed at %.0f%%, group commit\n\n",
              static_cast<unsigned long long>(subscribers), cores_per_socket,
              clients, duration, kill_at * 100.0);

  FigResult r = RunOnce(topo, subscribers, clients, duration, kill_at, seed,
                        exec_opt, series_out);

  // The TPS timeline: adjacent-tick deltas of the sampler's cumulative
  // client_ok series. The island_kill annotation pins the kill instant on
  // the same clock as the tick timestamps.
  const std::vector<double>* ok_series = nullptr;
  for (const auto& s : r.series.series)
    if (s.name == "client_ok") ok_series = &s.v;
  std::vector<double> t_s, tps;
  if (ok_series != nullptr) {
    for (size_t i = 1; i < r.series.t_ms.size() && i < ok_series->size();
         ++i) {
      double dt_ms =
          static_cast<double>(r.series.t_ms[i] - r.series.t_ms[i - 1]);
      if (dt_ms <= 0) continue;
      t_s.push_back(static_cast<double>(r.series.t_ms[i]) / 1000.0);
      tps.push_back(((*ok_series)[i] - (*ok_series)[i - 1]) * 1000.0 / dt_ms);
    }
  }
  double kill_t_s = r.kill_s;
  for (const auto& [a_ms, label] : r.series.annotations)
    if (label == "island_kill") kill_t_s = static_cast<double>(a_ms) / 1000.0;

  // Pre-kill steady TPS: the ticks of the window [kill/2, kill).
  double pre = 0;
  size_t pre_n = 0;
  for (size_t i = 0; i < t_s.size(); ++i) {
    if (t_s[i] >= kill_t_s / 2 && t_s[i] < kill_t_s) {
      pre += tps[i];
      ++pre_n;
    }
  }
  if (pre_n > 0) pre /= static_cast<double>(pre_n);

  // Dip + recovery: the first post-kill instant where a 4-tick (100ms)
  // sliding window sustains min_recovery_frac of the pre-kill rate.
  double dip = pre;
  double recover_s = -1;
  const double target = pre * min_recovery_frac;
  for (size_t i = 0; i + 4 <= t_s.size(); ++i) {
    if (t_s[i] < kill_t_s) continue;
    dip = std::min(dip, tps[i]);
    double win = 0;
    for (size_t k = 0; k < 4; ++k) win += tps[i + k];
    win /= 4.0;
    if (win >= target) {
      recover_s = std::max(0.0, t_s[i] - kill_t_s);
      break;
    }
  }

  TablePrinter tp({"t (s)", "TPS"});
  for (size_t i = 0; i + 4 <= t_s.size(); i += 4)  // 100ms granularity
    tp.AddRow({TablePrinter::Num(t_s[i], 2),
               TablePrinter::Int(static_cast<long long>(
                   (tps[i] + tps[i + 1] + tps[i + 2] + tps[i + 3]) / 4.0))});
  tp.Print();

  std::printf(
      "\npre-kill %.0f TPS, dip %.0f TPS, evacuation %.1f ms (%llu "
      "partitions), time-to-recover %s (target >= %.0f%% of pre-kill)\n",
      pre, dip, r.evacuation_ms, static_cast<unsigned long long>(r.moved),
      recover_s < 0 ? "NEVER" : (std::to_string(recover_s) + " s").c_str(),
      min_recovery_frac * 100.0);
  std::printf("statuses: %llu ok, %llu kUnavailable (quarantine aborts), "
              "%llu shed at submit, %llu other, %llu hung futures\n",
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.unavailable),
              static_cast<unsigned long long>(r.sheds),
              static_cast<unsigned long long>(r.other),
              static_cast<unsigned long long>(r.hung));

  if (!json_path.empty()) {
    JsonValue timeline = JsonValue::Array();
    for (size_t i = 0; i < t_s.size(); ++i)
      timeline.Push(
          JsonValue::Object().Add("t_s", t_s[i]).Add("tps", tps[i]));
    JsonValue annotations = JsonValue::Array();
    for (const auto& [a_ms, label] : r.series.annotations)
      annotations.Push(JsonValue::Object()
                           .Add("t_s", static_cast<double>(a_ms) / 1000.0)
                           .Add("label", label));
    JsonValue doc = JsonValue::Object();
    doc.Add("bench", std::string("fig12_real_engine"))
        .Add("schema", std::string("BENCH_fig12"))
        .Add("config",
             JsonValue::Object()
                 .Add("subscribers", static_cast<long long>(subscribers))
                 .Add("cores_per_socket",
                      static_cast<long long>(cores_per_socket))
                 .Add("clients", static_cast<long long>(clients))
                 .Add("duration_s", duration)
                 .Add("kill_at", kill_at)
                 .Add("seed", static_cast<long long>(seed)))
        .Add("pre_kill_tps", pre)
        .Add("dip_min_tps", dip)
        .Add("kill_s", r.kill_s)
        .Add("time_to_recover_s", recover_s)
        .Add("evacuation_ms", r.evacuation_ms)
        .Add("evacuation_us_obs",
             static_cast<long long>(r.evacuation_us_obs))
        .Add("partitions_evacuated", static_cast<long long>(r.moved))
        .Add("ok", static_cast<long long>(r.ok))
        .Add("unavailable", static_cast<long long>(r.unavailable))
        .Add("shed_at_submit", static_cast<long long>(r.sheds))
        .Add("other_failures", static_cast<long long>(r.other))
        .Add("hung_futures", static_cast<long long>(r.hung))
        .Add("lost_commits", static_cast<long long>(r.lost_commits ? 1 : 0))
        .Add("sampler_interval_ms",
             static_cast<long long>(r.series.interval_ms))
        .Add("sampler_ticks_missed",
             static_cast<long long>(r.series.ticks_missed))
        .Add("annotations", annotations)
        .Add("timeline", timeline);
    if (!doc.WriteTo(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (r.lost_commits || r.other != 0 || r.hung != 0) {
    std::fprintf(stderr, "FAIL: correctness violation (lost commits, hung "
                         "futures, or unexpected failure statuses)\n");
    return 3;
  }
  if (r.moved == 0) {
    std::fprintf(stderr, "FAIL: KillIsland evacuated nothing\n");
    return 2;
  }
  if (recover_s < 0 || recover_s > max_recover_s) {
    std::fprintf(stderr,
                 "FAIL: throughput did not recover to %.0f%% of pre-kill "
                 "within %.1fs (measured %s)\n",
                 min_recovery_frac * 100.0, max_recover_s,
                 recover_s < 0 ? "never" : std::to_string(recover_s).c_str());
    return 2;
  }
  return 0;
}
