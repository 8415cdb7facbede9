// TATP on the real-thread partitioned engine, submitted as routed
// ActionGraphs (workload::TatpActionGraphs) with pipelined asynchronous
// Submit — the functional counterpart of the simulator's fig08 TATP bars.
//
// Each client thread keeps `--depth` transactions in flight (depth 1
// reproduces the old blocking one-at-a-time submission) and submits them
// `batch` graphs at a time: batch 1 uses Submit (one publish wave per
// transaction), batch > 1 uses SubmitBatch, which groups all stage-0
// actions by destination partition and pays one inbox enqueue + at most
// one wake per partition for the whole batch. The sweep shows both levers:
// pipelining fills the partition workers from far fewer client threads,
// batching cuts the per-transaction submission cost on top. The adaptive
// manager runs throughout: class counts are populated by the executor's
// completion path, and under the skewed workload (--hot_pct of traffic on
// the first 10% of subscribers) the monitor + cost model split the hot
// range online.
//
// --durability={off,async,group} switches the src/log/ subsystem on:
// async logs records and commit markers but acks at marker append; group
// defers each TxnFuture until the markers are durable on every shard the
// transaction touched (asynchronous acks — workers never block). Each
// partition owns one log shard on its owner island.
//
// --json=<path> writes a BENCH_submission.json perf trajectory (TPS per
// depth/batch point plus the measured remote-traffic ratio) so runs are
// machine-comparable across commits; --min_tps=<n> makes the binary exit
// nonzero when any point measured below it (the CI bench smoke check);
// --quick trims the sweep for CI.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "bench/bench_common.h"
#include "engine/adaptive_manager.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/recovery.h"
#include "util/rng.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

using namespace atrapos;
using namespace atrapos::bench;

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

struct RunResult {
  double tps = 0;
  double remote_ratio = 0;
  uint64_t repartitions = 0;
  uint64_t completed = 0;
  uint64_t committed = 0;  ///< futures that resolved OK (TATP misses abort)
  uint64_t log_records = 0;
  uint64_t log_bytes = 0;
  uint64_t durable_epoch = 0;
  // Commit latency (submit → completion ack) from the obs registry's
  // merged histogram, in microseconds.
  uint64_t commit_p50_us = 0;
  uint64_t commit_p95_us = 0;
  uint64_t commit_p99_us = 0;

  double log_bytes_per_commit() const {
    return committed > 0
               ? static_cast<double>(log_bytes) / static_cast<double>(committed)
               : 0.0;
  }
};

RunResult RunOnce(const hw::Topology& topo, uint64_t subscribers,
                  int clients, size_t depth, size_t batch, double duration,
                  double hot_pct, uint64_t seed,
                  engine::PartitionedExecutor::Options exec_opt,
                  mem::IslandAllocator::Options mem_opt = {},
                  const std::string& trace_path = "") {
  engine::Database::Options dopt;
  dopt.topo = topo;
  dopt.mem = mem_opt;
  dopt.obs.trace = !trace_path.empty();
  engine::Database db(dopt);
  std::vector<uint64_t> bounds;
  for (int p = 0; p < topo.num_cores(); ++p)
    bounds.push_back(subscribers * static_cast<uint64_t>(p) /
                     static_cast<uint64_t>(topo.num_cores()));
  for (auto& t : workload::BuildTatpTables(subscribers, bounds, seed))
    db.AddTable(std::move(t));
  engine::PartitionedExecutor exec(&db, topo,
                                   TatpScheme(subscribers, topo.num_cores()),
                                   exec_opt);
  auto spec = workload::TatpSpec(subscribers);
  engine::AdaptiveManager::Options mopt;
  mopt.controller.initial_interval_s = 0.1;
  mopt.controller.max_interval_s = 0.5;
  engine::AdaptiveManager mgr(&exec, &topo, &spec, mopt);
  mgr.Start();
  db.memory().stats().Reset();  // measure steady state, not the load

  workload::TatpActionGraphs graphs(subscribers);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done{0};
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 31 + static_cast<uint64_t>(c));
      std::deque<engine::TxnFuture> window;
      std::vector<engine::ActionGraph> wave;
      auto draw_sid = [&] {
        // Skew: hot_pct% of transactions (every class) target the first
        // 10% of subscribers.
        return rng.Chance(hot_pct / 100.0) ? rng.Uniform(subscribers / 10)
                                           : rng.Uniform(subscribers);
      };
      while (!stop.load(std::memory_order_relaxed)) {
        if (batch <= 1) {
          auto f = exec.Submit(graphs.Mix(rng, draw_sid()));
          if (!f.ok()) continue;
          window.push_back(f.take());
        } else {
          wave.clear();
          for (size_t i = 0; i < batch; ++i)
            wave.push_back(graphs.Mix(rng, draw_sid()));
          auto fs = exec.SubmitBatch(wave);
          if (!fs.ok()) continue;
          for (auto& f : fs.value()) window.push_back(std::move(f));
        }
        while (window.size() >= depth) {
          if (window.front().Wait().ok())
            committed.fetch_add(1, std::memory_order_relaxed);
          window.pop_front();
          done.fetch_add(1, std::memory_order_relaxed);
        }
      }
      while (!window.empty()) {
        if (window.front().Wait().ok())
          committed.fetch_add(1, std::memory_order_relaxed);
        window.pop_front();
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(duration * 1000)));
  stop = true;
  for (auto& t : threads) t.join();
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  mgr.Stop();
  RunResult out;
  out.tps = static_cast<double>(done.load()) / secs;
  out.remote_ratio = db.memory().stats().AccessRemoteRatio();
  out.repartitions = mgr.repartitions();
  out.completed = mgr.completed_transactions();
  out.committed = committed.load();
  if (log::LogManager* lm = exec.log_manager()) {
    out.log_records = lm->num_records();
    out.log_bytes = lm->bytes_logged();
    out.durable_epoch = lm->durable_epoch();
  }
  obs::StatsSnapshot snap = db.StatsSnapshot();
  const obs::Histogram& lat = snap.hist(obs::HistId::kCommitLatencyUs);
  out.commit_p50_us = lat.Quantile(0.5);
  out.commit_p95_us = lat.Quantile(0.95);
  out.commit_p99_us = lat.Quantile(0.99);
  if (!trace_path.empty() && db.DumpTrace(trace_path))
    std::printf("wrote trace %s (%llu events recorded, %llu dropped)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(snap.trace_events_recorded),
                static_cast<unsigned long long>(snap.trace_events_dropped));
  return out;
}

/// Simulated-crash recovery smoke (CI): run TATP under group commit, take
/// a mid-run crash cut and a complete post-drain cut, recover both into
/// fresh copies of the load, and assert the TATP sum invariant — the
/// recovered Subscriber vlr_location sum (and CallForwarding row count)
/// of the complete cut equals the live tables', and every cut replays
/// without image-less or unresolvable records. Returns false on any
/// violation.
bool RunRecoveryCheck(const hw::Topology& topo, uint64_t subscribers,
                      uint64_t seed,
                      engine::PartitionedExecutor::Options exec_opt) {
  std::vector<uint64_t> bounds;
  for (int p = 0; p < topo.num_cores(); ++p)
    bounds.push_back(subscribers * static_cast<uint64_t>(p) /
                     static_cast<uint64_t>(topo.num_cores()));
  engine::Database db({.topo = topo});
  for (auto& t : workload::BuildTatpTables(subscribers, bounds, seed))
    db.AddTable(std::move(t));
  engine::PartitionedExecutor exec(
      &db, topo, TatpScheme(subscribers, topo.num_cores()), exec_opt);

  workload::TatpActionGraphs graphs(subscribers);
  Rng rng(seed);
  std::deque<engine::TxnFuture> window;
  std::vector<log::ShardSnapshot> mid_cut;
  constexpr int kTxns = 4000;
  for (int i = 0; i < kTxns; ++i) {
    // Snapshot first so a failed Submit at the halfway iteration cannot
    // silently skip the mid-run crash cut.
    if (i == kTxns / 2) mid_cut = exec.log_manager()->SnapshotDurable();
    auto f = exec.Submit(graphs.Mix(rng));
    if (!f.ok()) continue;
    window.push_back(f.take());
    while (window.size() >= 32) {
      (void)window.front().Wait();
      window.pop_front();
    }
  }
  while (!window.empty()) {
    (void)window.front().Wait();
    window.pop_front();
  }
  exec.Drain();
  exec.log_manager()->FlushAll();
  auto final_cut = exec.log_manager()->SnapshotDurable();

  auto sum_vlr = [&](storage::Table* t) {
    long long sum = 0;
    for (uint64_t s = 0; s < subscribers; ++s) {
      storage::Tuple row;
      if (t->Read(s, &row).ok()) sum += row.GetInt(workload::kVlrLoc);
    }
    return sum;
  };

  bool ok = true;
  if (mid_cut.empty() || final_cut.empty()) {
    std::fprintf(stderr, "recovery_check: a crash cut is empty — the "
                         "property was never exercised\n");
    ok = false;
  }
  for (const auto* cut : {&mid_cut, &final_cut}) {
    auto fresh = workload::BuildTatpTables(subscribers, bounds, seed);
    std::vector<storage::Table*> raw;
    for (auto& t : fresh) raw.push_back(t.get());
    log::RecoveryReport report = log::Recover(*cut, raw);
    if (report.records_without_image != 0 || report.records_diff_missed != 0) {
      std::fprintf(stderr,
                   "recovery_check: %llu image-less / %llu unresolvable "
                   "records in a cut\n",
                   static_cast<unsigned long long>(report.records_without_image),
                   static_cast<unsigned long long>(report.records_diff_missed));
      ok = false;
    }
    if (cut == &final_cut) {
      if (report.txns_undecided != 0 || report.txns_poisoned != 0) {
        std::fprintf(stderr,
                     "recovery_check: complete cut left %llu undecided / "
                     "%llu poisoned txns\n",
                     static_cast<unsigned long long>(report.txns_undecided),
                     static_cast<unsigned long long>(report.txns_poisoned));
        ok = false;
      }
      long long live = sum_vlr(db.table(workload::kSubscriber));
      long long rec = sum_vlr(raw[workload::kSubscriber]);
      if (live != rec) {
        std::fprintf(stderr,
                     "recovery_check: vlr_location sum %lld (live) != %lld "
                     "(recovered)\n",
                     live, rec);
        ok = false;
      }
      if (db.table(workload::kCallForwarding)->num_rows() !=
          raw[workload::kCallForwarding]->num_rows()) {
        std::fprintf(stderr, "recovery_check: CallForwarding row count "
                             "diverged after recovery\n");
        ok = false;
      }
    }
  }
  std::printf("recovery_check: %s (mid-run + complete crash cuts, "
              "%zu + %zu shard snapshots)\n",
              ok ? "OK" : "FAILED", mid_cut.size(), final_cut.size());
  return ok;
}

bool ParseDurability(const std::string& name,
                     engine::DurabilityMode* out) {
  if (name == "off") *out = engine::DurabilityMode::kOff;
  else if (name == "async") *out = engine::DurabilityMode::kAsync;
  else if (name == "group") *out = engine::DurabilityMode::kGroup;
  else return false;
  return true;
}

bool ParseWire(const std::string& name, log::WireFormat* out) {
  if (name == "diff") *out = log::WireFormat::kCompactDiffV2;
  else if (name == "afterimage") *out = log::WireFormat::kAfterImageV1;
  else return false;
  return true;
}

const char* ToString(log::WireFormat w) {
  return w == log::WireFormat::kCompactDiffV2 ? "diff" : "afterimage";
}

const char* ToString(engine::DurabilityMode m) {
  switch (m) {
    case engine::DurabilityMode::kOff: return "off";
    case engine::DurabilityMode::kAsync: return "async";
    case engine::DurabilityMode::kGroup: return "group";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  uint64_t subscribers =
      static_cast<uint64_t>(flags.GetInt("subscribers", 20000));
  int cores = static_cast<int>(flags.GetInt("cores", 4));
  int clients = static_cast<int>(flags.GetInt("clients", 1));
  double duration = flags.GetDouble("duration", 0.5);
  double hot_pct = flags.GetDouble("hot_pct", 60);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  bool quick = flags.GetBool("quick", false);
  double min_tps = flags.GetDouble("min_tps", 0);
  std::string json_path = flags.GetString("json", "");
  std::string durability_name = flags.GetString("durability", "off");
  uint64_t flush_us =
      static_cast<uint64_t>(flags.GetInt("log_flush_interval_us", 50));
  std::string wire_name = flags.GetString("log_encoding", "diff");
  bool recovery_check = flags.GetBool("recovery_check", false);
  // --trace=<path>: re-run the last sweep point with txn lifecycle tracing
  // enabled and dump a chrome://tracing-loadable JSON there.
  std::string trace_path = flags.GetString("trace", "");
  // --placement={local,central,remote,interleaved,first_touch}: arena
  // placement policy for every table (remote = every partition's data on
  // a non-home island — the worst-case Island traffic). --islands>1 picks
  // a Cube topology so "remote" means something.
  std::string placement_name = flags.GetString("placement", "local");
  int islands = static_cast<int>(flags.GetInt("islands", 1));
  flags.RejectUnknown();

  engine::PartitionedExecutor::Options exec_opt;
  if (!ParseDurability(durability_name, &exec_opt.durability)) {
    std::fprintf(stderr, "unknown --durability=%s (off|async|group)\n",
                 durability_name.c_str());
    return 1;
  }
  if (!ParseWire(wire_name, &exec_opt.log_wire)) {
    std::fprintf(stderr, "unknown --log_encoding=%s (diff|afterimage)\n",
                 wire_name.c_str());
    return 1;
  }
  exec_opt.log_flush_interval_us = flush_us;

  mem::IslandAllocator::Options mem_opt;
  auto policy = mem::ParsePlacementPolicy(placement_name);
  if (!policy) {
    std::fprintf(stderr,
                 "unknown --placement=%s (local|central|remote|"
                 "interleaved|first_touch)\n",
                 placement_name.c_str());
    return 1;
  }
  mem_opt.policy = *policy;

  hw::Topology topo = hw::Topology::SingleSocket(cores);
  if (islands == 2 && cores % 2 == 0)
    topo = hw::Topology::Cube(1, cores / 2);
  else if (islands == 4 && cores % 4 == 0)
    topo = hw::Topology::Cube(2, cores / 4);
  else if (islands != 1) {
    std::fprintf(stderr, "--islands=%d needs 2|4 and cores %% islands == 0\n",
                 islands);
    return 1;
  }
  PrintHeader("tatp_real_engine",
              "TATP as routed ActionGraphs on the partitioned executor "
              "(async Submit/SubmitBatch, completion-path class accounting)");
  std::printf("%llu subscribers, %d partitions/table, %d client thread(s), "
              "%.0f%% hot traffic, %.1fs per row, durability=%s (%s)\n\n",
              static_cast<unsigned long long>(subscribers), cores, clients,
              hot_pct, duration, ToString(exec_opt.durability),
              exec_opt.durability == engine::DurabilityMode::kOff
                  ? "no logging"
                  : "per-partition shards");

  // (depth, batch) sweep: batch 1 is the per-transaction Submit path,
  // batch > 1 submits whole waves through SubmitBatch.
  std::vector<std::pair<size_t, size_t>> points =
      quick ? std::vector<std::pair<size_t, size_t>>{{1, 1}, {32, 1}, {32, 32}}
            : std::vector<std::pair<size_t, size_t>>{
                  {1, 1}, {8, 1}, {32, 1}, {8, 8}, {32, 8}, {32, 32}};

  TablePrinter tp({"Depth", "Batch", "TPS", "P50us", "P95us", "P99us",
                   "Repartitions", "Completed", "LogRecords", "LogB/Commit"});
  JsonValue rows = JsonValue::Array();
  bool below_min = false;
  for (size_t i = 0; i < points.size(); ++i) {
    auto [depth, batch] = points[i];
    // Tracing rides on the last sweep point only, so the earlier rows
    // stay comparable run-to-run.
    const std::string tpath =
        i + 1 == points.size() ? trace_path : std::string();
    RunResult r = RunOnce(topo, subscribers, clients, depth, batch, duration,
                          hot_pct, seed, exec_opt, mem_opt, tpath);
    tp.AddRow({TablePrinter::Int(static_cast<long long>(depth)),
               TablePrinter::Int(static_cast<long long>(batch)),
               TablePrinter::Int(static_cast<long long>(r.tps)),
               TablePrinter::Int(static_cast<long long>(r.commit_p50_us)),
               TablePrinter::Int(static_cast<long long>(r.commit_p95_us)),
               TablePrinter::Int(static_cast<long long>(r.commit_p99_us)),
               TablePrinter::Int(static_cast<long long>(r.repartitions)),
               TablePrinter::Int(static_cast<long long>(r.completed)),
               TablePrinter::Int(static_cast<long long>(r.log_records)),
               TablePrinter::Num(r.log_bytes_per_commit(), 1)});
    rows.Push(JsonValue::Object()
                  .Add("depth", static_cast<long long>(depth))
                  .Add("batch", static_cast<long long>(batch))
                  .Add("tps", r.tps)
                  .Add("commit_p50_us",
                       static_cast<long long>(r.commit_p50_us))
                  .Add("commit_p95_us",
                       static_cast<long long>(r.commit_p95_us))
                  .Add("commit_p99_us",
                       static_cast<long long>(r.commit_p99_us))
                  .Add("remote_ratio", r.remote_ratio)
                  .Add("repartitions", static_cast<long long>(r.repartitions))
                  .Add("completed", static_cast<long long>(r.completed))
                  .Add("committed", static_cast<long long>(r.committed))
                  .Add("log_records", static_cast<long long>(r.log_records))
                  .Add("log_bytes", static_cast<long long>(r.log_bytes))
                  .Add("log_bytes_per_commit", r.log_bytes_per_commit())
                  .Add("durable_epoch",
                       static_cast<long long>(r.durable_epoch)));
    if (min_tps > 0 && r.tps < min_tps) below_min = true;
  }
  tp.Print();

  // Encoding A/B at the acceptance point (depth 32, batch 32): same
  // workload once per wire format, reporting mean log bytes per committed
  // transaction and the diff-vs-after-image ratio.
  JsonValue encoding_compare = JsonValue::Object();
  if (exec_opt.durability != engine::DurabilityMode::kOff) {
    auto run_wire = [&](log::WireFormat w) {
      auto o = exec_opt;
      o.log_wire = w;
      return RunOnce(topo, subscribers, clients, 32, 32, duration, hot_pct,
                     seed, o, mem_opt);
    };
    RunResult diff = run_wire(log::WireFormat::kCompactDiffV2);
    RunResult ai = run_wire(log::WireFormat::kAfterImageV1);
    double ratio = diff.log_bytes_per_commit() > 0
                       ? ai.log_bytes_per_commit() / diff.log_bytes_per_commit()
                       : 0.0;
    std::printf(
        "\nLog encoding (depth 32, batch 32): diff %.1f B/commit vs "
        "after-image %.1f B/commit (%.2fx smaller); TPS %.0f vs %.0f\n",
        diff.log_bytes_per_commit(), ai.log_bytes_per_commit(), ratio,
        diff.tps, ai.tps);
    encoding_compare.Add("diff_log_bytes_per_commit",
                         diff.log_bytes_per_commit())
        .Add("afterimage_log_bytes_per_commit", ai.log_bytes_per_commit())
        .Add("log_bytes_ratio", ratio)
        .Add("diff_tps", diff.tps)
        .Add("afterimage_tps", ai.tps);
  }
  std::printf(
      "\nDepth = transactions each client keeps in flight (1 = the old\n"
      "blocking submission); Batch = transactions per SubmitBatch wave\n"
      "(1 = per-transaction Submit). Higher depth keeps partition workers\n"
      "busy without extra client threads; higher batch amortizes the\n"
      "enqueue + wake cost per partition; Repartitions > 0 shows the\n"
      "adaptive manager acting on completion-path class counts under "
      "skew.\n");

  if (!json_path.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Add("bench", std::string("tatp_real_engine"))
        .Add("schema", std::string("BENCH_submission"))
        .Add("config", JsonValue::Object()
                           .Add("subscribers",
                                static_cast<long long>(subscribers))
                           .Add("cores", static_cast<long long>(cores))
                           .Add("clients", static_cast<long long>(clients))
                           .Add("hot_pct", hot_pct)
                           .Add("duration_s", duration)
                           .Add("seed", static_cast<long long>(seed))
                           .Add("durability",
                                std::string(ToString(exec_opt.durability)))
                           .Add("log_encoding",
                                std::string(ToString(exec_opt.log_wire))))
        .Add("rows", rows);
    if (exec_opt.durability != engine::DurabilityMode::kOff)
      doc.Add("encoding_compare", encoding_compare);
    if (!doc.WriteTo(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  bool recovery_ok = true;
  if (recovery_check) {
    auto o = exec_opt;
    if (o.durability == engine::DurabilityMode::kOff)
      o.durability = engine::DurabilityMode::kGroup;
    recovery_ok = RunRecoveryCheck(topo, subscribers, seed, o);
  }
  if (below_min) {
    std::fprintf(stderr, "FAIL: at least one point below --min_tps=%g\n",
                 min_tps);
    return 2;
  }
  return recovery_ok ? 0 : 3;
}
