// TATP over the wire: the networked front-end (src/server/) measured
// against the in-process submission path it wraps.
//
// Closed-loop sweep over connection counts × client batch size: every
// connection keeps `--window` requests outstanding; batch 1 sends one TXN
// frame per request (the per-request round-trip baseline), batch 32 packs
// a TXN_BATCH per flush so one socket write (and one server-side
// SubmitBatch wave) amortizes many transactions — the wire counterpart of
// the executor's depth/batch levers. Client threads each own a
// server::Client multiplexing `conns/threads` connections and measure
// per-request latency at the callback (p50/p95/p99 from obs::Histogram).
//
// The in-process baseline (depth 32, batch 32, the tatp_real_engine
// acceptance point) runs first; each wire row reports its TPS ratio
// against it. --open_rate=<tps> adds an open-loop row: requests are
// issued on a fixed schedule regardless of completions (enforce_window
// off), so an overloaded server sheds with OVERLOADED instead of
// queueing — the shed fraction is reported.
//
// --json=<path> writes the established BENCH schema ("bench":
// "wire_tatp"); --min_tps fails the run when any wire row with batch > 1
// measured below it; --min_ratio fails when the best batched wire row
// delivers less than that fraction of the in-process baseline; --quick
// trims the sweep for CI.
#include <atomic>
#include <chrono>
#include <deque>
#include <thread>

#include "bench/bench_common.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "obs/histogram.h"
#include "server/client.h"
#include "server/server.h"
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

/// The service under test, rebuilt per sweep row so rows are independent.
struct Service {
  Service(const hw::Topology& topo, uint64_t subscribers, uint64_t seed) {
    db = std::make_unique<engine::Database>(
        engine::Database::Options{.topo = topo});
    std::vector<uint64_t> bounds;
    for (int p = 0; p < topo.num_cores(); ++p)
      bounds.push_back(subscribers * static_cast<uint64_t>(p) /
                       static_cast<uint64_t>(topo.num_cores()));
    for (auto& t : workload::BuildTatpTables(subscribers, bounds, seed))
      db->AddTable(std::move(t));
    exec = std::make_unique<engine::PartitionedExecutor>(
        db.get(), topo, TatpScheme(subscribers, topo.num_cores()));
  }

  ~Service() {
    if (server) server->Stop();
    db->Drain();
    server.reset();
    exec.reset();
    db.reset();
  }

  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::PartitionedExecutor> exec;
  std::unique_ptr<server::Server> server;
};

struct WireResult {
  double tps = 0;
  double success_frac = 0;  ///< acks that counted as TATP success
  double shed_frac = 0;     ///< acks that came back OVERLOADED
  uint64_t p50_us = 0, p95_us = 0, p99_us = 0;
};

/// Closed loop: `threads` client threads × `conns_per_thread` connections,
/// each connection holding `window` requests in flight, batched `batch`
/// per frame. Open loop (open_rate > 0): one thread issues on a fixed
/// schedule with the window gate off.
WireResult RunWire(Service& svc, uint64_t subscribers, int connections,
                   size_t batch, uint32_t window, double duration,
                   uint64_t seed, double open_rate = 0) {
  WireResult out;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done{0}, ok{0}, shed{0};
  obs::Histogram lat;  // merged under mutex at thread exit
  std::mutex lat_mu;

  // Client threads: enough to keep the connections fed without drowning
  // the machine in context switches (each thread multiplexes its share).
  int threads = open_rate > 0 ? 1 : std::max(1, std::min(connections, 8));
  int conns_per_thread = connections / threads;
  std::vector<std::thread> workers;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      server::Client::Options copt;
      copt.port = svc.server->port();
      copt.connections = conns_per_thread;
      copt.window = window;
      copt.batch = batch;
      copt.enforce_window = open_rate <= 0;
      server::Client client(copt);
      if (!client.Connect().ok()) return;
      Rng rng(seed * 131 + static_cast<uint64_t>(w));
      obs::Histogram local;
      auto steady_us = [] {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
      };
      // Open loop: inter-arrival gap in microseconds.
      double gap_us = open_rate > 0 ? 1e6 / open_rate : 0;
      double next_issue = static_cast<double>(steady_us());
      int rr = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (open_rate > 0) {
          double now = static_cast<double>(steady_us());
          if (now < next_issue) {
            client.Poll(0);
            continue;
          }
          next_issue += gap_us;
        }
        int conn = rr++ % conns_per_thread;
        int64_t t0 = steady_us();
        Status s = client.Submit(
            conn, server::DrawTatpMix(rng, subscribers),
            [&, t0](server::WireStatus ws) {
              local.Add(static_cast<uint64_t>(steady_us() - t0));
              done.fetch_add(1, std::memory_order_relaxed);
              if (ws == server::WireStatus::kOverloaded)
                shed.fetch_add(1, std::memory_order_relaxed);
              else if (server::WireCountsAsSuccess(ws))
                ok.fetch_add(1, std::memory_order_relaxed);
            });
        if (!s.ok()) break;  // server draining/connection gone
        // Open loop reaps opportunistically; the closed loop reaps inside
        // Submit's window wait (one poll per ack, not one per submit).
        if (open_rate > 0) client.Poll(0);
      }
      client.FlushAll();
      for (int spin = 0; client.outstanding() > 0 && spin < 2000; ++spin)
        client.Poll(5);
      client.CloseAll();
      std::lock_guard lk(lat_mu);
      lat.Merge(local);
    });
  }
  auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(duration * 1000)));
  stop = true;
  for (auto& t : workers) t.join();
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  uint64_t n = done.load();
  out.tps = static_cast<double>(n) / secs;
  out.success_frac =
      n ? static_cast<double>(ok.load()) / static_cast<double>(n) : 0;
  out.shed_frac =
      n ? static_cast<double>(shed.load()) / static_cast<double>(n) : 0;
  out.p50_us = lat.Quantile(0.5);
  out.p95_us = lat.Quantile(0.95);
  out.p99_us = lat.Quantile(0.99);
  return out;
}

/// The in-process acceptance point (depth 32, batch 32, one client thread
/// per two cores) the wire rows are measured against.
double RunInProcessBaseline(Service& svc, uint64_t subscribers, int clients,
                            double duration, uint64_t seed) {
  workload::TatpActionGraphs graphs(subscribers);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 31 + static_cast<uint64_t>(c));
      std::deque<engine::TxnFuture> window;
      std::vector<engine::ActionGraph> wave;
      while (!stop.load(std::memory_order_relaxed)) {
        wave.clear();
        for (int i = 0; i < 32; ++i) wave.push_back(graphs.Mix(rng));
        auto fs = svc.exec->SubmitBatch(wave);
        if (!fs.ok()) continue;
        for (auto& f : fs.value()) window.push_back(std::move(f));
        while (window.size() >= 32) {
          (void)window.front().Wait();
          window.pop_front();
          done.fetch_add(1, std::memory_order_relaxed);
        }
      }
      while (!window.empty()) {
        (void)window.front().Wait();
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
  return static_cast<double>(done.load()) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  uint64_t subscribers =
      static_cast<uint64_t>(flags.GetInt("subscribers", 20000));
  int cores = static_cast<int>(flags.GetInt("cores", 4));
  double duration = flags.GetDouble("duration", 0.5);
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  uint32_t window = static_cast<uint32_t>(flags.GetInt("window", 32));
  bool quick = flags.GetBool("quick", false);
  double min_tps = flags.GetDouble("min_tps", 0);
  double min_ratio = flags.GetDouble("min_ratio", 0);
  double open_rate = flags.GetDouble("open_rate", 0);
  std::string json_path = flags.GetString("json", "");
  flags.RejectUnknown();

  hw::Topology topo = hw::Topology::SingleSocket(cores);
  PrintHeader("wire_tatp",
              "TATP through the networked front-end (island-affine epoll "
              "listeners, TXN_BATCH framing, SubmitBatch waves) vs the "
              "in-process submission path");

  // In-process acceptance point first (its own service, no server).
  double baseline_tps;
  {
    Service svc(topo, subscribers, seed);
    baseline_tps = RunInProcessBaseline(
        svc, subscribers, std::max(1, cores / 2), duration, seed);
  }
  std::printf("in-process baseline (depth 32, batch 32): %.0f TPS\n\n",
              baseline_tps);

  // (connections, batch) sweep: batch 1 vs 32 at each connection count.
  std::vector<std::pair<int, size_t>> points;
  if (quick) {
    // One unbatched contrast point plus the acceptance point (64 conns,
    // batched) so CI exercises the configuration that matters.
    points = {{4, 1}, {64, 32}};
  } else {
    for (int conns : {4, 16, 64})
      for (size_t batch : {size_t{1}, size_t{32}}) points.push_back({conns, batch});
  }

  TablePrinter tp({"Conns", "Batch", "TPS", "vsInproc", "P50us", "P95us",
                   "P99us", "Success", "Shed"});
  JsonValue rows = JsonValue::Array();
  bool below_min = false;
  double best_batched_ratio = 0;
  for (auto [conns, batch] : points) {
    Service svc(topo, subscribers, seed);
    server::Server::Options sopt;
    sopt.max_window = window;
    sopt.bind_listeners = false;
    svc.server = std::make_unique<server::Server>(
        svc.db.get(), svc.exec.get(), subscribers, sopt);
    Status st = svc.server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
      return 1;
    }
    WireResult r =
        RunWire(svc, subscribers, conns, batch, window, duration, seed);
    double ratio = baseline_tps > 0 ? r.tps / baseline_tps : 0;
    if (batch > 1) best_batched_ratio = std::max(best_batched_ratio, ratio);
    tp.AddRow({TablePrinter::Int(conns),
               TablePrinter::Int(static_cast<long long>(batch)),
               TablePrinter::Int(static_cast<long long>(r.tps)),
               TablePrinter::Num(ratio, 2),
               TablePrinter::Int(static_cast<long long>(r.p50_us)),
               TablePrinter::Int(static_cast<long long>(r.p95_us)),
               TablePrinter::Int(static_cast<long long>(r.p99_us)),
               TablePrinter::Num(r.success_frac, 3),
               TablePrinter::Num(r.shed_frac, 3)});
    rows.Push(JsonValue::Object()
                  .Add("connections", static_cast<long long>(conns))
                  .Add("batch", static_cast<long long>(batch))
                  .Add("tps", r.tps)
                  .Add("vs_inprocess", ratio)
                  .Add("p50_us", static_cast<long long>(r.p50_us))
                  .Add("p95_us", static_cast<long long>(r.p95_us))
                  .Add("p99_us", static_cast<long long>(r.p99_us))
                  .Add("success_frac", r.success_frac)
                  .Add("shed_frac", r.shed_frac)
                  .Add("mode", std::string("closed")));
    if (min_tps > 0 && batch > 1 && r.tps < min_tps) below_min = true;
  }

  // Optional open-loop overload row: issue faster than the service
  // absorbs; admission control must shed (OVERLOADED) instead of queueing.
  if (open_rate > 0) {
    Service svc(topo, subscribers, seed);
    server::Server::Options sopt;
    sopt.max_window = window;
    sopt.bind_listeners = false;
    svc.server = std::make_unique<server::Server>(
        svc.db.get(), svc.exec.get(), subscribers, sopt);
    if (!svc.server->Start().ok()) return 1;
    WireResult r = RunWire(svc, subscribers, 4, 1, window, duration, seed,
                           open_rate);
    std::printf("\nopen loop @ %.0f req/s: %.0f acks/s, %.1f%% shed, "
                "p99 %llu us\n",
                open_rate, r.tps, r.shed_frac * 100,
                static_cast<unsigned long long>(r.p99_us));
    rows.Push(JsonValue::Object()
                  .Add("connections", 4LL)
                  .Add("batch", 1LL)
                  .Add("tps", r.tps)
                  .Add("open_rate", open_rate)
                  .Add("p99_us", static_cast<long long>(r.p99_us))
                  .Add("success_frac", r.success_frac)
                  .Add("shed_frac", r.shed_frac)
                  .Add("mode", std::string("open")));
  }
  tp.Print();
  std::printf(
      "\nConns = client connections (closed loop, %u outstanding each);\n"
      "Batch = transactions per TXN_BATCH frame (1 = one TXN frame per\n"
      "request). vsInproc = TPS ratio against the in-process depth-32/\n"
      "batch-32 SubmitBatch baseline; latency is client-measured\n"
      "submit -> ack.\n",
      window);

  if (!json_path.empty()) {
    JsonValue doc = JsonValue::Object();
    doc.Add("bench", std::string("wire_tatp"))
        .Add("schema", std::string("BENCH_submission"))
        .Add("config",
             JsonValue::Object()
                 .Add("subscribers", static_cast<long long>(subscribers))
                 .Add("cores", static_cast<long long>(cores))
                 .Add("window", static_cast<long long>(window))
                 .Add("duration_s", duration)
                 .Add("seed", static_cast<long long>(seed)))
        .Add("baseline_inprocess_tps", baseline_tps)
        .Add("rows", rows);
    if (!doc.WriteTo(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (below_min) {
    std::fprintf(stderr, "FAIL: a batched wire row below --min_tps=%g\n",
                 min_tps);
    return 2;
  }
  if (min_ratio > 0 && best_batched_ratio < min_ratio) {
    std::fprintf(stderr,
                 "FAIL: best batched wire row at %.2fx of in-process, "
                 "need %.2fx\n",
                 best_batched_ratio, min_ratio);
    return 3;
  }
  return 0;
}
