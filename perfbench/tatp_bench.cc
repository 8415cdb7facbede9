// perfbench_tatp: the repository benchmark. Runs one TATP workload against
// the real-thread engine (src/engine, src/storage, src/mem, src/log,
// src/server, and src/core through the AdaptiveManager), checks that every
// transaction settled exactly once (and, under group commit, that recovery
// reproduces the live state), and prints every metric by name with its unit.
// The last line of stdout is one JSON object; perfbench/run.py turns it into
// the benchmark's result line.
//
//   perfbench_tatp --workload=<name> --seed=<n> --seconds=<s>
//                  [--spans_out=<path>] [--scale=tiny]
//
// --spans_out turns on the benchmark's own spans (bench_stats.h) around its
// calls into each layer and writes them there when the run ends; it also
// adds the per-layer timings that need a clock read per call. End-to-end
// numbers come only from runs without it.
//
// Load shape (every workload): a closed loop driven by one client thread.
// In-process workloads keep 32 transactions in flight the way
// bench/tatp_real_engine's depth-32/batch-32 point does: a SubmitBatch wave
// of 32 is drawn whenever fewer than 32 are unresolved. tatp-wire rotates
// waves of 32 over 4 loopback connections of one server::Client (batch 32);
// a connection gets its next wave only once its previous one was acked. The
// engine runs 2 partition workers per table, so active threads stay within
// a 4-CPU host.
//
// Seeds: --seed derives two independent streams, one for the table load
// and one for the request stream, so either can change without the other.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "engine/adaptive_manager.h"
#include "engine/database.h"
#include "engine/partitioned_executor.h"
#include "log/recovery.h"
#include "server/client.h"
#include "server/server.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/tatp.h"
#include "workload/tatp_graphs.h"

using namespace atrapos;
using perfbench::kNoParent;
using perfbench::Reservoir;
using perfbench::Tracer;

namespace {

constexpr int kWorkers = 2;        // partitions per table = worker cores
constexpr size_t kWave = 32;       // transactions per wave = in flight
constexpr int kWireConns = 4;      // tatp-wire loopback connections
constexpr size_t kSamples = 1 << 20;  // reservoir capacity per timing
constexpr size_t kMaxSpans = 4u << 20;
constexpr int kStorageReadBatches = 2000;
constexpr int kStorageReadsPerBatch = 64;
constexpr uint64_t kSliceNs = 500'000'000;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Restricts the calling thread to one CPU (threads it creates inherit
/// the mask). False when the host has no such CPU.
bool PinCurrentThread(unsigned cpu) {
  if (cpu >= std::thread::hardware_concurrency()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- workloads --------------------------------------------------------------

/// One workload's fixed configuration. Why each exists is recorded in
/// BENCHMARK.json and perfbench/provenance.json.
struct Workload {
  std::string name;
  uint64_t subscribers = 0;
  int islands = 1;
  mem::PlacementPolicy placement = mem::PlacementPolicy::kLocal;
  engine::DurabilityMode durability = engine::DurabilityMode::kOff;
  bool adaptive = false;   ///< run the AdaptiveManager (tatp-hotspot only)
  bool wire = false;       ///< serve through server::Server (tatp-wire)
  double hot_share = 0.0;  ///< share of txns on the first 10% of subscribers
  int setups = 25;         ///< set-ups per run; setup_s is their median
  bool recovery_check = false;
};

bool MakeWorkload(const std::string& name, bool tiny, Workload* w) {
  w->name = name;
  if (name == "tatp-commit" || name == "tatp-wire") {
    w->subscribers = tiny ? 2000 : 20000;
    w->durability = engine::DurabilityMode::kGroup;
    w->wire = name == "tatp-wire";
    w->recovery_check = true;
  } else if (name == "tatp-large") {
    w->subscribers = tiny ? 20000 : 1000000;
    w->islands = 2;
    w->placement = mem::PlacementPolicy::kRemote;
    w->setups = 3;  // ~4.5 s each at 1M subscribers
  } else if (name == "tatp-hotspot") {
    w->subscribers = tiny ? 10000 : 100000;
    w->durability = engine::DurabilityMode::kAsync;
    w->adaptive = true;
    w->hot_share = 0.6;
    w->setups = 11;  // ~0.4 s each
  } else {
    return false;
  }
  if (tiny) w->setups = 2;
  return true;
}

hw::Topology MakeTopology(const Workload& w) {
  return w.islands == 2 ? hw::Topology::Cube(1, kWorkers / 2)
                        : hw::Topology::SingleSocket(kWorkers);
}

std::vector<uint64_t> SubscriberBounds(uint64_t subscribers) {
  std::vector<uint64_t> b;
  for (int p = 0; p < kWorkers; ++p)
    b.push_back(subscribers * static_cast<uint64_t>(p) / kWorkers);
  return b;
}

/// Range partitioning of all four TATP tables over the workers, aligned on
/// the subscriber id (each table's key space is a multiple of it).
core::Scheme TatpScheme(uint64_t subscribers) {
  core::Scheme scheme;
  for (int t = 0; t < 4; ++t) {
    uint64_t factor = t == 0 ? 1 : (t == 3 ? 32 : 4);
    core::TableScheme ts;
    for (int p = 0; p < kWorkers; ++p) {
      ts.boundaries.push_back(subscribers * factor * static_cast<uint64_t>(p) /
                              kWorkers);
      ts.placement.push_back(p);
    }
    scheme.tables.push_back(ts);
  }
  return scheme;
}

/// Subscriber id of the next request: uniform, or `hot_share` of the draws
/// on the first 10% of subscribers.
uint64_t DrawSubscriber(Rng& rng, const Workload& w) {
  if (w.hot_share > 0 && rng.Chance(w.hot_share))
    return rng.Uniform(std::max<uint64_t>(1, w.subscribers / 10));
  return rng.Uniform(w.subscribers);
}

// ---- the service under test -------------------------------------------------

/// One set-up of the system: database + tables, executor, and per workload
/// the adaptive manager or the server with a connected client. Members are
/// declared in construction order and torn down by Shutdown() in the
/// documented order (engine/database.h): stop producers, drain, destroy.
struct Service {
  hw::Topology topo = hw::Topology::SingleSocket(1);
  core::WorkloadSpec spec;
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<engine::PartitionedExecutor> exec;
  std::unique_ptr<engine::AdaptiveManager> mgr;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<server::Client> client;
  double load_s = 0, ctor_s = 0, setup_s = 0;

  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() { Shutdown(); }

  void Shutdown() {
    if (client) client->CloseAll();
    client.reset();
    if (server) server->Stop();
    if (mgr) mgr->Stop();
    if (db) db->Drain();
    server.reset();
    mgr.reset();
    exec.reset();
    db.reset();
  }
};

/// Builds one set-up and times it: setup_s runs from the start of the load
/// to the point where the first transaction could be submitted.
std::unique_ptr<Service> SetUp(const Workload& w, uint64_t load_seed,
                               Tracer* tr, std::string* err) {
  auto svc = std::make_unique<Service>();
  svc->topo = MakeTopology(w);
  const uint64_t t0 = NowNs();
  uint32_t root = tr->Open(perfbench::kSetup, kNoParent, t0);

  engine::Database::Options dopt;
  dopt.topo = svc->topo;
  dopt.mem.policy = w.placement;
  svc->db = std::make_unique<engine::Database>(dopt);
  for (auto& t : workload::BuildTatpTables(
           w.subscribers, SubscriberBounds(w.subscribers), load_seed))
    svc->db->AddTable(std::move(t));
  const uint64_t t1 = NowNs();
  tr->Add(perfbench::kSetupLoad, root, 0, t0, t1);

  engine::PartitionedExecutor::Options eopt;
  eopt.durability = w.durability;
  svc->exec = std::make_unique<engine::PartitionedExecutor>(
      svc->db.get(), svc->topo, TatpScheme(w.subscribers), eopt);
  const uint64_t t2 = NowNs();
  tr->Add(perfbench::kSetupExecutor, root, 0, t1, t2);

  if (w.adaptive) {
    svc->spec = workload::TatpSpec(w.subscribers);
    engine::AdaptiveManager::Options mopt;
    mopt.controller.initial_interval_s = 0.1;
    mopt.controller.max_interval_s = 0.5;
    svc->mgr = std::make_unique<engine::AdaptiveManager>(
        svc->exec.get(), &svc->topo, &svc->spec, mopt);
    svc->mgr->Start();
  }
  if (w.wire) {
    const uint64_t s0 = NowNs();
    // The client keeps at most one wave (kWave requests) outstanding per
    // connection, but asks for twice that window: the server frees a
    // window slot only after it queued the ack, so an ack can reach the
    // client before its slot is free, and a client holding exactly the
    // granted window would be shed (kOverloaded) now and then.
    server::Server::Options sopt;
    sopt.max_window = 2 * kWave;
    sopt.bind_listeners = false;
    svc->server = std::make_unique<server::Server>(
        svc->db.get(), svc->exec.get(), w.subscribers, sopt);
    Status st = svc->server->Start();
    if (st.ok()) {
      server::Client::Options copt;
      copt.port = svc->server->port();
      copt.connections = kWireConns;
      copt.window = 2 * kWave;
      copt.batch = kWave;
      svc->client = std::make_unique<server::Client>(copt);
      st = svc->client->Connect();
    }
    if (st.ok() && svc->client->granted_window(0) < kWave)
      st = Status::Internal("server granted a window below the wave size");
    if (!st.ok()) {
      *err = "wire set-up failed: " + st.ToString();
      return nullptr;
    }
    tr->Add(perfbench::kSetupServer, root, 0, s0, NowNs());
  }
  const uint64_t t3 = NowNs();
  tr->Close(root, t3);
  svc->load_s = Seconds(t1 - t0);
  svc->ctor_s = Seconds(t2 - t1);
  svc->setup_s = Seconds(t3 - t0);
  return svc;
}

// ---- the measured window ----------------------------------------------------

/// What the client thread saw during the window.
struct WindowResult {
  explicit WindowResult(bool traced)
      : build_ns(traced ? kSamples : 0, 3),
        submit_us(traced ? kSamples : 0, 4) {}

  uint64_t attempted = 0;   ///< transactions handed (or refused) to the system
  uint64_t submitted = 0;   ///< accepted by SubmitBatch / Client::Submit
  uint64_t settled = 0;     ///< completions observed (each exactly once)
  uint64_t succeeded = 0;   ///< settled with a TATP-success status
  uint64_t refused = 0;     ///< submissions the system refused
  uint64_t shed = 0;        ///< wire acks that came back kOverloaded
  uint64_t unsettled = 0;   ///< still pending after the post-window drain
  uint64_t callback_violations = 0;  ///< completion callbacks fired != once
  uint64_t start_ns = 0, end_ns = 0;
  uint64_t max_gap_ns = 0;  ///< longest interval without a completion
  uint64_t first_repartition_ns = 0;  ///< window start → first repartition
  std::vector<uint64_t> slices;  ///< successes per kSliceNs of the window
  std::map<std::string, uint64_t> failures;  ///< by status, for the report
  Reservoir latency_us{kSamples, 1};
  Reservoir residency_us{kSamples, 2};
  Reservoir build_ns;   ///< per Mix / DrawTatpMix call (traced runs only)
  Reservoir submit_us;  ///< per SubmitBatch / Client::Submit (traced only)
  uint32_t loop_span = kNoParent;

  double elapsed_s() const { return Seconds(end_ns - start_ns); }
  void CountSlice(uint64_t t_ns, uint64_t n) {
    size_t i = static_cast<size_t>((t_ns - start_ns) / kSliceNs);
    if (slices.size() <= i) slices.resize(i + 1, 0);
    slices[i] += n;
  }
};

/// Tracks the longest client-observed interval with no completion.
class GapTracker {
 public:
  explicit GapTracker(uint64_t start_ns) : last_(start_ns) {}
  /// `done` holds one wave's completion times (reordered).
  void Wave(std::vector<uint64_t>& done) {
    std::sort(done.begin(), done.end());
    for (uint64_t t : done) {
      if (t > last_) {
        max_gap_ = std::max(max_gap_, t - last_);
        last_ = t;
      }
    }
  }
  uint64_t max_gap() const { return max_gap_; }

 private:
  uint64_t last_;
  uint64_t max_gap_ = 0;
};

struct Slot {
  std::atomic<uint64_t> done_ns{0};
  std::atomic<uint32_t> fired{0};
  uint64_t submit_ns = 0;  ///< SubmitBatch / Client::Submit called
  uint64_t handed_ns = 0;  ///< SubmitBatch returned (in-process only)
  server::WireStatus wire_status = server::WireStatus::kError;
};

void ObserveRepartition(const Service& svc, WindowResult* r) {
  if (svc.mgr && r->first_repartition_ns == 0 && svc.mgr->repartitions() > 0)
    r->first_repartition_ns = NowNs() - r->start_ns;
}

/// In-process closed loop at depth kWave (bench/tatp_real_engine's
/// depth-32/batch-32 point): a wave of kWave graphs goes through SubmitBatch
/// whenever fewer than kWave of the client's transactions are unresolved,
/// so the next wave is queued while the last one runs.
void RunInProcess(const Workload& w, Service& svc, Rng& rng, double seconds,
                  Tracer* tr, WindowResult* r) {
  struct Pending {
    engine::TxnFuture future;
    Slot* slot;
    uint64_t txn;  ///< sequence number; the first of each wave is traced
  };
  workload::TatpActionGraphs graphs(w.subscribers);
  // Wave k uses half k % 2 of the slots: wave k-2 resolved before wave k
  // was drawn, so its half is free again.
  std::array<Slot, 2 * kWave> slots;
  std::deque<Pending> window;
  std::vector<engine::ActionGraph> wave;
  wave.reserve(kWave);
  std::vector<uint64_t> done;  // completion times of the settling wave
  done.reserve(kWave);
  const bool traced = tr->on();
  r->start_ns = NowNs();
  r->loop_span = tr->Open(perfbench::kClientLoop, kNoParent, r->start_ns);
  const uint64_t end = r->start_ns + static_cast<uint64_t>(seconds * 1e9);
  GapTracker gaps(r->start_ns);
  uint64_t txn_seq = 0;

  // Waits for the oldest transaction and accounts for it. Transactions
  // settle in submission order, so every kWave of them close one wave.
  auto settle = [&] {
    Pending& p = window.front();
    Status st = p.future.Wait();
    const Slot& slot = *p.slot;
    const uint64_t t = slot.done_ns.load(std::memory_order_relaxed);
    ++r->settled;
    if (slot.fired.load(std::memory_order_relaxed) != 1)
      ++r->callback_violations;
    if (workload::TatpActionGraphs::CountsAsSuccess(st)) {
      ++r->succeeded;
      r->CountSlice(t, 1);
    } else {
      ++r->failures[st.ToString()];
    }
    r->latency_us.Add(static_cast<float>(t - slot.submit_ns) / 1e3f);
    r->residency_us.Add(
        static_cast<float>(t > slot.handed_ns ? t - slot.handed_ns : 0) /
        1e3f);
    if (p.txn % kWave == 0)
      tr->Add(perfbench::kTxn, kNoParent, p.txn, slot.submit_ns, t);
    done.push_back(t);
    if (done.size() == kWave) {
      gaps.Wave(done);
      done.clear();
    }
    window.pop_front();
  };
  auto settle_down_to = [&](size_t keep) {
    if (window.size() <= keep) return;
    const uint64_t w0 = NowNs();
    while (window.size() > keep) settle();
    tr->Add(perfbench::kClientWait, r->loop_span, 0, w0, NowNs());
  };

  for (uint64_t k = 0; NowNs() < end; ++k) {
    wave.clear();
    const uint64_t b0 = NowNs();
    for (size_t i = 0; i < kWave; ++i) {
      if (traced) {
        const uint64_t c0 = NowNs();
        wave.push_back(graphs.Mix(rng, DrawSubscriber(rng, w)));
        r->build_ns.Add(static_cast<float>(NowNs() - c0));
      } else {
        wave.push_back(graphs.Mix(rng, DrawSubscriber(rng, w)));
      }
    }
    const uint64_t s0 = NowNs();
    tr->Add(perfbench::kClientBuild, r->loop_span, 0, b0, s0);
    auto fs = svc.exec->SubmitBatch(wave);
    const uint64_t s1 = NowNs();
    tr->Add(perfbench::kClientSubmit, r->loop_span, 0, s0, s1);
    if (traced) r->submit_us.Add(static_cast<float>(s1 - s0) / 1e3f);
    r->attempted += kWave;
    if (!fs.ok()) {
      r->refused += kWave;
      continue;
    }
    r->submitted += kWave;
    Slot* half = &slots[(k % 2) * kWave];
    for (engine::TxnFuture& f : fs.value()) {
      Slot& slot = *half++;
      slot.fired.store(0, std::memory_order_relaxed);
      slot.submit_ns = s0;
      slot.handed_ns = s1;
      f.OnComplete([&slot](const Status&) {
        slot.done_ns.store(NowNs(), std::memory_order_relaxed);
        slot.fired.fetch_add(1, std::memory_order_relaxed);
      });
      window.push_back(Pending{std::move(f), &slot, txn_seq++});
    }
    settle_down_to(kWave - 1);
    ObserveRepartition(svc, r);
  }
  settle_down_to(0);
  r->end_ns = NowNs();
  tr->Close(r->loop_span, r->end_ns);
  r->max_gap_ns = gaps.max_gap();
  // A callback that fired twice after its transaction settled shows here.
  for (const Slot& slot : slots)
    if (slot.fired.load(std::memory_order_relaxed) > 1)
      ++r->callback_violations;
}

/// Wire closed loop: wave k goes to connection k % kWireConns once that
/// connection's previous wave was fully acked, so Client::Submit never
/// blocks in its window gate and all waiting shows up in Client::Poll.
void RunWire(const Workload& w, Service& svc, Rng& rng, double seconds,
             Tracer* tr, WindowResult* r) {
  server::Client& client = *svc.client;
  std::array<std::array<Slot, kWave>, kWireConns> slots;
  std::array<size_t, kWireConns> in_wave{};    // slots used by the last wave
  std::array<size_t, kWireConns> outstanding{};
  std::vector<uint64_t> done;
  std::vector<server::TxnRequest> reqs(kWave);
  const bool traced = tr->on();
  r->start_ns = NowNs();
  r->loop_span = tr->Open(perfbench::kClientLoop, kNoParent, r->start_ns);
  const uint64_t end = r->start_ns + static_cast<uint64_t>(seconds * 1e9);
  GapTracker gaps(r->start_ns);
  uint64_t txn_seq = 0;

  // Settles connection c's last wave: checks each callback fired once and
  // records the wave's latencies.
  auto harvest = [&](int c) {
    done.clear();
    for (size_t i = 0; i < in_wave[c]; ++i) {
      const Slot& slot = slots[c][i];
      if (slot.fired.load(std::memory_order_relaxed) != 1) {
        ++r->callback_violations;
        continue;
      }
      const uint64_t t = slot.done_ns.load(std::memory_order_relaxed);
      ++r->settled;
      if (slot.wire_status == server::WireStatus::kOverloaded) ++r->shed;
      if (server::WireCountsAsSuccess(slot.wire_status)) {
        ++r->succeeded;
        r->CountSlice(t, 1);
      } else {
        ++r->failures[server::WireStatusName(slot.wire_status)];
      }
      done.push_back(t);
      r->latency_us.Add(static_cast<float>(t - slot.submit_ns) / 1e3f);
    }
    if (!done.empty())
      tr->Add(perfbench::kTxn, kNoParent, txn_seq, slots[c][0].submit_ns,
              slots[c][0].done_ns.load(std::memory_order_relaxed));
    txn_seq += in_wave[c];
    in_wave[c] = 0;
    gaps.Wave(done);
  };
  // Polls until connection c has no request outstanding (or the deadline).
  auto await = [&](int c, uint64_t deadline_ns) {
    if (outstanding[c] == 0) return;
    const uint64_t p0 = NowNs();
    while (outstanding[c] > 0 && NowNs() < deadline_ns) client.Poll(100);
    tr->Add(perfbench::kClientPoll, r->loop_span, 0, p0, NowNs());
  };

  for (int k = 0; NowNs() < end; k = (k + 1) % kWireConns) {
    await(k, end + static_cast<uint64_t>(30e9));
    if (outstanding[k] > 0) break;  // the server stopped answering
    harvest(k);
    ObserveRepartition(svc, r);
    const uint64_t b0 = NowNs();
    for (size_t i = 0; i < kWave; ++i) {
      if (traced) {
        const uint64_t c0 = NowNs();
        reqs[i] = server::DrawTatpMix(rng, w.subscribers);
        r->build_ns.Add(static_cast<float>(NowNs() - c0));
      } else {
        reqs[i] = server::DrawTatpMix(rng, w.subscribers);
      }
    }
    const uint64_t s0 = NowNs();
    tr->Add(perfbench::kClientBuild, r->loop_span, 0, b0, s0);
    for (size_t i = 0; i < kWave; ++i) {
      Slot& slot = slots[k][in_wave[k]];
      size_t* pending = &outstanding[k];
      slot.fired.store(0, std::memory_order_relaxed);
      slot.submit_ns = NowNs();
      auto on_ack = [&slot, pending](server::WireStatus ws) {
        slot.done_ns.store(NowNs(), std::memory_order_relaxed);
        slot.fired.fetch_add(1, std::memory_order_relaxed);
        slot.wire_status = ws;
        if (*pending > 0) --*pending;
      };
      Status st = client.Submit(k, reqs[i], on_ack);
      if (traced)
        r->submit_us.Add(static_cast<float>(NowNs() - slot.submit_ns) / 1e3f);
      ++r->attempted;
      if (!st.ok()) {
        ++r->refused;
        continue;
      }
      ++r->submitted;
      ++in_wave[k];
      ++outstanding[k];
    }
    tr->Add(perfbench::kClientSubmit, r->loop_span, 0, s0, NowNs());
  }
  // Drain: every connection's last wave, bounded by a deadline; whatever is
  // still pending then counts as unsettled.
  client.FlushAll();
  const uint64_t drain_deadline = NowNs() + static_cast<uint64_t>(30e9);
  for (int c = 0; c < kWireConns; ++c) {
    await(c, drain_deadline);
    r->unsettled += outstanding[c];
    harvest(c);
  }
  r->end_ns = NowNs();
  tr->Close(r->loop_span, r->end_ns);
  r->max_gap_ns = gaps.max_gap();
}

// ---- post-window checks -----------------------------------------------------

/// Single-thread Table::Read latency on workload-distributed subscriber
/// keys, with the executor drained: ns per read, median over batches.
double StorageReadNs(const Workload& w, Service& svc, uint64_t seed,
                     Tracer* tr) {
  storage::Table* sub = svc.db->table(workload::kSubscriber);
  Rng rng(seed);
  std::vector<uint64_t> keys(kStorageReadsPerBatch);
  std::vector<double> per_read;
  per_read.reserve(kStorageReadBatches);
  storage::Tuple row;
  uint64_t found = 0;
  const uint64_t t0 = NowNs();
  for (int b = 0; b < kStorageReadBatches; ++b) {
    for (auto& k : keys) k = DrawSubscriber(rng, w);
    const uint64_t r0 = NowNs();
    for (uint64_t k : keys) found += sub->Read(k, &row).ok() ? 1 : 0;
    per_read.push_back(static_cast<double>(NowNs() - r0) /
                       kStorageReadsPerBatch);
  }
  tr->Add(perfbench::kPostStorageRead, kNoParent, 0, t0, NowNs());
  if (found == 0) return 0.0;  // no row read: the number would mean nothing
  return Median(per_read);
}

/// Recovery gate (group durability): the durable log, replayed into a fresh
/// load, must reproduce the live Subscriber vlr_location sum and the
/// CallForwarding row count, with nothing undecided or unresolvable.
bool RecoveryMatches(const Workload& w, Service& svc, uint64_t load_seed,
                     std::string* why) {
  log::LogManager* lm = svc.exec->log_manager();
  if (lm == nullptr) {
    *why = "no log manager under group durability";
    return false;
  }
  svc.exec->Drain();
  lm->FlushAll();
  std::vector<log::ShardSnapshot> cut = lm->SnapshotDurable();
  if (cut.empty()) {
    *why = "durable cut is empty";
    return false;
  }
  auto fresh = workload::BuildTatpTables(
      w.subscribers, SubscriberBounds(w.subscribers), load_seed);
  std::vector<storage::Table*> raw;
  for (auto& t : fresh) raw.push_back(t.get());
  log::RecoveryReport rep = log::Recover(cut, raw);
  if (rep.records_without_image || rep.records_diff_missed ||
      rep.txns_undecided || rep.txns_poisoned) {
    *why = "recovery left " + std::to_string(rep.records_without_image) +
           " image-less / " + std::to_string(rep.records_diff_missed) +
           " unresolved records, " + std::to_string(rep.txns_undecided) +
           " undecided / " + std::to_string(rep.txns_poisoned) +
           " poisoned txns";
    return false;
  }
  auto vlr_sum = [&](const storage::Table* t) {
    long long sum = 0;
    storage::Tuple row;
    for (uint64_t s = 0; s < w.subscribers; ++s)
      if (t->Read(s, &row).ok()) sum += row.GetInt(workload::kVlrLoc);
    return sum;
  };
  long long live = vlr_sum(svc.db->table(workload::kSubscriber));
  long long rec = vlr_sum(raw[workload::kSubscriber]);
  if (live != rec) {
    *why = "vlr_location sum " + std::to_string(live) + " (live) != " +
           std::to_string(rec) + " (recovered)";
    return false;
  }
  uint64_t live_cf = svc.db->table(workload::kCallForwarding)->num_rows();
  uint64_t rec_cf = raw[workload::kCallForwarding]->num_rows();
  if (live_cf != rec_cf) {
    *why = "CallForwarding rows " + std::to_string(live_cf) + " (live) != " +
           std::to_string(rec_cf) + " (recovered)";
    return false;
  }
  return true;
}

/// Ends the process if the run outlives its deadline, so a hung transaction
/// fails the run instead of stalling it forever.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock lk(mu_);
          if (!cv_.wait_for(lk, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %.0f s, aborting\n",
                         seconds);
            std::_Exit(3);
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;
};

// ---- reporting --------------------------------------------------------------

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit) {
  m->emplace_back(name, Metric{value, unit});
}

double PerTxn(double v, uint64_t txns) {
  return txns ? v / static_cast<double>(txns) : 0.0;
}

void PrintJsonMetrics(const Metrics& m) {
  std::printf("{");
  for (size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m[i].first.c_str(), m[i].second.value,
                m[i].second.unit.c_str());
  std::printf("}");
}

bool AllFinite(const Metrics& m, std::string* which) {
  for (const auto& [name, metric] : m)
    if (!std::isfinite(metric.value)) {
      *which = name;
      return false;
    }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string name = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const std::string spans_out = flags.GetString("spans_out", "");
  const bool tiny = flags.GetString("scale", "full") == "tiny";
  Workload w;
  if (!MakeWorkload(name, tiny, &w)) {
    std::fprintf(stderr,
                 "unknown --workload=%s (tatp-commit|tatp-large|"
                 "tatp-hotspot|tatp-wire)\n",
                 name.c_str());
    return 2;
  }
  if (!(seconds > 0) || seconds > 120) {
    std::fprintf(stderr, "--seconds must be in (0, 120]\n");
    return 2;
  }
  Watchdog watchdog(seconds + 60);
  const uint64_t load_seed = SplitMix(seed ^ 0x6c6f6164ULL);    // "load"
  const uint64_t stream_seed = SplitMix(seed ^ 0x73747265ULL);  // "stre"
  Tracer tr(!spans_out.empty(), kMaxSpans);

  std::printf("perfbench_tatp workload=%s seed=%llu seconds=%g traced=%d "
              "scale=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              tr.on() ? 1 : 0, tiny ? "tiny" : "full");
  std::printf("host: nproc=%u l3_bytes=%ld\n",
              std::thread::hardware_concurrency(),
              sysconf(_SC_LEVEL3_CACHE_SIZE));

  // Thread placement: the engine pins its partition workers to CPUs
  // 0..kWorkers-1. Threads created during set-up (log flusher, server
  // listener, adaptive manager) inherit the CPU the main thread holds then;
  // the client loop then moves to a CPU of its own, so it never competes
  // with the engine for a core. Skipped on hosts with too few CPUs.
  const bool pinned = PinCurrentThread(kWorkers);
  // ---- set-up, several times; the last one is measured -------------------
  std::vector<double> setup_s, load_s, ctor_s;
  std::unique_ptr<Service> svc;
  for (int i = 0; i < w.setups; ++i) {
    if (svc) svc->Shutdown();
    svc.reset();
    std::string err;
    svc = SetUp(w, load_seed, &tr, &err);
    if (!svc) {
      std::fprintf(stderr, "perfbench: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(svc->setup_s);
    load_s.push_back(svc->load_s);
    ctor_s.push_back(svc->ctor_s);
  }
  svc->db->memory().stats().Reset();  // measure the window, not the load

  // ---- the measured window ------------------------------------------------
  const obs::StatsSnapshot s0 = svc->db->StatsSnapshot();
  const uint64_t actions0 = svc->exec->executed_actions();
  log::LogManager* lm = svc->exec->log_manager();
  const uint64_t log_bytes0 = lm ? lm->bytes_logged() : 0;
  const uint64_t log_records0 = lm ? lm->num_records() : 0;
  const uint64_t migrated0 = svc->db->memory().stats().migrated_bytes();

  WindowResult r(tr.on());
  Rng rng(stream_seed);
  if (pinned) PinCurrentThread(kWorkers + 1);
  if (w.wire)
    RunWire(w, *svc, rng, seconds, &tr, &r);
  else
    RunInProcess(w, *svc, rng, seconds, &tr, &r);

  // Every completion was already seen; the drain only orders the engine's
  // own accounting before the closing snapshot.
  svc->exec->Drain();
  const obs::StatsSnapshot s1 = svc->db->StatsSnapshot();
  // Peak memory of set-up plus window; the checks below allocate their own.
  const double peak_rss_mb = PeakRssMb();
  const uint64_t actions1 = svc->exec->executed_actions();
  const uint64_t log_bytes1 = lm ? lm->bytes_logged() : 0;
  const uint64_t log_records1 = lm ? lm->num_records() : 0;
  const mem::AllocStats& as = svc->db->memory().stats();
  const uint64_t remote = as.RemoteAccessBytes();
  const uint64_t local = as.LocalAccessBytes();
  const uint64_t migrated1 = as.migrated_bytes();
  const uint64_t repartitions = svc->mgr ? svc->mgr->repartitions() : 0;
  const double interval_s = svc->mgr ? svc->mgr->current_interval_s() : 0.0;
  if (svc->mgr) svc->mgr->Stop();
  if (r.first_repartition_ns == 0 && repartitions > 0)
    r.first_repartition_ns = r.end_ns - r.start_ns;
  auto delta = [&](obs::CounterId c) { return s1.counter(c) - s0.counter(c); };

  // ---- correctness gate (outside the window) -------------------------------
  std::vector<std::string> violations;
  if (r.callback_violations)
    violations.push_back(std::to_string(r.callback_violations) +
                         " completion callbacks did not fire exactly once");
  if (r.unsettled || r.settled != r.submitted)
    violations.push_back("submitted " + std::to_string(r.submitted) +
                         " != settled " + std::to_string(r.settled) + " (" +
                         std::to_string(r.unsettled) + " unsettled)");
  // The engine's own counts must agree with the client's: shed wire
  // requests never reach the executor.
  const uint64_t engine_submitted = delta(obs::CounterId::kTxnSubmitted);
  const uint64_t engine_settled = delta(obs::CounterId::kTxnCommitted) +
                                  delta(obs::CounterId::kTxnAborted);
  if (engine_submitted != r.submitted - r.shed ||
      engine_settled != engine_submitted)
    violations.push_back(
        "engine counted " + std::to_string(engine_submitted) +
        " submitted / " + std::to_string(engine_settled) +
        " settled, client " + std::to_string(r.submitted - r.shed));
  if (w.adaptive && repartitions == 0)
    violations.push_back("the adaptive manager never repartitioned");
  if (!w.adaptive && delta(obs::CounterId::kRepartitions) != 0)
    violations.push_back("repartitioned without an adaptive manager");
  if (r.submitted == 0) violations.push_back("nothing was submitted");

  const double read_ns =
      StorageReadNs(w, *svc, SplitMix(stream_seed + 1), &tr);
  if (read_ns <= 0) violations.push_back("post-window reads found no row");
  if (w.recovery_check) {
    std::string why;
    if (!RecoveryMatches(w, *svc, load_seed, &why))
      violations.push_back("recovery: " + why);
  }
  svc->Shutdown();
  svc.reset();

  // ---- metrics --------------------------------------------------------------
  const double elapsed = r.elapsed_s();
  const uint64_t txns = r.settled;
  const uint64_t failed = r.attempted - r.succeeded;
  Metrics e2e;
  Put(&e2e, "tps", elapsed > 0 ? static_cast<double>(r.succeeded) / elapsed : 0,
      "txn/s");
  Put(&e2e, "latency_p50_us", r.latency_us.Median(), "us");
  Put(&e2e, "latency_p99_us", r.latency_us.Tail(0.99), "us");
  Put(&e2e, "success_share",
      r.attempted ? static_cast<double>(r.succeeded) /
                        static_cast<double>(r.attempted)
                  : 0.0,
      "ratio");
  Put(&e2e, "setup_s", Median(setup_s), "s");
  Put(&e2e, "peak_rss_mb", peak_rss_mb, "MB");

  Metrics layer;
  Put(&layer, "client.latency_samples", static_cast<double>(r.latency_us.seen()),
      "count");
  Put(&layer, "workload.load_s", Median(load_s), "s");
  Put(&layer, "engine.ctor_s", Median(ctor_s), "s");
  Put(&layer, "engine.residency_p50_us", w.wire ? 0 : r.residency_us.Median(),
      "us");
  Put(&layer, "engine.residency_p99_us",
      w.wire ? 0 : r.residency_us.Tail(0.99), "us");
  Put(&layer, "engine.actions_per_txn",
      PerTxn(static_cast<double>(actions1 - actions0), txns), "count");
  Put(&layer, "engine.drain_batch_p50",
      static_cast<double>(
          s1.hist(obs::HistId::kDrainBatchSize).Quantile(0.5)),
      "count");
  Put(&layer, "engine.interleave_suspensions_per_txn",
      PerTxn(static_cast<double>(delta(obs::CounterId::kInterleaveSuspensions)),
             txns),
      "count");
  Put(&layer, "engine.repartitions", static_cast<double>(repartitions),
      "count");
  Put(&layer, "engine.repartition_stall_ms",
      static_cast<double>(r.max_gap_ns) / 1e6, "ms");
  Put(&layer, "core.time_to_repartition_s", Seconds(r.first_repartition_ns),
      "s");
  Put(&layer, "core.interval_s", interval_s, "s");
  Put(&layer, "storage.read_ns", read_ns, "ns");
  Put(&layer, "mem.remote_access_share",
      remote + local ? static_cast<double>(remote) /
                           static_cast<double>(remote + local)
                     : 0.0,
      "ratio");
  Put(&layer, "mem.access_bytes_per_txn",
      PerTxn(static_cast<double>(remote + local), txns), "B");
  Put(&layer, "mem.migrated_mb",
      static_cast<double>(migrated1 - migrated0) / 1e6, "MB");
  Put(&layer, "log.bytes_per_txn",
      PerTxn(static_cast<double>(log_bytes1 - log_bytes0), txns), "B");
  Put(&layer, "log.records_per_txn",
      PerTxn(static_cast<double>(log_records1 - log_records0), txns), "count");
  Put(&layer, "log.flush_us_p50",
      static_cast<double>(s1.hist(obs::HistId::kLogFlushUs).Quantile(0.5)),
      "us");
  Put(&layer, "log.flushes_per_s",
      elapsed > 0
          ? static_cast<double>(delta(obs::CounterId::kLogFlushes)) / elapsed
          : 0.0,
      "1/s");
  Put(&layer, "server.wire_p50_us",
      static_cast<double>(s1.hist(obs::HistId::kWireLatencyUs).Quantile(0.5)),
      "us");
  Put(&layer, "server.frames_per_txn",
      PerTxn(static_cast<double>(delta(obs::CounterId::kNetFramesIn)), txns),
      "count");
  Put(&layer, "server.bytes_per_txn",
      PerTxn(static_cast<double>(delta(obs::CounterId::kNetBytesIn) +
                                 delta(obs::CounterId::kNetBytesOut)),
             txns),
      "B");
  Put(&layer, "server.shed_share",
      r.submitted ? static_cast<double>(delta(obs::CounterId::kNetTxnsShed)) /
                        static_cast<double>(r.submitted)
                  : 0.0,
      "ratio");

  // Per-call timings and client-thread shares exist only with spans on.
  if (tr.on()) {
    if (tr.dropped())
      violations.push_back(std::to_string(tr.dropped()) +
                           " spans dropped at the span cap");
    const auto totals = tr.Aggregate();
    const double loop_ns =
        static_cast<double>(totals[perfbench::kClientLoop].total_ns);
    auto share = [&](perfbench::SpanName n) {
      return loop_ns > 0 ? static_cast<double>(totals[n].total_ns) / loop_ns
                         : 0.0;
    };
    const double other =
        loop_ns > 0
            ? static_cast<double>(totals[perfbench::kClientLoop].self_ns) /
                  loop_ns
            : 0.0;
    const double build = share(perfbench::kClientBuild);
    const double submit = share(perfbench::kClientSubmit);
    const double wait = share(perfbench::kClientWait);
    const double poll = share(perfbench::kClientPoll);
    const double sum = build + submit + wait + poll + other;
    if (std::fabs(sum - 1.0) > 1e-6)
      violations.push_back("client-thread shares sum to " +
                           std::to_string(sum));
    Put(&layer, "workload.build_ns", r.build_ns.Median(), "ns");
    Put(&layer, "workload.build_share", build, "ratio");
    Put(&layer, "engine.submit_us", w.wire ? 0 : r.submit_us.Median(), "us");
    Put(&layer, "engine.submit_share", w.wire ? 0 : submit, "ratio");
    Put(&layer, "engine.wait_share", wait, "ratio");
    Put(&layer, "server.submit_us", w.wire ? r.submit_us.Median() : 0, "us");
    Put(&layer, "server.submit_share", w.wire ? submit : 0, "ratio");
    Put(&layer, "server.poll_share", poll, "ratio");
    Put(&layer, "client.other_share", other, "ratio");
    if (!tr.Write(spans_out))
      violations.push_back("cannot write spans to " + spans_out);
  }

  std::string bad;
  if (!AllFinite(e2e, &bad) || !AllFinite(layer, &bad))
    violations.push_back("metric " + bad + " is not finite");

  // ---- human-readable report, then the result line -------------------------
  std::printf("window %.3f s: attempted %llu, submitted %llu, settled %llu, "
              "succeeded %llu, refused %llu, shed %llu, unsettled %llu\n",
              elapsed, static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.submitted),
              static_cast<unsigned long long>(r.settled),
              static_cast<unsigned long long>(r.succeeded),
              static_cast<unsigned long long>(r.refused),
              static_cast<unsigned long long>(r.shed),
              static_cast<unsigned long long>(r.unsettled));
  std::printf("latency samples: %llu seen, %zu held, tail quantile %.4f\n",
              static_cast<unsigned long long>(r.latency_us.seen()),
              r.latency_us.held(),
              perfbench::TailQuantile(r.latency_us.held(), 0.99));
  std::printf("successes per %.1f s slice:", Seconds(kSliceNs));
  for (uint64_t n : r.slices)
    std::printf(" %llu", static_cast<unsigned long long>(n));
  std::printf("\n");
  for (const auto& [status, n] : r.failures)
    std::printf("failed with %s: %llu\n", status.c_str(),
                static_cast<unsigned long long>(n));
  std::printf("failed_share %.6g ratio\n",
              r.attempted ? static_cast<double>(failed) /
                                static_cast<double>(r.attempted)
                          : 0.0);
  for (const Metrics* m : {&e2e, &layer})
    for (const auto& [n, metric] : *m)
      std::printf("%-40s %18.6f %s\n", n.c_str(), metric.value,
                  metric.unit.c_str());
  for (const std::string& v : violations)
    std::printf("CHECK FAILED: %s\n", v.c_str());
  std::printf("correctness gate: %s\n", violations.empty() ? "PASS" : "FAIL");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"end_to_end\": ",
              violations.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(failed));
  PrintJsonMetrics(e2e);
  std::printf(", \"per_layer\": ");
  PrintJsonMetrics(layer);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}
