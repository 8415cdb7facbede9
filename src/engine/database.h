// The engine's resource host: the topology, the tables, the island-aware
// allocator, the observability registry and sampler, and the registry of
// executors to drain at shutdown. Transactions do not run here — they run
// as ActionGraphs on the partitions' owning cores (PartitionedExecutor),
// which keep their own per-partition log shards (see src/log/). There is
// no lock manager, transaction list or central log in this object: those
// are the shared-everything structures ATraPos removes (paper §IV).
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hw/topology.h"
#include "mem/island_allocator.h"
#include "obs/registry.h"
#include "obs/sampler.h"
#include "storage/table.h"

namespace atrapos::engine {

class Database {
 public:
  /// Memory placement knobs: which island's arena serves each partition's
  /// pages and B-tree nodes, and how allocation/access traffic is charged
  /// (paper §II-B, Table I).
  using MemoryOptions = mem::IslandAllocator::Options;

  struct Options {
    /// The machine the database runs on; its sockets are the islands the
    /// allocator keeps one arena for.
    hw::Topology topo = hw::Topology::SingleSocket(1);
    MemoryOptions mem;
    /// Observability: per-worker metrics registry (on by default) and
    /// transaction lifecycle tracing (off by default; near-zero cost when
    /// off). See obs/registry.h.
    obs::Registry::Options obs;
    /// Continuous time-series telemetry (off by default): when
    /// sampler.enabled, a background thread scrapes StatsSnapshot() every
    /// sampler.interval_ms into ring-buffered series. See obs/sampler.h.
    obs::Sampler::Options sampler;
  };

  explicit Database(Options opt);

  /// Registers a table; the database takes ownership. Returns its id slot.
  int AddTable(std::unique_ptr<storage::Table> table);
  storage::Table* table(int idx) { return tables_[static_cast<size_t>(idx)].get(); }
  const storage::Table* table(int idx) const {
    return tables_[static_cast<size_t>(idx)].get();
  }
  size_t num_tables() const { return tables_.size(); }

  /// The island-aware allocator owning one arena per socket; the executor
  /// uses it to place partition state, benchmarks read its AllocStats.
  mem::IslandAllocator& memory() { return mem_; }
  const mem::IslandAllocator& memory() const { return mem_; }

  /// The unified observability registry every layer records into
  /// (executor stage latencies and queue depths, log flush latencies and
  /// durable lag, adaptive repartition instants). See obs/registry.h.
  obs::Registry& observability() { return *obs_; }
  const obs::Registry& observability() const { return *obs_; }

  /// Merged point-in-time metrics: counters/histograms from every worker
  /// shard, queue depths and log totals from the registered executor/log
  /// sources, and the memory subsystem's remote-traffic ratio and
  /// migration bytes. Safe concurrently with a live run.
  obs::StatsSnapshot StatsSnapshot();

  /// Writes the collected transaction lifecycle trace as
  /// chrome://tracing-loadable JSON. Exact when the executor is drained;
  /// best-effort around live ring wrap points.
  bool DumpTrace(const std::string& path) const {
    return obs_->DumpChromeTrace(path);
  }

  /// The continuous sampler, or nullptr when Options::sampler.enabled was
  /// false. Benches hang custom series and annotations off this.
  obs::Sampler* sampler() { return sampler_.get(); }
  const obs::Sampler* sampler() const { return sampler_.get(); }

  /// Writes the sampler's collected time series to `path` — JSON by
  /// default, CSV when the path ends in ".csv". False when the sampler is
  /// off or the file cannot be written.
  bool DumpTimeSeries(const std::string& path) const;
  const hw::Topology& topology() const { return opt_.topo; }
  int num_sockets() const { return opt_.topo.num_sockets(); }

  // ---- shutdown ordering ---------------------------------------------------
  // The safe stop sequence for anything that submits into an executor from
  // outside (the network tier, background drivers) is:
  //
  //   1. stop producing new work (the server stops reading request frames),
  //   2. Database::Drain() — seals every registered executor's intake
  //      (further Submit/SubmitBatch return Unavailable) and waits until
  //      every in-flight TxnFuture has completed,
  //   3. destroy the submitters, then the executors, then the Database.
  //
  // After Drain() returns, no TxnFuture completion callback can fire
  // anymore: sealing is ordered before the drain wait, and a completion
  // only exists for a submission that made it past the seal check.

  /// An executor-like component that can seal its intake and wait out its
  /// in-flight work. PartitionedExecutor registers itself on construction.
  class Drainable {
   public:
    virtual ~Drainable() = default;
    /// After this returns, new submissions fail with Unavailable.
    virtual void SealIntake() = 0;
    /// Blocks until no sealed-before work is in flight.
    virtual void Drain() = 0;
  };
  void RegisterDrainable(Drainable* d);
  void UnregisterDrainable(Drainable* d);

  /// Seals every registered executor's intake, then waits until all their
  /// in-flight transactions completed (see the sequence above). Terminal:
  /// intake stays sealed, so this is a shutdown aid, not a pause.
  void Drain();

 private:
  Options opt_;
  /// First member: the registry outlives every subsystem that records
  /// into it during destruction.
  std::unique_ptr<obs::Registry> obs_;
  mem::IslandAllocator mem_;
  std::vector<std::unique_ptr<storage::Table>> tables_;
  std::mutex drain_mu_;
  std::vector<Drainable*> drainables_;  // guarded by drain_mu_
  /// Last member: the sampler's scrape thread calls StatsSnapshot(), so it
  /// must stop before any subsystem it reads is torn down.
  std::unique_ptr<obs::Sampler> sampler_;
};

}  // namespace atrapos::engine
