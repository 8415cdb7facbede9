#include "obs/registry.h"

#include <sstream>

#include "fault/injector.h"

namespace atrapos::obs {

const char* CounterName(CounterId c) {
  switch (c) {
    case CounterId::kTxnSubmitted: return "txn_submitted";
    case CounterId::kTxnCommitted: return "txn_committed";
    case CounterId::kTxnAborted: return "txn_aborted";
    case CounterId::kBatchesDrained: return "batches_drained";
    case CounterId::kCommitMarkersAppended: return "commit_markers_appended";
    case CounterId::kDurableAcks: return "durable_acks";
    case CounterId::kLogFlushes: return "log_flushes";
    case CounterId::kRepartitions: return "repartitions";
    case CounterId::kNetAccepts: return "net_accepts";
    case CounterId::kNetFramesIn: return "net_frames_in";
    case CounterId::kNetFramesOut: return "net_frames_out";
    case CounterId::kNetBytesIn: return "net_bytes_in";
    case CounterId::kNetBytesOut: return "net_bytes_out";
    case CounterId::kNetTxnsShed: return "net_txns_shed";
    case CounterId::kNetProtocolErrors: return "net_protocol_errors";
    case CounterId::kFaultIslandKills: return "fault_island_kills";
    case CounterId::kFaultPartitionsEvacuated:
      return "fault_partitions_evacuated";
    case CounterId::kFaultTxnsUnavailable: return "fault_txns_unavailable";
    case CounterId::kInterleaveSuspensions: return "interleave_suspensions";
    case CounterId::kWorkerParks: return "worker_parks";
    case CounterId::kWorkerWakes: return "worker_wakes";
    case CounterId::kCount: break;
  }
  return "?";
}

const char* CounterHelp(CounterId c) {
  switch (c) {
    case CounterId::kTxnSubmitted:
      return "Action graphs accepted by Submit/SubmitBatch.";
    case CounterId::kTxnCommitted: return "Futures completed OK.";
    case CounterId::kTxnAborted:
      return "Futures completed with an error status.";
    case CounterId::kBatchesDrained: return "Worker inbox drains.";
    case CounterId::kCommitMarkersAppended:
      return "Per-partition commit markers staged by workers.";
    case CounterId::kDurableAcks:
      return "Commit acks delivered (group or async durability).";
    case CounterId::kLogFlushes: return "Group-commit passes over the shards.";
    case CounterId::kRepartitions:
      return "Schemes applied by the adaptive manager.";
    case CounterId::kNetAccepts:
      return "Connections accepted across all listeners.";
    case CounterId::kNetFramesIn: return "Request frames decoded off sockets.";
    case CounterId::kNetFramesOut: return "Response frames queued for write.";
    case CounterId::kNetBytesIn: return "Request bytes read off sockets.";
    case CounterId::kNetBytesOut: return "Response bytes written to sockets.";
    case CounterId::kNetTxnsShed:
      return "Requests shed by admission control (OVERLOADED).";
    case CounterId::kNetProtocolErrors:
      return "Malformed or oversized frames and unknown opcodes.";
    case CounterId::kFaultIslandKills:
      return "Islands fail-stopped (injected or KillIsland).";
    case CounterId::kFaultPartitionsEvacuated:
      return "Partitions re-homed off a failed island.";
    case CounterId::kFaultTxnsUnavailable:
      return "Actions failed kUnavailable by a quarantined worker.";
    case CounterId::kInterleaveSuspensions:
      return "Always 0: the interleaved drain was removed; kept for the "
             "benchmark's per-layer report.";
    case CounterId::kWorkerParks:
      return "Worker park episodes (blocked after a pass found every inbox "
             "empty).";
    case CounterId::kWorkerWakes:
      return "Claimed worker wakes (one notify per park episode).";
    case CounterId::kCount: break;
  }
  return "?";
}

const char* GaugeName(GaugeId g) {
  switch (g) {
    case GaugeId::kQueueDepthTotal: return "queue_depth_total";
    case GaugeId::kDurableLagEpochs: return "durable_lag_epochs";
    case GaugeId::kNetOpenConnections: return "net_open_connections";
    case GaugeId::kNetInflightTxns: return "net_inflight_txns";
    case GaugeId::kCount: break;
  }
  return "?";
}

const char* GaugeHelp(GaugeId g) {
  switch (g) {
    case GaugeId::kQueueDepthTotal:
      return "Tasks published but not yet drained, summed over all inboxes.";
    case GaugeId::kDurableLagEpochs:
      return "Last commit epoch minus the durable epoch watermark.";
    case GaugeId::kNetOpenConnections:
      return "Wire-tier connections currently open.";
    case GaugeId::kNetInflightTxns:
      return "Wire-tier requests submitted whose response is not yet queued.";
    case GaugeId::kCount: break;
  }
  return "?";
}

const char* HistName(HistId h) {
  switch (h) {
    case HistId::kCommitLatencyUs: return "commit_latency_us";
    case HistId::kDrainBatchUs: return "drain_batch_us";
    case HistId::kDrainBatchSize: return "drain_batch_size";  // actions, not markers
    case HistId::kActionAvgUs: return "action_avg_us";
    case HistId::kSubmitPublishUs: return "submit_publish_us";
    case HistId::kLogFlushUs: return "log_flush_us";
    case HistId::kWireLatencyUs: return "wire_latency_us";
    case HistId::kEvacuationUs: return "evacuation_us";
    case HistId::kCount: break;
  }
  return "?";
}

const char* HistHelp(HistId h) {
  switch (h) {
    case HistId::kCommitLatencyUs:
      return "Submit to completion ack, per transaction.";
    case HistId::kDrainBatchUs: return "One drained inbox batch.";
    case HistId::kDrainBatchSize:
      return "Actions per drained batch (commit markers excluded, matching "
             "the action_avg_us basis).";
    case HistId::kActionAvgUs:
      return "Batch-average per-action cost, per batch.";
    case HistId::kSubmitPublishUs:
      return "Stage-0 bucket plus publish wave, per wave.";
    case HistId::kLogFlushUs:
      return "One group-commit pass over all active shards.";
    case HistId::kWireLatencyUs:
      return "Wire transaction: decode/submit to response queued.";
    case HistId::kEvacuationUs:
      return "KillIsland: quarantine to repartitioned onto survivors.";
    case HistId::kCount: break;
  }
  return "?";
}

namespace {
/// Monotonically increasing registry ids so a thread's cached shard can
/// never be mistaken for one belonging to a registry reallocated at the
/// same address.
std::atomic<uint64_t> g_next_registry_id{1};
}  // namespace

Registry::Registry(Options opt)
    : opt_(opt),
      id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()),
      metrics_on_(opt.metrics),
      trace_on_(false) {
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  if (opt_.max_shards == 0) opt_.max_shards = 1;
  if (opt.trace) SetTraceEnabled(true);
}

Registry::~Registry() = default;

Registry::Shard& Registry::Local() {
  thread_local uint64_t cached_id = 0;
  thread_local Shard* cached = nullptr;
  if (cached_id != id_ || cached == nullptr) {
    cached = &AssignShard();
    cached_id = id_;
  }
  return *cached;
}

Registry::Shard& Registry::AssignShard() {
  std::lock_guard lk(mu_);
  size_t idx = next_shard_++;
  if (idx >= shards_.size() && shards_.size() < opt_.max_shards) {
    shards_.push_back(std::make_unique<Shard>());
    if (trace_on_.load(std::memory_order_relaxed)) {
      rings_.push_back(std::make_unique<TraceRing>(opt_.trace_capacity));
      shards_.back()->ring.store(rings_.back().get(),
                                 std::memory_order_release);
    }
    return *shards_.back();
  }
  return *shards_[idx % shards_.size()];
}

void Registry::SetTraceEnabled(bool on) {
  std::lock_guard lk(mu_);
  if (on) {
    // Late ring allocation: shards assigned while tracing was off get
    // their ring now; shards assigned later get one in AssignShard.
    for (auto& s : shards_) {
      if (s->ring.load(std::memory_order_relaxed) == nullptr) {
        rings_.push_back(std::make_unique<TraceRing>(opt_.trace_capacity));
        s->ring.store(rings_.back().get(), std::memory_order_release);
      }
    }
  }
  trace_on_.store(on, std::memory_order_release);
}

void Registry::TraceSlow(SpanId span, TracePhase phase, uint64_t txn,
                         uint64_t arg) {
  TraceRing* ring = Local().ring.load(std::memory_order_acquire);
  if (ring == nullptr) return;  // shard predates enable; next enable fixes it
  ring->Record(NowNs(), span, phase, txn, arg);
}

int Registry::AddSource(Source src) {
  std::lock_guard lk(mu_);
  int id = next_source_++;
  sources_.emplace_back(id, std::move(src));
  return id;
}

void Registry::RemoveSource(int id) {
  std::unique_lock lk(mu_);
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i].first == id) {
      sources_.erase(sources_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  // A concurrent Snapshot may have copied the source before the erase;
  // wait until every in-flight source pass finished so the caller can
  // free whatever the source captured.
  sources_cv_.wait(lk, [this] { return sources_running_ == 0; });
}

size_t Registry::num_shards() const {
  std::lock_guard lk(mu_);
  return shards_.size();
}

StatsSnapshot Registry::Snapshot() {
  StatsSnapshot out;
  out.seq = snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  out.uptime_ns = NowNs();
  std::vector<std::pair<int, Source>> sources;
  {
    std::lock_guard lk(mu_);
    bool any_ring = false;
    for (const auto& s : shards_) {
      for (size_t c = 0; c < kNumCounters; ++c)
        out.counters[c] += s->counters[c].load(std::memory_order_acquire);
      for (size_t h = 0; h < kNumHists; ++h)
        s->hists[h].MergeInto(&out.hists[h]);
      uint64_t shard_dropped = 0;
      if (TraceRing* r = s->ring.load(std::memory_order_acquire)) {
        out.trace_events_recorded += r->recorded();
        out.trace_events_dropped += r->dropped();
        shard_dropped = r->dropped();
        any_ring = true;
      }
      out.trace_dropped_per_shard.push_back(shard_dropped);
    }
    if (!any_ring) out.trace_dropped_per_shard.clear();
    sources = sources_;
    ++sources_running_;
  }
  for (size_t g = 0; g < kNumGauges; ++g)
    out.gauges[g] = gauges_[g].load(std::memory_order_acquire);
  // Sources run outside mu_: they take their own subsystem locks (e.g.
  // the executor's scheme gate) and must not nest under the shard mutex.
  for (auto& [id, src] : sources) src(out);
  // Fault-injection sites record into the process-global injector (the mem
  // and log layers have no registry handle); fold the fires in here so
  // they surface as atrapos_fault_* like every other metric.
  if (fault::Injector* inj = fault::Get()) {
    for (size_t s = 0; s < fault::kNumSites; ++s) {
      auto site = static_cast<fault::SiteId>(s);
      if (inj->evaluations(site) == 0) continue;
      out.fault_site_fires.emplace_back(fault::SiteName(site),
                                        inj->fires(site));
    }
  }
  {
    std::lock_guard lk(mu_);
    --sources_running_;
  }
  sources_cv_.notify_all();
  return out;
}

std::vector<TraceEvent> Registry::CollectTrace() const {
  std::vector<TraceEvent> out;
  std::lock_guard lk(mu_);
  uint16_t shard = 0;
  for (const auto& s : shards_) {
    if (TraceRing* r = s->ring.load(std::memory_order_acquire))
      r->Collect(shard, &out);
    ++shard;
  }
  return out;
}

bool Registry::DumpChromeTrace(const std::string& path) const {
  return WriteChromeTrace(path, CollectTrace());
}

namespace {

bool MetricNameCharOk(char ch, bool first) {
  if ((ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch == '_' ||
      ch == ':')
    return true;
  return !first && ch >= '0' && ch <= '9';
}

/// Emits one metric's # HELP / # TYPE header with the name forced into
/// grammar, and returns the sanitized name for the sample lines.
std::string EmitHeader(std::ostringstream& os, const std::string& name,
                       const char* type, const char* help) {
  std::string n = SanitizeMetricName(name);
  os << "# HELP " << n << " " << help << "\n";
  os << "# TYPE " << n << " " << type << "\n";
  return n;
}

}  // namespace

std::string SanitizeMetricName(const std::string& name) {
  std::string out = name.empty() ? std::string("_") : name;
  for (size_t i = 0; i < out.size(); ++i)
    if (!MetricNameCharOk(out[i], i == 0)) out[i] = '_';
  return out;
}

std::string StatsSnapshot::ToPrometheus() const {
  std::ostringstream os;
  for (size_t c = 0; c < kNumCounters; ++c) {
    auto id = static_cast<CounterId>(c);
    std::string n = EmitHeader(os, std::string("atrapos_") + CounterName(id),
                               "counter", CounterHelp(id));
    os << n << " " << counters[c] << "\n";
  }
  for (size_t g = 0; g < kNumGauges; ++g) {
    auto id = static_cast<GaugeId>(g);
    std::string n = EmitHeader(os, std::string("atrapos_") + GaugeName(id),
                               "gauge", GaugeHelp(id));
    os << n << " " << gauges[g] << "\n";
  }
  for (size_t h = 0; h < kNumHists; ++h) {
    auto id = static_cast<HistId>(h);
    const Histogram& hist = hists[h];
    std::string n = EmitHeader(os, std::string("atrapos_") + HistName(id),
                               "summary", HistHelp(id));
    for (double q : {0.5, 0.95, 0.99}) {
      os << n << "{quantile=\"" << q << "\"} " << hist.Quantile(q) << "\n";
    }
    os << n << "_sum "
       << static_cast<uint64_t>(hist.mean() * static_cast<double>(hist.count()))
       << "\n";
    os << n << "_count " << hist.count() << "\n";
  }
  {
    std::string n = EmitHeader(os, "atrapos_queue_depth", "gauge",
                               "Published-but-undrained tasks per partition.");
    for (size_t p = 0; p < queue_depths.size(); ++p)
      os << n << "{partition=\"" << p << "\"} " << queue_depths[p] << "\n";
  }
  if (!net_island_accepts.empty()) {
    std::string n = EmitHeader(os, "atrapos_net_island_accepts", "counter",
                               "Connections accepted per island listener.");
    for (size_t i = 0; i < net_island_accepts.size(); ++i)
      os << n << "{island=\"" << i << "\"} " << net_island_accepts[i] << "\n";
  }
  if (!fault_site_fires.empty()) {
    std::string n = EmitHeader(os, "atrapos_fault_injected_total", "counter",
                               "Fault-injection fires per armed site.");
    for (const auto& [site, fires] : fault_site_fires)
      os << n << "{site=\"" << site << "\"} " << fires << "\n";
  }
  if (hw_available) {
    for (size_t c = 0; c < kNumHwCounters; ++c) {
      auto id = static_cast<HwCounterId>(c);
      std::string n =
          EmitHeader(os, std::string("atrapos_hw_") + HwCounterName(id),
                     "counter",
                     "perf_event_open hardware counter, summed per island.");
      for (size_t i = 0; i < hw_islands.size(); ++i) {
        if (!hw_islands[i].valid[c]) continue;
        os << n << "{island=\"" << i << "\"} " << hw_islands[i].v[c] << "\n";
      }
    }
    std::string n = EmitHeader(
        os, "atrapos_hw_remote_dram_ratio", "gauge",
        "Remote fraction of measured DRAM accesses per island (NODE "
        "events; hardware ground truth for atrapos_remote_traffic_ratio).");
    for (size_t i = 0; i < hw_islands.size(); ++i) {
      double r = hw_remote_dram_ratio(i);
      if (r >= 0.0) os << n << "{island=\"" << i << "\"} " << r << "\n";
    }
  }
  os << EmitHeader(os, "atrapos_executed_actions", "counter",
                   "Actions executed by partition workers.")
     << " " << executed_actions << "\n";
  os << EmitHeader(os, "atrapos_log_records", "counter",
                   "Records appended across all log shards.")
     << " " << log_records << "\n";
  os << EmitHeader(os, "atrapos_log_bytes", "counter",
                   "Bytes appended across all log shards.")
     << " " << log_bytes << "\n";
  os << EmitHeader(os, "atrapos_durable_epoch", "gauge",
                   "Distributed durable-point epoch watermark.")
     << " " << durable_epoch << "\n";
  os << EmitHeader(os, "atrapos_remote_traffic_ratio", "gauge",
                   "Software-accounted remote fraction of memory accesses.")
     << " " << remote_traffic_ratio << "\n";
  os << EmitHeader(os, "atrapos_alloc_remote_ratio", "gauge",
                   "Software-accounted remote fraction of allocations.")
     << " " << alloc_remote_ratio << "\n";
  os << EmitHeader(os, "atrapos_migrated_bytes", "counter",
                   "Bytes moved between islands by repartitioning.")
     << " " << migrated_bytes << "\n";
  os << EmitHeader(os, "atrapos_trace_events_recorded", "counter",
                   "Trace events recorded across all shard rings.")
     << " " << trace_events_recorded << "\n";
  {
    std::string n = EmitHeader(
        os, "atrapos_trace_dropped_total", "counter",
        "Trace events lost to keep-newest ring overwrite, per writer shard.");
    os << n << " " << trace_events_dropped << "\n";
    for (size_t sh = 0; sh < trace_dropped_per_shard.size(); ++sh)
      os << n << "{shard=\"" << sh << "\"} " << trace_dropped_per_shard[sh]
         << "\n";
  }
  return os.str();
}

}  // namespace atrapos::obs
