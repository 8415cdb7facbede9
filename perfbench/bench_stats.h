// Measurement helpers of the repository benchmark (perfbench/tatp_bench.cc):
// the quantile rule every reported timing follows, a fixed-memory sample
// reservoir, and the benchmark's own span tracer with self-time
// attribution. Header-only so the unit tests (bench_stats_test.cc) exercise
// exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// The tail quantile a run reports in place of `want`: `want` itself when
/// at least ten samples lie beyond it, otherwise the highest quantile that
/// still has ten samples beyond it — and the median when fewer than 20
/// samples exist, since then no tail is supported at all.
inline double TailQuantile(size_t n, double want) {
  if (n < 20) return 0.5;
  return std::min(want, 1.0 - 10.0 / static_cast<double>(n));
}

/// Nearest-rank quantile: the smallest sample with at least q·n samples at
/// or below it. 0 for an empty input. Reorders `v`.
inline double NearestRank(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  double rank = std::ceil(q * static_cast<double>(v.size()));
  size_t k = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  k = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Uniform sample of an unbounded stream in fixed memory (Algorithm R).
/// The buffer is written in full at construction, so the process's
/// resident memory does not grow with the number of samples a faster
/// engine produces.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed) : buf_(capacity), rng_(seed) {}

  void Add(float v) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = v;
    } else if (!buf_.empty()) {
      uint64_t j = rng_.Uniform(seen_ + 1);
      if (j < buf_.size()) buf_[j] = v;
    }
    ++seen_;
  }

  /// Samples offered so far (the stream's length, not the held count).
  uint64_t seen() const { return seen_; }
  size_t held() const {
    return static_cast<size_t>(std::min<uint64_t>(seen_, buf_.size()));
  }

  /// Nearest-rank quantile over the held samples.
  double Quantile(double q) const {
    std::vector<float> v(buf_.begin(),
                         buf_.begin() + static_cast<std::ptrdiff_t>(held()));
    return NearestRank(v, q);
  }
  double Median() const { return Quantile(0.5); }
  /// Quantile(TailQuantile(held(), want)).
  double Tail(double want) const { return Quantile(TailQuantile(held(), want)); }

 private:
  std::vector<float> buf_;
  atrapos::Rng rng_;
  uint64_t seen_ = 0;
};

// ---- spans ------------------------------------------------------------------

/// The benchmark's span names: one per call into a layer, plus the roots
/// they hang off. Spans are recorded only around the benchmark's own calls;
/// nothing inside src/ is instrumented.
enum SpanName : uint8_t {
  kSetup,            ///< root: one set-up (load + executor [+ server])
  kSetupLoad,        ///< BuildTatpTables + Database::AddTable
  kSetupExecutor,    ///< PartitionedExecutor constructor
  kSetupServer,      ///< Server::Start + Client::Connect
  kClientLoop,       ///< root: the measured window on the client thread
  kClientBuild,      ///< one wave's TatpActionGraphs::Mix / DrawTatpMix calls
  kClientSubmit,     ///< SubmitBatch, or one wave's Client::Submit calls
  kClientWait,       ///< one wave's TxnFuture::Wait calls
  kClientPoll,       ///< Client::Poll calls until a connection's wave acked
  kTxn,              ///< sampled transaction: submit → completion seen
  kPostStorageRead,  ///< post-window single-thread Table::Read batch
  kNumSpanNames
};

inline constexpr std::array<const char*, kNumSpanNames> kSpanNames = {
    "setup",        "setup.load",  "setup.executor", "setup.server",
    "client.loop",  "client.build", "client.submit", "client.wait",
    "client.poll",  "txn",         "post.storage_read"};

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t txn = 0;  ///< transaction id for kTxn spans, else 0
  uint32_t parent = kNoParent;
  uint8_t name = 0;
};

/// A span's self time: its duration minus the part of [start, end) that
/// the union of its children's intervals covers. Children may overlap each
/// other and may stick out of the parent; only covered parent time counts.
inline uint64_t SelfTimeNs(const Span& parent,
                           std::vector<std::pair<uint64_t, uint64_t>> children) {
  uint64_t dur = parent.end_ns > parent.start_ns
                     ? parent.end_ns - parent.start_ns
                     : 0;
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t cursor = parent.start_ns;  // parent time before this is counted
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, parent.end_ns);
    if (e <= s) continue;
    covered += e - s;
    cursor = e;
  }
  return dur - std::min(dur, covered);
}

/// In-memory span recorder. Off: every call is a branch. On: spans are
/// appended up to `max_spans` (further ones are counted as dropped) and
/// written out once, when the run ends.
class Tracer {
 public:
  Tracer(bool on, size_t max_spans) : on_(on), max_spans_(max_spans) {
    if (on_) spans_.reserve(std::min<size_t>(max_spans_, 1u << 16));
  }

  bool on() const { return on_; }
  uint64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Records a finished span; returns its id (kNoParent when off or full).
  uint32_t Add(uint8_t name, uint32_t parent, uint64_t txn, uint64_t start_ns,
               uint64_t end_ns) {
    if (!on_) return kNoParent;
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return kNoParent;
    }
    spans_.push_back(Span{start_ns, end_ns, txn, parent, name});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is not known yet (roots); Close() ends it.
  uint32_t Open(uint8_t name, uint32_t parent, uint64_t start_ns) {
    return Add(name, parent, 0, start_ns, start_ns);
  }
  void Close(uint32_t id, uint64_t end_ns) {
    if (id != kNoParent) spans_[id].end_ns = end_ns;
  }

  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;  ///< summed durations
    uint64_t self_ns = 0;   ///< summed self times (SelfTimeNs)
  };
  /// Per span name: count, total duration and total self time.
  std::array<Totals, kNumSpanNames> Aggregate() const {
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans_.size());
    for (const Span& s : spans_)
      if (s.parent != kNoParent && s.parent < spans_.size())
        kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    std::array<Totals, kNumSpanNames> out{};
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.name >= kNumSpanNames) continue;
      Totals& t = out[s.name];
      ++t.count;
      t.total_ns += s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
      t.self_ns += SelfTimeNs(s, std::move(kids[i]));
    }
    return out;
  }

  /// One JSON object per line: id, name, parent (-1 for roots), txn, start
  /// and end in ns. False when the file cannot be written.
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,\"txn\":%llu,"
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   i, s.name < kNumSpanNames ? kSpanNames[s.name] : "?",
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.txn),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  size_t max_spans_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

}  // namespace perfbench
