// Fig. 9: scalability of the repartitioning mechanism, measured on the
// *real* storage manager (not the simulator): on an 800 K-row table of 10
// integer columns, trigger 10..80 repartitioning actions of each kind
// (merge / split / rearrange) and measure wall-clock completion time.
//
// Expected shape: cost linear in the number of actions; merges cheaper
// than splits; even the largest sequence completes in a fraction of a
// second (paper: < 200 ms for 80 rearrangements).
#include <chrono>

#include "bench/bench_common.h"
#include "storage/mrbtree.h"
#include "util/stats.h"

using namespace atrapos;
using namespace atrapos::bench;

namespace {

constexpr uint64_t kRows = 800000;

/// Builds an 800 K-entry multi-rooted B-tree with `parts` partitions.
storage::MultiRootedBTree BuildTree(size_t parts) {
  std::vector<uint64_t> bounds;
  for (size_t p = 0; p < parts; ++p) bounds.push_back(kRows * p / parts);
  storage::MultiRootedBTree tree(bounds);
  for (size_t p = 0; p < parts; ++p) {
    uint64_t lo = kRows * p / parts;
    uint64_t hi = kRows * (p + 1) / parts;
    std::vector<std::pair<uint64_t, uint64_t>> chunk;
    chunk.reserve(hi - lo);
    for (uint64_t k = lo; k < hi; ++k) chunk.emplace_back(k, k * 10 + 7);
    tree.subtree(p).BulkLoad(std::move(chunk));
  }
  return tree;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Like the paper's setup, every action operates on partitions of the
// standard 80-core partitioning (plus a 160-way one for merges), so the
// per-action data volume is fixed and total sequence cost grows linearly
// with the number of actions.

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, s.ToString().c_str());
    std::abort();
  }
}

double TimeMerges(int n) {
  auto tree = BuildTree(160);
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < static_cast<uint64_t>(n); ++i) {
    // Merge the disjoint pair (2i, 2i+1) of the original partitioning.
    size_t p = tree.PartitionOf(2 * i * kRows / 160);
    Check(tree.Merge(p), "merge");
  }
  return MsSince(t0);
}

double TimeSplits(int n) {
  auto tree = BuildTree(80);
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < static_cast<uint64_t>(n); ++i) {
    // Split partition i at its midpoint.
    uint64_t key = (2 * i + 1) * kRows / 160;
    Check(tree.Split(tree.PartitionOf(key), key), "split");
  }
  return MsSince(t0);
}

double TimeRearranges(int n) {
  // A rearrangement = one split + one merge (paper §VI-C): split partition
  // i at its midpoint, then merge the right half into the next partition —
  // net effect, a moved boundary.
  auto tree = BuildTree(80);
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < static_cast<uint64_t>(n); ++i) {
    uint64_t key = (2 * i + 1) * kRows / 160;
    size_t p = tree.PartitionOf(key);
    Check(tree.Split(p, key), "rearrange/split");
    Check(tree.Merge(p), "rearrange/merge");
  }
  return MsSince(t0);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  int repeats = static_cast<int>(flags.GetInt("repeats", 5));
  flags.RejectUnknown();
  PrintHeader("fig09_repartition_cost",
              "Fig. 9 — Repartitioning cost on the real storage manager");

  TablePrinter tp({"actions", "merge (ms)", "+/-", "split (ms)", "+/-",
                   "rearrange (ms)", "+/-"});
  for (int n = 10; n <= 80; n += 10) {
    StreamingStats merge, split, rearrange;
    for (int r = 0; r < repeats; ++r) {
      merge.Add(TimeMerges(n));
      split.Add(TimeSplits(n));
      rearrange.Add(TimeRearranges(n));
    }
    tp.AddRow({TablePrinter::Int(n), TablePrinter::Num(merge.mean(), 1),
               TablePrinter::Num(merge.stddev(), 1),
               TablePrinter::Num(split.mean(), 1),
               TablePrinter::Num(split.stddev(), 1),
               TablePrinter::Num(rearrange.mean(), 1),
               TablePrinter::Num(rearrange.stddev(), 1)});
  }
  tp.Print();
  return 0;
}
