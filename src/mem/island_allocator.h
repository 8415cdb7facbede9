// Island-aware allocator (paper §II-B, Table I): one Arena per socket plus
// a placement policy deciding which island's arena serves a request.
//
// Policies mirror the paper's memory-allocation experiment:
//   Local       — serve from the requesting island (the paper's winner)
//   Central     — all requests served from one designated island
//   Remote      — serve from a *different* island (the farthest by hop
//                 distance; the paper's worst case)
//   Interleaved — round-robin across islands (OS numactl --interleave)
//   FirstTouch  — serve from the island of the thread making the call
//                 (Linux default first-touch; differs from Local when an
//                 owner socket is passed on behalf of another thread,
//                 e.g. during initial bulk load from the main thread)
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "hw/topology.h"
#include "mem/alloc_stats.h"
#include "mem/arena.h"

namespace atrapos::mem {

enum class PlacementPolicy {
  kLocal,
  kCentral,
  kRemote,
  kInterleaved,
  kFirstTouch,
};

const char* ToString(PlacementPolicy p);

class IslandAllocator {
 public:
  struct Options {
    PlacementPolicy policy = PlacementPolicy::kLocal;
    size_t arena_chunk_bytes = 1 << 20;
    /// The island serving every request under kCentral.
    hw::SocketId central_socket = 0;
    /// See Arena: emulated interconnect latency per hop (0 = off).
    uint32_t emulate_ns_per_hop = 0;
  };

  explicit IslandAllocator(const hw::Topology& topo);
  IslandAllocator(const hw::Topology& topo, Options opt);

  /// The arena homed on socket `s` (clamped into range).
  Arena* arena(hw::SocketId s);

  /// The arena the current policy selects for a request on behalf of
  /// `requesting` (e.g. a partition's owner socket).
  Arena* ArenaFor(hw::SocketId requesting) {
    return arena(Resolve(requesting));
  }

  /// Pure policy resolution: which socket serves `requesting`.
  hw::SocketId Resolve(hw::SocketId requesting);

  /// Deterministic resolution for placing the `seq`-th object of a stable
  /// sequence (e.g. partition index): kInterleaved maps seq round-robin
  /// instead of consuming the internal counter, so re-placing the same
  /// sequence is idempotent. Other policies ignore `seq`.
  hw::SocketId ResolveSeq(hw::SocketId requesting, uint64_t seq);

  AllocStats& stats() { return stats_; }
  const AllocStats& stats() const { return stats_; }
  const hw::Topology& topology() const { return topo_; }
  PlacementPolicy policy() const { return opt_.policy; }
  int num_arenas() const { return static_cast<int>(arenas_.size()); }

 private:
  hw::SocketId Clamp(hw::SocketId s) const {
    int n = static_cast<int>(arenas_.size());
    return (s < 0 || s >= n) ? 0 : s;
  }

  hw::Topology topo_;
  Options opt_;
  AllocStats stats_;
  std::vector<std::unique_ptr<Arena>> arenas_;
  std::atomic<uint64_t> interleave_{0};
};

}  // namespace atrapos::mem
