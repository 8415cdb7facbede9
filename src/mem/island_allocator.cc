#include "mem/island_allocator.h"

#include "hw/binding.h"

namespace atrapos::mem {

const char* ToString(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kLocal: return "Local";
    case PlacementPolicy::kCentral: return "Central";
    case PlacementPolicy::kRemote: return "Remote";
    case PlacementPolicy::kInterleaved: return "Interleaved";
    case PlacementPolicy::kFirstTouch: return "FirstTouch";
  }
  return "?";
}

IslandAllocator::IslandAllocator(const hw::Topology& topo)
    : IslandAllocator(topo, Options{}) {}

IslandAllocator::IslandAllocator(const hw::Topology& topo, Options opt)
    : topo_(topo), opt_(opt), stats_(topo) {
  arenas_.reserve(static_cast<size_t>(topo_.num_sockets()));
  for (int s = 0; s < topo_.num_sockets(); ++s) {
    arenas_.push_back(std::make_unique<Arena>(static_cast<hw::SocketId>(s),
                                              &stats_, opt_.arena_chunk_bytes,
                                              opt_.emulate_ns_per_hop));
  }
}

Arena* IslandAllocator::arena(hw::SocketId s) {
  return arenas_[static_cast<size_t>(Clamp(s))].get();
}

hw::SocketId IslandAllocator::ResolveSeq(hw::SocketId requesting,
                                         uint64_t seq) {
  if (opt_.policy == PlacementPolicy::kInterleaved) {
    return static_cast<hw::SocketId>(seq %
                                     static_cast<uint64_t>(arenas_.size()));
  }
  return Resolve(requesting);
}

hw::SocketId IslandAllocator::Resolve(hw::SocketId requesting) {
  hw::SocketId req = Clamp(requesting);
  int n = static_cast<int>(arenas_.size());
  switch (opt_.policy) {
    case PlacementPolicy::kLocal:
      return req;
    case PlacementPolicy::kCentral:
      return Clamp(opt_.central_socket);
    case PlacementPolicy::kRemote: {
      if (n == 1) return req;
      // The farthest island by hop distance; ties broken toward the next
      // socket so single-hop topologies still go off-island.
      hw::SocketId best = (req + 1) % n;
      int best_d = topo_.Distance(req, best);
      for (int s = 0; s < n; ++s) {
        if (s == req) continue;
        int d = topo_.Distance(req, static_cast<hw::SocketId>(s));
        if (d > best_d) {
          best = static_cast<hw::SocketId>(s);
          best_d = d;
        }
      }
      return best;
    }
    case PlacementPolicy::kInterleaved:
      return static_cast<hw::SocketId>(
          interleave_.fetch_add(1, std::memory_order_relaxed) %
          static_cast<uint64_t>(n));
    case PlacementPolicy::kFirstTouch: {
      hw::SocketId s = hw::CurrentPlacement().socket;
      return s == hw::kInvalidSocket ? req : Clamp(s);
    }
  }
  return req;
}

}  // namespace atrapos::mem
