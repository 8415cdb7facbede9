// Tests of the island-aware memory subsystem: arena recycling, placement
// policy resolution against topologies, local/remote traffic accounting,
// and subtree/heap migration between islands.
#include <gtest/gtest.h>

#include <ostream>
#include <set>

#include "hw/binding.h"
#include "mem/island_allocator.h"
#include "storage/heap_file.h"
#include "storage/mrbtree.h"

namespace atrapos::mem {
namespace {

TEST(ArenaTest, RoundsUpToSizeClass) {
  EXPECT_EQ(Arena::BlockSize(1), 16u);
  EXPECT_EQ(Arena::BlockSize(16), 16u);
  EXPECT_EQ(Arena::BlockSize(17), 32u);
  EXPECT_EQ(Arena::BlockSize(100), 128u);
  EXPECT_EQ(Arena::BlockSize(8192), 8192u);
}

TEST(ArenaTest, ReusesFreedBlocks) {
  Arena arena(0, nullptr);
  void* a = arena.Allocate(100);  // class 128
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(arena.bytes_in_use(), 128u);
  arena.Deallocate(a, 100);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Same size class comes straight off the free list: identical pointer.
  void* b = arena.Allocate(120);
  EXPECT_EQ(b, a);
  EXPECT_EQ(arena.bytes_in_use(), 128u);
  EXPECT_EQ(arena.bytes_allocated(), 256u);  // cumulative
}

TEST(ArenaTest, BumpAllocatesManyBlocksPerChunk) {
  Arena arena(0, nullptr, 1 << 16);
  for (int i = 0; i < 100; ++i) (void)arena.Allocate(64);
  EXPECT_EQ(arena.num_chunks(), 1u);  // 6.4 KB out of a 64 KB chunk
  EXPECT_EQ(arena.bytes_in_use(), 6400u);
}

TEST(ArenaTest, OversizedRequestGetsDedicatedChunk) {
  Arena arena(0, nullptr, 4096);
  void* big = arena.Allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  size_t chunks = arena.num_chunks();
  arena.Deallocate(big, 1 << 20);
  // Recycled, not unmapped.
  EXPECT_EQ(arena.Allocate(1 << 20), big);
  EXPECT_EQ(arena.num_chunks(), chunks);
}

TEST(AllocStatsTest, ChargesRequestingServingPair) {
  auto topo = hw::Topology::Cube(1, 2);  // 2 sockets x 2 cores
  AllocStats stats(topo);
  // A thread on socket 1 allocating from socket 0's arena is remote traffic.
  hw::BindCurrentThread(topo, topo.first_core(1));
  Arena remote_arena(0, &stats);
  void* p = remote_arena.Allocate(1000);  // class 1024
  EXPECT_EQ(stats.alloc_bytes(1, 0), 1024u);
  EXPECT_EQ(stats.RemoteAllocBytes(), 1024u);
  EXPECT_EQ(stats.LocalAllocBytes(), 0u);
  remote_arena.RecordAccess(256);
  EXPECT_EQ(stats.access_bytes(1, 0), 256u);
  EXPECT_GT(stats.AccessRemoteRatio(), 0.0);
  remote_arena.Deallocate(p, 1000);
  EXPECT_EQ(stats.resident_bytes(0), 0);
  hw::ResetPlacement();
}

TEST(AllocStatsTest, LocalTrafficKeepsRatioZero) {
  auto topo = hw::Topology::Cube(1, 2);
  AllocStats stats(topo);
  hw::BindCurrentThread(topo, topo.first_core(1));
  Arena local_arena(1, &stats);
  (void)local_arena.Allocate(64);
  local_arena.RecordAccess(64);
  EXPECT_EQ(stats.RemoteAccessBytes(), 0u);
  EXPECT_EQ(stats.AccessRemoteRatio(), 0.0);
  EXPECT_EQ(stats.AllocRemoteRatio(), 0.0);
  hw::ResetPlacement();
}

// A topology preset that prints as its name. gtest prints a bare Topology
// parameter as a byte dump that includes heap addresses, which would put
// addresses into the test ids ctest discovers and change them every build.
struct TopologyPreset {
  const char* name;
  hw::Topology (*make)();
};

void PrintTo(const TopologyPreset& preset, std::ostream* os) {
  *os << preset.name;
}

class SocketPolicyTest : public ::testing::TestWithParam<TopologyPreset> {};

INSTANTIATE_TEST_SUITE_P(
    Topologies, SocketPolicyTest,
    ::testing::Values(
        TopologyPreset{"SingleSocket4",
                       [] { return hw::Topology::SingleSocket(4); }},
        TopologyPreset{"Cube2x2", [] { return hw::Topology::Cube(2, 2); }},
        TopologyPreset{"TwistedCube8x10",
                       [] { return hw::Topology::TwistedCube8x10(); }}));

TEST_P(SocketPolicyTest, LocalResolvesToRequestingSocket) {
  const hw::Topology topo = GetParam().make();
  IslandAllocator alloc(topo, {.policy = PlacementPolicy::kLocal});
  for (int s = 0; s < topo.num_sockets(); ++s)
    EXPECT_EQ(alloc.Resolve(s), s);
}

TEST_P(SocketPolicyTest, CentralResolvesToCentralSocket) {
  const hw::Topology topo = GetParam().make();
  IslandAllocator alloc(topo, {.policy = PlacementPolicy::kCentral,
                               .central_socket = 0});
  for (int s = 0; s < topo.num_sockets(); ++s)
    EXPECT_EQ(alloc.Resolve(s), 0);
}

TEST_P(SocketPolicyTest, RemoteResolvesOffIslandToFarthestSocket) {
  const hw::Topology topo = GetParam().make();
  IslandAllocator alloc(topo, {.policy = PlacementPolicy::kRemote});
  for (int s = 0; s < topo.num_sockets(); ++s) {
    hw::SocketId r = alloc.Resolve(s);
    if (topo.num_sockets() == 1) {
      EXPECT_EQ(r, s);  // nowhere else to go
      continue;
    }
    EXPECT_NE(r, s);
    int max_d = 0;
    for (int t = 0; t < topo.num_sockets(); ++t)
      if (t != s) max_d = std::max(max_d, topo.Distance(s, t));
    EXPECT_EQ(topo.Distance(s, r), max_d);
  }
}

TEST_P(SocketPolicyTest, InterleavedSeqIsDeterministicRoundRobin) {
  const hw::Topology topo = GetParam().make();
  IslandAllocator alloc(topo, {.policy = PlacementPolicy::kInterleaved});
  std::set<hw::SocketId> seen;
  for (uint64_t i = 0; i < 2 * static_cast<uint64_t>(topo.num_sockets()); ++i) {
    hw::SocketId r = alloc.ResolveSeq(0, i);
    EXPECT_EQ(r, static_cast<hw::SocketId>(i % topo.num_sockets()));
    seen.insert(r);
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(topo.num_sockets()));
}

TEST(PolicyTest2, FirstTouchFollowsCallingThread) {
  auto topo = hw::Topology::Cube(1, 2);
  IslandAllocator alloc(topo, {.policy = PlacementPolicy::kFirstTouch});
  hw::BindCurrentThread(topo, topo.first_core(1));
  // Even on behalf of socket 0 (e.g. the future owner), first-touch places
  // on the toucher's island.
  EXPECT_EQ(alloc.Resolve(0), 1);
  hw::ResetPlacement();
  // Unbound threads fall back to the requested socket.
  EXPECT_EQ(alloc.Resolve(0), 0);
}

TEST(MigrationTest, BTreeMigrateMovesNodesBetweenIslands) {
  auto topo = hw::Topology::Cube(1, 2);
  IslandAllocator alloc(topo);
  storage::BPlusTree tree(alloc.arena(0));
  for (uint64_t k = 0; k < 5000; ++k) ASSERT_TRUE(tree.Insert(k, k * 2).ok());
  EXPECT_GT(alloc.stats().resident_bytes(0), 0);
  EXPECT_EQ(alloc.stats().resident_bytes(1), 0);

  tree.MigrateTo(alloc.arena(1));

  EXPECT_EQ(alloc.stats().resident_bytes(0), 0);  // all nodes recycled
  EXPECT_GT(alloc.stats().resident_bytes(1), 0);
  EXPECT_EQ(tree.size(), 5000u);
  for (uint64_t k = 0; k < 5000; k += 257) {
    auto v = tree.Get(k);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, k * 2);
  }
}

TEST(MigrationTest, MultiRootedBTreePerPartitionArenas) {
  auto topo = hw::Topology::Cube(1, 2);
  IslandAllocator alloc(topo);
  storage::MultiRootedBTree mrb({0, 500});
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(mrb.Insert(k, k).ok());
  mrb.MigratePartition(0, alloc.arena(0));
  mrb.MigratePartition(1, alloc.arena(1));
  EXPECT_EQ(mrb.partition_arena(0)->home_socket(), 0);
  EXPECT_EQ(mrb.partition_arena(1)->home_socket(), 1);
  EXPECT_GT(alloc.stats().resident_bytes(0), 0);
  EXPECT_GT(alloc.stats().resident_bytes(1), 0);
  EXPECT_EQ(mrb.total_size(), 1000u);
}

TEST(MigrationTest, HeapFileMigrateReseatsAllPages) {
  auto topo = hw::Topology::Cube(1, 2);
  IslandAllocator alloc(topo);
  storage::HeapFile heap(0, alloc.arena(0));
  std::vector<storage::Rid> rids;
  uint8_t row[100];
  for (uint32_t i = 0; i < 1000; ++i) {
    std::memset(row, static_cast<int>(i % 251), sizeof(row));
    auto r = heap.Insert(row, sizeof(row));
    ASSERT_TRUE(r.ok());
    rids.push_back(r.value());
  }
  ASSERT_GT(heap.num_pages(), 1u);
  int64_t resident0 = alloc.stats().resident_bytes(0);
  EXPECT_GT(resident0, 0);

  heap.MigrateTo(alloc.arena(1));

  EXPECT_EQ(alloc.stats().resident_bytes(0), 0);
  EXPECT_GE(alloc.stats().resident_bytes(1), resident0);
  for (uint32_t i = 0; i < 1000; i += 97) {
    uint8_t out[100];
    ASSERT_TRUE(heap.Read(rids[i], out, sizeof(out)).ok());
    EXPECT_EQ(out[0], static_cast<uint8_t>(i % 251));
  }
}

TEST(AccessAccountingTest, HeapReadsChargeRequestingSocket) {
  auto topo = hw::Topology::Cube(1, 2);
  IslandAllocator alloc(topo);
  storage::HeapFile heap(0, alloc.arena(1));  // heap lives on island 1
  uint8_t row[64] = {7};
  auto rid = heap.Insert(row, sizeof(row));
  ASSERT_TRUE(rid.ok());
  alloc.stats().Reset();

  hw::BindCurrentThread(topo, topo.first_core(0));  // reader on island 0
  uint8_t out[64];
  ASSERT_TRUE(heap.Read(rid.value(), out, sizeof(out)).ok());
  hw::ResetPlacement();

  EXPECT_EQ(alloc.stats().access_bytes(0, 1), 64u);
  EXPECT_EQ(alloc.stats().LocalAccessBytes(), 0u);
  EXPECT_GT(alloc.stats().AccessRemoteRatio(), 0.0);
}

TEST(AccessAccountingTest, BTreeDescentChargesNodeTouches) {
  auto topo = hw::Topology::Cube(1, 2);
  IslandAllocator alloc(topo);
  // Two trees, same shape: one homed on the reader's island, one remote.
  storage::BPlusTree local_tree(alloc.arena(0));
  storage::BPlusTree remote_tree(alloc.arena(1));
  for (uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(local_tree.Insert(k, k).ok());
    ASSERT_TRUE(remote_tree.Insert(k, k).ok());
  }
  alloc.stats().Reset();

  hw::BindCurrentThread(topo, topo.first_core(0));  // reader on island 0
  for (uint64_t k = 0; k < 5000; k += 7) {
    ASSERT_TRUE(local_tree.Get(k).has_value());
  }
  double local_only = alloc.stats().AccessRemoteRatio();
  EXPECT_EQ(local_only, 0.0);
  EXPECT_GT(alloc.stats().LocalAccessBytes(), 0u);  // descents were charged

  // The same lookups against the remotely-placed subtree raise the
  // remote-traffic ratio: index descents now count toward the QPI/IMC
  // analogue, not just heap record accesses.
  for (uint64_t k = 0; k < 5000; k += 7) {
    ASSERT_TRUE(remote_tree.Get(k).has_value());
  }
  hw::ResetPlacement();
  EXPECT_GT(alloc.stats().AccessRemoteRatio(), local_only);
  EXPECT_GT(alloc.stats().RemoteAccessBytes(), 0u);
}

TEST(AccessAccountingTest, MultiRootedDescentFollowsPartitionPlacement) {
  auto topo = hw::Topology::Cube(1, 2);
  IslandAllocator alloc(topo);
  storage::MultiRootedBTree mrb({0, 1000});
  mrb.SetPartitionArena(0, alloc.arena(0));
  mrb.SetPartitionArena(1, alloc.arena(1));
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(mrb.Insert(k, k).ok());
  alloc.stats().Reset();

  hw::BindCurrentThread(topo, topo.first_core(0));
  for (uint64_t k = 0; k < 1000; k += 3) ASSERT_TRUE(mrb.Get(k).has_value());
  EXPECT_EQ(alloc.stats().RemoteAccessBytes(), 0u);  // partition 0 is local
  for (uint64_t k = 1000; k < 2000; k += 3)
    ASSERT_TRUE(mrb.Get(k).has_value());
  hw::ResetPlacement();
  EXPECT_GT(alloc.stats().RemoteAccessBytes(), 0u);  // partition 1 is not
}

}  // namespace
}  // namespace atrapos::mem
