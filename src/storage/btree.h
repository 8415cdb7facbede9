// In-memory B+-tree mapping uint64 keys to uint64 values (encoded Rids).
// This is the index substrate under both the centralized engine (one tree
// per table, externally latched) and the multi-rooted B-tree of PLP/ATraPos
// (one tree per logical partition, accessed single-threaded by its owner
// worker, hence latch-free — paper §III-A).
//
// Deletes are lazy (no rebalancing): workload deletes are rare and
// repartitioning rebuilds subtrees wholesale via ExtractRange/BulkLoad.
//
// Nodes are allocated from a mem::Arena when one is attached, placing the
// subtree on its partition's hardware island (paper §II-B); each node
// remembers the arena it came from, so a tree can hold a mix while it is
// being migrated. Descents charge every node they touch to the node's
// island (mem::AllocStats), so index traversals contribute to the measured
// remote-traffic ratio alongside heap record accesses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/status.h"

namespace atrapos::mem {
class Arena;
}  // namespace atrapos::mem

namespace atrapos::storage {

class BPlusTree {
 public:
  static constexpr int kOrder = 64;  ///< max children per internal node

  /// Nodes allocate from `arena` when given, else from the global heap.
  explicit BPlusTree(mem::Arena* arena = nullptr);
  ~BPlusTree();
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts key -> value. AlreadyExists if the key is present.
  Status Insert(uint64_t key, uint64_t value);
  /// Inserts or overwrites.
  void Upsert(uint64_t key, uint64_t value);
  std::optional<uint64_t> Get(uint64_t key) const;
  /// Overwrites the value of an existing key. NotFound otherwise.
  Status Update(uint64_t key, uint64_t value);
  Status Delete(uint64_t key);

  /// Visits [lo, hi] in key order; return false from `fn` to stop early.
  void Scan(uint64_t lo, uint64_t hi,
            const std::function<bool(uint64_t, uint64_t)>& fn) const;

  /// Removes all entries with key >= `from` and returns them sorted —
  /// the physical half of a partition split.
  std::vector<std::pair<uint64_t, uint64_t>> ExtractFrom(uint64_t from);

  /// Appends sorted entries (all keys must exceed the current max).
  void BulkAppend(const std::vector<std::pair<uint64_t, uint64_t>>& sorted);

  /// Builds a tree from sorted entries (replaces current contents).
  void BulkLoad(std::vector<std::pair<uint64_t, uint64_t>> sorted);

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::optional<uint64_t> MinKey() const;
  std::optional<uint64_t> MaxKey() const;
  int height() const;

  // ---- Island placement ---------------------------------------------------

  /// Future node allocations come from `arena` (existing nodes stay where
  /// they are; use MigrateTo to move the whole tree).
  void set_arena(mem::Arena* arena) { arena_ = arena; }
  mem::Arena* arena() const { return arena_; }

  /// Rebuilds every node of the tree in `arena` (contents preserved) — the
  /// physical index move of an island-to-island partition migration.
  void MigrateTo(mem::Arena* arena);

 private:
  struct Node;
  struct Leaf;
  struct Internal;

  /// Root-to-leaf descent; charges every node touched to its arena's
  /// island in mem::AllocStats (index-access traffic accounting).
  Leaf* FindLeaf(uint64_t key) const;
  static void ChargeNodeTouch(const Node* n);
  void InsertIntoParent(Node* left, uint64_t key, Node* right);
  Leaf* NewLeaf();
  Internal* NewInternal();
  void FreeNode(Node* n);
  void FreeTree(Node* n);

  mem::Arena* arena_ = nullptr;
  Node* root_ = nullptr;
  Leaf* first_leaf_ = nullptr;
  uint64_t size_ = 0;
};

}  // namespace atrapos::storage
