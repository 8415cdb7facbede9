#include "storage/btree.h"

#include <algorithm>
#include <cassert>

#include "mem/arena.h"

namespace atrapos::storage {

struct BPlusTree::Node {
  bool leaf;
  mem::Arena* owner = nullptr;  ///< arena the node was allocated from
  Internal* parent = nullptr;
  std::vector<uint64_t> keys;
  explicit Node(bool l) : leaf(l) {}
  virtual ~Node() = default;
};

struct BPlusTree::Leaf : Node {
  std::vector<uint64_t> vals;
  Leaf* next = nullptr;
  Leaf() : Node(true) {}
};

struct BPlusTree::Internal : Node {
  std::vector<Node*> children;  // children.size() == keys.size() + 1
  Internal() : Node(false) {}
  // Children are freed by FreeTree (they may live in a different arena).
};

BPlusTree::Leaf* BPlusTree::NewLeaf() {
  if (!arena_) return new Leaf();
  auto* l = new (arena_->Allocate(sizeof(Leaf))) Leaf();
  l->owner = arena_;
  return l;
}

BPlusTree::Internal* BPlusTree::NewInternal() {
  if (!arena_) return new Internal();
  auto* in = new (arena_->Allocate(sizeof(Internal))) Internal();
  in->owner = arena_;
  return in;
}

void BPlusTree::FreeNode(Node* n) {
  if (mem::Arena* a = n->owner) {
    size_t sz = n->leaf ? sizeof(Leaf) : sizeof(Internal);
    n->~Node();
    a->Deallocate(n, sz);
  } else {
    delete n;
  }
}

void BPlusTree::FreeTree(Node* n) {
  if (!n) return;
  if (!n->leaf)
    for (Node* c : static_cast<Internal*>(n)->children) FreeTree(c);
  FreeNode(n);
}

BPlusTree::BPlusTree(mem::Arena* arena) : arena_(arena) {
  auto* l = NewLeaf();
  root_ = l;
  first_leaf_ = l;
}

BPlusTree::~BPlusTree() { FreeTree(root_); }

BPlusTree::BPlusTree(BPlusTree&& o) noexcept
    : arena_(o.arena_),
      root_(o.root_),
      first_leaf_(o.first_leaf_),
      size_(o.size_) {
  o.root_ = nullptr;
  o.first_leaf_ = nullptr;
  o.size_ = 0;
}

BPlusTree& BPlusTree::operator=(BPlusTree&& o) noexcept {
  if (this != &o) {
    FreeTree(root_);
    arena_ = o.arena_;
    root_ = o.root_;
    first_leaf_ = o.first_leaf_;
    size_ = o.size_;
    o.root_ = nullptr;
    o.first_leaf_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

void BPlusTree::MigrateTo(mem::Arena* arena) {
  if (arena == arena_) return;
  std::vector<std::pair<uint64_t, uint64_t>> all;
  all.reserve(size_);
  Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t v) {
    all.emplace_back(k, v);
    return true;
  });
  arena_ = arena;
  BulkLoad(std::move(all));
}

// Every node touched by a descent charges its size to the island the node
// lives on (requesting socket = calling thread, serving socket = arena
// home) — the index-traversal share of the paper's Table I QPI/IMC traffic
// signal. Nodes on the global heap (no arena) are unplaced and charge
// nothing.
void BPlusTree::ChargeNodeTouch(const Node* n) {
  if (n->owner)
    n->owner->RecordAccess(n->leaf ? sizeof(Leaf) : sizeof(Internal));
}

BPlusTree::Leaf* BPlusTree::FindLeaf(uint64_t key) const {
  Node* n = root_;
  ChargeNodeTouch(n);
  while (!n->leaf) {
    auto* in = static_cast<Internal*>(n);
    size_t i = static_cast<size_t>(
        std::upper_bound(in->keys.begin(), in->keys.end(), key) -
        in->keys.begin());
    n = in->children[i];
    ChargeNodeTouch(n);
  }
  return static_cast<Leaf*>(n);
}

void BPlusTree::InsertIntoParent(Node* left, uint64_t key, Node* right) {
  Internal* parent = left->parent;
  if (!parent) {
    auto* nr = NewInternal();
    nr->keys.push_back(key);
    nr->children = {left, right};
    left->parent = nr;
    right->parent = nr;
    root_ = nr;
    return;
  }
  size_t i = static_cast<size_t>(
      std::upper_bound(parent->keys.begin(), parent->keys.end(), key) -
      parent->keys.begin());
  parent->keys.insert(parent->keys.begin() + static_cast<long>(i), key);
  parent->children.insert(parent->children.begin() + static_cast<long>(i) + 1,
                          right);
  right->parent = parent;
  if (parent->children.size() > kOrder) {
    // Split the internal node.
    auto* sib = NewInternal();
    size_t mid = parent->keys.size() / 2;
    uint64_t up_key = parent->keys[mid];
    sib->keys.assign(parent->keys.begin() + static_cast<long>(mid) + 1,
                     parent->keys.end());
    sib->children.assign(parent->children.begin() + static_cast<long>(mid) + 1,
                         parent->children.end());
    for (Node* c : sib->children) c->parent = sib;
    parent->keys.resize(mid);
    parent->children.resize(mid + 1);
    InsertIntoParent(parent, up_key, sib);
  }
}

Status BPlusTree::Insert(uint64_t key, uint64_t value) {
  Leaf* lf = FindLeaf(key);
  auto it = std::lower_bound(lf->keys.begin(), lf->keys.end(), key);
  size_t i = static_cast<size_t>(it - lf->keys.begin());
  if (it != lf->keys.end() && *it == key)
    return Status::AlreadyExists("duplicate key");
  lf->keys.insert(it, key);
  lf->vals.insert(lf->vals.begin() + static_cast<long>(i), value);
  ++size_;
  if (lf->keys.size() > kOrder) {
    auto* sib = NewLeaf();
    size_t mid = lf->keys.size() / 2;
    sib->keys.assign(lf->keys.begin() + static_cast<long>(mid), lf->keys.end());
    sib->vals.assign(lf->vals.begin() + static_cast<long>(mid), lf->vals.end());
    lf->keys.resize(mid);
    lf->vals.resize(mid);
    sib->next = lf->next;
    lf->next = sib;
    InsertIntoParent(lf, sib->keys.front(), sib);
  }
  return Status::OK();
}

void BPlusTree::Upsert(uint64_t key, uint64_t value) {
  Leaf* lf = FindLeaf(key);
  auto it = std::lower_bound(lf->keys.begin(), lf->keys.end(), key);
  if (it != lf->keys.end() && *it == key) {
    lf->vals[static_cast<size_t>(it - lf->keys.begin())] = value;
    return;
  }
  Status s = Insert(key, value);
  (void)s;
}

std::optional<uint64_t> BPlusTree::Get(uint64_t key) const {
  Leaf* lf = FindLeaf(key);
  auto it = std::lower_bound(lf->keys.begin(), lf->keys.end(), key);
  if (it == lf->keys.end() || *it != key) return std::nullopt;
  return lf->vals[static_cast<size_t>(it - lf->keys.begin())];
}

Status BPlusTree::Update(uint64_t key, uint64_t value) {
  Leaf* lf = FindLeaf(key);
  auto it = std::lower_bound(lf->keys.begin(), lf->keys.end(), key);
  if (it == lf->keys.end() || *it != key) return Status::NotFound("no key");
  lf->vals[static_cast<size_t>(it - lf->keys.begin())] = value;
  return Status::OK();
}

Status BPlusTree::Delete(uint64_t key) {
  Leaf* lf = FindLeaf(key);
  auto it = std::lower_bound(lf->keys.begin(), lf->keys.end(), key);
  if (it == lf->keys.end() || *it != key) return Status::NotFound("no key");
  size_t i = static_cast<size_t>(it - lf->keys.begin());
  lf->keys.erase(it);
  lf->vals.erase(lf->vals.begin() + static_cast<long>(i));
  --size_;
  return Status::OK();
}

void BPlusTree::Scan(uint64_t lo, uint64_t hi,
                     const std::function<bool(uint64_t, uint64_t)>& fn) const {
  Leaf* lf = FindLeaf(lo);
  while (lf) {
    for (size_t i = 0; i < lf->keys.size(); ++i) {
      uint64_t k = lf->keys[i];
      if (k < lo) continue;
      if (k > hi) return;
      if (!fn(k, lf->vals[i])) return;
    }
    lf = lf->next;
  }
}

std::vector<std::pair<uint64_t, uint64_t>> BPlusTree::ExtractFrom(
    uint64_t from) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  Scan(from, UINT64_MAX, [&](uint64_t k, uint64_t v) {
    out.emplace_back(k, v);
    return true;
  });
  // Rebuild this tree with the remaining prefix. Simple and O(n) — the
  // linear cost is precisely the linear trend of Fig. 9.
  std::vector<std::pair<uint64_t, uint64_t>> keep;
  keep.reserve(size_ - out.size());
  Scan(0, from == 0 ? 0 : from - 1, [&](uint64_t k, uint64_t v) {
    keep.emplace_back(k, v);
    return true;
  });
  BulkLoad(std::move(keep));
  return out;
}

void BPlusTree::BulkAppend(
    const std::vector<std::pair<uint64_t, uint64_t>>& sorted) {
  for (auto [k, v] : sorted) {
    Status s = Insert(k, v);
    assert(s.ok());
    (void)s;
  }
}

void BPlusTree::BulkLoad(std::vector<std::pair<uint64_t, uint64_t>> sorted) {
  FreeTree(root_);
  auto* l = NewLeaf();
  root_ = l;
  first_leaf_ = l;
  size_ = 0;
  // Fill leaves to ~3/4 capacity left to right, then build internals by
  // plain inserts of separators (cheap relative to the data movement).
  Leaf* cur = l;
  constexpr size_t kFill = kOrder * 3 / 4;
  std::vector<Leaf*> leaves{cur};
  for (auto& [k, v] : sorted) {
    if (cur->keys.size() >= kFill) {
      auto* nl = NewLeaf();
      cur->next = nl;
      cur = nl;
      leaves.push_back(nl);
    }
    cur->keys.push_back(k);
    cur->vals.push_back(v);
  }
  size_ = sorted.size();
  if (leaves.size() == 1) return;
  // Build one level of internals at a time.
  std::vector<Node*> level(leaves.begin(), leaves.end());
  while (level.size() > 1) {
    std::vector<Node*> next_level;
    size_t i = 0;
    while (i < level.size()) {
      auto* in = NewInternal();
      size_t take = std::min<size_t>(kOrder, level.size() - i);
      // Avoid a trailing single-child internal node.
      if (level.size() - i - take == 1) --take;
      for (size_t j = 0; j < take; ++j) {
        Node* c = level[i + j];
        c->parent = in;
        if (j > 0) {
          // Separator = smallest key in subtree c.
          Node* n = c;
          while (!n->leaf) n = static_cast<Internal*>(n)->children[0];
          in->keys.push_back(n->keys.front());
        }
        in->children.push_back(c);
      }
      i += take;
      next_level.push_back(in);
    }
    level = std::move(next_level);
  }
  root_ = level[0];
  root_->parent = nullptr;
}

std::optional<uint64_t> BPlusTree::MinKey() const {
  Node* n = root_;
  while (!n->leaf) n = static_cast<Internal*>(n)->children[0];
  auto* lf = static_cast<Leaf*>(n);
  // The leftmost leaf can be empty after deletes; walk forward.
  while (lf && lf->keys.empty()) lf = lf->next;
  if (!lf) return std::nullopt;
  return lf->keys.front();
}

std::optional<uint64_t> BPlusTree::MaxKey() const {
  Node* n = root_;
  while (!n->leaf) n = static_cast<Internal*>(n)->children.back();
  auto* lf = static_cast<Leaf*>(n);
  if (lf->keys.empty()) {
    // Rare (rightmost leaf drained by deletes): fall back to a scan.
    std::optional<uint64_t> last;
    Scan(0, UINT64_MAX, [&](uint64_t k, uint64_t) {
      last = k;
      return true;
    });
    return last;
  }
  return lf->keys.back();
}

int BPlusTree::height() const {
  int h = 1;
  Node* n = root_;
  while (!n->leaf) {
    n = static_cast<Internal*>(n)->children[0];
    ++h;
  }
  return h;
}

}  // namespace atrapos::storage
