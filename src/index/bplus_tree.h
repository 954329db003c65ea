#pragma once

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/macros.h"
#include "common/shared_latch.h"
#include "common/thread_annotations.h"
#include "index/index.h"
#include "storage/storage_defs.h"

namespace mainline::index {

/// A concurrent B+-tree with reader-writer latch crabbing.
///
/// Substitutes for the paper's OpenBw-Tree, a latch-free Bw-Tree: a latched
/// B+-tree is far less code, and the experiments exercise indexes only as a
/// per-operation constant cost, which any correct concurrent ordered index
/// preserves.
///
/// Concurrency protocol:
///  - Readers descend with shared-latch crabbing (latch child, release
///    parent). Range scans traverse the leaf chain hand-over-hand
///    left-to-right, which is deadlock-free because splits never latch
///    their neighbors.
///  - Writers descend with exclusive-latch crabbing and split full nodes
///    preemptively on the way down, so an insertion never propagates back up.
///  - Deletion is lazy: keys are removed from leaves but nodes are never
///    merged (the common strategy for latch-based trees; structurally empty
///    leaves remain valid routing targets).
///
/// Hand-over-hand latching acquires a child before releasing its parent and
/// returns latched nodes across function boundaries — a protocol Clang's
/// capability analysis cannot express (it requires lock/unlock balance within
/// each function). The traversal bodies are therefore isolated in
/// NO_THREAD_SAFETY_ANALYSIS helpers; the invariants they rely on are the
/// documented crabbing protocol above, checked by the TSan stress lane
/// instead.
class BPlusTree final : public Index {
 public:
  static constexpr uint16_t kLeafCapacity = 64;
  static constexpr uint16_t kInnerCapacity = 64;  // max children per inner node

  BPlusTree() : root_(new LeafNode) {}
  DISALLOW_COPY_AND_MOVE(BPlusTree)

  ~BPlusTree() override { FreeSubtree(root_); }

  bool Insert(const IndexKey &key, storage::TupleSlot value) override {
    return InsertImpl(key, value);
  }

  bool Delete(const IndexKey &key) override { return DeleteImpl(key); }

  bool Find(const IndexKey &key, storage::TupleSlot *out) const override {
    return FindImpl(key, out);
  }

  void ScanAscending(const IndexKey &lo, const IndexKey &hi, uint32_t limit,
                     std::vector<storage::TupleSlot> *out) const override {
    ScanAscendingImpl(lo, hi, limit, out);
  }

  void ScanDescending(const IndexKey &lo, const IndexKey &hi, uint32_t limit,
                      std::vector<storage::TupleSlot> *out) const override {
    // Collected ascending and reversed: backwards hand-over-hand traversal
    // can deadlock against forward scans, and the workloads' descending scans
    // (e.g. newest order per customer) cover short ranges.
    std::vector<storage::TupleSlot> ascending;
    ScanAscending(lo, hi, 0, &ascending);
    const size_t take =
        limit == 0 ? ascending.size() : std::min<size_t>(limit, ascending.size());
    for (size_t i = 0; i < take; i++) {
      out->push_back(ascending[ascending.size() - 1 - i]);
    }
  }

  // relaxed: a size snapshot racing concurrent inserts/deletes is stale the
  // moment it is read; callers use it for diagnostics and sizing only.
  uint64_t Size() const override { return size_.load(std::memory_order_relaxed); }

  /// \return the height of the tree (diagnostics; not thread-safe, so the
  /// unlatched walk from root_ is exempted from capability analysis).
  uint32_t Height() const NO_THREAD_SAFETY_ANALYSIS {
    uint32_t h = 1;
    const Node *node = root_;
    while (!node->leaf) {
      node = static_cast<const InnerNode *>(node)->children[0];
      h++;
    }
    return h;
  }

 private:
  // Exclusive-crabbing insert: holds at most two node latches at once
  // (parent + child), releasing the parent only after the child is held.
  bool InsertImpl(const IndexKey &key, storage::TupleSlot value) NO_THREAD_SAFETY_ANALYSIS {
    while (true) {
      root_latch_.LockShared();
      Node *node = root_;
      node->latch.LockExclusive();
      if (IsFull(node)) {
        node->latch.UnlockExclusive();
        root_latch_.UnlockShared();
        GrowRootIfFull();
        continue;
      }
      root_latch_.UnlockShared();
      // Descend holding `node` exclusive; every node we descend into is
      // guaranteed non-full (preemptive splitting).
      while (!node->leaf) {
        auto *inner = static_cast<InnerNode *>(node);
        uint16_t idx = inner->ChildIndex(key);
        Node *child = inner->children[idx];
        child->latch.LockExclusive();
        if (IsFull(child)) {
          SplitChild(inner, idx, child);
          // The separator inner->keys[idx] now routes between child and the
          // new right sibling.
          if (!(key < inner->keys[idx])) {
            Node *right = inner->children[idx + 1];
            right->latch.LockExclusive();
            child->latch.UnlockExclusive();
            child = right;
          }
        }
        inner->latch.UnlockExclusive();
        node = child;
      }
      auto *leaf = static_cast<LeafNode *>(node);
      const bool inserted = LeafInsert(leaf, key, value);
      leaf->latch.UnlockExclusive();
      // relaxed: the counter is a diagnostic tally, not a synchronization
      // point — the leaf latch above ordered the structural change.
      if (inserted) size_.fetch_add(1, std::memory_order_relaxed);
      return inserted;
    }
  }

  // Remove via exclusive crab-down; the leaf comes back latched and is
  // released here, which the analysis cannot pair with its acquisition.
  bool DeleteImpl(const IndexKey &key) NO_THREAD_SAFETY_ANALYSIS {
    LeafNode *leaf = DescendExclusive(key);
    const uint16_t pos = LowerBound(leaf->keys, leaf->count, key);
    bool found = pos < leaf->count && leaf->keys[pos] == key;
    if (found) {
      for (uint16_t i = pos; i + 1 < leaf->count; i++) {
        leaf->keys[i] = leaf->keys[i + 1];
        leaf->values[i] = leaf->values[i + 1];
      }
      leaf->count--;
      // relaxed: same as the insert-side tally — the leaf latch orders the
      // structural change; the counter is diagnostics only.
      size_.fetch_sub(1, std::memory_order_relaxed);
    }
    leaf->latch.UnlockExclusive();
    return found;
  }

  // Point lookup via shared crab-down; same cross-function latch hand-off.
  bool FindImpl(const IndexKey &key, storage::TupleSlot *out) const NO_THREAD_SAFETY_ANALYSIS {
    const LeafNode *leaf = DescendShared(key);
    const uint16_t pos = LowerBound(leaf->keys, leaf->count, key);
    const bool found = pos < leaf->count && leaf->keys[pos] == key;
    if (found) *out = leaf->values[pos];
    leaf->latch.UnlockShared();
    return found;
  }

  // Leaf-chain traversal: hand-over-hand left-to-right across siblings.
  void ScanAscendingImpl(const IndexKey &lo, const IndexKey &hi, uint32_t limit,
                         std::vector<storage::TupleSlot> *out) const NO_THREAD_SAFETY_ANALYSIS {
    const LeafNode *leaf = DescendShared(lo);
    uint16_t pos = LowerBound(leaf->keys, leaf->count, lo);
    while (leaf != nullptr) {
      for (; pos < leaf->count; pos++) {
        if (hi < leaf->keys[pos]) {
          leaf->latch.UnlockShared();
          return;
        }
        out->push_back(leaf->values[pos]);
        if (limit != 0 && out->size() >= limit) {
          leaf->latch.UnlockShared();
          return;
        }
      }
      // Hand-over-hand to the right sibling.
      const LeafNode *next = leaf->next;
      if (next != nullptr) next->latch.LockShared();
      leaf->latch.UnlockShared();
      leaf = next;
      pos = 0;
    }
  }

  struct Node {
    // lint-latch: per-node latch of the crabbing protocol; node fields are
    // protected by holding it during traversal, not by a static GUARDED_BY
    // relation the analysis could check.
    mutable common::SharedLatch latch;
    uint16_t count = 0;  // number of keys
    const bool leaf;
    explicit Node(bool is_leaf) : leaf(is_leaf) {}
  };

  struct LeafNode : Node {
    LeafNode() : Node(true) {}
    IndexKey keys[kLeafCapacity];
    storage::TupleSlot values[kLeafCapacity];
    LeafNode *next = nullptr;
  };

  struct InnerNode : Node {
    InnerNode() : Node(false) {}
    IndexKey keys[kInnerCapacity - 1];
    Node *children[kInnerCapacity];

    /// \return index of the child subtree that covers `key` (keys equal to a
    /// separator route right, matching leaf-split copy-up semantics).
    uint16_t ChildIndex(const IndexKey &key) const {
      uint16_t idx = 0;
      while (idx < count && !(key < keys[idx])) idx++;
      return idx;
    }
  };

  static bool IsFull(const Node *node) {
    return node->leaf ? node->count == kLeafCapacity : node->count == kInnerCapacity - 1;
  }

  static uint16_t LowerBound(const IndexKey *keys, uint16_t count, const IndexKey &key) {
    return static_cast<uint16_t>(std::lower_bound(keys, keys + count, key) - keys);
  }

  static bool LeafInsert(LeafNode *leaf, const IndexKey &key, storage::TupleSlot value) {
    const uint16_t pos = LowerBound(leaf->keys, leaf->count, key);
    if (pos < leaf->count && leaf->keys[pos] == key) return false;  // duplicate
    for (uint16_t i = leaf->count; i > pos; i--) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i] = leaf->values[i - 1];
    }
    leaf->keys[pos] = key;
    leaf->values[pos] = value;
    leaf->count++;
    return true;
  }

  /// Split the full `child` (held exclusive) of `inner` (held exclusive,
  /// non-full) at child index `idx`.
  void SplitChild(InnerNode *inner, uint16_t idx, Node *child) {
    IndexKey separator;
    Node *right_node;
    if (child->leaf) {
      auto *leaf = static_cast<LeafNode *>(child);
      auto *right = new LeafNode;
      const uint16_t mid = leaf->count / 2;
      for (uint16_t i = mid; i < leaf->count; i++) {
        right->keys[i - mid] = leaf->keys[i];
        right->values[i - mid] = leaf->values[i];
      }
      right->count = leaf->count - mid;
      leaf->count = mid;
      right->next = leaf->next;
      leaf->next = right;
      separator = right->keys[0];  // copy-up
      right_node = right;
    } else {
      auto *node = static_cast<InnerNode *>(child);
      auto *right = new InnerNode;
      const uint16_t mid = node->count / 2;
      separator = node->keys[mid];  // push-up
      for (uint16_t i = mid + 1; i < node->count; i++) right->keys[i - mid - 1] = node->keys[i];
      for (uint16_t i = mid + 1; i <= node->count; i++) {
        right->children[i - mid - 1] = node->children[i];
      }
      right->count = node->count - mid - 1;
      node->count = mid;
      right_node = right;
    }
    // Insert (separator, right) into the parent at position idx.
    for (uint16_t i = inner->count; i > idx; i--) {
      inner->keys[i] = inner->keys[i - 1];
      inner->children[i + 1] = inner->children[i];
    }
    inner->keys[idx] = separator;
    inner->children[idx + 1] = right_node;
    inner->count++;
  }

  /// Take the root latch exclusively and split the root if it is (still)
  /// full, growing the tree by one level. The manual lock/unlock on the old
  /// root is balanced within this function, so the analysis can check it.
  void GrowRootIfFull() EXCLUDES(root_latch_) {
    common::SharedLatch::ScopedExclusiveLatch guard(&root_latch_);
    Node *old_root = root_;
    if (!IsFull(old_root)) return;  // somebody else grew it
    // Wait for in-flight operations already past the root latch.
    old_root->latch.LockExclusive();
    auto *new_root = new InnerNode;
    new_root->children[0] = old_root;
    SplitChild(new_root, 0, old_root);
    old_root->latch.UnlockExclusive();
    root_ = new_root;
  }

  /// Shared-crab down to the leaf covering `key`; returns it latched shared
  /// (the deliberately unbalanced hand-off capability analysis cannot model).
  const LeafNode *DescendShared(const IndexKey &key) const NO_THREAD_SAFETY_ANALYSIS {
    root_latch_.LockShared();
    const Node *node = root_;
    node->latch.LockShared();
    root_latch_.UnlockShared();
    while (!node->leaf) {
      const auto *inner = static_cast<const InnerNode *>(node);
      const Node *child = inner->children[inner->ChildIndex(key)];
      child->latch.LockShared();
      node->latch.UnlockShared();
      node = child;
    }
    return static_cast<const LeafNode *>(node);
  }

  /// Exclusive-crab down to the leaf covering `key` (no splitting); returns
  /// it latched exclusive.
  LeafNode *DescendExclusive(const IndexKey &key) NO_THREAD_SAFETY_ANALYSIS {
    root_latch_.LockShared();
    Node *node = root_;
    node->latch.LockExclusive();
    root_latch_.UnlockShared();
    while (!node->leaf) {
      auto *inner = static_cast<InnerNode *>(node);
      Node *child = inner->children[inner->ChildIndex(key)];
      child->latch.LockExclusive();
      node->latch.UnlockExclusive();
      node = child;
    }
    return static_cast<LeafNode *>(node);
  }

  void FreeSubtree(Node *node) {
    if (!node->leaf) {
      auto *inner = static_cast<InnerNode *>(node);
      for (uint16_t i = 0; i <= inner->count; i++) FreeSubtree(inner->children[i]);
      delete inner;
    } else {
      delete static_cast<LeafNode *>(node);
    }
  }

  mutable common::SharedLatch root_latch_;
  Node *root_ GUARDED_BY(root_latch_);
  std::atomic<uint64_t> size_{0};
};

}  // namespace mainline::index
