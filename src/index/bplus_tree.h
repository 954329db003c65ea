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

/// A concurrent B+-tree over keys at most `W` bytes wide, with
/// reader-writer latch crabbing. Nodes hold each key in exactly `W` bytes.
///
/// Substitutes for the paper's OpenBw-Tree, a latch-free Bw-Tree: a latched
/// B+-tree is far less code, and the experiments exercise indexes only as a
/// per-operation constant cost, which any correct concurrent ordered index
/// preserves.
///
/// Concurrency protocol:
///  - Every descent reads `root_` under the root latch held shared, latches
///    the root node, then releases the root latch. Only growing the tree by
///    a level takes the root latch exclusive.
///  - Readers descend with shared-latch crabbing (latch child, release
///    parent). Range scans traverse the leaf chain hand-over-hand
///    left-to-right, which is deadlock-free because no writer holding a leaf
///    waits for a node left of it.
///  - Insert, InsertOverwrite and Delete descend the same way, shared on
///    inner nodes, and latch only the leaf exclusive. A write that fits in
///    its leaf touches nothing else, so it needs no more.
///  - An insert whose leaf is full (about one in 32) releases it and starts
///    again from the root with exclusive-latch crabbing, splitting full nodes
///    preemptively on the way down, so an insertion never propagates back up.
///  - A delete that empties its leaf releases it and starts again from the
///    root with exclusive-latch crabbing down to the leaf's parent. Holding
///    the parent, it latches two adjacent children left then right: the
///    emptied leaf's left neighbour and the leaf, or, for an empty first
///    child, the leaf and its right sibling. If the leaf is still empty, the
///    left one of the pair takes the right one's keys (none, unless it is the
///    empty first child) and `next`, the parent drops the separator between
///    them, and the right one is freed at once (free-at-empty, after Johnson
///    & Shasha, JCSS 1993). A parent with one child keeps it even if empty,
///    and inner nodes are never freed, so a structurally empty leaf is still
///    a valid routing target.
///  - Latches are taken top-down, and left-to-right between leaves.
///
/// The immediate free is safe because a leaf pointer is only ever followed
/// while holding the latch of the leaf's parent (descents) or of its left
/// neighbour (hand-over-hand scans). The folding thread holds both
/// exclusive, and then the freed leaf's own latch, so no thread is inside
/// the leaf or waiting for it, and none can reach it afterwards.
///
/// Hand-over-hand latching acquires a child before releasing its parent and
/// returns latched nodes across function boundaries — a protocol Clang's
/// capability analysis cannot express (it requires lock/unlock balance within
/// each function). The traversal bodies are therefore isolated in
/// NO_THREAD_SAFETY_ANALYSIS helpers; the invariants they rely on are the
/// documented crabbing protocol above, checked by the TSan stress lane
/// instead.
template <uint32_t W>
class BPlusTree final : public Index {
  using Key = FixedKey<W>;

 public:
  static constexpr uint16_t kLeafCapacity = 64;
  static constexpr uint16_t kInnerCapacity = 64;  // max children per inner node

  BPlusTree() : root_(NewLeaf()) {}
  DISALLOW_COPY_AND_MOVE(BPlusTree)

  ~BPlusTree() override { FreeSubtree(root_); }

  bool Insert(const IndexKey &key, storage::TupleSlot value) override {
    Key k;
    return Key::From(key, &k) && Write(k, value, false);
  }

  bool InsertOverwrite(const IndexKey &key, storage::TupleSlot value) override {
    Key k;
    return Key::From(key, &k) && Write(k, value, true);
  }

  bool Delete(const IndexKey &key) override {
    Key k;
    return Key::From(key, &k) && DeleteImpl(k);
  }

  bool Find(const IndexKey &key, storage::TupleSlot *out) const override {
    Key k;
    return Key::From(key, &k) && FindImpl(k, out);
  }

  void ScanAscending(const IndexKey &lo, const IndexKey &hi, uint32_t limit,
                     std::vector<storage::TupleSlot> *out) const override {
    Key l, h;
    if (Key::From(lo, &l) && Key::From(hi, &h)) ScanAscendingImpl(l, h, limit, out);
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

  uint64_t MemoryBytes() const override {
    return LeafCount() * LeafBytes() + InnerCount() * InnerBytes();
  }

  /// Node census behind MemoryBytes(). Splits add nodes and folding an
  /// emptied leaf frees one, so LeafCount() falls as well as rises; inner
  /// nodes are freed only with the tree, so InnerCount() only grows.
  // relaxed: counts published for diagnostics only; the latches order the
  // nodes themselves.
  uint64_t LeafCount() const { return leaves_.load(std::memory_order_relaxed); }
  // relaxed: as LeafCount.
  uint64_t InnerCount() const { return inners_.load(std::memory_order_relaxed); }
  static constexpr size_t LeafBytes() { return sizeof(LeafNode); }
  static constexpr size_t InnerBytes() { return sizeof(InnerNode); }

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
  enum class Outcome { kInserted, kPresent, kFull };

  // Insert, or with `overwrite` replace, under one exclusive leaf latch.
  // The leaf comes back latched from DescendForWrite and is released here,
  // which the analysis cannot pair with its acquisition.
  bool Write(const Key &key, storage::TupleSlot value, bool overwrite) NO_THREAD_SAFETY_ANALYSIS {
    LeafNode *leaf = DescendForWrite(key);
    Outcome outcome = LeafWrite(leaf, key, value, overwrite);
    leaf->latch.UnlockExclusive();
    if (outcome == Outcome::kFull) outcome = WriteSplitting(key, value, overwrite);
    if (outcome != Outcome::kInserted) return overwrite;
    // relaxed: the counter is a diagnostic tally, not a synchronization
    // point — the leaf latch above ordered the structural change.
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Exclusive-crabbing write that splits full nodes on the way down: holds
  // at most two node latches at once (parent + child), releasing the parent
  // only after the child is held. The leaf it reaches is never full.
  Outcome WriteSplitting(const Key &key, storage::TupleSlot value,
                         bool overwrite) NO_THREAD_SAFETY_ANALYSIS {
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
      const Outcome outcome = LeafWrite(leaf, key, value, overwrite);
      leaf->latch.UnlockExclusive();
      return outcome;
    }
  }

  // Remove under the leaf's exclusive latch; same cross-function hand-off.
  bool DeleteImpl(const Key &key) NO_THREAD_SAFETY_ANALYSIS {
    LeafNode *leaf = DescendForWrite(key);
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
    const bool emptied = found && leaf->count == 0;
    leaf->latch.UnlockExclusive();
    if (emptied) FoldEmptyLeaf(key);
    return found;
  }

  // Free the leaf covering `key` if it is still empty and has a sibling
  // under its parent (see the class comment). Exclusive crabbing as in
  // WriteSplitting, down to the parent, which stays held to the end.
  void FoldEmptyLeaf(const Key &key) NO_THREAD_SAFETY_ANALYSIS {
    root_latch_.LockShared();
    Node *node = root_;
    node->latch.LockExclusive();
    root_latch_.UnlockShared();
    if (node->leaf) {  // a lone root leaf has no parent to fold it out of
      node->latch.UnlockExclusive();
      return;
    }
    auto *parent = static_cast<InnerNode *>(node);
    uint16_t idx = parent->ChildIndex(key);
    // `leaf` is fixed at construction, so a child's kind is known unlatched.
    while (!parent->children[idx]->leaf) {
      auto *child = static_cast<InnerNode *>(parent->children[idx]);
      child->latch.LockExclusive();
      parent->latch.UnlockExclusive();
      parent = child;
      idx = parent->ChildIndex(key);
    }
    if (parent->count > 0) {
      const uint16_t l = idx == 0 ? 0 : idx - 1;
      auto *left = static_cast<LeafNode *>(parent->children[l]);
      auto *right = static_cast<LeafNode *>(parent->children[l + 1]);
      left->latch.LockExclusive();
      right->latch.LockExclusive();
      if ((idx == 0 ? left : right)->count == 0) {
        std::copy_n(right->keys, right->count, left->keys + left->count);
        std::copy_n(right->values, right->count, left->values + left->count);
        left->count += right->count;
        left->next = right->next;
        for (uint16_t i = l; i + 1 < parent->count; i++) {
          parent->keys[i] = parent->keys[i + 1];
          parent->children[i + 1] = parent->children[i + 2];
        }
        parent->count--;
        right->latch.UnlockExclusive();
        // relaxed: census tally only (see LeafCount).
        leaves_.fetch_sub(1, std::memory_order_relaxed);
        delete right;
      } else {
        right->latch.UnlockExclusive();
      }
      left->latch.UnlockExclusive();
    }
    parent->latch.UnlockExclusive();
  }

  // Point lookup via shared crab-down; same cross-function latch hand-off.
  bool FindImpl(const Key &key, storage::TupleSlot *out) const NO_THREAD_SAFETY_ANALYSIS {
    const LeafNode *leaf = DescendShared(key);
    const uint16_t pos = LowerBound(leaf->keys, leaf->count, key);
    const bool found = pos < leaf->count && leaf->keys[pos] == key;
    if (found) *out = leaf->values[pos];
    leaf->latch.UnlockShared();
    return found;
  }

  // Leaf-chain traversal: hand-over-hand left-to-right across siblings.
  void ScanAscendingImpl(const Key &lo, const Key &hi, uint32_t limit,
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
    Key keys[kLeafCapacity];
    storage::TupleSlot values[kLeafCapacity];
    LeafNode *next = nullptr;
  };

  struct InnerNode : Node {
    InnerNode() : Node(false) {}
    Key keys[kInnerCapacity - 1];
    Node *children[kInnerCapacity];

    /// \return index of the child subtree that covers `key` (keys equal to a
    /// separator route right, matching leaf-split copy-up semantics).
    uint16_t ChildIndex(const Key &key) const {
      return static_cast<uint16_t>(std::upper_bound(keys, keys + this->count, key) - keys);
    }
  };

  static bool IsFull(const Node *node) {
    return node->leaf ? node->count == kLeafCapacity : node->count == kInnerCapacity - 1;
  }

  static uint16_t LowerBound(const Key *keys, uint16_t count, const Key &key) {
    return static_cast<uint16_t>(std::lower_bound(keys, keys + count, key) - keys);
  }

  /// Insert `key` into `leaf` (held exclusive), or with `overwrite` replace
  /// its value if present. A full leaf is left unchanged unless the key is
  /// already there.
  static Outcome LeafWrite(LeafNode *leaf, const Key &key, storage::TupleSlot value,
                           bool overwrite) {
    const uint16_t pos = LowerBound(leaf->keys, leaf->count, key);
    if (pos < leaf->count && leaf->keys[pos] == key) {
      if (overwrite) leaf->values[pos] = value;
      return Outcome::kPresent;
    }
    if (IsFull(leaf)) return Outcome::kFull;
    for (uint16_t i = leaf->count; i > pos; i--) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i] = leaf->values[i - 1];
    }
    leaf->keys[pos] = key;
    leaf->values[pos] = value;
    leaf->count++;
    return Outcome::kInserted;
  }

  LeafNode *NewLeaf() {
    // relaxed: census tally only (see LeafCount).
    leaves_.fetch_add(1, std::memory_order_relaxed);
    return new LeafNode;
  }

  InnerNode *NewInner() {
    // relaxed: census tally only (see LeafCount).
    inners_.fetch_add(1, std::memory_order_relaxed);
    return new InnerNode;
  }

  /// Split the full `child` (held exclusive) of `inner` (held exclusive,
  /// non-full) at child index `idx`.
  void SplitChild(InnerNode *inner, uint16_t idx, Node *child) {
    Key separator;
    Node *right_node;
    if (child->leaf) {
      auto *leaf = static_cast<LeafNode *>(child);
      auto *right = NewLeaf();
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
      auto *right = NewInner();
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
    // Wait for in-flight operations already past the root latch: a split
    // below or a fold may still change the root's count.
    old_root->latch.LockExclusive();
    if (!IsFull(old_root)) {  // somebody else grew it, or a fold shrank it
      old_root->latch.UnlockExclusive();
      return;
    }
    auto *new_root = NewInner();
    new_root->children[0] = old_root;
    SplitChild(new_root, 0, old_root);
    old_root->latch.UnlockExclusive();
    root_ = new_root;
  }

  /// Shared-crab down to the leaf covering `key`; returns it latched shared
  /// (the deliberately unbalanced hand-off capability analysis cannot model).
  const LeafNode *DescendShared(const Key &key) const NO_THREAD_SAFETY_ANALYSIS {
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

  /// Shared-crab down the inner nodes to the leaf covering `key` (no
  /// splitting); returns the leaf latched exclusive. `leaf` is fixed at
  /// construction, so a node's kind is known before it is latched.
  LeafNode *DescendForWrite(const Key &key) NO_THREAD_SAFETY_ANALYSIS {
    root_latch_.LockShared();
    Node *node = root_;
    LatchForWrite(node);
    root_latch_.UnlockShared();
    while (!node->leaf) {
      auto *inner = static_cast<InnerNode *>(node);
      Node *child = inner->children[inner->ChildIndex(key)];
      LatchForWrite(child);
      inner->latch.UnlockShared();
      node = child;
    }
    return static_cast<LeafNode *>(node);
  }

  static void LatchForWrite(Node *node) NO_THREAD_SAFETY_ANALYSIS {
    if (node->leaf) {
      node->latch.LockExclusive();
    } else {
      node->latch.LockShared();
    }
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

  // Declared before root_, whose initializer counts the first leaf.
  std::atomic<uint64_t> leaves_{0};
  std::atomic<uint64_t> inners_{0};
  mutable common::SharedLatch root_latch_;
  Node *root_ GUARDED_BY(root_latch_);
  std::atomic<uint64_t> size_{0};
};

}  // namespace mainline::index
