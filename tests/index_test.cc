#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rand_util.h"
#include "index/bplus_tree.h"
#include "index/hash_index.h"

namespace mainline {

using index::BPlusTree;
using index::HashIndex;
using index::IndexKey;
using storage::TupleSlot;

namespace {
IndexKey Key(int64_t k) { return IndexKey().AddSigned(k); }
TupleSlot Slot(uint64_t v) { return TupleSlot::FromRawBytes(v << 20); }

/// A key of `W` or `W - 4` bytes (by the parity of `k`), distinct for every
/// `k`. Its leading 8-byte fields take few values, so order is often decided
/// past the first word, and odd keys exercise zero padding up to `W`.
template <uint32_t W>
IndexKey WideKey(uint64_t k) {
  IndexKey key;
  for (uint32_t field = 0; field + 8 < W; field += 8) {
    key.AddUnsigned<uint64_t>((k / 7 + field) % 3);
  }
  if (k % 2 == 1) return key.AddUnsigned(static_cast<uint32_t>(k));
  return key.AddUnsigned<uint64_t>(k);
}

/// The zero-padded `W` bytes an index of width `W` stores; std::string
/// compares them as unsigned bytes, like memcmp.
template <uint32_t W>
std::string Bytes(const IndexKey &key) {
  return std::string(reinterpret_cast<const char *>(key.Data()), W);
}

std::vector<TupleSlot> Slots(const std::vector<uint64_t> &values) {
  std::vector<TupleSlot> slots;
  for (const uint64_t v : values) slots.push_back(Slot(v));
  return slots;
}
}  // namespace

TEST(IndexKeyTest, OrderPreservingEncodings) {
  // Signed ints across the negative/positive boundary.
  EXPECT_LT(Key(-5), Key(-1));
  EXPECT_LT(Key(-1), Key(0));
  EXPECT_LT(Key(0), Key(1));
  EXPECT_LT(Key(1), Key(INT64_MAX));
  EXPECT_LT(Key(INT64_MIN), Key(-1));
  // Unsigned big-endian.
  EXPECT_LT(IndexKey().AddUnsigned<uint32_t>(1), IndexKey().AddUnsigned<uint32_t>(256));
  // Strings pad with zeros; composite ordering is field-major.
  EXPECT_LT(IndexKey().AddString("ABLE", 8).AddSigned<int32_t>(9),
            IndexKey().AddString("BAR", 8).AddSigned<int32_t>(1));
  EXPECT_LT(IndexKey().AddString("BAR", 8), IndexKey().AddString("BARN", 8));
}

TEST(IndexKeyTest, HashCoversTheWholeKey) {
  EXPECT_EQ(Key(42).Hash(), Key(42).Hash());
  EXPECT_NE(Key(42).Hash(), Key(43).Hash());
  // Keys differing only in their last byte, or only in their width's
  // padding, hash differently.
  IndexKey a, b;
  a.AddString("", 63).AddUnsigned<uint8_t>(1);
  b.AddString("", 63).AddUnsigned<uint8_t>(2);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_NE(IndexKey().AddUnsigned<uint8_t>(0).Hash(), IndexKey().AddString("a", 1).Hash());
}

TEST(IndexKeyTest, FixedWidthCompareMatchesFullCompare) {
  common::Xorshift rng(3);
  for (int i = 0; i < 2000; i++) {
    const IndexKey a = WideKey<40>(rng.Uniform(0, 200)), b = WideKey<40>(rng.Uniform(0, 200));
    index::FixedKey<40> fa, fb;
    ASSERT_TRUE(index::FixedKey<40>::From(a, &fa));
    ASSERT_TRUE(index::FixedKey<40>::From(b, &fb));
    ASSERT_EQ(fa < fb, a < b);
    ASSERT_EQ(fa == fb, a == b);
  }
  EXPECT_EQ(index::RoundUpKeyWidth(0), 8u);
  EXPECT_EQ(index::RoundUpKeyWidth(4), 8u);
  EXPECT_EQ(index::RoundUpKeyWidth(12), 16u);
  EXPECT_EQ(index::RoundUpKeyWidth(40), 40u);
  EXPECT_EQ(index::RoundUpKeyWidth(64), 64u);
}

/// Model-based test: a B+-tree must agree with std::map over a random
/// workload of inserts, deletes, lookups and range scans.
TEST(BPlusTreeTest, AgreesWithStdMap) {
  BPlusTree<8> tree;
  std::map<int64_t, uint64_t> model;
  common::Xorshift rng(1234);

  for (int op = 0; op < 50000; op++) {
    const auto k = static_cast<int64_t>(rng.Uniform(0, 5000));
    switch (rng.Uniform(0, 3)) {
      case 0: {  // insert
        const bool inserted = tree.Insert(Key(k), Slot(static_cast<uint64_t>(op)));
        const bool model_inserted =
            model.emplace(k, static_cast<uint64_t>(op)).second;
        ASSERT_EQ(inserted, model_inserted) << "insert mismatch at key " << k;
        break;
      }
      case 1: {  // delete
        ASSERT_EQ(tree.Delete(Key(k)), model.erase(k) > 0) << "delete mismatch at " << k;
        break;
      }
      case 2: {  // point lookup
        TupleSlot found;
        const auto it = model.find(k);
        ASSERT_EQ(tree.Find(Key(k), &found), it != model.end());
        if (it != model.end()) {
          ASSERT_EQ(found, Slot(it->second));
        }
        break;
      }
      default: {  // range scan
        const int64_t lo = k, hi = k + static_cast<int64_t>(rng.Uniform(0, 200));
        std::vector<TupleSlot> scan;
        tree.ScanAscending(Key(lo), Key(hi), 0, &scan);
        std::vector<TupleSlot> expected;
        for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi; ++it) {
          expected.push_back(Slot(it->second));
        }
        ASSERT_EQ(scan, expected) << "scan mismatch for [" << lo << ", " << hi << "]";
      }
    }
  }
  EXPECT_EQ(tree.Size(), model.size());
}

TEST(BPlusTreeTest, DescendingScanWithLimit) {
  BPlusTree<8> tree;
  for (int64_t i = 0; i < 1000; i++) tree.Insert(Key(i), Slot(static_cast<uint64_t>(i)));
  std::vector<TupleSlot> result;
  tree.ScanDescending(Key(100), Key(200), 3, &result);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], Slot(200));
  EXPECT_EQ(result[1], Slot(199));
  EXPECT_EQ(result[2], Slot(198));
}

TEST(BPlusTreeTest, GrowsPastManySplits) {
  BPlusTree<8> tree;
  constexpr int64_t kKeys = 200000;
  for (int64_t i = 0; i < kKeys; i++) {
    ASSERT_TRUE(tree.Insert(Key(i * 7 % kKeys), Slot(static_cast<uint64_t>(i))));
  }
  EXPECT_EQ(tree.Size(), static_cast<uint64_t>(kKeys));
  EXPECT_GT(tree.Height(), 2u);
  // Everything findable.
  common::Xorshift rng(9);
  for (int i = 0; i < 1000; i++) {
    TupleSlot found;
    ASSERT_TRUE(tree.Find(Key(static_cast<int64_t>(rng.Uniform(0, kKeys - 1))), &found));
  }
}

/// Concurrency: disjoint key ranges inserted in parallel, then everything
/// must be present and ordered; readers scan while writers insert.
TEST(BPlusTreeTest, ConcurrentInsertsAndScans) {
  BPlusTree<8> tree;
  constexpr int kThreads = 8;
  constexpr int64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int64_t i = 0; i < kPerThread; i++) {
        const int64_t k = t * kPerThread + i;
        ASSERT_TRUE(tree.Insert(Key(k), Slot(static_cast<uint64_t>(k))));
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    while (!stop.load()) {
      std::vector<TupleSlot> result;
      tree.ScanAscending(Key(0), Key(kThreads * kPerThread), 0, &result);
      // Results must be sorted (consistency of leaf chain under splits).
      for (size_t i = 1; i < result.size(); i++) {
        ASSERT_LE(result[i - 1].RawBytes(), result[i].RawBytes());
      }
    }
  });
  for (auto &thread : threads) thread.join();
  stop.store(true);
  scanner.join();

  EXPECT_EQ(tree.Size(), static_cast<uint64_t>(kThreads * kPerThread));
  std::vector<TupleSlot> all;
  tree.ScanAscending(Key(0), Key(kThreads * kPerThread), 0, &all);
  ASSERT_EQ(all.size(), static_cast<size_t>(kThreads * kPerThread));
  for (int64_t i = 0; i < kThreads * kPerThread; i++) {
    ASSERT_EQ(all[static_cast<size_t>(i)], Slot(static_cast<uint64_t>(i)));
  }
}

/// MemoryBytes() is the node census: ascending inserts split the rightmost
/// leaf in half every 32 keys once the root has split.
TEST(BPlusTreeTest, MemoryBytesCountsNodes) {
  using Tree = BPlusTree<16>;
  Tree tree;
  EXPECT_LE(Tree::LeafBytes(), 1700u);  // 64 16-byte keys + 64 slots + header
  EXPECT_EQ(tree.MemoryBytes(), Tree::LeafBytes());
  for (int64_t i = 0; i < 64; i++) ASSERT_TRUE(tree.Insert(Key(i), Slot(1)));
  EXPECT_EQ(tree.LeafCount(), 1u);
  EXPECT_EQ(tree.InnerCount(), 0u);
  ASSERT_TRUE(tree.Insert(Key(64), Slot(1)));
  EXPECT_EQ(tree.LeafCount(), 2u);
  EXPECT_EQ(tree.InnerCount(), 1u);
  EXPECT_EQ(tree.MemoryBytes(), 2 * Tree::LeafBytes() + Tree::InnerBytes());
  for (int64_t n = 66; n <= 5000; n++) {
    ASSERT_TRUE(tree.Insert(Key(n - 1), Slot(1)));
    ASSERT_EQ(tree.LeafCount(), static_cast<uint64_t>(2 + (n - 65) / 32)) << "after " << n;
    // The root has 64 children at 64 leaves; the 65th splits it.
    if (tree.LeafCount() <= 64) {
      ASSERT_EQ(tree.InnerCount(), 1u);
    }
    if (tree.LeafCount() == 65) {
      ASSERT_EQ(tree.InnerCount(), 3u);
    }
  }
  EXPECT_EQ(tree.MemoryBytes(),
            tree.LeafCount() * Tree::LeafBytes() + tree.InnerCount() * Tree::InnerBytes());
  // Deleting every key in order frees each emptied leaf that has a sibling:
  // every parent of leaves (each inner node but the root) keeps one empty
  // leaf, and the inner nodes stay.
  ASSERT_EQ(tree.Height(), 3u);
  const uint64_t inners = tree.InnerCount();
  for (int64_t i = 0; i < 5000; i++) ASSERT_TRUE(tree.Delete(Key(i)));
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.InnerCount(), inners);
  EXPECT_EQ(tree.LeafCount(), inners - 1);
  EXPECT_EQ(tree.MemoryBytes(), (inners - 1) * Tree::LeafBytes() + inners * Tree::InnerBytes());
  // The folded tree still routes every key.
  for (int64_t i = 0; i < 5000; i += 7) ASSERT_TRUE(tree.Insert(Key(i), Slot(1)));
  std::vector<TupleSlot> all;
  tree.ScanAscending(Key(0), Key(5000), 0, &all);
  EXPECT_EQ(all.size(), 715u);
}

namespace {
/// Key `seq` of range `range`: ranges are contiguous in key order, like a
/// TPC-C district's orders.
IndexKey RangeKey(int64_t range, int64_t seq) { return IndexKey().AddSigned(range).AddSigned(seq); }
TupleSlot RangeSlot(int64_t range, int64_t seq) {
  return Slot(static_cast<uint64_t>(range) << 24 | static_cast<uint64_t>(seq));
}

/// Leaves a queue-shaped key stream may keep: every leaf that is neither
/// some range's front (partly deleted) or back (being appended to) holds at
/// least half a leaf, i.e. 32 keys; and a parent with one child may keep that
/// child empty.
template <uint32_t W>
uint64_t QueueLeafBound(const BPlusTree<W> &tree, uint64_t ranges) {
  return tree.Size() / 32 + 2 * ranges + tree.InnerCount();
}
}  // namespace

/// A queue per key range, as in TPC-C's NEW_ORDER: keys are appended at the
/// back of each range and deleted from its front. Emptied leaves must be
/// freed, so the leaf count follows the live keys rather than every key ever
/// inserted, and Delivery's limited scan from the front of a range must
/// agree with a std::map throughout. Fronts fall both on a parent's first
/// child (folded with its right sibling) and on later children (folded into
/// their left neighbour).
TEST(BPlusTreeTest, QueueShapedDeletesFreeLeaves) {
  constexpr int64_t kRanges = 8;
  constexpr int kRounds = 400;
  BPlusTree<16> tree;
  std::map<std::pair<int64_t, int64_t>, TupleSlot> oracle;
  std::vector<int64_t> front(kRanges, 0), back(kRanges, 0);
  common::Xorshift rng(30);
  uint64_t inserted = 0;
  for (int round = 0; round < kRounds; round++) {
    for (int64_t r = 0; r < kRanges; r++) {
      for (auto n = rng.Uniform(1, 48); n > 0; n--, back[r]++, inserted++) {
        ASSERT_TRUE(tree.Insert(RangeKey(r, back[r]), RangeSlot(r, back[r])));
        oracle.emplace(std::pair(r, back[r]), RangeSlot(r, back[r]));
      }
      // Hold each range near a live target of its own.
      const int64_t target = 100 + 60 * r;
      const auto deletes = static_cast<int64_t>(
          back[r] - front[r] > target ? rng.Uniform(1, 64) : rng.Uniform(0, 16));
      for (int64_t n = 0; n < deletes && front[r] < back[r]; n++, front[r]++) {
        ASSERT_TRUE(tree.Delete(RangeKey(r, front[r])));
        oracle.erase(std::pair(r, front[r]));
      }
      std::vector<TupleSlot> oldest;
      tree.ScanAscending(RangeKey(r, 0), RangeKey(r, INT32_MAX), 4, &oldest);
      std::vector<TupleSlot> expected;
      for (auto it = oracle.lower_bound({r, 0}); it != oracle.end() && it->first.first == r &&
                                                 expected.size() < 4;
           ++it) {
        expected.push_back(it->second);
      }
      ASSERT_EQ(oldest, expected) << "range " << r << " round " << round;
    }
    ASSERT_EQ(tree.Size(), oracle.size());
    ASSERT_LE(tree.LeafCount(), QueueLeafBound(tree, kRanges))
        << "round " << round << ": " << inserted << " keys inserted";
  }
  // Without frees the leaves would number about inserted / 32.
  EXPECT_LT(tree.LeafCount() * 8, inserted / 32);
  std::vector<TupleSlot> all, expected;
  tree.ScanAscending(RangeKey(0, 0), RangeKey(kRanges, 0), 0, &all);
  for (const auto &[key, slot] : oracle) expected.push_back(slot);
  ASSERT_EQ(all, expected);
  for (int64_t r = 0; r < kRanges; r++) {
    TupleSlot found;
    if (front[r] > 0) {
      EXPECT_FALSE(tree.Find(RangeKey(r, front[r] - 1), &found));
    }
  }
  EXPECT_EQ(tree.MemoryBytes(), tree.LeafCount() * BPlusTree<16>::LeafBytes() +
                                    tree.InnerCount() * BPlusTree<16>::InnerBytes());
}

TEST(HashIndexTest, BasicAndOverwrite) {
  HashIndex<8> idx;
  EXPECT_TRUE(idx.Insert(Key(1), Slot(10)));
  EXPECT_FALSE(idx.Insert(Key(1), Slot(11)));  // duplicate
  EXPECT_TRUE(idx.InsertOverwrite(Key(1), Slot(12)));
  TupleSlot found;
  ASSERT_TRUE(idx.Find(Key(1), &found));
  EXPECT_EQ(found, Slot(12));
  EXPECT_TRUE(idx.Delete(Key(1)));
  EXPECT_FALSE(idx.Delete(Key(1)));
  EXPECT_FALSE(idx.Find(Key(1), &found));
  EXPECT_TRUE(idx.InsertOverwrite(Key(1), Slot(13)));  // absent: inserts
  ASSERT_TRUE(idx.Find(Key(1), &found));
  EXPECT_EQ(found, Slot(13));
}

/// MemoryBytes() sums the shards' array capacities: 256 shards of 8
/// entries at first, each entry a 16-byte key plus hash and slot.
TEST(HashIndexTest, MemoryBytesSumsShardCapacities) {
  HashIndex<16> idx;
  const uint64_t base = sizeof(HashIndex<16>);
  EXPECT_EQ(idx.MemoryBytes(), base + 256 * 8 * 32);
  for (uint64_t k = 0; k < 20000; k++) ASSERT_TRUE(idx.Insert(WideKey<16>(k), Slot(k)));
  const uint64_t entries = (idx.MemoryBytes() - base) / 32;
  EXPECT_EQ((idx.MemoryBytes() - base) % 32, 0u);
  // Load stays at most 1/2 and, with each shard a power of two, above 1/8.
  EXPECT_GE(entries, 2 * 20000u);
  EXPECT_LE(entries, 8 * 20000u);
}

TEST(HashIndexTest, ConcurrentMixedOps) {
  HashIndex<8> idx;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      common::Xorshift rng(static_cast<uint64_t>(t));
      for (int i = 0; i < 20000; i++) {
        const auto k = static_cast<int64_t>(t * 100000 + i);
        ASSERT_TRUE(idx.Insert(Key(k), Slot(static_cast<uint64_t>(k))));
        TupleSlot found;
        ASSERT_TRUE(idx.Find(Key(k), &found));
        if (rng.Uniform(0, 1) == 0) {
          ASSERT_TRUE(idx.Delete(Key(k)));
        }
      }
    });
  }
  for (auto &thread : threads) thread.join();
}

// ---------------------------------------------------------------------------
// Both index types against a shadow std::map, at the widths TPC-C uses.
// ---------------------------------------------------------------------------

namespace {

/// Random inserts, duplicate inserts, overwrites, deletes, finds and (for
/// ordered indexes) ascending and descending scans, each checked against a
/// shadow std::map keyed by the stored bytes. The key space is large enough
/// to double every hash shard several times and split the B+-tree into three
/// levels; deletes empty parts of it again.
template <uint32_t W>
void CheckAgainstShadowMap(index::Index *idx, bool ordered) {
  constexpr uint64_t kKeySpace = 12000;
  std::map<std::string, uint64_t> shadow;
  common::Xorshift rng(W);
  for (uint64_t op = 0; op < 120000; op++) {
    const uint64_t k = rng.Uniform(0, kKeySpace - 1);
    const IndexKey key = WideKey<W>(k);
    const std::string bytes = Bytes<W>(key);
    // Insert-heavy first, delete-heavy later, so arrays grow and then thin.
    const uint64_t inserts = op < 60000 ? 5 : 2;
    const uint64_t dice = rng.Uniform(0, 9);
    if (dice < inserts) {
      ASSERT_EQ(idx->Insert(key, Slot(op)), shadow.emplace(bytes, op).second) << "insert " << k;
    } else if (dice == inserts) {
      ASSERT_TRUE(idx->InsertOverwrite(key, Slot(op))) << "overwrite " << k;
      shadow[bytes] = op;
    } else if (dice <= inserts + 2) {
      TupleSlot found;
      const auto it = shadow.find(bytes);
      ASSERT_EQ(idx->Find(key, &found), it != shadow.end()) << "find " << k;
      if (it != shadow.end()) {
        ASSERT_EQ(found, Slot(it->second)) << "find " << k;
      }
    } else if (dice < 9 || !ordered) {
      ASSERT_EQ(idx->Delete(key), shadow.erase(bytes) > 0) << "delete " << k;
    } else {
      // A range spanning up to ~150 stored keys, so scans cross leaves.
      auto it = shadow.lower_bound(bytes);
      for (uint64_t steps = rng.Uniform(0, 150); steps > 0 && it != shadow.end(); steps--) ++it;
      const IndexKey &lo = key;
      const IndexKey hi = it == shadow.end() ? key : IndexKey().AddString(it->first, W);
      const auto limit = static_cast<uint32_t>(rng.Uniform(0, 3) == 0 ? 0 : rng.Uniform(1, 80));
      std::vector<uint64_t> expected;
      for (auto e = shadow.lower_bound(bytes); e != shadow.end() && e->first <= Bytes<W>(hi); ++e) {
        expected.push_back(e->second);
      }
      std::vector<TupleSlot> ascending, descending;
      idx->ScanAscending(lo, hi, limit, &ascending);
      idx->ScanDescending(lo, hi, limit, &descending);
      const size_t take = limit == 0 ? expected.size() : std::min<size_t>(limit, expected.size());
      ASSERT_EQ(ascending, Slots({expected.begin(), expected.begin() + take})) << "scan " << k;
      ASSERT_EQ(descending, Slots({expected.rbegin(), expected.rbegin() + take})) << "scan " << k;
    }
  }
  ASSERT_EQ(idx->Size(), shadow.size());
  for (uint64_t k = 0; k < kKeySpace; k++) {
    TupleSlot found;
    const auto it = shadow.find(Bytes<W>(WideKey<W>(k)));
    ASSERT_EQ(idx->Find(WideKey<W>(k), &found), it != shadow.end()) << "final find " << k;
    if (it != shadow.end()) {
      ASSERT_EQ(found, Slot(it->second));
    }
  }
  if (ordered) {
    std::vector<TupleSlot> all;
    idx->ScanAscending(WideKey<W>(0), IndexKey().AddString("\xff\xff\xff\xff\xff\xff\xff\xff", W),
                       0, &all);
    std::vector<uint64_t> expected;
    for (const auto &[bytes, value] : shadow) expected.push_back(value);
    ASSERT_EQ(all, Slots(expected));
  }
}

}  // namespace

TEST(IndexOracleTest, BPlusTreeWidth8) {
  BPlusTree<8> tree;
  CheckAgainstShadowMap<8>(&tree, true);
  EXPECT_GE(tree.Height(), 3u);
}
TEST(IndexOracleTest, BPlusTreeWidth16) {
  BPlusTree<16> tree;
  CheckAgainstShadowMap<16>(&tree, true);
  EXPECT_GE(tree.Height(), 3u);
}
TEST(IndexOracleTest, BPlusTreeWidth40) {
  BPlusTree<40> tree;
  CheckAgainstShadowMap<40>(&tree, true);
  EXPECT_GE(tree.Height(), 3u);
}
TEST(IndexOracleTest, HashIndexWidth8) {
  HashIndex<8> idx;
  const uint64_t initial = idx.MemoryBytes();
  CheckAgainstShadowMap<8>(&idx, false);
  EXPECT_GE(idx.MemoryBytes() - sizeof(idx), 8 * (initial - sizeof(idx)));  // 3+ doublings
}
TEST(IndexOracleTest, HashIndexWidth16) {
  HashIndex<16> idx;
  const uint64_t initial = idx.MemoryBytes();
  CheckAgainstShadowMap<16>(&idx, false);
  EXPECT_GE(idx.MemoryBytes() - sizeof(idx), 8 * (initial - sizeof(idx)));
}
TEST(IndexOracleTest, HashIndexWidth40) {
  HashIndex<40> idx;
  const uint64_t initial = idx.MemoryBytes();
  CheckAgainstShadowMap<40>(&idx, false);
  EXPECT_GE(idx.MemoryBytes() - sizeof(idx), 8 * (initial - sizeof(idx)));
}

/// A key wider than the index's width is rejected, never truncated, even
/// when its first `W` bytes equal a stored key.
TEST(IndexWidthTest, RejectsWiderKeys) {
  for (const bool ordered : {true, false}) {
    std::unique_ptr<index::Index> idx = ordered ? index::MakeIndex<BPlusTree>(8)
                                                : index::MakeIndex<HashIndex>(8);
    const IndexKey stored = Key(5);
    const IndexKey wide = IndexKey().AddSigned<int64_t>(5).AddSigned<int32_t>(0);
    ASSERT_TRUE(idx->Insert(stored, Slot(1)));
    TupleSlot found;
    EXPECT_FALSE(idx->Insert(wide, Slot(2)));
    EXPECT_FALSE(idx->InsertOverwrite(wide, Slot(3)));
    EXPECT_FALSE(idx->Find(wide, &found));
    EXPECT_FALSE(idx->Delete(wide));
    EXPECT_EQ(idx->Size(), 1u);
    ASSERT_TRUE(idx->Find(stored, &found));
    EXPECT_EQ(found, Slot(1));
    if (ordered) {
      std::vector<TupleSlot> scan;
      idx->ScanAscending(Key(0), wide, 0, &scan);
      idx->ScanAscending(wide, Key(9), 0, &scan);
      idx->ScanDescending(Key(0), wide, 0, &scan);
      EXPECT_TRUE(scan.empty());
      idx->ScanAscending(Key(0), Key(9), 0, &scan);
      EXPECT_EQ(scan.size(), 1u);
    }
  }
  // Narrower keys are zero-padded to the width: a 12-byte key in a 16-byte
  // index.
  std::unique_ptr<index::Index> idx = index::MakeIndex<BPlusTree>(12);
  const IndexKey narrow = IndexKey().AddSigned<int32_t>(1).AddSigned<int64_t>(2);
  EXPECT_TRUE(idx->Insert(narrow, Slot(4)));
  EXPECT_TRUE(idx->Insert(IndexKey().AddSigned<int32_t>(1).AddSigned<int64_t>(2).AddSigned<int32_t>(0),
                          Slot(5)));  // 16 bytes: a different key
  EXPECT_EQ(idx->Size(), 2u);
}

/// InsertOverwrite is one replace-or-insert: a reader never misses a key
/// that is present before and after each overwrite.
template <typename IndexT>
void CheckOverwriteIsAtomic() {
  IndexT idx;
  // Neighbours share the key's leaf and shard.
  for (int64_t k = 0; k < 64; k++) ASSERT_TRUE(idx.Insert(Key(k), Slot(0)));
  constexpr uint64_t kOverwrites = 100000;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> misses{0};
  std::thread reader([&] {
    TupleSlot found;
    while (!done.load()) {
      if (!idx.Find(Key(31), &found)) misses.fetch_add(1);
    }
  });
  for (uint64_t i = 1; i <= kOverwrites; i++) idx.InsertOverwrite(Key(31), Slot(i));
  done.store(true);
  reader.join();
  EXPECT_EQ(misses.load(), 0u);
  TupleSlot found;
  ASSERT_TRUE(idx.Find(Key(31), &found));
  EXPECT_EQ(found, Slot(kOverwrites));
  EXPECT_EQ(idx.Size(), 64u);
}

TEST(IndexOverwriteTest, BPlusTreeReaderNeverMissesTheKey) {
  CheckOverwriteIsAtomic<BPlusTree<8>>();
}
TEST(IndexOverwriteTest, HashIndexReaderNeverMissesTheKey) {
  CheckOverwriteIsAtomic<HashIndex<8>>();
}

/// Concurrent writers against a deterministic oracle: inserters add the even
/// keys over interleaved ranges (forcing leaf splits everywhere) while
/// deleters remove a third of the pre-loaded odd keys and scanners check
/// that every scan comes back in key order.
template <typename IndexT, uint32_t W>
void CheckConcurrentAgainstOracle(bool ordered) {
  constexpr uint64_t kKeys = 24000;  // keys 0..kKeys-1
  constexpr int kInserters = 3, kDeleters = 2, kScanners = 2;
  IndexT idx;
  for (uint64_t k = 1; k < kKeys; k += 2) ASSERT_TRUE(idx.Insert(WideKey<W>(k), Slot(k)));
  auto deleted = [](uint64_t k) { return k % 2 == 1 && (k / 2) % 3 == 0; };

  std::vector<std::thread> writers;
  for (int t = 0; t < kInserters; t++) {
    writers.emplace_back([&, t] {
      for (uint64_t k = 2 * static_cast<uint64_t>(t); k < kKeys; k += 2 * kInserters) {
        ASSERT_TRUE(idx.Insert(WideKey<W>(k), Slot(k)));
      }
    });
  }
  for (int t = 0; t < kDeleters; t++) {
    writers.emplace_back([&, t] {
      for (uint64_t k = 1 + 6 * static_cast<uint64_t>(t); k < kKeys; k += 6 * kDeleters) {
        ASSERT_TRUE(deleted(k));
        ASSERT_TRUE(idx.Delete(WideKey<W>(k)));
      }
    });
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int t = 0; ordered && t < kScanners; t++) {
    scanners.emplace_back([&, t] {
      common::Xorshift rng(static_cast<uint64_t>(t));
      while (!stop.load()) {
        const uint64_t lo = rng.Uniform(0, kKeys - 1), hi = rng.Uniform(lo, kKeys - 1);
        std::vector<TupleSlot> result;
        idx.ScanAscending(WideKey<W>(lo), WideKey<W>(hi), 0, &result);
        // Every returned slot names its key; keys must come back ascending.
        for (size_t i = 1; i < result.size(); i++) {
          const uint64_t prev = result[i - 1].RawBytes() >> 20, cur = result[i].RawBytes() >> 20;
          ASSERT_LT(Bytes<W>(WideKey<W>(prev)), Bytes<W>(WideKey<W>(cur)));
        }
      }
    });
  }
  for (auto &thread : writers) thread.join();
  stop.store(true);
  for (auto &thread : scanners) thread.join();

  std::map<std::string, uint64_t> oracle;
  for (uint64_t k = 0; k < kKeys; k++) {
    if (!deleted(k)) oracle.emplace(Bytes<W>(WideKey<W>(k)), k);
  }
  ASSERT_EQ(idx.Size(), oracle.size());
  for (uint64_t k = 0; k < kKeys; k++) {
    TupleSlot found;
    ASSERT_EQ(idx.Find(WideKey<W>(k), &found), !deleted(k)) << "key " << k;
    if (!deleted(k)) {
      ASSERT_EQ(found, Slot(k));
    }
  }
  if (ordered) {
    std::vector<TupleSlot> all;
    idx.ScanAscending(IndexKey(), IndexKey().AddString("\xff\xff\xff\xff\xff\xff\xff\xff", W), 0,
                      &all);
    std::vector<uint64_t> expected;
    for (const auto &[bytes, k] : oracle) expected.push_back(k);
    ASSERT_EQ(all, Slots(expected));
  }
}

/// Concurrent queues, TPC-C Delivery style: per key range, an appender adds
/// keys at the back while a deleter finds the oldest key with a limited
/// ScanAscending from the range's start and deletes it, so leaves empty and
/// are freed under scans. Full-range scanners check against the progress
/// counters: a scan returns keys in order, every key it returns was live at
/// some point during the scan, and every key live throughout it is returned.
TEST(IndexConcurrencyTest, BPlusTreeFreesLeavesUnderQueueScans) {
  constexpr int64_t kRanges = 3, kPerRange = 12000, kKeep = 500;
  BPlusTree<16> tree;
  std::vector<std::atomic<int64_t>> appended(kRanges), deleted(kRanges);
  std::vector<std::thread> writers;
  for (int64_t r = 0; r < kRanges; r++) {
    writers.emplace_back([&, r] {
      for (int64_t seq = 0; seq < kPerRange; seq++) {
        ASSERT_TRUE(tree.Insert(RangeKey(r, seq), RangeSlot(r, seq)));
        appended[r].store(seq + 1);
      }
    });
    writers.emplace_back([&, r] {
      int64_t next = 0;
      while (next < kPerRange - kKeep) {
        std::vector<TupleSlot> oldest;
        tree.ScanAscending(RangeKey(r, 0), RangeKey(r, INT32_MAX), 4, &oldest);
        if (oldest.empty()) {
          std::this_thread::yield();
          continue;
        }
        // Only this thread deletes from the range, and it appends in order,
        // so the oldest keys are the next ones, consecutive.
        for (size_t i = 0; i < oldest.size(); i++) {
          ASSERT_EQ(oldest[i], RangeSlot(r, next + static_cast<int64_t>(i)));
        }
        ASSERT_TRUE(tree.Delete(RangeKey(r, next)));
        deleted[r].store(++next);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; t++) {
    scanners.emplace_back([&] {
      while (!stop.load()) {
        std::vector<int64_t> deleted_before(kRanges), appended_before(kRanges);
        for (int64_t r = 0; r < kRanges; r++) {
          deleted_before[r] = deleted[r].load();
          appended_before[r] = appended[r].load();
        }
        std::vector<TupleSlot> all;
        tree.ScanAscending(RangeKey(0, 0), RangeKey(kRanges, 0), 0, &all);
        std::vector<std::vector<int64_t>> seqs(kRanges);
        for (size_t i = 0; i < all.size(); i++) {
          if (i > 0) {
            ASSERT_LT(all[i - 1].RawBytes(), all[i].RawBytes());
          }
          const uint64_t v = all[i].RawBytes() >> 20;
          seqs[v >> 24].push_back(static_cast<int64_t>(v & ((1u << 24) - 1)));
        }
        for (int64_t r = 0; r < kRanges; r++) {
          // Each counter lags its operation, so one key per range may be
          // in flight: `deleted_after` may be gone and `appended_after` may
          // already be visible.
          const int64_t deleted_after = deleted[r].load(), appended_after = appended[r].load();
          for (const int64_t seq : seqs[r]) {
            ASSERT_GE(seq, deleted_before[r]);
            ASSERT_LE(seq, appended_after);
          }
          auto it = std::lower_bound(seqs[r].begin(), seqs[r].end(), deleted_after + 1);
          for (int64_t seq = deleted_after + 1; seq < appended_before[r]; seq++, ++it) {
            ASSERT_TRUE(it != seqs[r].end() && *it == seq)
                << "range " << r << " missed live key " << seq;
          }
        }
      }
    });
  }
  for (auto &thread : writers) thread.join();
  stop.store(true);
  for (auto &thread : scanners) thread.join();

  ASSERT_EQ(tree.Size(), static_cast<uint64_t>(kRanges * kKeep));
  std::vector<TupleSlot> all, expected;
  tree.ScanAscending(RangeKey(0, 0), RangeKey(kRanges, 0), 0, &all);
  for (int64_t r = 0; r < kRanges; r++) {
    for (int64_t seq = kPerRange - kKeep; seq < kPerRange; seq++) {
      expected.push_back(RangeSlot(r, seq));
    }
  }
  ASSERT_EQ(all, expected);
  EXPECT_LE(tree.LeafCount(), QueueLeafBound(tree, kRanges));
}

TEST(IndexConcurrencyTest, BPlusTreeSplitsUnderDeletesAndScans) {
  CheckConcurrentAgainstOracle<BPlusTree<16>, 16>(true);
}
TEST(IndexConcurrencyTest, HashIndexGrowsUnderDeletes) {
  CheckConcurrentAgainstOracle<HashIndex<16>, 16>(false);
}

}  // namespace mainline
