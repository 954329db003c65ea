#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/worker_pool.h"

namespace mainline::execution {

/// One build-side row of a hash join: the 8-byte join key plus an 8-byte
/// payload the probe side consumes per match. Callers with wider payloads
/// pack an index into a side array; the join operators in tpch_queries pack
/// the (small) aggregate input directly.
struct JoinEntry {
  int64_t key;
  uint64_t payload;
};

/// The build side of a morsel-parallel equi-join over int64 keys (Section
/// 4.1's dual access path underneath, morsel-driven on top). Build picks one
/// of two layouts from the span of the build keys, by one fixed rule:
///
///  - **Dense** when `max − min < kDenseSlotsPerEntry × entries` (computed in
///    unsigned 64-bit, so INT64_MIN with INT64_MAX cannot overflow): a CSR
///    layout (compressed sparse rows). `offsets[key − min]` is where key's
///    entries start in `payloads` and `offsets[key − min + 1]` where they
///    end. A probe is one bounds check and one or two array loads, and the
///    offsets double as the filter. Surrogate keys handed out in sequence —
///    TPC-H `*_KEY` columns, TPC-C ids, auto-increment ids — land here.
///  - **Hashed** otherwise: 64 open-addressing partitions, each fronted by a
///    blocked Bloom filter.
///
/// The rule is memory-neutral. A hashed entry costs at least two 17-byte
/// slots (load factor <= 0.5, 16-byte entry plus its occupancy byte) and one
/// Bloom byte: 35 bytes. A dense table costs 8 bytes per entry plus 4 per
/// key of the span, under 32 bytes per entry below the threshold — so the
/// dense layout is never the larger one.
///
/// The build has no sequential step over the entries, and no locks:
///
///  1. **Scan**: op::HashJoinBuildOp's pipeline hands block-granular morsels
///     to the worker pool; each worker appends its block's (key, payload)
///     pairs, in row order, to a per-block-ordinal BlockEntries (disjoint
///     writes, like the query engines' per-block partials), which records
///     the block's key range.
///  2. **Build**, dense: one task per key range zeroes and counts its slice
///     of the offsets, reading only the blocks whose key range overlaps its
///     own; a short in-order prefix sum over the range totals places the
///     ranges; then each task turns its slice into start offsets and
///     scatters its payloads, walking the blocks in ordinal order.
///     Hashed: one task per run of blocks groups each block's entries by
///     hash prefix (a stable counting sort); then one task per partition
///     inserts that partition's share of every block in ordinal order and
///     fills the partition's Bloom filter.
///
/// Either way, the entries of one key come out in block-then-row order, so
/// ForEachMatch visits duplicates in that order in both layouts, at any
/// worker count. Probes never mutate the table, so any number of threads
/// may probe concurrently.
class JoinHashTable {
 public:
  /// Hashed-layout partition count: enough to keep a pool of workers busy
  /// while keeping each block's partition offsets small.
  static constexpr uint32_t kNumPartitions = 64;
  /// The dense-layout rule's constant (see the class comment).
  static constexpr uint64_t kDenseSlotsPerEntry = 6;

  enum class Layout : uint8_t { kDense, kHashed };

  /// One block's build entries, in the block's row order, and the range of
  /// their keys.
  struct BlockEntries {
    std::vector<JoinEntry> entries;
    int64_t min_key = std::numeric_limits<int64_t>::max();
    int64_t max_key = std::numeric_limits<int64_t>::min();

    /// Replace the contents with `rows` and record their key range.
    void Assign(std::vector<JoinEntry> rows) {
      entries = std::move(rows);
      min_key = std::numeric_limits<int64_t>::max();
      max_key = std::numeric_limits<int64_t>::min();
      for (const JoinEntry &entry : entries) {
        min_key = std::min(min_key, entry.key);
        max_key = std::max(max_key, entry.key);
      }
    }
  };

  JoinHashTable() = default;

  DISALLOW_COPY(JoinHashTable)
  JoinHashTable(JoinHashTable &&) noexcept = default;
  JoinHashTable &operator=(JoinHashTable &&) noexcept = default;

  /// Step 2 of the build, over the per-block-ordinal entries step 1
  /// produced (consumed: a hashed build regroups them in place). Parallel
  /// over `pool`; a null/zero-worker/shut-down pool degrades to an inline
  /// build on the calling thread.
  static JoinHashTable Build(std::vector<BlockEntries> per_block, common::WorkerPool *pool);

  /// Call `fn(probe)` with the probe of this table's layout: an object with
  /// `ForEachMatch(key, each)` and `Contains(key)` as below. A caller probing
  /// many keys branches on the layout once, not once per key.
  template <typename Fn>
  decltype(auto) WithProbe(Fn &&fn) const {
    if (layout_ == Layout::kDense) {
      return fn(DenseProbe{min_key_, num_slots_, offsets_.get(), payloads_.get()});
    }
    return fn(HashedProbe{&partitions_});
  }

  /// Invoke `fn(payload)` for every build entry whose key equals `key`, in
  /// the block-then-row order described above. Thread-safe.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn &&fn) const {
    WithProbe([&](const auto &probe) { probe.ForEachMatch(key, fn); });
  }

  /// \return whether at least one build entry has key `key`. Thread-safe.
  bool Contains(int64_t key) const {
    return WithProbe([key](const auto &probe) { return probe.Contains(key); });
  }

  /// \return total number of build entries.
  uint64_t NumEntries() const { return num_entries_; }

  bool Empty() const { return num_entries_ == 0; }

  Layout GetLayout() const { return layout_; }

  /// \return the bytes the table's arrays hold (EXPLAIN's table_bytes).
  uint64_t TableBytes() const;

  /// 64-bit mix of a join key (splitmix64 finalizer): the top bits pick the
  /// partition, the low bits the slot and the Bloom word, and bits 40-57
  /// the three Bloom bits, so partition, slot and filter bits are
  /// independent.
  static uint64_t HashKey(int64_t key) {
    auto x = static_cast<uint64_t>(key);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

 private:
  static constexpr uint32_t kPartitionShift = 64 - 6;  // 2^6 == kNumPartitions
  static_assert((uint32_t{1} << (64 - kPartitionShift)) == kNumPartitions,
                "partition shift must match the partition count");

  /// One block's hashed-build bounds: partition p's entries are
  /// entries[bounds[p], bounds[p + 1]) once the block is grouped.
  using PartitionBounds = std::array<uint32_t, kNumPartitions + 1>;

  /// The three bits a key sets in its Bloom filter word.
  static uint64_t BloomBits(uint64_t h) {
    return (uint64_t{1} << ((h >> 40) & 63)) | (uint64_t{1} << ((h >> 46) & 63)) |
           (uint64_t{1} << ((h >> 52) & 63));
  }

  /// One open-addressing sub-table (linear probing, power-of-two capacity,
  /// load factor <= 0.5, no tombstones — the table is insert-only) behind a
  /// blocked Bloom filter: one 64-bit word per key, a power-of-two word count
  /// giving at least 8 bits per entry. An empty partition has no filter
  /// words and rejects every key.
  struct Partition {
    std::vector<JoinEntry> slots;
    std::vector<uint8_t> used;
    std::vector<uint64_t> bloom;
    uint64_t mask = 0;  ///< slots.size() - 1

    bool MayContain(uint64_t h) const {
      if (bloom.empty()) return false;
      const uint64_t bits = BloomBits(h);
      return (bloom[h & (bloom.size() - 1)] & bits) == bits;
    }

    /// Insert partition `p`'s `count` entries from every grouped block, in
    /// ordinal order.
    void BuildFrom(const std::vector<BlockEntries> &per_block,
                   const std::vector<PartitionBounds> &bounds, uint32_t p, uint64_t count);
  };

  /// Position of `key` in the dense offsets: out of range (>= num_slots)
  /// for keys outside [min, max], those below min wrapping around to huge
  /// values.
  static uint64_t DenseIndex(int64_t key, int64_t min_key) {
    return static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key);
  }
  uint64_t DenseIndex(int64_t key) const { return DenseIndex(key, min_key_); }

  /// The dense layout's probe: one bounds check, then the key's offsets.
  struct DenseProbe {
    int64_t min_key;
    uint64_t num_slots;
    const uint32_t *offsets;
    const uint64_t *payloads;

    template <typename Fn>
    void ForEachMatch(int64_t key, Fn &&fn) const {
      const uint64_t i = DenseIndex(key, min_key);
      if (i >= num_slots) return;
      for (uint32_t e = offsets[i], end = offsets[i + 1]; e < end; e++) fn(payloads[e]);
    }

    bool Contains(int64_t key) const {
      const uint64_t i = DenseIndex(key, min_key);
      return i < num_slots && offsets[i] != offsets[i + 1];
    }
  };

  /// The hashed layout's probe: the partition's Bloom word, then its slots.
  struct HashedProbe {
    const std::array<Partition, kNumPartitions> *partitions;

    template <typename Fn>
    void ForEachMatch(int64_t key, Fn &&fn) const {
      const uint64_t h = HashKey(key);
      const Partition &p = (*partitions)[h >> kPartitionShift];
      if (!p.MayContain(h)) return;
      for (uint64_t i = h & p.mask;; i = (i + 1) & p.mask) {
        if (!p.used[i]) return;
        if (p.slots[i].key == key) fn(p.slots[i].payload);
      }
    }

    bool Contains(int64_t key) const {
      const uint64_t h = HashKey(key);
      const Partition &p = (*partitions)[h >> kPartitionShift];
      if (!p.MayContain(h)) return false;
      for (uint64_t i = h & p.mask;; i = (i + 1) & p.mask) {
        if (!p.used[i]) return false;
        if (p.slots[i].key == key) return true;
      }
    }
  };

  void BuildDense(const std::vector<BlockEntries> &per_block, common::WorkerPool *pool);
  void BuildHashed(std::vector<BlockEntries> *per_block, common::WorkerPool *pool);

  Layout layout_ = Layout::kHashed;
  uint64_t num_entries_ = 0;

  // Dense layout.
  int64_t min_key_ = 0;
  uint64_t num_slots_ = 0;                ///< max − min + 1 keys; 0 when hashed
  std::unique_ptr<uint32_t[]> offsets_;   ///< num_slots_ + 1 entry offsets
  std::unique_ptr<uint64_t[]> payloads_;  ///< num_entries_ payloads, by key

  // Hashed layout.
  std::array<Partition, kNumPartitions> partitions_;
};

}  // namespace mainline::execution
