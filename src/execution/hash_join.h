#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "arrowlite/array.h"
#include "common/macros.h"
#include "common/selection_vector.h"
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

/// The build side of a morsel-parallel hash join (Section 4.1's dual access
/// path underneath, morsel-driven on top): a partitioned open-addressing hash
/// table over int64 join keys, each partition fronted by a blocked Bloom
/// filter.
///
/// The build runs in two steps, none of which takes a lock and neither of
/// which is sequential:
///
///  1. **Scan**: op::HashJoinBuildOp's pipeline hands block-granular morsels
///     to the worker pool; each worker emits its blocks' (key, payload) pairs
///     into a per-block-ordinal BlockEntries (disjoint writes, like the query
///     engines' per-block partials), grouped there by hash prefix with a
///     stable counting sort.
///  2. **Partition build**: one task per non-empty partition inserts that
///     partition's sub-range of every block's entries, walking ordinals in
///     block order — so partition contents (and therefore duplicate-match
///     order) are deterministic and independent of the worker count. The
///     same task fills the partition's Bloom filter. Partitions are disjoint
///     by construction, so the tasks share nothing.
///
/// Probes test the Bloom filter word before touching the slots, so a key
/// absent from the build usually costs one cache line. Duplicate build keys
/// are supported: every entry gets its own slot, and ForEachMatch visits all
/// of them in insertion (block) order. The table is insert-only — probes
/// never mutate it, so the probe phase may run from any number of threads
/// concurrently.
class JoinHashTable {
 public:
  /// Partition count: enough to keep a pool of workers busy in step 2 while
  /// keeping each block's partition offsets small.
  static constexpr uint32_t kNumPartitions = 64;

  /// One block's build entries, grouped by partition: partition p's entries
  /// are entries[offsets[p], offsets[p + 1]), in the block's row order.
  struct BlockEntries {
    std::vector<JoinEntry> entries;
    std::array<uint32_t, kNumPartitions + 1> offsets{};

    /// Replace the contents with `rows` (one block's entries, in row order),
    /// grouped by partition with a stable counting sort.
    void Assign(const std::vector<JoinEntry> &rows);
  };

  JoinHashTable() = default;

  DISALLOW_COPY(JoinHashTable)
  JoinHashTable(JoinHashTable &&) noexcept = default;
  JoinHashTable &operator=(JoinHashTable &&) noexcept = default;

  /// Step 2 of the build, over the per-block-ordinal entries step 1
  /// produced: build every partition, one pool task each, from its
  /// sub-range of each block in ordinal order. A null/zero-worker/shut-down
  /// pool degrades to an inline build on the calling thread.
  static JoinHashTable Build(const std::vector<BlockEntries> &per_block,
                             common::WorkerPool *pool);

  /// Invoke `fn(payload)` for every build entry whose key equals `key`, in
  /// the deterministic insertion order described above. Thread-safe.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn &&fn) const {
    const uint64_t h = HashKey(key);
    const Partition &p = partitions_[h >> kPartitionShift];
    if (!p.MayContain(h)) return;
    for (uint64_t i = h & p.mask;; i = (i + 1) & p.mask) {
      if (!p.used[i]) return;
      if (p.slots[i].key == key) fn(p.slots[i].payload);
    }
  }

  /// \return whether at least one build entry has key `key`. Thread-safe.
  bool Contains(int64_t key) const {
    const uint64_t h = HashKey(key);
    const Partition &p = partitions_[h >> kPartitionShift];
    if (!p.MayContain(h)) return false;
    for (uint64_t i = h & p.mask;; i = (i + 1) & p.mask) {
      if (!p.used[i]) return false;
      if (p.slots[i].key == key) return true;
    }
  }

  /// Probe every selected row of an int64 key column, invoking
  /// `fn(row, payload)` per match. Null keys match nothing. Thread-safe.
  template <typename Fn>
  void ProbeSelected(const arrowlite::Array &keys, const common::SelectionVector &sel,
                     Fn &&fn) const {
    const int64_t *values = keys.buffer(0)->data_as<int64_t>();
    if (keys.null_count() == 0) {
      for (const uint32_t row : sel) {
        ForEachMatch(values[row], [&](uint64_t payload) { fn(row, payload); });
      }
    } else {
      for (const uint32_t row : sel) {
        if (keys.IsNull(row)) continue;
        ForEachMatch(values[row], [&](uint64_t payload) { fn(row, payload); });
      }
    }
  }

  /// \return total number of build entries across all partitions.
  uint64_t NumEntries() const { return num_entries_; }

  bool Empty() const { return num_entries_ == 0; }

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

    /// Insert partition `p`'s `count` entries from every block, in ordinal
    /// order.
    void BuildFrom(const std::vector<BlockEntries> &per_block, uint32_t p, uint64_t count);
  };

  std::array<Partition, kNumPartitions> partitions_;
  uint64_t num_entries_ = 0;
};

}  // namespace mainline::execution
