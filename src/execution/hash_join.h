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
/// table over int64 join keys.
///
/// The build runs in three steps, none of which takes a lock:
///
///  1. **Scan**: op::HashJoinBuildOp's pipeline hands block-granular morsels
///     to the worker pool; each worker emits its blocks' (key, payload) pairs
///     into a per-block-ordinal slot (disjoint writes, like the query
///     engines' per-block partials).
///  2. **Scatter**: one sequential pass distributes the entries into
///     kNumPartitions partition buckets by hash prefix, walking ordinals in
///     block order — so partition contents (and therefore duplicate-match
///     order) are deterministic and independent of the worker count.
///  3. **Partition build**: one task per non-empty partition inserts its
///     bucket into that partition's open-addressing table. Partitions are
///     disjoint by construction, so the tasks share nothing.
///
/// Duplicate build keys are supported: every entry gets its own slot, and
/// ForEachMatch visits all of them in insertion (block) order. The table is
/// insert-only — probes never mutate it, so the probe phase may run from any
/// number of threads concurrently.
class JoinHashTable {
 public:
  /// Partition count: enough to keep a pool of workers busy in step 3 while
  /// keeping the per-worker scatter state trivially small.
  static constexpr uint32_t kNumPartitions = 64;

  JoinHashTable() = default;

  DISALLOW_COPY(JoinHashTable)
  JoinHashTable(JoinHashTable &&) noexcept = default;
  JoinHashTable &operator=(JoinHashTable &&) noexcept = default;

  /// Steps 2-3 of the build, over the per-block-ordinal entry lists step 1
  /// produced: scatter the lists into partitions in ordinal order —
  /// preserving the worker-count-independent determinism above — and build
  /// the partitions, one pool task each. A null/zero-worker/shut-down pool
  /// degrades to an inline build on the calling thread.
  static JoinHashTable FromOrdinalLists(const std::vector<std::vector<JoinEntry>> &per_block,
                                        common::WorkerPool *pool);

  /// Invoke `fn(payload)` for every build entry whose key equals `key`, in
  /// the deterministic insertion order described above. Thread-safe.
  template <typename Fn>
  void ForEachMatch(int64_t key, Fn &&fn) const {
    const uint64_t h = HashKey(key);
    const Partition &p = partitions_[h >> kPartitionShift];
    if (p.slots.empty()) return;
    const uint64_t mask = p.slots.size() - 1;
    for (uint64_t i = h & mask;; i = (i + 1) & mask) {
      if (!p.used[i]) return;
      if (p.slots[i].key == key) fn(p.slots[i].payload);
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
  /// partition, the low bits the slot, so the two are independent.
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

  /// One open-addressing sub-table (linear probing, power-of-two capacity,
  /// load factor <= 0.5, no tombstones — the table is insert-only).
  struct Partition {
    std::vector<JoinEntry> slots;
    std::vector<uint8_t> used;

    void BuildFrom(const std::vector<JoinEntry> &entries);
  };

  std::array<Partition, kNumPartitions> partitions_;
  uint64_t num_entries_ = 0;
};

}  // namespace mainline::execution
