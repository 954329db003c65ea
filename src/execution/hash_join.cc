#include "execution/hash_join.h"

namespace mainline::execution {

void JoinHashTable::Partition::BuildFrom(const std::vector<JoinEntry> &entries) {
  if (entries.empty()) return;
  // Power-of-two capacity at a load factor of at most 0.5 keeps linear-probe
  // chains short even with duplicate-heavy keys.
  uint64_t capacity = 8;
  while (capacity < entries.size() * 2) capacity <<= 1;
  slots.resize(capacity);
  used.assign(capacity, 0);
  const uint64_t mask = capacity - 1;
  for (const JoinEntry &entry : entries) {
    uint64_t i = HashKey(entry.key) & mask;
    while (used[i]) i = (i + 1) & mask;
    slots[i] = entry;
    used[i] = 1;
  }
}

JoinHashTable JoinHashTable::FromOrdinalLists(
    const std::vector<std::vector<JoinEntry>> &per_block, common::WorkerPool *pool) {
  JoinHashTable result;

  // Step 2 — scatter, in block order: partition contents become independent
  // of how the morsels were distributed over workers.
  std::array<std::vector<JoinEntry>, kNumPartitions> buckets;
  uint64_t total = 0;
  for (const std::vector<JoinEntry> &entries : per_block) total += entries.size();
  if (total == 0) return result;
  for (auto &bucket : buckets) bucket.reserve(total / kNumPartitions + 1);
  for (const std::vector<JoinEntry> &entries : per_block) {
    for (const JoinEntry &entry : entries) {
      buckets[HashKey(entry.key) >> kPartitionShift].push_back(entry);
    }
  }
  result.num_entries_ = total;

  // Step 3 — per-partition table build: disjoint partitions, one task each.
  // The same pool the scan used is idle again by now; degrade inline without
  // one (or when a racing shutdown rejects the submit).
  const uint32_t workers = pool == nullptr ? 0 : pool->NumWorkers();
  if (workers == 0) {
    for (uint32_t p = 0; p < kNumPartitions; p++) {
      result.partitions_[p].BuildFrom(buckets[p]);
    }
  } else {
    for (uint32_t p = 0; p < kNumPartitions; p++) {
      if (buckets[p].empty()) continue;
      Partition *partition = &result.partitions_[p];
      const std::vector<JoinEntry> *bucket = &buckets[p];
      if (!pool->SubmitTask([partition, bucket] { partition->BuildFrom(*bucket); })) {
        partition->BuildFrom(*bucket);
      }
    }
    pool->WaitUntilAllFinished();
  }
  return result;
}

}  // namespace mainline::execution
