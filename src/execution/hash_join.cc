#include "execution/hash_join.h"

namespace mainline::execution {

void JoinHashTable::BlockEntries::Assign(const std::vector<JoinEntry> &rows) {
  std::array<uint32_t, kNumPartitions> cursor{};
  for (const JoinEntry &entry : rows) cursor[HashKey(entry.key) >> kPartitionShift]++;
  uint32_t begin = 0;
  for (uint32_t p = 0; p < kNumPartitions; p++) {
    offsets[p] = begin;
    begin += cursor[p];
    cursor[p] = offsets[p];
  }
  offsets[kNumPartitions] = begin;
  entries.resize(rows.size());
  for (const JoinEntry &entry : rows) {
    entries[cursor[HashKey(entry.key) >> kPartitionShift]++] = entry;
  }
}

void JoinHashTable::Partition::BuildFrom(const std::vector<BlockEntries> &per_block,
                                         uint32_t p, uint64_t count) {
  // Power-of-two capacity at a load factor of at most 0.5 keeps linear-probe
  // chains short even with duplicate-heavy keys.
  uint64_t capacity = 8;
  while (capacity < count * 2) capacity <<= 1;
  slots.resize(capacity);
  used.assign(capacity, 0);
  mask = capacity - 1;
  uint64_t words = 1;
  while (words * 64 < count * 8) words <<= 1;
  bloom.assign(words, 0);
  for (const BlockEntries &block : per_block) {
    for (uint32_t e = block.offsets[p]; e < block.offsets[p + 1]; e++) {
      const JoinEntry &entry = block.entries[e];
      const uint64_t h = HashKey(entry.key);
      bloom[h & (words - 1)] |= BloomBits(h);
      uint64_t i = h & mask;
      while (used[i]) i = (i + 1) & mask;
      slots[i] = entry;
      used[i] = 1;
    }
  }
}

JoinHashTable JoinHashTable::Build(const std::vector<BlockEntries> &per_block,
                                   common::WorkerPool *pool) {
  JoinHashTable result;
  std::array<uint64_t, kNumPartitions> counts{};
  for (const BlockEntries &block : per_block) {
    for (uint32_t p = 0; p < kNumPartitions; p++) {
      counts[p] += block.offsets[p + 1] - block.offsets[p];
    }
  }
  for (const uint64_t count : counts) result.num_entries_ += count;
  if (result.num_entries_ == 0) return result;

  // Disjoint partitions, one task each. The same pool the scan used is idle
  // again by now; degrade inline without one (or when a racing shutdown
  // rejects the submit).
  const uint32_t workers = pool == nullptr ? 0 : pool->NumWorkers();
  for (uint32_t p = 0; p < kNumPartitions; p++) {
    if (counts[p] == 0) continue;
    Partition *partition = &result.partitions_[p];
    const uint64_t count = counts[p];
    const auto build = [partition, &per_block, p, count] {
      partition->BuildFrom(per_block, p, count);
    };
    if (workers == 0 || !pool->SubmitTask(build)) build();
  }
  if (workers != 0) pool->WaitUntilAllFinished();
  return result;
}

}  // namespace mainline::execution
