#include "execution/hash_join.h"

#include <algorithm>
#include <utility>

namespace mainline::execution {

namespace {

/// Tasks per pool worker for a build step: a few each, so one slow worker
/// does not hold the step up, without splitting it into crumbs.
constexpr uint64_t kTasksPerWorker = 4;

/// How many tasks to split `items` units of work into.
uint64_t NumTasks(common::WorkerPool *pool, uint64_t items) {
  const uint64_t workers = pool == nullptr ? 0 : pool->NumWorkers();
  return std::max<uint64_t>(1, std::min(items, workers * kTasksPerWorker));
}

}  // namespace

JoinHashTable JoinHashTable::Build(std::vector<BlockEntries> per_block,
                                   common::WorkerPool *pool) {
  JoinHashTable result;
  int64_t min_key = std::numeric_limits<int64_t>::max();
  int64_t max_key = std::numeric_limits<int64_t>::min();
  for (const BlockEntries &block : per_block) {
    if (block.entries.empty()) continue;
    result.num_entries_ += block.entries.size();
    min_key = std::min(min_key, block.min_key);
    max_key = std::max(max_key, block.max_key);
  }
  if (result.num_entries_ == 0) return result;

  const uint64_t span = static_cast<uint64_t>(max_key) - static_cast<uint64_t>(min_key);
  if (span < kDenseSlotsPerEntry * result.num_entries_ &&
      result.num_entries_ <= std::numeric_limits<uint32_t>::max()) {
    result.layout_ = Layout::kDense;
    result.min_key_ = min_key;
    result.num_slots_ = span + 1;
    result.BuildDense(per_block, pool);
  } else {
    result.BuildHashed(&per_block, pool);
  }
  return result;
}

void JoinHashTable::BuildDense(const std::vector<BlockEntries> &per_block,
                               common::WorkerPool *pool) {
  // Left uninitialized here: each range task first-touches its own slices.
  offsets_ = std::make_unique_for_overwrite<uint32_t[]>(num_slots_ + 1);
  payloads_ = std::make_unique_for_overwrite<uint64_t[]>(num_entries_);
  offsets_[num_slots_] = static_cast<uint32_t>(num_entries_);

  const uint64_t ranges = NumTasks(pool, num_slots_);
  const auto range_begin = [&](uint64_t r) { return num_slots_ * r / ranges; };
  // Visit `fn(slot, payload)` for every entry whose slot lies in [lo, hi),
  // blocks in ordinal order and rows in row order, skipping every block
  // whose key range misses [lo, hi).
  const auto for_each_in_range = [&](uint64_t lo, uint64_t hi, auto &&fn) {
    for (const BlockEntries &block : per_block) {
      if (block.entries.empty() || DenseIndex(block.max_key) < lo ||
          DenseIndex(block.min_key) >= hi) {
        continue;
      }
      for (const JoinEntry &entry : block.entries) {
        const uint64_t slot = DenseIndex(entry.key);
        if (slot >= lo && slot < hi) fn(slot, entry.payload);
      }
    }
  };

  // 1: count each range's keys into its slice of the offsets.
  std::vector<uint64_t> range_start(ranges);
  common::RunTasks(pool, ranges, [&](uint64_t r) {
    const uint64_t lo = range_begin(r), hi = range_begin(r + 1);
    std::fill(&offsets_[lo], &offsets_[hi], 0);
    uint64_t total = 0;
    for_each_in_range(lo, hi, [&](uint64_t slot, uint64_t) {
      offsets_[slot]++;
      total++;
    });
    range_start[r] = total;
  });
  // 2: place the ranges, in key order.
  uint64_t start = 0;
  for (uint64_t &range : range_start) start += std::exchange(range, start);
  // 3: counts become start offsets, then each payload goes to its key's
  // next free position. That leaves offsets[slot] at the key's end — the
  // next key's start — so the slice shifts back by one.
  common::RunTasks(pool, ranges, [&](uint64_t r) {
    const uint64_t lo = range_begin(r), hi = range_begin(r + 1);
    auto next = static_cast<uint32_t>(range_start[r]);
    for (uint64_t slot = lo; slot < hi; slot++) next += std::exchange(offsets_[slot], next);
    for_each_in_range(lo, hi, [&](uint64_t slot, uint64_t payload) {
      payloads_[offsets_[slot]++] = payload;
    });
    std::copy_backward(&offsets_[lo], &offsets_[hi - 1], &offsets_[hi]);
    offsets_[lo] = static_cast<uint32_t>(range_start[r]);
  });
}

void JoinHashTable::Partition::BuildFrom(const std::vector<BlockEntries> &per_block,
                                         const std::vector<PartitionBounds> &bounds, uint32_t p,
                                         uint64_t count) {
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
  for (size_t b = 0; b < per_block.size(); b++) {
    for (uint32_t e = bounds[b][p]; e < bounds[b][p + 1]; e++) {
      const JoinEntry &entry = per_block[b].entries[e];
      const uint64_t h = HashKey(entry.key);
      bloom[h & (words - 1)] |= BloomBits(h);
      uint64_t i = h & mask;
      while (used[i]) i = (i + 1) & mask;
      slots[i] = entry;
      used[i] = 1;
    }
  }
}

void JoinHashTable::BuildHashed(std::vector<BlockEntries> *per_block, common::WorkerPool *pool) {
  // Group each block's entries by partition with a stable counting sort, one
  // task per run of blocks.
  const uint64_t num_blocks = per_block->size();
  std::vector<PartitionBounds> bounds(num_blocks);
  const uint64_t runs = NumTasks(pool, num_blocks);
  common::RunTasks(pool, runs, [&](uint64_t run) {
    std::vector<JoinEntry> grouped;
    for (uint64_t b = num_blocks * run / runs; b < num_blocks * (run + 1) / runs; b++) {
      std::vector<JoinEntry> &entries = (*per_block)[b].entries;
      PartitionBounds &offsets = bounds[b];
      std::array<uint32_t, kNumPartitions> cursor{};
      for (const JoinEntry &entry : entries) cursor[HashKey(entry.key) >> kPartitionShift]++;
      uint32_t begin = 0;
      for (uint32_t p = 0; p < kNumPartitions; p++) {
        offsets[p] = begin;
        begin += std::exchange(cursor[p], begin);
      }
      offsets[kNumPartitions] = begin;
      grouped.resize(entries.size());
      for (const JoinEntry &entry : entries) {
        grouped[cursor[HashKey(entry.key) >> kPartitionShift]++] = entry;
      }
      entries.swap(grouped);
    }
  });

  // Disjoint partitions, one task each.
  std::array<uint64_t, kNumPartitions> counts{};
  for (const PartitionBounds &block : bounds) {
    for (uint32_t p = 0; p < kNumPartitions; p++) counts[p] += block[p + 1] - block[p];
  }
  common::RunTasks(pool, kNumPartitions, [&](uint64_t p) {
    if (counts[p] != 0) {
      partitions_[p].BuildFrom(*per_block, bounds, static_cast<uint32_t>(p), counts[p]);
    }
  });
}

uint64_t JoinHashTable::TableBytes() const {
  if (layout_ == Layout::kDense) {
    return (num_slots_ + 1) * sizeof(uint32_t) + num_entries_ * sizeof(uint64_t);
  }
  uint64_t bytes = 0;
  for (const Partition &p : partitions_) {
    bytes += p.slots.size() * sizeof(JoinEntry) + p.used.size() + p.bloom.size() * sizeof(uint64_t);
  }
  return bytes;
}

}  // namespace mainline::execution
