#pragma once

#include <cstring>
#include <memory>

#include "common/macros.h"
#include "common/shared_latch.h"
#include "common/thread_annotations.h"
#include "index/index.h"
#include "storage/storage_defs.h"

namespace mainline::index {

/// A sharded hash index for point lookups over keys at most `W` bytes wide.
///
/// An operation hashes its key once (IndexKey::Hash): the top 8 bits pick
/// one of 256 shards and the low bits a slot in that shard's flat,
/// open-addressing array of {hash, key, slot} entries. Probing is linear;
/// hash 0 marks an empty entry. The array doubles when it passes half full,
/// and a delete shifts the rest of its probe run back (no tombstones). Each
/// shard has its own reader-writer latch, so operations on different shards
/// never contend: lookups take it shared, writes exclusive.
template <uint32_t W>
class HashIndex final : public Index {
 public:
  static constexpr uint32_t kNumShards = 256;
  static constexpr uint64_t kInitialCapacity = 8;

  HashIndex() = default;
  DISALLOW_COPY_AND_MOVE(HashIndex)

  bool Insert(const IndexKey &key, storage::TupleSlot value) override {
    return Write(key, value, false);
  }

  bool InsertOverwrite(const IndexKey &key, storage::TupleSlot value) override {
    return Write(key, value, true);
  }

  bool Delete(const IndexKey &key) override {
    if (key.Size() > W) return false;
    const uint64_t hash = HashOf(key);
    Shard &shard = ShardFor(hash);
    common::SharedLatch::ScopedExclusiveLatch guard(&shard.latch);
    uint64_t hole = shard.Probe(hash, key);
    if (shard.entries[hole].hash == 0) return false;
    // Backward-shift deletion: walk the rest of the probe run and move back
    // every entry whose home slot does not lie cyclically in (hole, next].
    const uint64_t mask = shard.capacity - 1;
    for (uint64_t next = (hole + 1) & mask; shard.entries[next].hash != 0;
         next = (next + 1) & mask) {
      const uint64_t home = shard.entries[next].hash & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        shard.entries[hole] = shard.entries[next];
        hole = next;
      }
    }
    shard.entries[hole].hash = 0;
    shard.size--;
    return true;
  }

  bool Find(const IndexKey &key, storage::TupleSlot *out) const override {
    if (key.Size() > W) return false;
    const uint64_t hash = HashOf(key);
    const Shard &shard = ShardFor(hash);
    common::SharedLatch::ScopedSharedLatch guard(&shard.latch);
    const Entry &entry = shard.entries[shard.Probe(hash, key)];
    if (entry.hash == 0) return false;
    *out = entry.slot;
    return true;
  }

  uint64_t Size() const override {
    uint64_t total = 0;
    for (const Shard &shard : shards_) {
      common::SharedLatch::ScopedSharedLatch guard(&shard.latch);
      total += shard.size;
    }
    return total;
  }

  uint64_t MemoryBytes() const override {
    uint64_t total = sizeof(*this);
    for (const Shard &shard : shards_) {
      common::SharedLatch::ScopedSharedLatch guard(&shard.latch);
      total += shard.capacity * sizeof(Entry);
    }
    return total;
  }

 private:
  struct Entry {
    uint64_t hash = 0;  // 0: empty
    std::array<byte, W> key;
    storage::TupleSlot slot;
  };
  static_assert(W > 16 || sizeof(Entry) <= 32);

  // Latch and array header on their own cache line.
  struct alignas(64) Shard {
    mutable common::SharedLatch latch;
    std::unique_ptr<Entry[]> entries GUARDED_BY(latch) = std::make_unique<Entry[]>(
        kInitialCapacity);
    uint64_t capacity GUARDED_BY(latch) = kInitialCapacity;  // a power of two
    uint64_t size GUARDED_BY(latch) = 0;

    /// \return the index of `key`'s entry, or of the empty entry ending its
    /// probe run.
    uint64_t Probe(uint64_t hash, const IndexKey &key) const REQUIRES_SHARED(latch) {
      const uint64_t mask = capacity - 1;
      uint64_t i = hash & mask;
      while (entries[i].hash != 0 &&
             (entries[i].hash != hash || std::memcmp(entries[i].key.data(), key.Data(), W) != 0)) {
        i = (i + 1) & mask;
      }
      return i;
    }

    /// Double the array, re-placing every entry by its stored hash.
    void Grow() REQUIRES(latch) {
      std::unique_ptr<Entry[]> old = std::move(entries);
      const uint64_t old_capacity = capacity;
      capacity *= 2;
      entries = std::make_unique<Entry[]>(capacity);
      const uint64_t mask = capacity - 1;
      for (uint64_t j = 0; j < old_capacity; j++) {
        if (old[j].hash == 0) continue;
        uint64_t i = old[j].hash & mask;
        while (entries[i].hash != 0) i = (i + 1) & mask;
        entries[i] = old[j];
      }
    }
  };

  // Hash 0 is reserved for empty entries.
  static uint64_t HashOf(const IndexKey &key) {
    const uint64_t hash = key.Hash();
    return hash == 0 ? 1 : hash;
  }

  Shard &ShardFor(uint64_t hash) { return shards_[hash >> 56]; }
  const Shard &ShardFor(uint64_t hash) const { return shards_[hash >> 56]; }

  bool Write(const IndexKey &key, storage::TupleSlot value, bool overwrite) {
    if (key.Size() > W) return false;
    const uint64_t hash = HashOf(key);
    Shard &shard = ShardFor(hash);
    common::SharedLatch::ScopedExclusiveLatch guard(&shard.latch);
    if (2 * (shard.size + 1) > shard.capacity) shard.Grow();
    Entry &entry = shard.entries[shard.Probe(hash, key)];
    if (entry.hash != 0) {
      if (overwrite) entry.slot = value;
      return overwrite;
    }
    entry.hash = hash;
    std::memcpy(entry.key.data(), key.Data(), W);
    entry.slot = value;
    shard.size++;
    return true;
  }

  static_assert(kNumShards == 256, "ShardFor takes the hash's top 8 bits");
  Shard shards_[kNumShards];
};

}  // namespace mainline::index
