#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "common/object_pool.h"
#include "common/typedefs.h"
#include "storage/block_access_controller.h"
#include "storage/storage_defs.h"

namespace mainline::storage {

class ArrowBlockMetadata;

/// A 1 MB storage block, allocated aligned at a 1 MB boundary (enforced by
/// BlockStore) so TupleSlots can pack a block pointer and a slot offset into
/// one word. The first BlockLayout::kHeaderSize (64) bytes are the header
/// declared here; everything after `content_` is governed by the table's
/// BlockLayout.
struct RawBlock {
  /// Next never-used slot; monotonically increasing. Slots freed by deletes
  /// are only recycled by the compaction phase, never by inserts.
  std::atomic<uint32_t> insert_head;
  /// Hot/cooling/freezing/frozen coordination (Section 4).
  BlockAccessController controller;
  /// Back-pointer to the owning table, so the GC's access observer and the
  /// compactor can find a block's table from an undo record.
  DataTable *data_table;
  /// Arrow metadata (null counts, gathered varlen buffers) produced by the
  /// gathering phase; null until the block is first frozen. Owned.
  ArrowBlockMetadata *arrow_metadata;
  /// GC epoch of the last observed modification (access statistics,
  /// Section 4.2). Written by the GC, read by the access observer.
  std::atomic<uint64_t> last_touched_epoch;

  /// Start of layout-governed content. The bytes between the fields above
  /// and kHeaderSize (alignment padding included) are reserved.
  byte content_[0];
};

static_assert(sizeof(RawBlock) <= 64, "RawBlock header must fit in BlockLayout::kHeaderSize");

/// Allocator for 1 MB-aligned blocks, for use with common::ObjectPool.
class BlockAllocator {
 public:
  RawBlock *New() {
    auto *block = reinterpret_cast<RawBlock *>(std::aligned_alloc(kBlockSize, kBlockSize));
    Reuse(block);
    return block;
  }

  void Reuse(RawBlock *block) {
    // relaxed: the block is not reachable by any other thread until the
    // allocating caller publishes it (insert into the table's block list);
    // that publication provides the ordering.
    block->insert_head.store(0, std::memory_order_relaxed);
    block->data_table = nullptr;
    block->arrow_metadata = nullptr;
    block->last_touched_epoch.store(0, std::memory_order_relaxed);
    block->controller.Initialize();
  }

  void Delete(RawBlock *block) { std::free(block); }
};

/// Pool of storage blocks shared by all tables.
using BlockStore = common::ObjectPool<RawBlock, BlockAllocator>;

}  // namespace mainline::storage
