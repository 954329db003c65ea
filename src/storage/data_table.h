#pragma once

#include <atomic>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/shared_latch.h"
#include "common/thread_annotations.h"
#include "common/typedefs.h"
#include "storage/block_layout.h"
#include "storage/projected_row.h"
#include "storage/raw_block.h"
#include "storage/storage_defs.h"
#include "storage/tuple_access_strategy.h"
#include "storage/undo_record.h"

namespace mainline::transaction {
class TransactionContext;
}

namespace mainline::storage {

/// The multi-versioned Data Table of Section 3: a collection of 1 MB PAX
/// blocks in the relaxed Arrow format, with a delta-storage version chain per
/// tuple kept in an invisible version-pointer column. Provides snapshot
/// isolation reads and first-writer-wins writes; write-write conflicts are
/// disallowed to avoid cascading rollbacks.
///
/// The table is the one write path to its tuples, and so the one place that
/// decides what reaches the write-ahead log (Section 3.4): when the writing
/// transaction has logging enabled, every successful Insert, InsertInto,
/// Update and Delete stages its redo or delete record, tagged with the
/// table's oid and the slot the write chose. A compaction move (Section 4.3)
/// is thus logged as the ordinary delete of its source plus insert into its
/// destination. A failed write stages nothing.
///
/// All methods are safe to call concurrently from many transactions. The
/// block transformation pipeline (Section 4) coordinates with updaters via
/// each block's BlockAccessController.
class DataTable {
 public:
  /// \param store block pool to draw storage from
  /// \param layout physical layout of this table's blocks
  /// \param oid the table's catalog oid, which its log records carry
  DataTable(BlockStore *store, const BlockLayout &layout, catalog::table_oid_t oid);

  DISALLOW_COPY_AND_MOVE(DataTable)

  ~DataTable();

  /// Materialize the version of `slot` visible to `txn` into `out_buffer`
  /// (early materialization, Section 3.1). The buffer's projection may cover
  /// any subset of columns.
  /// \return true if the tuple is visible to `txn`, false otherwise.
  bool Select(transaction::TransactionContext *txn, TupleSlot slot,
              ProjectedRow *out_buffer) const;

  /// Update the attributes in `redo` in place, installing a before-image
  /// delta on the version chain first.
  /// \return true on success; false on a write-write conflict (the caller
  /// must abort the transaction).
  bool Update(transaction::TransactionContext *txn, TupleSlot slot, const ProjectedRow &redo);

  /// Insert a new tuple.
  /// \return the slot the tuple was placed in.
  TupleSlot Insert(transaction::TransactionContext *txn, const ProjectedRow &redo);

  /// Insert into a specific currently-empty slot. Used by the compactor to
  /// fill gaps left by deletes — including never-used slots past the insert
  /// head, which a concurrent Insert may race for: both sides claim a slot by
  /// winning the version pointer's null -> record CAS, so exactly one of them
  /// owns it (the loser fails here, or moves on to the next slot there).
  /// \return true on success, false if the slot is occupied or contended.
  bool InsertInto(transaction::TransactionContext *txn, TupleSlot dest, const ProjectedRow &redo);

  /// Logically delete `slot`, recording a full-row before-image so the slot's
  /// bytes can later be recycled while old readers still reconstruct it.
  /// \return true on success; false on conflict (caller must abort).
  bool Delete(transaction::TransactionContext *txn, TupleSlot slot);

  /// Iterates every slot (allocated or not) in [0, insert_head) of every
  /// block. Visibility is determined by Select.
  class SlotIterator {
   public:
    TupleSlot operator*() const { return TupleSlot(blocks_[block_idx_], offset_); }

    SlotIterator &operator++() {
      offset_++;
      AdvanceToValid();
      return *this;
    }

    bool operator==(const SlotIterator &other) const {
      return block_idx_ == other.block_idx_ && offset_ == other.offset_;
    }

    /// \return true if the iterator is exhausted.
    bool Done() const { return block_idx_ >= blocks_.size(); }

    /// \return the block the iterator is currently positioned in.
    RawBlock *CurrentBlock() const { return blocks_[block_idx_]; }

   private:
    friend class DataTable;
    SlotIterator(std::vector<RawBlock *> blocks, size_t block_idx, uint32_t offset)
        : blocks_(std::move(blocks)), block_idx_(block_idx), offset_(offset) {
      AdvanceToValid();
    }

    void AdvanceToValid() {
      while (block_idx_ < blocks_.size() &&
             offset_ >= blocks_[block_idx_]->insert_head.load(std::memory_order_acquire)) {
        block_idx_++;
        offset_ = 0;
      }
    }

    std::vector<RawBlock *> blocks_;
    size_t block_idx_;
    uint32_t offset_;
  };

  /// \return iterator positioned at the first slot.
  SlotIterator begin() const { return SlotIterator(Blocks(), 0, 0); }

  /// \return the catalog oid this table's log records carry.
  catalog::table_oid_t Oid() const { return oid_; }
  const TupleAccessStrategy &Accessor() const { return accessor_; }
  const BlockLayout &GetLayout() const { return accessor_.GetBlockLayout(); }
  BlockStore *GetBlockStore() const { return block_store_; }

  /// Initializer covering every column (used for delete before-images and
  /// full-row materialization).
  const ProjectedRowInitializer &FullRowInitializer() const { return full_row_initializer_; }

  /// \return a snapshot of the table's blocks, in allocation order.
  std::vector<RawBlock *> Blocks() const {
    common::SharedLatch::ScopedSharedLatch guard(&blocks_latch_);
    return blocks_;
  }

  /// \return number of blocks currently backing the table.
  size_t NumBlocks() const {
    common::SharedLatch::ScopedSharedLatch guard(&blocks_latch_);
    return blocks_.size();
  }

  /// Reserve the (single) pending release slot for `block` before deferring
  /// a ReleaseBlock call. Callers must only register the deferred release
  /// when this returns true, which keeps at most one release in flight per
  /// block incarnation.
  /// \return false if the block is not attached to this table or a release
  ///         is already pending for it.
  bool ScheduleBlockRelease(RawBlock *block);

  /// Detach an empty block from the table and return it to the block store.
  /// Called by the compactor (via the GC's deferred-action queue) after it
  /// has emptied a block and reserved the release with ScheduleBlockRelease.
  /// Clears the pending-release reservation either way.
  /// \return false if the block must stay attached: it is the table's active
  ///         insertion block, it was refilled while the release was
  ///         deferred, or it is no longer attached; true once the block has
  ///         been returned to the store.
  bool ReleaseBlock(RawBlock *block);

  /// \return the block new inserts currently go to. Blocks only hand this
  ///         role to a freshly allocated successor, never acquire it.
  RawBlock *CurrentInsertionBlock() const {
    return insertion_block_.load(std::memory_order_acquire);
  }

  /// \return number of allocated (logically present) slots in `block`.
  uint32_t FilledSlots(RawBlock *block) const {
    return accessor_.AllocationBitmap(block)->CountSet(GetLayout().NumSlots());
  }

  /// \return true if any slot in `block` has a non-null version chain.
  bool HasActiveVersions(RawBlock *block) const;

 private:
  friend class transaction::TransactionContext;

  RawBlock *NewBlock();

  /// \return true if installing a new version on a chain headed by `head`
  /// would be a write-write conflict for `txn`.
  bool HasConflict(const transaction::TransactionContext &txn, UndoRecord *head) const;

  /// Ensure the block is in the hot state before a write (preempts cooling,
  /// waits out freezing, flips frozen and drains in-place readers).
  void EnsureHot(RawBlock *block) const {
    if (UNLIKELY(block->controller.GetState() != BlockState::kHot)) {
      block->controller.WaitUntilHot();
    }
  }

  /// Track newly-written varlen buffers so aborts can reclaim them.
  void RegisterLooseVarlens(transaction::TransactionContext *txn,
                            const ProjectedRow &redo) const;

  /// Write all of `redo`'s attributes into `slot`.
  void WriteValues(TupleSlot slot, const ProjectedRow &redo) const;

  BlockStore *block_store_;
  TupleAccessStrategy accessor_;
  const catalog::table_oid_t oid_;
  ProjectedRowInitializer full_row_initializer_;

  mutable common::SharedLatch blocks_latch_;
  std::vector<RawBlock *> blocks_ GUARDED_BY(blocks_latch_);
  std::atomic<RawBlock *> insertion_block_;
  // Blocks with a deferred release in flight. Scheduling is deduplicated
  // here so at most one release exists per block incarnation — a stale
  // second release could otherwise free a recycled block before the epoch
  // protecting its readers has passed.
  std::unordered_set<RawBlock *> pending_release_ GUARDED_BY(blocks_latch_);
};

}  // namespace mainline::storage
