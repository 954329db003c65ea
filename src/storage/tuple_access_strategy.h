#pragma once

#include <atomic>
#include <cstdint>

#include "common/raw_bitmap.h"
#include "common/typedefs.h"
#include "storage/block_layout.h"
#include "storage/raw_block.h"
#include "storage/storage_defs.h"

namespace mainline::storage {

class UndoRecord;

/// Maps (block, slot, column) triples onto physical addresses, given a
/// BlockLayout (Section 3.2). Stateless apart from the layout; all methods
/// are const and thread-safe.
class TupleAccessStrategy {
 public:
  explicit TupleAccessStrategy(BlockLayout layout) : layout_(std::move(layout)) {}

  /// \return the layout this strategy interprets blocks with.
  const BlockLayout &GetBlockLayout() const { return layout_; }

  /// Format a freshly allocated block: clear bitmaps and version pointers.
  void InitializeRawBlock(DataTable *table, RawBlock *block) const;

  /// Reserve the next never-used slot in `block`.
  /// \return true and the new slot in `out` on success; false if the block's
  /// unused region is exhausted. The slot's allocation bit is NOT yet set —
  /// the caller publishes the tuple by calling SetAllocated after writing the
  /// version pointer and contents.
  bool Allocate(RawBlock *block, TupleSlot *out) const {
    // relaxed: seed for the CAS loop; the acq_rel compare_exchange below
    // synchronizes (and reloads the head on failure).
    uint32_t head = block->insert_head.load(std::memory_order_relaxed);
    while (head < layout_.NumSlots()) {
      if (block->insert_head.compare_exchange_weak(head, head + 1,
                                                   std::memory_order_acq_rel)) {
        *out = TupleSlot(block, head);
        return true;
      }
    }
    return false;
  }

  /// \return the block's allocation bitmap.
  common::RawConcurrentBitmap *AllocationBitmap(RawBlock *block) const {
    return common::RawConcurrentBitmap::Interpret(
        reinterpret_cast<byte *>(block) + layout_.AllocationBitmapOffset());
  }
  const common::RawConcurrentBitmap *AllocationBitmap(const RawBlock *block) const {
    return common::RawConcurrentBitmap::Interpret(const_cast<byte *>(
        reinterpret_cast<const byte *>(block) + layout_.AllocationBitmapOffset()));
  }

  /// \return true if `slot`'s allocation bit is set (tuple logically present
  /// in the newest version).
  bool Allocated(TupleSlot slot) const {
    return AllocationBitmap(slot.GetBlock())->Test(slot.GetOffset());
  }

  /// Publish a tuple: set the allocation bit.
  void SetAllocated(TupleSlot slot) const {
    AllocationBitmap(slot.GetBlock())->Set(slot.GetOffset(), true);
  }

  /// Logically remove a tuple: clear the allocation bit.
  void SetDeallocated(TupleSlot slot) const {
    AllocationBitmap(slot.GetBlock())->Set(slot.GetOffset(), false);
  }

  /// \return the validity (null) bitmap of column `col` in `block`.
  common::RawConcurrentBitmap *ColumnNullBitmap(RawBlock *block, col_id_t col) const {
    return common::RawConcurrentBitmap::Interpret(reinterpret_cast<byte *>(block) +
                                                  layout_.ColumnBitmapOffset(col));
  }

  /// \return start of column `col`'s value array in `block`.
  byte *ColumnStart(RawBlock *block, col_id_t col) const {
    return reinterpret_cast<byte *>(block) + layout_.ColumnValuesOffset(col);
  }
  const byte *ColumnStart(const RawBlock *block, col_id_t col) const {
    return reinterpret_cast<const byte *>(block) + layout_.ColumnValuesOffset(col);
  }

  /// \return address of `slot`'s value in column `col` (no null handling).
  byte *AccessWithoutNullCheck(TupleSlot slot, col_id_t col) const {
    return ColumnStart(slot.GetBlock(), col) +
           static_cast<size_t>(layout_.AttrSize(col)) * slot.GetOffset();
  }

  /// \return address of the value, or nullptr if it is null.
  byte *AccessWithNullCheck(TupleSlot slot, col_id_t col) const {
    if (!ColumnNullBitmap(slot.GetBlock(), col)->Test(slot.GetOffset())) return nullptr;
    return AccessWithoutNullCheck(slot, col);
  }

  /// Mark the value non-null and \return its address.
  byte *AccessForceNotNull(TupleSlot slot, col_id_t col) const {
    ColumnNullBitmap(slot.GetBlock(), col)->Set(slot.GetOffset(), true);
    return AccessWithoutNullCheck(slot, col);
  }

  /// Set the value of (`slot`, `col`) to null.
  void SetNull(TupleSlot slot, col_id_t col) const {
    ColumnNullBitmap(slot.GetBlock(), col)->Set(slot.GetOffset(), false);
  }

  /// \return true if the value is null.
  bool IsNull(TupleSlot slot, col_id_t col) const {
    return !ColumnNullBitmap(slot.GetBlock(), col)->Test(slot.GetOffset());
  }

  /// \return reference to the version-chain head pointer of `slot` (the
  /// invisible extra column of Section 3.1). All access must be atomic.
  std::atomic<UndoRecord *> &VersionPtr(TupleSlot slot) const {
    return reinterpret_cast<std::atomic<UndoRecord *> *>(
        reinterpret_cast<byte *>(slot.GetBlock()) + layout_.VersionPtrOffset())[slot.GetOffset()];
  }

 private:
  BlockLayout layout_;
};

}  // namespace mainline::storage
