#include "storage/data_table.h"

#include <algorithm>

#include "metrics/engine_metrics.h"
// analyze-waive(include): the type name never appears here, but
// `delete block->arrow_metadata` needs the complete ArrowBlockMetadata or
// its destructor is silently skipped (-Wdelete-incomplete).
#include "storage/arrow_block_metadata.h"
#include "storage/storage_util.h"
#include "storage/varlen_entry.h"
// analyze-waive(layering): MVCC makes storage and transaction mutually
// recursive (paper Section 3.1) — version chains live in table blocks but
// are stamped and unlinked through TransactionContext. The cycle is broken
// at header granularity (data_table.h forward-declares); this .cc include is
// the one deliberate back-edge, documented in scripts/layering.toml.
#include "transaction/transaction_context.h"

namespace mainline::storage {

DataTable::DataTable(BlockStore *store, const BlockLayout &layout, catalog::table_oid_t oid)
    : block_store_(store),
      accessor_(layout),
      oid_(oid),
      full_row_initializer_(ProjectedRowInitializer::CreateFull(layout)) {
  insertion_block_.store(NewBlock(), std::memory_order_release);
}

DataTable::~DataTable() {
  const BlockLayout &layout = GetLayout();
  for (RawBlock *block : blocks_) {
    // Free owned out-of-line varlen values still referenced by block storage.
    for (const col_id_t col : layout.AllColumnIds()) {
      if (!layout.IsVarlen(col)) continue;
      // relaxed: destructor runs after all writers have stopped; any racing
      // access here is a bug no ordering could fix.
      const uint32_t limit = block->insert_head.load(std::memory_order_relaxed);
      for (uint32_t i = 0; i < limit; i++) {
        const TupleSlot slot(block, i);
        if (!accessor_.Allocated(slot)) continue;
        const byte *value = accessor_.AccessWithNullCheck(slot, col);
        if (value == nullptr) continue;
        const auto *entry = reinterpret_cast<const VarlenEntry *>(value);
        if (entry->NeedReclaim()) delete[] entry->Content();
      }
    }
    delete block->arrow_metadata;
    block_store_->Release(block);
  }
}

bool DataTable::Select(transaction::TransactionContext *txn, TupleSlot slot,
                       ProjectedRow *out_buffer) const {
  // Copy the latest version first; read presence and the version pointer
  // afterwards. Writers install their undo record *before* writing in place,
  // so any write that could have torn our copy is repaired by applying that
  // record's before-image during traversal.
  for (uint16_t i = 0; i < out_buffer->NumColumns(); i++) {
    StorageUtil::CopyAttrIntoProjection(accessor_, slot, out_buffer, i);
  }
  bool visible = accessor_.Allocated(slot);
  UndoRecord *record = accessor_.VersionPtr(slot).load(std::memory_order_seq_cst);

  if (record == nullptr) return visible;

  const BlockLayout &layout = GetLayout();
  while (record != nullptr) {
    const transaction::timestamp_t ts = record->Timestamp().load(std::memory_order_acquire);
    // Our own uncommitted changes are visible to us.
    if (ts == txn->TxnId()) break;
    // Committed at or before our start: this version is visible; everything
    // applied so far reconstructs it. (Unsigned comparison: uncommitted ids
    // have the sign bit set and are never <= any start time.)
    if (ts <= txn->StartTime()) break;
    if (record->Table() != nullptr) {
      switch (record->Type()) {
        case DeltaType::kUpdate:
          StorageUtil::ApplyDelta(layout, *record->Delta(), out_buffer);
          break;
        case DeltaType::kInsert:
          visible = false;
          break;
        case DeltaType::kDelete:
          visible = true;
          StorageUtil::ApplyDelta(layout, *record->Delta(), out_buffer);
          break;
      }
    }
    record = record->Next().load(std::memory_order_acquire);
  }
  return visible;
}

bool DataTable::HasConflict(const transaction::TransactionContext &txn, UndoRecord *head) const {
  if (head == nullptr) return false;
  const transaction::timestamp_t ts = head->Timestamp().load(std::memory_order_acquire);
  if (transaction::IsUncommitted(ts)) return ts != txn.TxnId();
  return ts > txn.StartTime();
}

void DataTable::RegisterLooseVarlens(transaction::TransactionContext *txn,
                                     const ProjectedRow &redo) const {
  const BlockLayout &layout = GetLayout();
  if (!layout.HasVarlen()) return;
  uint64_t bytes = 0;
  for (uint16_t i = 0; i < redo.NumColumns(); i++) {
    if (!layout.IsVarlen(redo.ColumnIds()[i])) continue;
    const byte *value = redo.AccessWithNullCheck(i);
    if (value == nullptr) continue;
    const auto *entry = reinterpret_cast<const VarlenEntry *>(value);
    bytes += entry->Size();
    txn->RegisterLooseVarlen(*entry);
  }
  if (bytes != 0) metrics::Storage().varlen_bytes->Add(bytes);
}

void DataTable::WriteValues(TupleSlot slot, const ProjectedRow &redo) const {
  for (uint16_t i = 0; i < redo.NumColumns(); i++) {
    StorageUtil::CopyAttrFromProjection(accessor_, slot, redo, i);
  }
}

bool DataTable::Update(transaction::TransactionContext *txn, TupleSlot slot,
                       const ProjectedRow &redo) {
  EnsureHot(slot.GetBlock());
  std::atomic<UndoRecord *> &version_ptr = accessor_.VersionPtr(slot);
  UndoRecord *undo = nullptr;
  while (true) {
    UndoRecord *head = version_ptr.load(std::memory_order_seq_cst);
    if (HasConflict(*txn, head)) {
      // Mark an already-reserved record as never-installed so rollback and
      // GC skip it. The redo's varlens transfer to the transaction even on
      // failure — the caller must abort (enforced in Commit), which frees
      // them.
      if (undo != nullptr) undo->SetTableNull();
      RegisterLooseVarlens(txn, redo);
      txn->SetMustAbort();
      metrics::Storage().write_write_conflicts->Add(1);
      return false;
    }
    // A deleted (or not-yet-published) tuple cannot be updated.
    if (!accessor_.Allocated(slot)) {
      if (undo != nullptr) undo->SetTableNull();
      RegisterLooseVarlens(txn, redo);
      txn->SetMustAbort();
      return false;
    }
    if (undo == nullptr) undo = txn->UndoRecordForUpdate(this, slot, redo);
    // Populate the before-image of exactly the updated columns. Re-populated
    // on retry: a CAS failure means the chain head changed under us (another
    // writer, or the GC truncating the chain) and the image may be stale.
    for (uint16_t i = 0; i < redo.NumColumns(); i++) {
      StorageUtil::CopyAttrIntoProjection(accessor_, slot, undo->Delta(), i);
    }
    // relaxed: the record is still private to this thread; the successful
    // CAS below publishes the whole record (Next included) to readers.
    undo->Next().store(head, std::memory_order_relaxed);
    if (version_ptr.compare_exchange_strong(head, undo, std::memory_order_seq_cst)) break;
  }
  RegisterLooseVarlens(txn, redo);
  // Apply the update in place. Readers that copied torn data repair it via
  // the undo record installed above.
  WriteValues(slot, redo);
  if (txn->LoggingEnabled()) txn->StageWriteCopy(oid_, false, slot, redo);
  metrics::Storage().updates->Add(1);
  return true;
}

TupleSlot DataTable::Insert(transaction::TransactionContext *txn, const ProjectedRow &redo) {
  while (true) {
    // Claim a never-used slot, appending a new block if the table is full.
    TupleSlot slot;
    while (true) {
      RawBlock *block = insertion_block_.load(std::memory_order_acquire);
      EnsureHot(block);
      if (accessor_.Allocate(block, &slot)) break;
      // Block full: install a fresh insertion block (single winner).
      common::SharedLatch::ScopedExclusiveLatch guard(&blocks_latch_);
      if (insertion_block_.load(std::memory_order_acquire) == block) {
        RawBlock *new_block = block_store_->Get();
        MAINLINE_ASSERT(new_block != nullptr, "block store exhausted");
        accessor_.InitializeRawBlock(this, new_block);
        blocks_.push_back(new_block);
        insertion_block_.store(new_block, std::memory_order_release);
      }
    }

    UndoRecord *undo = txn->UndoRecordForInsert(this, slot);
    // Publish with a CAS, not a blind store: the slot is never-used, but the
    // compactor's InsertInto may legally target it — the compaction planner
    // counts never-used slots past the insert head as fillable gaps, and the
    // insertion block is a valid compaction target. Exactly one writer wins
    // the null -> record transition; a blind store here could erase a
    // concurrently installed compaction insert record, after which both
    // transactions would write the slot and commit without ever seeing a
    // conflict — orphaning one of the two rows' varlen buffers (the
    // compactor's DeepCopyVarlens copies escaped the abort-reclaim protocol
    // exactly this way) and silently losing a tuple.
    UndoRecord *expected = nullptr;
    if (!accessor_.VersionPtr(slot).compare_exchange_strong(expected, undo,
                                                            std::memory_order_seq_cst)) {
      // A compaction move claimed this slot first. Disown the reserved undo
      // record (rollback and GC skip it) and claim the next slot instead.
      undo->SetTableNull();
      continue;
    }
    WriteValues(slot, redo);
    RegisterLooseVarlens(txn, redo);
    accessor_.SetAllocated(slot);
    if (txn->LoggingEnabled()) txn->StageWriteCopy(oid_, true, slot, redo);
    metrics::Storage().inserts->Add(1);
    return slot;
  }
}

bool DataTable::InsertInto(transaction::TransactionContext *txn, TupleSlot dest,
                           const ProjectedRow &redo) {
  EnsureHot(dest.GetBlock());
  std::atomic<UndoRecord *> &version_ptr = accessor_.VersionPtr(dest);
  UndoRecord *undo = nullptr;
  while (true) {
    UndoRecord *head = version_ptr.load(std::memory_order_seq_cst);
    if (HasConflict(*txn, head) || accessor_.Allocated(dest)) {
      if (HasConflict(*txn, head)) metrics::Storage().write_write_conflicts->Add(1);
      if (undo != nullptr) undo->SetTableNull();
      // As in Update: ownership of the redo's varlens stays with the
      // transaction, whose abort (enforced in Commit) reclaims them.
      RegisterLooseVarlens(txn, redo);
      txn->SetMustAbort();
      return false;
    }
    if (undo == nullptr) undo = txn->UndoRecordForInsert(this, dest);
    // Chain on top of any residual (committed, older) records: old readers
    // reconstruct the previous occupant through the delete record below us.
    // relaxed: the record is still private to this thread; the successful
    // CAS below publishes the whole record (Next included) to readers.
    undo->Next().store(head, std::memory_order_relaxed);
    if (version_ptr.compare_exchange_strong(head, undo, std::memory_order_seq_cst)) break;
  }
  WriteValues(dest, redo);
  RegisterLooseVarlens(txn, redo);
  accessor_.SetAllocated(dest);
  // Compaction may fill slots beyond the insert head (e.g. when topping up a
  // partially-filled block); extend the head so scans cover them.
  std::atomic<uint32_t> &head = dest.GetBlock()->insert_head;
  uint32_t cur = head.load(std::memory_order_acquire);
  while (cur <= dest.GetOffset() &&
         !head.compare_exchange_weak(cur, dest.GetOffset() + 1, std::memory_order_acq_rel)) {
  }
  if (txn->LoggingEnabled()) txn->StageWriteCopy(oid_, true, dest, redo);
  return true;
}

bool DataTable::Delete(transaction::TransactionContext *txn, TupleSlot slot) {
  EnsureHot(slot.GetBlock());
  std::atomic<UndoRecord *> &version_ptr = accessor_.VersionPtr(slot);
  UndoRecord *undo = nullptr;
  while (true) {
    UndoRecord *head = version_ptr.load(std::memory_order_seq_cst);
    if (HasConflict(*txn, head) || !accessor_.Allocated(slot)) {
      if (HasConflict(*txn, head)) metrics::Storage().write_write_conflicts->Add(1);
      if (undo != nullptr) undo->SetTableNull();
      return false;
    }
    // Full-row before-image: the compactor may later recycle this slot's
    // bytes while old readers still reconstruct the deleted tuple
    // (Section 4.3).
    if (undo == nullptr) undo = txn->UndoRecordForDelete(this, slot, full_row_initializer_);
    for (uint16_t i = 0; i < undo->Delta()->NumColumns(); i++) {
      StorageUtil::CopyAttrIntoProjection(accessor_, slot, undo->Delta(), i);
    }
    // relaxed: the record is still private to this thread; the successful
    // CAS below publishes the whole record (Next included) to readers.
    undo->Next().store(head, std::memory_order_relaxed);
    if (version_ptr.compare_exchange_strong(head, undo, std::memory_order_seq_cst)) break;
  }
  accessor_.SetDeallocated(slot);
  if (txn->LoggingEnabled()) txn->StageDelete(oid_, slot);
  metrics::Storage().deletes->Add(1);
  return true;
}

bool DataTable::HasActiveVersions(RawBlock *block) const {
  const auto *version_column = reinterpret_cast<const std::atomic<UndoRecord *> *>(
      reinterpret_cast<const byte *>(block) + GetLayout().VersionPtrOffset());
  const uint32_t limit = block->insert_head.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < limit; i++) {
    if (version_column[i].load(std::memory_order_acquire) != nullptr) return true;
  }
  return false;
}

RawBlock *DataTable::NewBlock() {
  RawBlock *block = block_store_->Get();
  MAINLINE_ASSERT(block != nullptr, "block store exhausted");
  accessor_.InitializeRawBlock(this, block);
  common::SharedLatch::ScopedExclusiveLatch guard(&blocks_latch_);
  blocks_.push_back(block);
  return block;
}

bool DataTable::ScheduleBlockRelease(RawBlock *block) {
  common::SharedLatch::ScopedExclusiveLatch guard(&blocks_latch_);
  if (std::find(blocks_.begin(), blocks_.end(), block) == blocks_.end()) return false;
  return pending_release_.insert(block).second;
}

bool DataTable::ReleaseBlock(RawBlock *block) {
  {
    common::SharedLatch::ScopedExclusiveLatch guard(&blocks_latch_);
    // Whatever happens below, the reservation is consumed: a declined
    // release leaves the block attached and a later pass may reschedule it.
    pending_release_.erase(block);
    // Membership next, by pointer comparison only — never dereference a
    // block that is no longer attached.
    const auto it = std::find(blocks_.begin(), blocks_.end(), block);
    if (it == blocks_.end()) return false;
    // The active insertion block must stay attached even when the compactor
    // emptied it: concurrent inserts are still allowed to claim slots from
    // it. It simply remains in the table, empty, and fills up again.
    if (insertion_block_.load(std::memory_order_acquire) == block) return false;
    // The block may also have been refilled between the compactor emptying
    // it and this deferred release (it was the insertion block in that
    // window). Slots are never re-allocated once a block rolls over, so a
    // block that is empty and not the insertion block stays empty.
    if (FilledSlots(block) != 0) return false;
    blocks_.erase(it);
  }
  delete block->arrow_metadata;
  block_store_->Release(block);
  return true;
}

}  // namespace mainline::storage
