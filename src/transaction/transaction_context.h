#pragma once

#include <atomic>
#include <vector>

#include "common/macros.h"
#include "common/typedefs.h"
#include "logging/log_record.h"
#include "storage/projected_row.h"
#include "storage/record_buffer.h"
#include "storage/storage_defs.h"
#include "storage/undo_record.h"
#include "storage/varlen_entry.h"

namespace mainline::storage {
class DataTable;
}

namespace mainline::transaction {

class TransactionManager;

/// Per-transaction state (Section 3.1): the start/commit timestamp pair, the
/// undo buffer holding this transaction's version-chain delta records, the
/// redo buffer staging write-ahead log records, and bookkeeping for
/// abort-time varlen reclamation.
///
/// TransactionContexts are created by the TransactionManager and reclaimed by
/// the garbage collector after their effects are globally invisible.
class TransactionContext {
 public:
  /// \param start begin timestamp
  /// \param txn_id start timestamp with the uncommitted sign bit set
  /// \param buffer_pool pool to draw undo/redo buffer segments from
  TransactionContext(timestamp_t start, timestamp_t txn_id,
                     storage::RecordBufferSegmentPool *buffer_pool)
      : start_time_(start),
        txn_id_(txn_id),
        undo_buffer_(buffer_pool),
        redo_buffer_(buffer_pool) {}

  DISALLOW_COPY_AND_MOVE(TransactionContext)

  /// \return this transaction's begin timestamp.
  timestamp_t StartTime() const { return start_time_; }

  /// \return this transaction's id (begin timestamp with the sign bit set),
  /// used to stamp uncommitted versions.
  timestamp_t TxnId() const { return txn_id_; }

  /// \return commit (or abort) timestamp; kInvalidTimestamp while running.
  timestamp_t FinishTime() const { return finish_time_.load(std::memory_order_acquire); }

  /// \return true if this transaction was aborted.
  bool Aborted() const { return aborted_; }

  /// \return true if the transaction performed no writes.
  bool IsReadOnly() const { return undo_records_.empty() && redo_records_.empty(); }

  /// Reserve and initialize an undo record mirroring `delta`'s shape, stamped
  /// with this transaction's id. The data table populates the before-image.
  storage::UndoRecord *UndoRecordForUpdate(storage::DataTable *table, storage::TupleSlot slot,
                                           const storage::ProjectedRow &delta) {
    byte *head = undo_buffer_.NewEntry(storage::UndoRecord::SizeForUpdate(delta));
    auto *result = storage::UndoRecord::InitializeUpdate(head, txn_id_, slot, table, delta);
    undo_records_.push_back(result);
    return result;
  }

  /// Reserve an insert undo record ("tuple did not exist before").
  storage::UndoRecord *UndoRecordForInsert(storage::DataTable *table, storage::TupleSlot slot) {
    byte *head = undo_buffer_.NewEntry(storage::UndoRecord::SizeForInsert());
    auto *result = storage::UndoRecord::InitializeInsert(head, txn_id_, slot, table);
    undo_records_.push_back(result);
    return result;
  }

  /// Reserve a delete undo record carrying a full-row before-image.
  storage::UndoRecord *UndoRecordForDelete(storage::DataTable *table, storage::TupleSlot slot,
                                           const storage::ProjectedRowInitializer &full_row) {
    byte *head = undo_buffer_.NewEntry(storage::UndoRecord::SizeForDelete(full_row));
    auto *result = storage::UndoRecord::InitializeDelete(head, txn_id_, slot, table, full_row);
    undo_records_.push_back(result);
    return result;
  }

  /// All undo records created by this transaction, in creation order.
  std::vector<storage::UndoRecord *> &UndoRecords() { return undo_records_; }

  /// Stage a redo log record whose delta is copied from `redo`.
  logging::LogRecord *StageWriteCopy(catalog::table_oid_t table_oid, bool is_insert,
                                     const storage::ProjectedRow &redo) {
    byte *head = redo_buffer_.NewEntry(
        static_cast<uint32_t>(sizeof(logging::LogRecord) + sizeof(logging::RedoRecord)) +
        redo.Size());
    logging::LogRecord *record =
        logging::RedoRecord::InitializeByCopy(head, start_time_, table_oid, is_insert, redo);
    redo_records_.push_back(record);
    return record;
  }

  /// \return true if this transaction's writes go to the write-ahead log.
  bool LoggingEnabled() const { return logging_enabled_; }

  /// Stage a delete log record.
  void StageDelete(catalog::table_oid_t table_oid, storage::TupleSlot slot) {
    byte *head = redo_buffer_.NewEntry(logging::DeleteRecord::Size());
    redo_records_.push_back(logging::DeleteRecord::Initialize(head, start_time_, table_oid, slot));
  }

  /// All staged log records, in write order (commit record appended last by
  /// the transaction manager).
  std::vector<logging::LogRecord *> &RedoRecords() { return redo_records_; }

  /// Register a varlen buffer newly allocated by this transaction (an
  /// inserted or updated value). If the transaction aborts, the buffer is
  /// orphaned by rollback and freed immediately (uncommitted values are never
  /// visible, so no reader can retain a reference).
  void RegisterLooseVarlen(const storage::VarlenEntry &entry) {
    if (entry.NeedReclaim()) loose_varlens_.push_back(entry.Content());
  }

  /// Flag the transaction as required to abort: set when a write failed
  /// (write-write conflict), because the failed redo's varlens were handed
  /// to this transaction and only Abort reclaims them. Commit asserts this
  /// flag is clear.
  void SetMustAbort() { must_abort_ = true; }

  /// \return true if a failed write obligated this transaction to abort.
  bool MustAbort() const { return must_abort_; }

 private:
  friend class TransactionManager;

  byte *ReserveCommitRecord() { return redo_buffer_.NewEntry(logging::CommitRecord::Size()); }

  const timestamp_t start_time_;
  const timestamp_t txn_id_;
  std::atomic<timestamp_t> finish_time_{kInvalidTimestamp};
  storage::RecordBuffer undo_buffer_;
  storage::RecordBuffer redo_buffer_;
  std::vector<storage::UndoRecord *> undo_records_;
  std::vector<logging::LogRecord *> redo_records_;
  std::vector<const byte *> loose_varlens_;
  bool aborted_ = false;
  bool logging_enabled_ = false;
  bool must_abort_ = false;
};

}  // namespace mainline::transaction
