#include "transaction/transaction_manager.h"

#include <algorithm>

#include "logging/log_manager.h"
#include "logging/log_record.h"
#include "metrics/engine_metrics.h"
#include "storage/data_table.h"
#include "storage/storage_defs.h"
#include "storage/storage_util.h"
#include "storage/tuple_access_strategy.h"
#include "storage/undo_record.h"

namespace mainline::transaction {

TransactionManager::TransactionManager(storage::RecordBufferSegmentPool *buffer_pool,
                                       bool /*gc_enabled*/, logging::LogManager *log_manager)
    : buffer_pool_(buffer_pool), log_manager_(log_manager) {
  if (log_manager_ != nullptr) {
    // The log manager reports each flushed batch, in commit order. Its redo
    // records are serialized by then and the GC reads only undo records, so
    // the redo segments go back to the pool now instead of waiting out the
    // GC backlog; the batch joins the GC queue under one latch acquisition.
    log_manager_->SetFinishedCallback(
        +[](void *context, const std::vector<logging::LogSubmission> &batch) {
          auto *self = static_cast<TransactionManager *>(context);
          for (const logging::LogSubmission &submission : batch) {
            auto *txn = static_cast<TransactionContext *>(submission.handle);
            txn->redo_records_.clear();
            txn->redo_buffer_.Release();
          }
          common::SpinLatch::ScopedSpinLatch guard(&self->completed_latch_);
          for (const logging::LogSubmission &submission : batch) {
            self->completed_txns_.push_back(static_cast<TransactionContext *>(submission.handle));
          }
        },
        this);
  }
}

TransactionManager::~TransactionManager() {
  // Stop the flush thread and drain queued submissions while this manager
  // can still receive them; afterwards nothing submits (commits come only
  // from here), so the paired LogManager may be destroyed at leisure.
  if (log_manager_ != nullptr) log_manager_->Shutdown();
  for (TransactionContext *txn : completed_txns_) DeallocateTransaction(txn);
}

void TransactionManager::DeallocateTransaction(TransactionContext *txn) {
  if (!txn->Aborted()) {
    for (storage::UndoRecord *undo : txn->UndoRecords()) {
      storage::DataTable *table = undo->Table();
      if (table == nullptr || undo->Type() == storage::DeltaType::kInsert) continue;
      storage::StorageUtil::DeallocateVarlensInDelta(table->GetLayout(), *undo->Delta());
    }
  }
  delete txn;
}

TransactionContext *TransactionManager::BeginTransaction() {
  timestamp_t start;
  {
    // Under commit_latch_, a start timestamp cannot fall between a commit's
    // timestamp draw and the stamping of its undo records: a snapshot taken
    // after that commit time would otherwise see the commit's versions as
    // uncommitted, read past them, and later overwrite them without a
    // conflict (a lost update).
    common::SpinLatch::ScopedSpinLatch commit_guard(&commit_latch_);
    common::SpinLatch::ScopedSpinLatch guard(&curr_running_latch_);
    start = time_++;
    curr_running_.insert(start);
  }
  auto *txn = new TransactionContext(start, start | kUncommittedMask, buffer_pool_);
  txn->logging_enabled_ = log_manager_ != nullptr;
  metrics::Txn().begins->Add(1);
  return txn;
}

timestamp_t TransactionManager::Commit(TransactionContext *txn,
                                       logging::CommitRecord::DurabilityCallback callback,
                                       void *callback_arg) {
  const timestamp_t start_time = txn->StartTime();
  MAINLINE_ASSERT(!txn->aborted_, "cannot commit an aborted transaction");
  // The contract is assert-enforced only: in NDEBUG builds a contract-
  // violating commit leaks the failed redo's varlens rather than freeing
  // them here, because loose_varlens_ cannot distinguish a failed write's
  // orphaned buffers from installed, table-owned ones (a retry that
  // succeeded registers the same buffer as table-owned) — freeing on this
  // path could turn a bounded leak into a use-after-free.
  MAINLINE_ASSERT(!txn->MustAbort(),
                  "a transaction whose write failed must abort (its failed redo's varlens are "
                  "reclaimed only by Abort)");
  txn->loose_varlens_.clear();  // committed values now owned by block storage
  logging::CommitRecord *commit_record = nullptr;
  if (log_manager_ != nullptr) {
    logging::LogRecord *record = logging::CommitRecord::Initialize(
        txn->ReserveCommitRecord(), start_time, txn->IsReadOnly(), callback, callback_arg);
    txn->redo_records_.push_back(record);
    commit_record = record->GetUnderlyingRecordBodyAs<logging::CommitRecord>();
  }
  timestamp_t commit_time;
  {
    // The small commit critical section of Section 3.1: obtain the commit
    // timestamp, stamp the delta records and, with logging, queue the
    // records, so the log is in commit order (a transaction that read
    // another's write is logged after it). Nothing here allocates, makes a
    // system call or waits, except on the log's queue latch. The flush
    // thread and the GC may read txn once it is queued: nothing touches it
    // after the Submit.
    common::SpinLatch::ScopedSpinLatch guard(&commit_latch_);
    commit_time = time_++;
    for (storage::UndoRecord *undo : txn->UndoRecords()) {
      undo->Timestamp().store(commit_time, std::memory_order_release);
    }
    txn->finish_time_.store(commit_time, std::memory_order_release);
    if (commit_record != nullptr) {
      commit_record->SetCommitTime(commit_time);
      log_manager_->Submit(logging::LogSubmission{&txn->RedoRecords(), txn});
    }
  }
  if (log_manager_ != nullptr) {
    log_manager_->WakeFlushThread();
  } else if (callback != nullptr) {
    callback(callback_arg);
  }

  {
    common::SpinLatch::ScopedSpinLatch guard(&curr_running_latch_);
    curr_running_.erase(curr_running_.find(start_time));
  }
  // With logging, the log manager forwards the transaction to the GC queue
  // only after its records are serialized, so the GC can never reclaim
  // varlen buffers the serializer still references.
  if (log_manager_ == nullptr) TransactionFinished(txn);
  metrics::Txn().commits->Add(1);
  return commit_time;
}

timestamp_t TransactionManager::Abort(TransactionContext *txn) {
  Rollback(txn);
  // Stamp the undo records with a fresh, committed-looking timestamp
  // (Section 3.1): readers that copied the aborted version repair it by
  // applying the restored before-image; the records are never unlinked here,
  // which avoids the A-B-A race.
  const timestamp_t abort_time = time_++;
  for (storage::UndoRecord *undo : txn->UndoRecords()) {
    if (undo->Table() == nullptr) continue;
    undo->Timestamp().store(abort_time, std::memory_order_release);
  }
  // New varlen values written by this transaction were orphaned by the
  // rollback; uncommitted values are never visible, so free them now. A
  // caller that retried a failed write with the same redo may have
  // registered a buffer twice — dedup before freeing.
  std::sort(txn->loose_varlens_.begin(), txn->loose_varlens_.end());
  txn->loose_varlens_.erase(
      std::unique(txn->loose_varlens_.begin(), txn->loose_varlens_.end()),
      txn->loose_varlens_.end());
  for (const byte *varlen : txn->loose_varlens_) delete[] varlen;
  txn->loose_varlens_.clear();
  txn->aborted_ = true;
  txn->finish_time_.store(abort_time, std::memory_order_release);
  {
    common::SpinLatch::ScopedSpinLatch guard(&curr_running_latch_);
    curr_running_.erase(curr_running_.find(txn->StartTime()));
  }
  TransactionFinished(txn);
  metrics::Txn().aborts->Add(1);
  return abort_time;
}

void TransactionManager::Rollback(TransactionContext *txn) {
  // Restore before-images newest-first so repeated writes to one tuple
  // unwind correctly.
  auto &undos = txn->UndoRecords();
  for (auto it = undos.rbegin(); it != undos.rend(); ++it) {
    storage::UndoRecord *undo = *it;
    storage::DataTable *table = undo->Table();
    if (table == nullptr) continue;  // never installed
    const storage::TupleAccessStrategy &accessor = table->Accessor();
    switch (undo->Type()) {
      case storage::DeltaType::kUpdate:
        for (uint16_t i = 0; i < undo->Delta()->NumColumns(); i++) {
          storage::StorageUtil::CopyAttrFromProjection(accessor, undo->Slot(), *undo->Delta(),
                                                       i);
        }
        break;
      case storage::DeltaType::kInsert:
        accessor.SetDeallocated(undo->Slot());
        break;
      case storage::DeltaType::kDelete:
        accessor.SetAllocated(undo->Slot());
        break;
    }
  }
}

void TransactionManager::TransactionFinished(TransactionContext *txn) {
  common::SpinLatch::ScopedSpinLatch guard(&completed_latch_);
  completed_txns_.push_back(txn);
}

timestamp_t TransactionManager::OldestTransactionStartTime() {
  common::SpinLatch::ScopedSpinLatch guard(&curr_running_latch_);
  return curr_running_.empty() ? time_.load(std::memory_order_acquire) : *curr_running_.begin();
}

std::vector<TransactionContext *> TransactionManager::CompletedTransactionsForGC() {
  common::SpinLatch::ScopedSpinLatch guard(&completed_latch_);
  std::vector<TransactionContext *> result;
  result.swap(completed_txns_);
  return result;
}

}  // namespace mainline::transaction
