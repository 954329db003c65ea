#include "gc/garbage_collector.h"

#include <unordered_set>

#include "metrics/engine_metrics.h"
#include "storage/data_table.h"
#include "storage/storage_util.h"
#include "storage/undo_record.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"

namespace mainline::gc {

GarbageCollector::~GarbageCollector() {
  FullGC();
  // Anything left could not be reclaimed (should not happen once all
  // transactions have finished); free the contexts to avoid leaks.
  for (auto *txn : txns_to_unlink_) DeallocateTransaction(txn);
  for (auto &[ts, txn] : txns_to_deallocate_) DeallocateTransaction(txn);
}

std::pair<uint32_t, uint32_t> GarbageCollector::PerformGarbageCollection() {
  const transaction::timestamp_t oldest = txn_manager_->OldestTransactionStartTime();
  const uint32_t deallocated = ProcessDeallocateQueue(oldest);
  ProcessDeferredActions(oldest);
  const uint32_t unlinked = ProcessUnlinkQueue(oldest);
  // Close the epoch after its writes are reported, so none looks cold early.
  WriteObserver *observer = observer_.load(std::memory_order_acquire);
  if (observer != nullptr) observer->NewEpoch();

  metrics::GcMetrics &gc_metrics = metrics::Gc();
  gc_metrics.txns_unlinked->Add(unlinked);
  gc_metrics.txns_deallocated->Add(deallocated);
  size_t pending_actions;
  {
    common::SpinLatch::ScopedSpinLatch guard(&actions_latch_);
    pending_actions = deferred_actions_.size();
  }
  gc_metrics.backlog->Set(static_cast<int64_t>(txns_to_unlink_.size() +
                                               txns_to_deallocate_.size() + pending_actions));
  return {deallocated, unlinked};
}

void GarbageCollector::FullGC() {
  // Two passes move everything through unlink; a third deallocates (the
  // deallocate epoch advances because CheckoutTimestamp ticks the counter).
  for (int i = 0; i < 3; i++) PerformGarbageCollection();
}

uint32_t GarbageCollector::ProcessUnlinkQueue(transaction::timestamp_t oldest) {
  std::vector<transaction::TransactionContext *> drained =
      txn_manager_->CompletedTransactionsForGC();
  // Feed the access observer at drain time: the GC epoch approximates each
  // modification's timestamp (Section 4.2).
  WriteObserver *observer = observer_.load(std::memory_order_acquire);
  if (observer != nullptr) {
    for (transaction::TransactionContext *txn : drained) {
      for (storage::UndoRecord *undo : txn->UndoRecords()) {
        if (undo->Table() == nullptr) continue;
        observer->ObserveWrite(undo->Slot().GetBlock());
      }
    }
  }
  txns_to_unlink_.insert(txns_to_unlink_.end(), drained.begin(), drained.end());

  uint32_t unlinked = 0;
  std::vector<transaction::TransactionContext *> still_pending;
  // Each version chain only needs truncating once per run.
  std::unordered_set<storage::TupleSlot> visited;
  const transaction::timestamp_t unlink_time = txn_manager_->CheckoutTimestamp();

  for (transaction::TransactionContext *txn : txns_to_unlink_) {
    if (txn->FinishTime() >= oldest) {
      // Still visible to some active transaction; retry next run.
      still_pending.push_back(txn);
      continue;
    }
    for (storage::UndoRecord *undo : txn->UndoRecords()) {
      storage::DataTable *table = undo->Table();
      if (table == nullptr) continue;  // never installed
      if (!visited.insert(undo->Slot()).second) continue;
      TruncateVersionChain(table, undo->Slot(), oldest);
    }
    txns_to_deallocate_.emplace_back(unlink_time, txn);
    unlinked++;
  }
  txns_to_unlink_ = std::move(still_pending);
  return unlinked;
}

void GarbageCollector::TruncateVersionChain(storage::DataTable *table, storage::TupleSlot slot,
                                            transaction::timestamp_t oldest) {
  std::atomic<storage::UndoRecord *> &version_ptr = table->Accessor().VersionPtr(slot);
  while (true) {
    storage::UndoRecord *head = version_ptr.load(std::memory_order_seq_cst);
    if (head == nullptr) return;
    // If even the newest record is invisible to every active and future
    // transaction, the whole chain can go. A concurrent writer may install a
    // new head and win the CAS race; retry in that case.
    if (head->Timestamp().load(std::memory_order_acquire) < oldest) {
      if (version_ptr.compare_exchange_strong(head, nullptr, std::memory_order_seq_cst)) return;
      continue;
    }
    break;
  }
  // The head must stay; walk down and cut at the first invisible record.
  // Only the GC modifies interior next pointers, so a plain store suffices;
  // concurrent readers see either the old tail (still allocated until the
  // deallocate epoch) or the shortened chain, both of which reconstruct the
  // same versions.
  storage::UndoRecord *cur = version_ptr.load(std::memory_order_seq_cst);
  while (cur != nullptr) {
    storage::UndoRecord *next = cur->Next().load(std::memory_order_acquire);
    if (next != nullptr && next->Timestamp().load(std::memory_order_acquire) < oldest) {
      cur->Next().store(nullptr, std::memory_order_release);
      return;
    }
    cur = next;
  }
}

uint32_t GarbageCollector::ProcessDeallocateQueue(transaction::timestamp_t oldest) {
  uint32_t deallocated = 0;
  std::vector<std::pair<transaction::timestamp_t, transaction::TransactionContext *>>
      still_pending;
  for (auto &[unlink_time, txn] : txns_to_deallocate_) {
    // Safe once every transaction that could have been traversing the
    // unlinked records (i.e. started before the unlink) has finished.
    if (unlink_time < oldest) {
      DeallocateTransaction(txn);
      deallocated++;
    } else {
      still_pending.emplace_back(unlink_time, txn);
    }
  }
  txns_to_deallocate_ = std::move(still_pending);
  return deallocated;
}

void GarbageCollector::DeallocateTransaction(transaction::TransactionContext *txn) {
  // Free owned varlen buffers referenced by before-images: after a committed
  // update or delete, the undo record holds the only reference to the old
  // value. Aborted transactions are excluded: their rollback restored the
  // before-image, so the block still references those buffers (the aborted
  // new values were freed eagerly at abort time instead).
  if (!txn->Aborted()) {
    for (storage::UndoRecord *undo : txn->UndoRecords()) {
      storage::DataTable *table = undo->Table();
      if (table == nullptr || undo->Type() == storage::DeltaType::kInsert) continue;
      storage::StorageUtil::DeallocateVarlensInDelta(table->GetLayout(), *undo->Delta());
    }
  }
  delete txn;
}

void GarbageCollector::RegisterDeferredAction(std::function<void()> action) {
  const transaction::timestamp_t now = txn_manager_->CheckoutTimestamp();
  common::SpinLatch::ScopedSpinLatch guard(&actions_latch_);
  deferred_actions_.emplace_back(now, std::move(action));
}

void GarbageCollector::ProcessDeferredActions(transaction::timestamp_t oldest) {
  std::vector<std::function<void()>> runnable;
  {
    common::SpinLatch::ScopedSpinLatch guard(&actions_latch_);
    std::vector<std::pair<transaction::timestamp_t, std::function<void()>>> still_pending;
    for (auto &[ts, action] : deferred_actions_) {
      if (ts < oldest) {
        runnable.push_back(std::move(action));
      } else {
        still_pending.emplace_back(ts, std::move(action));
      }
    }
    deferred_actions_ = std::move(still_pending);
  }
  for (auto &action : runnable) action();
}

}  // namespace mainline::gc
