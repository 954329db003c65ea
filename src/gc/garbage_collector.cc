#include "gc/garbage_collector.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "metrics/engine_metrics.h"
#include "storage/data_table.h"
#include "storage/raw_block.h"
#include "storage/undo_record.h"
#include "transaction/transaction_context.h"
#include "transaction/transaction_manager.h"

namespace mainline::gc {

GarbageCollector::~GarbageCollector() {
  FullGC();
  // Anything left could not be reclaimed (should not happen once all
  // transactions have finished); free the contexts to avoid leaks.
  for (auto &[finish_time, txn] : txns_to_unlink_) {
    transaction::TransactionManager::DeallocateTransaction(txn);
  }
  for (Reclamation &entry : reclamations_) {
    if (entry.txn != nullptr) transaction::TransactionManager::DeallocateTransaction(entry.txn);
  }
}

std::pair<uint32_t, uint32_t> GarbageCollector::PerformGarbageCollection() {
  const transaction::timestamp_t oldest = txn_manager_->OldestTransactionStartTime();
  const uint32_t deallocated = ProcessReclamations(oldest);
  const uint32_t unlinked = ProcessUnlinkQueue(oldest);
  // Close the epoch after its writes are reported, so none looks cold early.
  WriteObserver *observer = observer_.load(std::memory_order_acquire);
  if (observer != nullptr) observer->NewEpoch();

  metrics::GcMetrics &gc_metrics = metrics::Gc();
  gc_metrics.txns_unlinked->Add(unlinked);
  gc_metrics.txns_deallocated->Add(deallocated);
  size_t pending_reclamations;
  {
    common::SpinLatch::ScopedSpinLatch guard(&actions_latch_);
    pending_reclamations = reclamations_.size();
  }
  gc_metrics.backlog->Set(static_cast<int64_t>(txns_to_unlink_.size() + pending_reclamations));
  return {deallocated, unlinked};
}

void GarbageCollector::FullGC() {
  // Two passes move everything through unlink; a third deallocates (the
  // reclamation stamps advance because CheckoutTimestamp ticks the counter).
  for (int i = 0; i < 3; i++) PerformGarbageCollection();
}

uint32_t GarbageCollector::ProcessUnlinkQueue(transaction::timestamp_t oldest) {
  std::vector<transaction::TransactionContext *> drained =
      txn_manager_->CompletedTransactionsForGC();
  // Feed the access observer at drain time: the GC epoch approximates each
  // modification's timestamp (Section 4.2). A transaction's writes cluster
  // in few blocks, so the observer hears once per run of one block.
  WriteObserver *observer = observer_.load(std::memory_order_acquire);
  if (observer != nullptr) {
    storage::RawBlock *last = nullptr;
    for (transaction::TransactionContext *txn : drained) {
      for (storage::UndoRecord *undo : txn->UndoRecords()) {
        if (undo->Table() == nullptr || undo->Slot().GetBlock() == last) continue;
        last = undo->Slot().GetBlock();
        observer->ObserveWrite(last);
      }
    }
  }
  // Transactions arrive in completion order, not finish-time order; sort the
  // batch and merge it in, so the unlinkable transactions form a prefix.
  const auto by_finish_time = [](const auto &a, const auto &b) { return a.first < b.first; };
  const auto batch = static_cast<std::ptrdiff_t>(txns_to_unlink_.size());
  for (transaction::TransactionContext *txn : drained) {
    txns_to_unlink_.emplace_back(txn->FinishTime(), txn);
  }
  std::sort(txns_to_unlink_.begin() + batch, txns_to_unlink_.end(), by_finish_time);
  std::inplace_merge(txns_to_unlink_.begin(), txns_to_unlink_.begin() + batch,
                     txns_to_unlink_.end(), by_finish_time);

  // Transactions finished at or after `oldest` are still visible to some
  // active transaction; they wait for a later run.
  const auto visible =
      std::partition_point(txns_to_unlink_.begin(), txns_to_unlink_.end(),
                           [oldest](const auto &entry) { return entry.first < oldest; });
  if (visible == txns_to_unlink_.begin()) return 0;
  // Each version chain only needs truncating once per run: sort the written
  // slots, which also walks the blocks in address order, and skip repeats.
  std::vector<std::pair<storage::TupleSlot, storage::DataTable *>> written;
  for (auto it = txns_to_unlink_.begin(); it != visible; ++it) {
    for (storage::UndoRecord *undo : it->second->UndoRecords()) {
      if (undo->Table() == nullptr) continue;  // never installed
      written.emplace_back(undo->Slot(), undo->Table());
    }
  }
  const auto by_slot = [](const auto &a, const auto &b) { return a.first < b.first; };
  std::sort(written.begin(), written.end(), by_slot);
  for (size_t i = 0; i < written.size(); i++) {
    if (i > 0 && written[i].first == written[i - 1].first) continue;
    TruncateVersionChain(written[i].second, written[i].first, oldest);
  }
  {
    // Stamped after the truncation: a reader that began before it may still
    // be traversing the unlinked records.
    common::SpinLatch::ScopedSpinLatch guard(&actions_latch_);
    const transaction::timestamp_t stamp = txn_manager_->CheckoutTimestamp();
    for (auto it = txns_to_unlink_.begin(); it != visible; ++it) {
      reclamations_.push_back({stamp, it->second, nullptr});
    }
  }
  const auto unlinked = static_cast<uint32_t>(visible - txns_to_unlink_.begin());
  txns_to_unlink_.erase(txns_to_unlink_.begin(), visible);
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
  // concurrent readers see either the old tail (still allocated until its
  // reclamation entry runs) or the shortened chain, both of which
  // reconstruct the same versions.
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

void GarbageCollector::RegisterDeferredAction(std::function<void()> action) {
  common::SpinLatch::ScopedSpinLatch guard(&actions_latch_);
  reclamations_.push_back({txn_manager_->CheckoutTimestamp(), nullptr, std::move(action)});
}

uint32_t GarbageCollector::ProcessReclamations(transaction::timestamp_t oldest) {
  // Safe once every transaction that started before an entry's stamp has
  // finished. Stamps grow along the FIFO, so the ready entries are a prefix.
  std::vector<Reclamation> ready;
  {
    common::SpinLatch::ScopedSpinLatch guard(&actions_latch_);
    while (!reclamations_.empty() && reclamations_.front().stamp < oldest) {
      ready.push_back(std::move(reclamations_.front()));
      reclamations_.pop_front();
    }
  }
  uint32_t deallocated = 0;
  for (Reclamation &entry : ready) {
    if (entry.txn == nullptr) {
      entry.action();
      continue;
    }
    transaction::TransactionManager::DeallocateTransaction(entry.txn);
    deallocated++;
  }
  return deallocated;
}

}  // namespace mainline::gc
