#pragma once

#include <atomic>
#include <set>
#include <vector>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/thread_annotations.h"
#include "common/typedefs.h"
#include "logging/log_record.h"
#include "storage/record_buffer.h"
#include "transaction/transaction_context.h"

namespace mainline::logging {
class LogManager;
}

namespace mainline::transaction {

/// Creates, commits, and aborts transactions (Section 3.1).
///
/// Start and commit timestamps are drawn from one global counter. A
/// transaction's id is its start timestamp with the sign bit flipped, marking
/// its versions uncommitted: because all timestamp comparisons are unsigned,
/// those versions are never visible to any reader. Commit executes a small
/// critical section that obtains the commit timestamp and stamps the
/// transaction's delta records. Write-write conflicts are disallowed (no
/// cascading rollbacks).
class TransactionManager {
 public:
  /// \param buffer_pool pool for undo/redo buffer segments
  /// \param gc_enabled ignored: finished transactions always wait in the
  ///        queue that CompletedTransactionsForGC drains, and this manager's
  ///        destructor frees whatever was never drained
  /// \param log_manager write-ahead log sink, or nullptr to run without
  ///        durability. The constructor installs this manager as the log
  ///        manager's finished-submission sink, so a LogManager pairs with
  ///        exactly one logging TransactionManager.
  TransactionManager(storage::RecordBufferSegmentPool *buffer_pool, bool gc_enabled,
                     logging::LogManager *log_manager);

  DISALLOW_COPY_AND_MOVE(TransactionManager)

  /// Shuts down and drains the log manager (if any) so in-flight submissions
  /// land back here, then destroys any finished transactions the GC did not
  /// reclaim. Tables must still be alive (their layouts are needed to free
  /// varlen before-images). Destroy this manager before the LogManager it
  /// logs to.
  ~TransactionManager();

  /// Begin a new transaction.
  /// \return the new transaction's context; ownership passes to the GC once
  /// the transaction finishes (to this manager until the GC drains it).
  TransactionContext *BeginTransaction() EXCLUDES(commit_latch_, curr_running_latch_);

  /// Commit `txn`. If logging is enabled, `callback(arg)` fires once the
  /// commit record is persistent; otherwise it fires before returning.
  /// Read-only transactions also obtain a commit record (Section 3.4) but the
  /// log manager elides writing it to disk.
  /// \return the commit timestamp.
  timestamp_t Commit(TransactionContext *txn,
                     logging::CommitRecord::DurabilityCallback callback = nullptr,
                     void *callback_arg = nullptr)
      EXCLUDES(commit_latch_, curr_running_latch_, completed_latch_);

  /// Abort `txn`: roll back its in-place changes in reverse order, then
  /// "commit" its undo records at a fresh timestamp by flipping the sign bit
  /// (Section 3.1's A-B-A-safe protocol — records are never unlinked here).
  /// \return the abort timestamp.
  timestamp_t Abort(TransactionContext *txn);

  /// \return begin timestamp of the oldest active transaction, or the current
  /// time if none are active. Everything committed strictly before this is
  /// invisible to all current and future transactions.
  timestamp_t OldestTransactionStartTime();

  /// \return a fresh timestamp (used by the GC to stamp unlink epochs).
  timestamp_t CheckoutTimestamp() { return time_++; }

  /// \return the current value of the global counter without advancing it.
  timestamp_t CurrentTime() const { return time_.load(std::memory_order_acquire); }

  /// Swap out the queue of finished transactions for GC processing, in
  /// completion order (with logging, committed ones join per flushed log
  /// batch, in commit order).
  std::vector<TransactionContext *> CompletedTransactionsForGC();

  /// Delete a finished transaction. A committed one first frees the varlen
  /// buffers its before-images own (the undo record holds the only reference
  /// to an old value); an aborted one's rollback put them back in the block.
  /// The tables its undo records name must still be alive.
  static void DeallocateTransaction(TransactionContext *txn);

 private:
  void Rollback(TransactionContext *txn);
  void TransactionFinished(TransactionContext *txn) EXCLUDES(completed_latch_);

  std::atomic<timestamp_t> time_{kInitialTimestamp + 1};
  // Latch order: commit_latch_, then curr_running_latch_ (BeginTransaction
  // holds both; nothing takes them the other way round).
  common::SpinLatch curr_running_latch_ ACQUIRED_AFTER(commit_latch_);
  std::multiset<timestamp_t> curr_running_ GUARDED_BY(curr_running_latch_);
  // Serializes the commit critical section (timestamp draw, delta stamping,
  // log submission) against itself and against start-timestamp draws; it
  // guards an ordering invariant, not data — the fields it orders are the
  // delta records' atomics and the log queue's order. Referenced by Commit's
  // and BeginTransaction's EXCLUDES. Latch order: commit_latch_ first, then
  // curr_running_latch_ or LogManager's queue_latch_ (a leaf).
  common::SpinLatch commit_latch_;
  common::SpinLatch completed_latch_;
  std::vector<TransactionContext *> completed_txns_ GUARDED_BY(completed_latch_);

  storage::RecordBufferSegmentPool *buffer_pool_;
  logging::LogManager *log_manager_;
};

}  // namespace mainline::transaction
