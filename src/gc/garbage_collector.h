#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/spin_latch.h"
#include "common/thread_annotations.h"
#include "common/typedefs.h"
#include "gc/write_observer.h"
#include "storage/data_table.h"
#include "storage/storage_defs.h"

namespace mainline::transaction {
class TransactionManager;
class TransactionContext;
}

namespace mainline::gc {

/// Epoch-based garbage collector (Section 3.3).
///
/// Each run consumes a prefix of two timestamp-ordered queues, where
/// `oldest` is the start time of the oldest active transaction:
///
/// 1. **Unlink queue**: finished transactions in finish-time order. Those
///    that finished before `oldest` are invisible to everyone; their version
///    chains are truncated (each chain exactly once per run, avoiding the
///    quadratic per-record unlink). The run stops at the first transaction
///    some active transaction may still see.
/// 2. **Reclamation FIFO**: `(stamp, entry)` pairs, where an entry deletes an
///    unlinked transaction or runs a deferred action (used by the gathering
///    phase to reclaim replaced varlen buffers, Section 4.4). Unlinked
///    records may still be traversed by readers that started before the
///    unlink, so a run's unlinked transactions are stamped after their chains
///    are truncated, and an entry runs only once `oldest` passes its stamp —
///    an epoch-protection mechanism. Stamps are drawn under the FIFO's latch,
///    so the FIFO stays sorted and a run pops its ready prefix.
class GarbageCollector {
 public:
  explicit GarbageCollector(transaction::TransactionManager *txn_manager)
      : txn_manager_(txn_manager) {}

  DISALLOW_COPY_AND_MOVE(GarbageCollector)

  ~GarbageCollector();

  /// Run one unlink + deallocate pass.
  /// \return {transactions deallocated, transactions unlinked}.
  std::pair<uint32_t, uint32_t> PerformGarbageCollection();

  /// Register an action to run once every transaction active now has
  /// finished (epoch protection for non-transactional memory reclamation).
  /// Actions run in registration order, on the thread that runs the GC.
  void RegisterDeferredAction(std::function<void()> action) EXCLUDES(actions_latch_);

  /// Attach (or detach, with nullptr) the access observer fed with per-block
  /// modification statistics. Atomic release store: tests detach observers
  /// while a GarbageCollectorThread may be mid-pass, and the paired acquire
  /// load in PerformGarbageCollection must see a fully constructed observer.
  void SetAccessObserver(WriteObserver *observer) {
    observer_.store(observer, std::memory_order_release);
  }

  /// Run GC to quiescence: repeated passes until nothing remains. Only safe
  /// when no transactions are running. Used at shutdown and in tests.
  void FullGC();

 private:
  /// One reclamation entry: delete `txn` if it is set, else run `action`.
  struct Reclamation {
    transaction::timestamp_t stamp;
    transaction::TransactionContext *txn;
    std::function<void()> action;
  };

  uint32_t ProcessUnlinkQueue(transaction::timestamp_t oldest) EXCLUDES(actions_latch_);
  /// \return the number of transactions deleted.
  uint32_t ProcessReclamations(transaction::timestamp_t oldest) EXCLUDES(actions_latch_);
  static void TruncateVersionChain(storage::DataTable *table, storage::TupleSlot slot,
                                   transaction::timestamp_t oldest);

  transaction::TransactionManager *txn_manager_;
  std::atomic<WriteObserver *> observer_{nullptr};

  // GC-thread-only state: PerformGarbageCollection is single-caller by
  // contract (one GC thread, or tests calling it inline), so the unlink
  // queue needs no latch. Sorted by finish time, which each entry caches.
  std::vector<std::pair<transaction::timestamp_t, transaction::TransactionContext *>>
      txns_to_unlink_;

  // Guards the reclamation FIFO, which RegisterDeferredAction feeds from
  // other threads. Every stamp is drawn while it is held; entries run after
  // it is dropped.
  common::SpinLatch actions_latch_;
  std::deque<Reclamation> reclamations_ GUARDED_BY(actions_latch_);
};

}  // namespace mainline::gc
