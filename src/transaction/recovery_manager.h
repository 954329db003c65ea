#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "common/macros.h"
#include "common/typedefs.h"
#include "storage/storage_defs.h"

namespace mainline::storage {
class DataTable;
}

namespace mainline::transaction {

class TransactionManager;

/// Rebuilds table contents from a serialized write-ahead log (Section 3.4).
///
/// The log contains no log sequence numbers: records are ordered implicitly
/// by their transaction's commit timestamp. Recovery therefore reads the
/// log's durable prefix — everything up to the first torn record or unknown
/// type byte — groups records by transaction, discards transactions without
/// a complete commit record in that prefix (aborted or in-flight at the
/// crash), and replays committed transactions in commit-timestamp order.
///
/// TupleSlots in the log are physical addresses from the previous process
/// lifetime; the recovery manager remaps them to freshly inserted slots as it
/// replays.
class RecoveryManager {
 public:
  /// \param tables map from table oid to the (empty) table to replay into
  /// \param txn_manager transaction manager of the recovering instance (must
  ///        have logging disabled to avoid re-logging the replay)
  RecoveryManager(std::unordered_map<catalog::table_oid_t, storage::DataTable *> tables,
                  TransactionManager *txn_manager)
      : tables_(std::move(tables)), txn_manager_(txn_manager) {}

  DISALLOW_COPY_AND_MOVE(RecoveryManager)

  /// Replay the log at `log_file_path`.
  /// \return number of transactions replayed.
  uint64_t Recover(const std::string &log_file_path);

  /// \return the slot remapping built during the last Recover call (old
  /// physical slot -> new slot). Exposed for index rebuilds.
  const std::unordered_map<storage::TupleSlot, storage::TupleSlot> &SlotMap() const {
    return slot_map_;
  }

 private:
  std::unordered_map<catalog::table_oid_t, storage::DataTable *> tables_;
  TransactionManager *txn_manager_;
  std::unordered_map<storage::TupleSlot, storage::TupleSlot> slot_map_;
};

}  // namespace mainline::transaction
