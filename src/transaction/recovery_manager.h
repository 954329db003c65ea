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
/// log's durable prefix, groups records by transaction, discards
/// transactions without a commit record in that prefix (aborted or in-flight
/// at the crash), and replays committed transactions in commit-timestamp
/// order. The log is a sequence of frames (logging::FrameHeader), and the
/// prefix ends at the first frame that is missing or damaged: a zero length
/// (the zeroed tail a running log keeps past its last frame), a frame cut
/// short, or a CRC mismatch (a torn or corrupt write). Inside an intact
/// frame it also ends at an unknown type byte, a table oid missing from
/// `tables`, or a column id past its table's layout. So a table left out of
/// `tables` ends the replay at its first record, with no error: that
/// transaction and every one whose commit record follows are lost, for all
/// tables. Register every table the log names.
///
/// TupleSlots in the log are physical addresses from the previous process
/// lifetime; the recovery manager remaps them to freshly inserted slots as it
/// replays.
class RecoveryManager {
 public:
  /// \param tables map from table oid to the (empty) table to replay into;
  ///        must hold every table the log names, since a record naming a
  ///        missing oid ends the replay
  /// \param txn_manager transaction manager of the recovering instance (must
  ///        have logging disabled to avoid re-logging the replay)
  RecoveryManager(std::unordered_map<catalog::table_oid_t, storage::DataTable *> tables,
                  TransactionManager *txn_manager)
      : tables_(std::move(tables)), txn_manager_(txn_manager) {}

  DISALLOW_COPY_AND_MOVE(RecoveryManager)

  /// Replay the log at `log_file_path`.
  /// \return number of transactions replayed.
  uint64_t Recover(const std::string &log_file_path);

 private:
  std::unordered_map<catalog::table_oid_t, storage::DataTable *> tables_;
  TransactionManager *txn_manager_;
  std::unordered_map<storage::TupleSlot, storage::TupleSlot> slot_map_;
};

}  // namespace mainline::transaction
